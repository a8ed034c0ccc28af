"""The parallel presignature forge: a service on a multi-CPU machine
fans the whole pool deficit across a process pool and still produces
valid, deterministic presignatures whatever the pool's width; a member
crashing mid-forge leaves nothing of its nonce in the pool; a failing
pool degrades to the serial forge; ops reports the acceleration status;
no forge worker outlives its service.  A single nonce is forged in
process while the process's one forge lane is free, and in the pool
while it is held; the forge runs under one PKI, enrolled once per
process for the service's life; the pool's in-flight gauge counts every
concurrent call."""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import deployment
from repro.crypto import parallel, schnorr
from repro.crypto.feldman import share_verifier
from repro.dkg import DkgConfig
from repro.dkg.messages import DkgStartInput, MTypeProof, RTypeProof
from repro.dkg.proofs import verify_proof
from repro.obs import metrics as obs_metrics
from repro.service import workers
from repro.service.workers import ServiceConfig, ThresholdService
from repro.sim.network import ConstantDelay

# sha256 over the ids, nonce points and sorted shares of the forged
# batch ids 0..5 under ``_config`` (the pool's prefill batch).
FORGE_DIGEST = "201acd231a8c56d891c4989bf027ee50a03025c58f61b9bda5184e1ad59c6012"
FORGE_IDS = list(range(6))


def _run(coro):
    return asyncio.run(coro)


def _config() -> ServiceConfig:
    return ServiceConfig(n=5, t=1, seed=3, pool_target=6)


def _with_width(service: ThresholdService, width: int) -> ThresholdService:
    """Swap a ``width``-process executor in for the one the machine's
    CPU count chose, so widths are tested on any box."""
    if service.crypto_executor is not None:
        service.crypto_executor.close()
    service.crypto_executor = parallel.CryptoExecutor(width)
    service.crypto_executor.warm()
    return service


def _service(width: int) -> ThresholdService:
    return _with_width(ThresholdService(_config()), width)


def _batch_digest(group, batch) -> str:
    h = hashlib.sha256()
    for presig, shares in batch:
        h.update(repr(presig.presig_id).encode())
        h.update(group.element_to_bytes(presig.nonce_point))
        h.update(repr(sorted(shares.items())).encode())
    return h.hexdigest()


def _forge_digest(service: ThresholdService) -> str:
    return _batch_digest(service.group, service._forge_nonce_batch(FORGE_IDS))


async def _forged_pool(service: ThresholdService) -> tuple:
    await service.start()
    presigs = {}
    for presig in service.pool._ready:
        shares = {
            worker.index: worker._nonce_shares[presig.presig_id]
            for worker in service.workers.values()
            if presig.presig_id in worker._nonce_shares
        }
        presigs[presig.presig_id] = (presig, shares)
    signature, from_pool = await service.sign(b"parallel forge")
    ops_doc = json.loads(service.ops().snapshot.decode())
    await service.stop()
    return service, presigs, signature, from_pool, ops_doc


class _FailingFuture:
    def __init__(self, exc: Exception):
        self._exc = exc

    def result(self):
        raise self._exc


class _FailingPool:
    """Stands in for a ProcessPoolExecutor whose chunks all fail."""

    def __init__(self, exc: Exception):
        self._exc = exc
        self.submitted = 0
        self.shutdowns = 0

    def submit(self, job, payload):
        self.submitted += 1
        return _FailingFuture(self._exc)

    def shutdown(self, **kwargs):
        self.shutdowns += 1


def _service_with_pool(pool) -> ThresholdService:
    """A width-2 service whose warmed pool is swapped for ``pool``."""
    service = _service(width=2)
    executor = service.crypto_executor
    executor.close()
    executor._pool = pool
    return service


class TestParallelForge:
    def test_forged_presignatures_are_valid_and_pool_serves(self) -> None:
        service, presigs, _sig, from_pool, _ops = _run(_forged_pool(_service(2)))
        assert service.crypto_executor is not None
        assert not service.crypto_executor._broken
        assert from_pool
        assert len(presigs) >= 1
        for presig, shares in presigs.values():
            # Every worker share must verify against the commitment —
            # the same check the signing path applies per request.
            good, bad = share_verifier(presig.commitment).batch_verify(
                list(shares.items())
            )
            assert bad == []
            assert len(good) == len(shares)
            assert presig.commitment.public_key() == presig.nonce_point

    def test_forge_is_deterministic_for_fixed_seed_and_cores(self) -> None:
        _, first, *_ = _run(_forged_pool(_service(2)))
        _, second, *_ = _run(_forged_pool(_service(2)))
        assert set(first) == set(second)
        for presig_id in first:
            presig_a, shares_a = first[presig_id]
            presig_b, shares_b = second[presig_id]
            assert shares_a == shares_b
            assert presig_a.nonce_point == presig_b.nonce_point
            assert presig_a.contributors == presig_b.contributors

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_forged_batch_digest_is_pinned(self, width: int) -> None:
        # At width w > 1 the six nonces are forged as w chunks in pool
        # workers; at width 1 as one serial world.  Every partition
        # reproduces the same bytes.
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        service = _service(width)
        try:
            assert service.crypto_executor.parallel == (width > 1)
            assert _forge_digest(service) == FORGE_DIGEST
            families = registry.snapshot()
        finally:
            _run(service.stop())
            obs_metrics.set_registry(previous)
        samples = families.get(parallel.CHUNKS_TOTAL, {}).get("samples", [])
        chunks = {sample["labels"]["mode"]: sample["value"] for sample in samples}
        assert chunks == ({"pool": width} if width > 1 else {})

    @pytest.mark.skipif(
        parallel.available_cpus() < 2, reason="needs a machine with 2+ CPUs"
    )
    def test_fresh_service_has_live_workers_before_any_loop(self) -> None:
        service = ThresholdService(_config())
        executor = service.crypto_executor
        try:
            assert executor.width == min(parallel.available_cpus(), 6)
            workers = list(executor._pool._processes.values())
            assert len(workers) == executor.width
            assert all(worker.is_alive() for worker in workers)
        finally:
            executor.close()

    def test_crash_mid_forge_keeps_the_member_out_of_the_pool(self) -> None:
        victim = 2

        async def scenario():
            service = _service(width=2)
            executor = service.crypto_executor
            loop = asyncio.get_running_loop()
            first_batch = []
            map_jobs = executor.map_jobs

            def crash_while_in_flight(kind, job, payloads):
                # On the forge thread: the member crashes on the loop
                # while the first batch's chunks run in the pool.
                crash = None
                if not first_batch:
                    crash = asyncio.run_coroutine_threadsafe(_crash(), loop)
                results = map_jobs(kind, job, payloads)
                if crash is not None:
                    crash.result()
                    first_batch.extend(item for _, items in results for item in items)
                return results

            async def _crash():
                service.crash_node(victim)

            executor.map_jobs = crash_while_in_flight
            await service.start()
            ready = list(service.pool._ready)
            screened = service.pool.invalidated
            held = service.workers[victim].nonce_count
            message = b"signed after a crash mid-forge"
            signature, _from_pool = await service.sign(message)
            await service.stop()
            return service, first_batch, ready, screened, held, message, signature

        service, first_batch, ready, screened, held, message, signature = _run(
            scenario()
        )
        # The first batch was forged in the pool with the victim live...
        assert first_batch
        assert all(victim in shares for _, _, shares, _ in first_batch)
        # ...and every entry it contributed to was screened, not installed.
        carrying = sum(victim in contributors for _, contributors, _, _ in first_batch)
        assert carrying >= 1 and screened == carrying
        assert len(ready) == service.pool.target
        assert all(victim not in presig.contributors for presig in ready)
        assert held == 0
        assert schnorr.verify(service.group, service.public_key, message, signature)

    def test_ops_reports_acceleration_status(self) -> None:
        *_, ops_doc = _run(_forged_pool(_service(2)))
        acceleration = ops_doc["status"]["acceleration"]
        assert acceleration["parallel_cores"] == 2
        assert acceleration["parallel_active"] is True
        assert set(acceleration) >= {"gmpy2", "coincurve", "available_cpus"}

    def test_serial_service_has_no_executor(self, monkeypatch) -> None:
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        service, presigs, _sig, from_pool, ops_doc = _run(
            _forged_pool(ThresholdService(_config()))
        )
        assert service.crypto_executor is None
        assert from_pool and len(presigs) >= 1
        acceleration = ops_doc["status"]["acceleration"]
        assert acceleration["parallel_cores"] == 1
        assert acceleration["parallel_active"] is False

    def test_disabled_pool_is_serial_on_any_machine(self) -> None:
        service = ThresholdService(ServiceConfig(n=5, t=1, seed=3, pool_target=0))
        assert service.crypto_executor is None


class TestForgeDegradation:
    def test_broken_pool_degrades_permanently_to_serial(self) -> None:
        fake = _FailingPool(BrokenProcessPool("worker died"))
        service = _service_with_pool(fake)
        executor = service.crypto_executor
        # Same batch as a serial service, through the serial fallback...
        assert _forge_digest(service) == FORGE_DIGEST
        assert fake.submitted == 2
        # ...and the executor is poisoned: no further pool attempts.
        assert executor._broken and not executor.parallel
        assert fake.shutdowns == 1
        assert _forge_digest(service) == FORGE_DIGEST
        assert fake.submitted == 2
        assert executor._pool is None

    def test_chunk_exception_fails_one_call_only(self) -> None:
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        service = _service_with_pool(_FailingPool(ValueError("bad payload")))
        executor = service.crypto_executor
        try:
            assert _forge_digest(service) == FORGE_DIGEST
            # An ordinary failure does not poison the executor: the next
            # call forges through a fresh pool.
            assert not executor._broken and executor.parallel
            executor._pool = None
            assert _forge_digest(service) == FORGE_DIGEST
            families = registry.snapshot()
        finally:
            executor.close()
            obs_metrics.set_registry(previous)
        chunk_counts = {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in families[parallel.CHUNKS_TOTAL]["samples"]
        }
        assert chunk_counts[(("kind", "forge"), ("mode", "serial"))] == 2
        assert chunk_counts[(("kind", "forge"), ("mode", "pool"))] == 2
        assert parallel.CHUNK_SECONDS in families
        assert parallel.WORKERS_GAUGE in families


def _chunk_counts(families: dict) -> dict[str, float]:
    samples = families.get(parallel.CHUNKS_TOTAL, {}).get("samples", [])
    return {
        sample["labels"]["mode"]: sample["value"]
        for sample in samples
        if sample["labels"]["kind"] == "forge"
    }


def _forged_one(presig, shares) -> tuple:
    return presig.presig_id, presig.nonce_point, dict(shares)


class TestForgeLane:
    def test_a_single_nonce_takes_the_free_lane(self) -> None:
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        service = _service(width=2)
        try:
            single = _forged_one(*service._forge_nonce(4))
            counts = _chunk_counts(registry.snapshot())
        finally:
            _run(service.stop())
            obs_metrics.set_registry(previous)
        assert counts == {}
        assert not workers._forge_lane.locked()
        assert single == _forged_one(*_service(width=1)._forge_nonce(4))

    def test_a_single_nonce_goes_to_the_pool_while_the_lane_is_held(self) -> None:
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        service = _service(width=2)
        assert workers._forge_lane.acquire(blocking=False)
        try:
            single = _forged_one(*service._forge_nonce(4))
            after_single = _chunk_counts(registry.snapshot())
            on_demand = _run(service.pool.forge_now())
            after_on_demand = _chunk_counts(registry.snapshot())
        finally:
            workers._forge_lane.release()
            _run(service.stop())
            obs_metrics.set_registry(previous)
        assert after_single == {"pool": 1}
        assert after_on_demand == {"pool": 2}
        # The same nonces as a width-1 service forging the same ids.
        serial = _service(width=1)
        assert single == _forged_one(*serial._forge_nonce(4))
        presig_id = on_demand.presig_id
        shares = {
            worker.index: worker._nonce_shares[presig_id]
            for worker in service.workers.values()
        }
        expected = _forged_one(*serial._forge_nonce(presig_id))
        assert (presig_id, on_demand.nonce_point, shares) == expected

    def test_at_most_one_forge_runs_in_process(self, monkeypatch) -> None:
        # Concurrent single-nonce forges: one at a time holds the lane,
        # every other one is a pool chunk.
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        service = _service_with_pool(_DonePool())
        guard = threading.Lock()
        running = most = in_process = 0

        def forge(group, members, live, t, seed, presig_ids):
            nonlocal running, most, in_process
            with guard:
                running += 1
                in_process += 1
                most = max(most, running)
            time.sleep(0.001)
            with guard:
                running -= 1
            return []

        monkeypatch.setattr(workers, "_forge_sessions", forge)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def calls(first: int) -> None:
            for presig_id in range(first, first + 50):
                service._forge_nonce_batch([presig_id])

        threads = [threading.Thread(target=calls, args=(50 * k,)) for k in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            obs_metrics.set_registry(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert most == 1
        pooled = _chunk_counts(registry.snapshot()).get("pool", 0)
        assert in_process + pooled == 400
        assert 0 < in_process < 400
        assert not workers._forge_lane.locked()


def _counting_forge_pki(monkeypatch) -> list[tuple]:
    """Record every enrolment of the forge's PKI label."""
    calls: list[tuple] = []
    enroll = deployment.forge_pki

    def counted(group, members, seed):
        calls.append((tuple(members), seed))
        return enroll(group, members, seed)

    monkeypatch.setattr(deployment, "forge_pki", counted)
    workers._forge_pki.cache_clear()
    return calls


def _nonce_dkg(group, tau: int) -> tuple:
    """One n=4 nonce DKG at ``tau`` under the forge PKI, its machines
    kept for the votes and witnesses they collected."""
    members = (1, 2, 3, 4)
    pki = workers._forge_pki(group, members, 11)
    config = DkgConfig(n=4, t=1, group=group, members=members, enforce_resilience=False)
    machines = deployment.dkg_machines(config, pki, members, tau=tau)
    deployment.simulate(
        machines,
        [(i, DkgStartInput(tau), 0.0) for i in members],
        delay_model=ConstantDelay(0.0),
        seed=tau,
    )
    assert all(node.completed is not None for node in machines.values())
    return config.vss(), pki[0], machines


class TestForgePki:
    def test_serial_forges_enrol_once_per_service(self, monkeypatch) -> None:
        calls = _counting_forge_pki(monkeypatch)
        used: list = []  # per forge call, the CAs its machines certify under
        run_sessions = workers.run_dkg_sessions

        def recording(group, live, seed, sessions):
            used.append(
                [
                    machine.signatures.ca
                    for machines, _ in sessions.values()
                    for machine in machines.values()
                ]
            )
            return run_sessions(group, live, seed, sessions)

        monkeypatch.setattr(workers, "run_dkg_sessions", recording)
        service = _service(width=1)
        for presig_id in range(3):
            service._forge_nonce(presig_id)
        service._forge_nonce_batch([3, 4])
        assert calls == [((1, 2, 3, 4, 5), 3)]
        assert len(used) == 4
        assert all(ca is cas[0] for cas in used for ca in cas)
        certified = [
            {i: cas[0].public_key_of(i) for i in service.workers} for cas in used
        ]
        assert all(keys == certified[0] for keys in certified)
        assert None not in certified[0].values()

    def test_a_crash_changes_no_identity(self, monkeypatch) -> None:
        calls = _counting_forge_pki(monkeypatch)
        service = _service(width=1)
        service._forge_nonce(0)
        service.crash_node(2)
        service._forge_nonce(1)
        assert calls == [((1, 2, 3, 4, 5), 3)]

    def test_echo_votes_prove_a_lock_at_their_own_tau_only(self, group) -> None:
        tau = 7
        config, ca, machines = _nonce_dkg(group, tau)
        quorums = [
            (q, votes)
            for node in machines.values()
            for q, votes in node.echo_votes.items()
            if len(votes) >= config.echo_threshold
        ]
        assert quorums
        q, votes = quorums[0]
        proof = MTypeProof(q, tuple(votes.values()))
        assert verify_proof(config, ca, tau, proof)
        assert not verify_proof(config, ca, tau + 1, proof)

    def test_ready_witnesses_certify_at_their_own_tau_only(self, group) -> None:
        tau = 7
        config, ca, machines = _nonce_dkg(group, tau)
        node = machines[1]
        dealers = sorted(node.q_hat)[: config.t + 1]
        proof = RTypeProof(tuple(node.q_hat[dealer] for dealer in dealers))
        assert all(
            len(cert.witnesses) >= config.output_threshold for cert in proof.certs
        )
        assert verify_proof(config, ca, tau, proof)
        assert not verify_proof(config, ca, tau + 1, proof)


class _HeldFuture:
    """A chunk that finishes when the test releases it."""

    def __init__(self):
        self.release = threading.Event()

    def result(self):
        assert self.release.wait(timeout=30)
        return 0.0, []


class _HeldPool:
    """Stands in for a ProcessPoolExecutor whose chunks the test ends."""

    def __init__(self):
        self.futures: list[_HeldFuture] = []

    def submit(self, job, payload):
        future = _HeldFuture()
        self.futures.append(future)
        return future

    def shutdown(self, **kwargs):
        pass


class _DoneFuture:
    def result(self):
        return 0.0, []


class _DonePool:
    """Stands in for a ProcessPoolExecutor whose chunks finish at once."""

    def submit(self, job, payload):
        return _DoneFuture()

    def shutdown(self, **kwargs):
        pass


def _inflight(registry: obs_metrics.MetricsRegistry) -> float:
    samples = registry.snapshot()[parallel.INFLIGHT_GAUGE]["samples"]
    (sample,) = samples
    assert sample["labels"] == {"kind": "forge"}
    return sample["value"]


class TestConcurrentForgeCalls:
    def test_inflight_gauge_counts_every_call_in_flight(self) -> None:
        # Two services' executors in one process, each with a call in
        # flight from its own refill thread.
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        pools = [_HeldPool(), _HeldPool()]
        executors = [parallel.CryptoExecutor(2), parallel.CryptoExecutor(2)]
        for executor, pool in zip(executors, pools):
            executor._pool = pool

        def call(index: int, payloads: list) -> threading.Thread:
            pool = pools[index]
            thread = threading.Thread(
                target=executors[index].map_jobs, args=("forge", len, payloads)
            )
            thread.start()
            deadline = time.monotonic() + 30
            while len(pool.futures) < len(payloads) and time.monotonic() < deadline:
                time.sleep(0.001)
            return thread

        try:
            first = call(0, [[0], [1]])
            second = call(1, [[2]])
            assert _inflight(registry) == 3
            for future in pools[0].futures:
                future.release.set()
            first.join(timeout=30)
            assert not first.is_alive()
            assert _inflight(registry) == 1
            pools[1].futures[0].release.set()
            second.join(timeout=30)
            assert not second.is_alive()
            assert _inflight(registry) == 0
        finally:
            for pool in pools:
                for future in pool.futures:
                    future.release.set()
            obs_metrics.set_registry(previous)

    def test_inflight_gauge_returns_to_zero_under_contention(self) -> None:
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        executors = [parallel.CryptoExecutor(2), parallel.CryptoExecutor(2)]
        for executor in executors:
            executor._pool = _DonePool()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def calls(executor: parallel.CryptoExecutor) -> None:
            for _ in range(200):
                executor.map_jobs("forge", len, [[0], [1]])

        threads = [
            threading.Thread(target=calls, args=(executors[k % 2],))
            for k in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            obs_metrics.set_registry(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert _inflight(registry) == 0


def _forge_pids(service: ThresholdService) -> set[int]:
    executor = service.crypto_executor
    if executor is None or executor._pool is None:
        return set()
    return set(executor._pool._processes)


def _live_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestNoLeakedWorkers:
    def test_stop_reaps_the_stopped_services_workers_only(self) -> None:
        before = _live_pids()

        async def scenario():
            first = ThresholdService(ServiceConfig(n=4, t=1, seed=5, pool_target=2))
            second = ThresholdService(ServiceConfig(n=4, t=1, seed=6, pool_target=2))
            await first.start(prefill=False)
            await second.start(prefill=False)
            stopped, kept = _forge_pids(first), _forge_pids(second)
            await first.stop()
            after_first = _live_pids()
            await second.stop()
            return stopped, kept, after_first, _live_pids()

        stopped, kept, after_first, after_both = _run(scenario())
        if parallel.available_cpus() >= 2:
            # One pool per service: two services run 2 x width processes.
            assert len(stopped) == len(kept) == 2
        assert not stopped & after_first
        assert kept <= after_first
        assert after_both <= before
