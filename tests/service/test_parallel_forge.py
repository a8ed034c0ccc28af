"""The parallel presignature forge: a service on a multi-CPU machine
fans the whole pool deficit across a process pool and still produces
valid, deterministic presignatures whatever the pool's width; a member
crashing mid-forge leaves nothing of its nonce in the pool; a failing
pool degrades to the serial forge; ops reports the acceleration status;
no forge worker outlives its service."""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.crypto import parallel, schnorr
from repro.crypto.feldman import share_verifier
from repro.obs import metrics as obs_metrics
from repro.service.shard.router import ShardRouter
from repro.service.workers import ServiceConfig, ThresholdService

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


def _forge_pids(service: ThresholdService) -> set[int]:
    executor = service.crypto_executor
    if executor is None or executor._pool is None:
        return set()
    return set(executor._pool._processes)


def _live_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestNoLeakedWorkers:
    def test_router_stop_and_drain_reap_every_forge_worker(self) -> None:
        async def scenario():
            router = ShardRouter(ServiceConfig(n=4, t=1, seed=5, pool_target=2))
            await router.start(2, prefill=False)
            drained = _forge_pids(router.handles["shard-0"].service)
            kept = _forge_pids(router.handles["shard-1"].service)
            await router.drain("shard-0")
            after_drain = _live_pids()
            await router.stop()
            return drained, kept, after_drain, _live_pids()

        drained, kept, after_drain, after_stop = _run(scenario())
        if parallel.available_cpus() >= 2:
            # One pool per shard: M shards run M x width processes.
            assert len(drained) == len(kept) == 2
        assert not drained & after_drain
        assert kept <= after_drain
        assert not (drained | kept) & after_stop
