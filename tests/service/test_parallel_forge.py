"""The parallel presignature forge: a ``cores > 1`` service fans the
whole pool deficit across a process pool and still produces valid,
deterministic presignatures; a failing pool degrades to the serial
forge; ops reports the acceleration status."""

from __future__ import annotations

import asyncio
import hashlib
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.crypto import parallel
from repro.crypto.feldman import share_verifier
from repro.obs import metrics as obs_metrics
from repro.service.workers import ServiceConfig, ThresholdService

# sha256 over the ids, nonce points and sorted shares of the forged
# batch ids 0..5 under ``_config`` (the pool's prefill batch).
FORGE_DIGEST = "201acd231a8c56d891c4989bf027ee50a03025c58f61b9bda5184e1ad59c6012"
FORGE_IDS = list(range(6))


def _run(coro):
    return asyncio.run(coro)


def _config(cores: int) -> ServiceConfig:
    return ServiceConfig(n=5, t=1, seed=3, pool_target=6, cores=cores)


def _batch_digest(group, batch) -> str:
    h = hashlib.sha256()
    for presig, shares in batch:
        h.update(repr(presig.presig_id).encode())
        h.update(group.element_to_bytes(presig.nonce_point))
        h.update(repr(sorted(shares.items())).encode())
    return h.hexdigest()


def _forge_digest(service: ThresholdService) -> str:
    return _batch_digest(service.group, service._forge_nonce_batch(FORGE_IDS))


async def _forged_pool(config: ServiceConfig) -> tuple:
    service = ThresholdService(config)
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
    """A ``cores=2`` service whose warmed pool is swapped for ``pool``."""
    service = ThresholdService(_config(cores=2))
    executor = service.crypto_executor
    executor.close()
    executor._pool = pool
    return service


class TestParallelForge:
    def test_forged_presignatures_are_valid_and_pool_serves(self) -> None:
        service, presigs, _sig, from_pool, _ops = _run(_forged_pool(_config(cores=2)))
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
        _, first, *_ = _run(_forged_pool(_config(cores=2)))
        _, second, *_ = _run(_forged_pool(_config(cores=2)))
        assert set(first) == set(second)
        for presig_id in first:
            presig_a, shares_a = first[presig_id]
            presig_b, shares_b = second[presig_id]
            assert shares_a == shares_b
            assert presig_a.nonce_point == presig_b.nonce_point
            assert presig_a.contributors == presig_b.contributors

    @pytest.mark.parametrize("cores", [1, 2])
    def test_forged_batch_digest_is_pinned(self, cores: int) -> None:
        # At cores=2 the batch is forged as two chunks in pool workers;
        # at cores=1 as one serial world.  Both reproduce the same bytes.
        service = ThresholdService(_config(cores=cores))
        try:
            if cores > 1:
                assert service.crypto_executor.parallel
            assert _forge_digest(service) == FORGE_DIGEST
        finally:
            _run(service.stop())

    def test_ops_reports_acceleration_status(self) -> None:
        *_, ops_doc = _run(_forged_pool(_config(cores=2)))
        acceleration = ops_doc["status"]["acceleration"]
        assert acceleration["parallel_cores"] == 2
        assert acceleration["parallel_active"] is True
        assert set(acceleration) >= {"gmpy2", "coincurve", "available_cpus"}

    def test_serial_service_has_no_executor(self) -> None:
        service, presigs, _sig, from_pool, ops_doc = _run(
            _forged_pool(_config(cores=1))
        )
        assert service.crypto_executor is None
        assert from_pool and len(presigs) >= 1
        acceleration = ops_doc["status"]["acceleration"]
        assert acceleration["parallel_cores"] == 1
        assert acceleration["parallel_active"] is False

    def test_negative_cores_rejected(self) -> None:
        with pytest.raises(ValueError, match="cores must be >= 0"):
            ServiceConfig(cores=-1)


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
