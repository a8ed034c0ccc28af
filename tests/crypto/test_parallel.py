"""The process-pool crypto executor's building blocks: contiguous
partitioning, ``--cores`` resolution, the ordered map, its per-call
degradation, chunk metrics and the acceleration report.  Its degradation
is also exercised through its one caller, the presignature forge:
``tests/service/test_parallel_forge.py``.
"""

from __future__ import annotations

import pytest

from repro.crypto import parallel
from repro.crypto.parallel import CryptoExecutor
from repro.obs import metrics as obs_metrics


def _timed_sum(chunk: list[int]) -> tuple[float, int]:
    """A picklable job in the ``(elapsed, ...)`` shape that feeds the
    chunk-latency histogram."""
    return 0.001, sum(chunk)


class _FailingFuture:
    def __init__(self, exc: Exception):
        self._exc = exc

    def result(self):
        raise self._exc


class _FailingPool:
    """Stands in for a ProcessPoolExecutor whose chunks all fail."""

    def __init__(self, exc: Exception):
        self._exc = exc
        self.shutdowns = 0

    def submit(self, job, payload):
        return _FailingFuture(self._exc)

    def shutdown(self, **kwargs):
        self.shutdowns += 1


class TestPartition:
    def test_contiguous_and_order_preserving(self) -> None:
        items = list(range(10))
        chunks = parallel.partition(items, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == items

    def test_never_more_chunks_than_items(self) -> None:
        assert parallel.partition([1, 2], 8) == [[1], [2]]

    def test_empty(self) -> None:
        assert parallel.partition([], 4) == []


class TestResolveCores:
    def test_semantics(self) -> None:
        assert parallel.resolve_cores(None) == 1
        assert parallel.resolve_cores(1) == 1
        assert parallel.resolve_cores(3) == 3
        assert parallel.resolve_cores(0) == parallel.available_cpus()
        assert parallel.resolve_cores(0) >= 1

    def test_negative_width_is_rejected(self) -> None:
        with pytest.raises(ValueError, match="cores must be >= 0"):
            parallel.resolve_cores(-1)


class TestThresholdsAndPassthrough:
    def test_serial_executor_never_engages(self) -> None:
        executor = CryptoExecutor(cores=1)
        assert not executor.parallel
        assert executor.map_jobs("test", tuple, [[1], [2]]) is None
        assert executor._pool is None


class TestDegradation:
    def test_chunk_exception_fails_one_call_only(self) -> None:
        chunks = parallel.partition(list(range(10)), 2)
        executor = CryptoExecutor(cores=2)
        fake = _FailingPool(ValueError("bad payload"))
        executor._pool = fake
        try:
            # The failing call hands the work back to the caller...
            assert executor.map_jobs("test", _timed_sum, chunks) is None
            # ...but an ordinary failure does not poison the executor.
            assert not executor._broken and executor.parallel
            assert fake.shutdowns == 0
            executor._pool = None
            results = executor.map_jobs("test", _timed_sum, chunks)
        finally:
            executor.close()
        assert [total for _elapsed, total in results] == [sum(c) for c in chunks]


class TestMetrics:
    def test_chunks_counted_by_mode(self) -> None:
        chunks = parallel.partition(list(range(10)), 2)
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        executor = CryptoExecutor(cores=2)
        try:
            executor._pool = _FailingPool(ValueError("bad payload"))
            assert executor.map_jobs("verify", _timed_sum, chunks) is None
            executor._pool = None
            assert executor.map_jobs("verify", _timed_sum, chunks) is not None
            families = registry.snapshot()
        finally:
            executor.close()
            obs_metrics.set_registry(previous)
        chunk_counts = {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in families[parallel.CHUNKS_TOTAL]["samples"]
        }
        assert chunk_counts[(("kind", "verify"), ("mode", "serial"))] == 2
        assert chunk_counts[(("kind", "verify"), ("mode", "pool"))] == 2
        assert parallel.CHUNK_SECONDS in families
        assert parallel.WORKERS_GAUGE in families


class TestAccelerationStatus:
    def test_reports_probes_and_executor(self) -> None:
        status = parallel.acceleration_status()
        assert set(status) == {
            "gmpy2",
            "coincurve",
            "parallel_cores",
            "parallel_active",
            "available_cpus",
        }
        assert status["parallel_cores"] == 1 and not status["parallel_active"]
        active = parallel.acceleration_status(CryptoExecutor(cores=2))
        assert active["parallel_cores"] == 2 and active["parallel_active"]


@pytest.mark.parametrize("count", [32, 33, 47])
def test_uneven_batch_sizes_round_trip(count: int) -> None:
    # Chunk-boundary property check: odd sizes partition unevenly and
    # the pool's ordered map must still concatenate back to the input.
    items = list(range(count))
    executor = CryptoExecutor(cores=2)
    try:
        results = executor.map_jobs("test", tuple, parallel.partition(items, 2))
    finally:
        executor.close()
    assert [x for chunk in results for x in chunk] == items
