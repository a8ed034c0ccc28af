"""The process-pool crypto executor's building blocks: contiguous
partitioning, warming, workers exiting with their parent, the ordered
map, its per-call degradation, chunk metrics and the acceleration
report.  Its degradation is also exercised through its one caller, the
presignature forge: ``tests/service/test_parallel_forge.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.crypto import parallel
from repro.crypto.parallel import CryptoExecutor
from repro.obs import metrics as obs_metrics


def _timed_sum(chunk: list[int]) -> tuple[float, int]:
    """A picklable job in the ``(elapsed, ...)`` shape that feeds the
    chunk-latency histogram."""
    return 0.001, sum(chunk)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting its reaper
    has exited)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status


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


class TestWarm:
    def test_warm_starts_every_worker(self) -> None:
        executor = CryptoExecutor(2)
        try:
            executor.warm()
            workers = list(executor._pool._processes.values())
            assert len(workers) == 2
            assert all(worker.is_alive() for worker in workers)
        finally:
            executor.close()
        assert not any(worker.is_alive() for worker in workers)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_workers_exit_when_their_parent_is_killed(self) -> None:
        # A parent killed without closing its executor (SIGKILL here,
        # SIGTERM for a server) must not leave its forge workers behind.
        script = (
            "import os, signal\n"
            "from repro.crypto.parallel import CryptoExecutor\n"
            "executor = CryptoExecutor(2)\n"
            "executor.warm()\n"
            "print(*executor._pool._processes, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        # Read one line, not to EOF: the workers inherit the pipe.
        with subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
        ) as parent:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            parent.wait()
        assert len(workers) == 2
        deadline = time.monotonic() + 10 * parallel._PARENT_POLL_S
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = [pid for pid in workers if _running(pid)]
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
        assert not leaked


class TestThresholdsAndPassthrough:
    def test_serial_executor_never_engages(self) -> None:
        executor = CryptoExecutor(1)
        executor.warm()
        assert not executor.parallel
        assert executor.map_jobs("test", tuple, [[1], [2]]) is None
        assert executor._pool is None


class TestDegradation:
    def test_chunk_exception_fails_one_call_only(self) -> None:
        chunks = parallel.partition(list(range(10)), 2)
        executor = CryptoExecutor(2)
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
        executor = CryptoExecutor(2)
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
        active = parallel.acceleration_status(CryptoExecutor(2))
        assert active["parallel_cores"] == 2 and active["parallel_active"]


@pytest.mark.parametrize("count", [32, 33, 47])
def test_uneven_batch_sizes_round_trip(count: int) -> None:
    # Chunk-boundary property check: odd sizes partition unevenly and
    # the pool's ordered map must still concatenate back to the input.
    items = list(range(count))
    executor = CryptoExecutor(2)
    try:
        results = executor.map_jobs("test", tuple, parallel.partition(items, 2))
    finally:
        executor.close()
    assert [x for chunk in results for x in chunk] == items
