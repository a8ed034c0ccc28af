"""Process-pool crypto executor behind the presignature forge.

Whole-deficit presignature forging is embarrassingly parallel over
independent nonce DKGs, and it is the one fan-out that measurably pays
(``BENCH_e18.json``): protocol-sized verification batches and multiexps
are far too small to amortize the IPC.  :class:`ThresholdService
<repro.service.workers.ThresholdService>` owns one
:class:`CryptoExecutor` of width ``min(available_cpus(), pool_target)``
when that is above one, and maps forge chunks over it with
:meth:`CryptoExecutor.map_jobs`.

* :class:`CryptoExecutor` owns a lazy :class:`ProcessPoolExecutor`;
* work crosses the process boundary in picklable form: group parameters
  travel as small spec tuples (rebuilt per worker through an
  ``lru_cache``, so fixed-base tables stay warm across chunks) and
  results in the canonical group serialization;
* every fan-out degrades serially: ``width == 1`` disables the pool, a
  failed chunk makes :meth:`~CryptoExecutor.map_jobs` return ``None``
  for that call (the caller runs its serial path), and a broken pool
  (killed worker, fork failure) permanently degrades the executor to
  serial — callers never see an exception, only the same results slower.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from functools import lru_cache
from typing import Any, Callable, Sequence

from repro.obs import metrics as obs_metrics

# Metric names (see repro.obs.metrics):
CHUNKS_TOTAL = "repro_crypto_parallel_chunks_total"
WORKERS_GAUGE = "repro_crypto_parallel_workers"
INFLIGHT_GAUGE = "repro_crypto_parallel_inflight_chunks"
CHUNK_SECONDS = "repro_crypto_parallel_chunk_seconds"

_PARENT_POLL_S = 1.0  # how often a pool worker checks its parent is alive


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-linux
        return os.cpu_count() or 1


# -- picklable group specs -----------------------------------------------------


def group_spec(group: Any) -> tuple:
    """A small picklable description of a group backend."""
    if getattr(group, "name", "") == "secp256k1":
        return ("secp256k1",)
    return ("modp", group.p, group.q, group.g, group.name)


@lru_cache(maxsize=64)
def group_from_spec(spec: tuple) -> Any:
    """Rebuild a backend from its spec (cached per worker process, so
    fixed-base tables and shared-base caches stay warm across chunks)."""
    if spec[0] == "secp256k1":
        from repro.crypto.ec import secp256k1_group

        return secp256k1_group()
    from repro.crypto.groups import SchnorrGroup

    _, p, q, g, name = spec
    return SchnorrGroup(p, q, g, name=name)


def partition(items: Sequence[Any], parts: int) -> list[list[Any]]:
    """Split into at most ``parts`` contiguous, near-equal chunks.

    Contiguity keeps results order-preserving: concatenating per-chunk
    results reproduces the serial ordering.
    """
    items = list(items)
    if not items:
        return []
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    chunks = []
    start = 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _worker_init(parent: int) -> None:
    """Pool-worker initializer: a forked worker must never publish to
    the parent's metrics registry, and must not outlive its parent.  A
    forked worker holds the call queue's write end itself, so when the
    parent dies without shutting the pool down (``repro serve`` under
    SIGTERM) no EOF ever reaches it and it would block forever."""
    obs_metrics.set_registry(None)
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(0)


def _ready() -> None:
    """The no-op job :meth:`CryptoExecutor.warm` waits on."""


# -- the executor --------------------------------------------------------------


class CryptoExecutor:
    """A process pool for the presignature forge.

    ``width`` is the number of worker processes; ``1`` is serial.  The
    pool is created lazily on first fan-out, or eagerly via
    :meth:`warm`, which services call before their event loop starts
    so the fork happens from a quiet process.
    """

    def __init__(self, width: int):
        self.width = width
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.width > 1 and not self._broken

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if not self.parallel:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.width,
                    initializer=_worker_init,
                    initargs=(os.getpid(),),
                )
            except OSError:
                self._mark_broken()
                return None
            obs_metrics.gauge_set(
                WORKERS_GAUGE,
                self.width,
                help="process-pool workers available to the crypto executor",
            )
        return self._pool

    def warm(self) -> None:
        """Start every worker process now, before event loops and forge
        threads exist.  The pool forks its workers at the first submit,
        so one no-op job per worker is submitted and waited on."""
        pool = self._ensure_pool()
        if pool is None:
            return
        try:
            for future in [pool.submit(_ready) for _ in range(self.width)]:
                future.result()
        except (BrokenExecutor, OSError):
            self._mark_broken()

    def _mark_broken(self) -> None:
        self._broken = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        obs_metrics.gauge_set(
            WORKERS_GAUGE,
            0,
            help="process-pool workers available to the crypto executor",
        )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
            obs_metrics.gauge_set(
                WORKERS_GAUGE,
                0,
                help="process-pool workers available to the crypto executor",
            )

    # -- the fan-out -------------------------------------------------------

    def _run_chunks(
        self, kind: str, job: Callable[[Any], Any], payloads: list[Any]
    ) -> list[Any] | None:
        """Submit every payload, collect results in order.

        Returns ``None`` when the pool is unusable or any chunk raised —
        the caller then runs its own serial path (counted under
        ``mode="serial"`` so degradation is visible in metrics).  A
        broken pool poisons the executor permanently; an ordinary chunk
        exception only fails this call.
        """
        pool = self._ensure_pool()
        if pool is None:
            self._count_chunks(kind, "serial", len(payloads))
            return None
        obs_metrics.gauge_set(
            INFLIGHT_GAUGE,
            len(payloads),
            help="chunks currently submitted to the crypto pool",
            kind=kind,
        )
        try:
            futures = [pool.submit(job, payload) for payload in payloads]
            results = [future.result() for future in futures]
        except BrokenExecutor:
            self._mark_broken()
            self._count_chunks(kind, "serial", len(payloads))
            return None
        except Exception:
            self._count_chunks(kind, "serial", len(payloads))
            return None
        finally:
            obs_metrics.gauge_set(
                INFLIGHT_GAUGE,
                0,
                help="chunks currently submitted to the crypto pool",
                kind=kind,
            )
        self._count_chunks(kind, "pool", len(payloads))
        for result in results:
            if isinstance(result, tuple) and result and isinstance(result[0], float):
                obs_metrics.observe(
                    CHUNK_SECONDS,
                    result[0],
                    help="in-worker wall time of one crypto chunk",
                    kind=kind,
                )
        return results

    @staticmethod
    def _count_chunks(kind: str, mode: str, count: int) -> None:
        obs_metrics.counter_inc(
            CHUNKS_TOTAL,
            count,
            help="crypto chunks fanned out by kind and execution mode",
            kind=kind,
            mode=mode,
        )

    def map_jobs(
        self, kind: str, job: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any] | None:
        """Ordered parallel map of a module-level function; ``None``
        means "run serially".  Jobs returning ``(elapsed, ...)`` tuples
        feed the chunk-latency histogram."""
        payloads = list(payloads)
        if not self.parallel or not payloads:
            return None
        return self._run_chunks(kind, job, payloads)


def acceleration_status(executor: CryptoExecutor | None = None) -> dict[str, Any]:
    """What fast paths this process actually has (for STATUS/OPS);
    ``executor`` is the caller's forge pool, if it has one."""
    from repro.crypto import intops

    ec_mod = sys.modules.get("repro.crypto.ec")
    if ec_mod is None:
        from repro.crypto import ec as ec_mod
    return {
        "gmpy2": intops.HAVE_GMPY2,
        "coincurve": ec_mod.HAVE_COINCURVE,
        "parallel_cores": executor.width if executor is not None else 1,
        "parallel_active": bool(executor is not None and executor.parallel),
        "available_cpus": available_cpus(),
    }
