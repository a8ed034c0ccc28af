"""The presignature pool: shared nonces forged ahead of demand.

Threshold Schnorr signing needs a *fresh shared nonce per message*, and
in the Kate–Goldberg design a shared nonce is exactly one more run of
the DKG (§1: DKG is the building block, including for its own
applications' ephemeral keys).  Running that nonce DKG inside the
request path puts a full multi-round protocol between a client and its
signature; this pool is the amortization layer that takes it out:

* a background task keeps ``target`` presignatures forged, each the
  output of a real nonce DKG whose per-node shares are installed
  node-locally into the :class:`~repro.service.workers.SignerWorker`\\ s
  (shares never transit the pool — it only ever sees the public
  commitment);
* :meth:`take` pops one in O(1) on the signing hot path; dropping
  below ``low_watermark`` wakes the refill task;
* :meth:`invalidate` implements crash safety: when a member crashes,
  every pooled entry it *contributed to* (its sub-share of the nonce
  must be presumed exposed once the machine leaves our control) is
  discarded, and while the node stays down newly forged entries are
  screened against the same quarantine;
* :meth:`forge_now` is the unamortized fallback — the on-demand nonce
  DKG a request pays for when the pool is dry, and the baseline the
  E13 benchmark measures the pool against.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger


@dataclass(frozen=True)
class Presignature:
    """The public half of one precomputed shared nonce.

    The corresponding secret ``k`` is never materialized anywhere: each
    worker holds only its share ``k_i``, keyed by ``presig_id``.
    ``contributors`` is the nonce DKG's agreed set Q — the nodes whose
    sub-sharings sum to ``k`` and therefore the crash-invalidation
    granularity.
    """

    presig_id: int
    commitment: FeldmanCommitment | FeldmanVector
    nonce_point: int  # R = g^k = commitment.public_key()
    contributors: tuple[int, ...]


# forge(presig_id) -> (presig, {node index -> nonce share}); blocking.
Forge = Callable[[int], tuple[Presignature, dict[int, int]]]
# forge_batch(presig_ids) -> list of (presig, shares); blocking.  When a
# service provides one, whole-deficit refills run as *concurrent* DKG
# sessions multiplexed over one endpoint set (repro.runtime.sessions)
# instead of one isolated protocol world per nonce.
ForgeBatch = Callable[[list[int]], list[tuple[Presignature, dict[int, int]]]]
# install(presig, shares): place shares into live workers; loop thread.
Install = Callable[[Presignature, dict[int, int]], None]
# discard(presig_id): drop any installed shares for an invalidated entry.
Discard = Callable[[int], None]

_REFILL_RETRY_S = 0.25  # pause before retrying after a failed forge


class PresigPool:
    """A bounded pool of ready presignatures with watermark refill."""

    def __init__(
        self,
        forge: Forge,
        install: Install,
        *,
        target: int,
        low_watermark: int | None = None,
        discard: Discard | None = None,
        forge_batch: ForgeBatch | None = None,
    ):
        if target < 0:
            raise ValueError("pool target must be >= 0")
        self.target = target
        self.low_watermark = (
            max(1, target // 2) if low_watermark is None else low_watermark
        )
        if target and self.low_watermark > target:
            raise ValueError("low watermark above target")
        self.forged = 0
        self.invalidated = 0
        self.refill_failures = 0
        self._forge = forge
        self._forge_batch = forge_batch
        self._install = install
        self._discard = discard or (lambda presig_id: None)
        self._ready: deque[Presignature] = deque()
        self._quarantine: set[int] = set()
        self._next_id = 0
        self._wakeup = asyncio.Event()
        self._refill_task: asyncio.Task | None = None
        self._closed = False
        self.logger = get_logger("repro.service.presig")

    # -- introspection ---------------------------------------------------------

    @property
    def level(self) -> int:
        """Presignatures ready to be taken right now."""
        return len(self._ready)

    @property
    def enabled(self) -> bool:
        return self.target > 0

    def _publish_level(self) -> None:
        obs_metrics.gauge_set(
            "repro_service_pool_depth",
            self.level,
            help="presignatures ready in the pool",
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self, prefill: bool = True) -> None:
        """Prefill to ``target`` (unless disabled), then keep a refill
        task parked on the low-watermark signal."""
        if not self.enabled or self._refill_task is not None:
            return
        if prefill:
            await self.refill()
        self._refill_task = asyncio.create_task(self._refill_loop())

    async def stop(self) -> None:
        self._closed = True
        if self._refill_task is not None:
            self._refill_task.cancel()
            try:
                await self._refill_task
            except asyncio.CancelledError:
                pass
            self._refill_task = None

    # -- the hot path ----------------------------------------------------------

    def take(self) -> Presignature | None:
        """Pop one ready presignature, or None when the pool is dry
        (the caller then pays for :meth:`forge_now`)."""
        presig = self._ready.popleft() if self._ready else None
        self._publish_level()
        if self.enabled and self.level < self.low_watermark:
            self._wakeup.set()
        return presig

    async def forge_now(self) -> Presignature:
        """Run one nonce DKG on demand, off the event loop, and hand
        the presignature straight to the caller (never pooled)."""
        presig, shares = await self._forge_one()
        self._install(presig, shares)
        return presig

    # -- refill ----------------------------------------------------------------

    async def _forge_one(self) -> tuple[Presignature, dict[int, int]]:
        presig_id = self._next_id
        self._next_id += 1
        loop = asyncio.get_running_loop()
        presig, shares = await loop.run_in_executor(None, self._forge, presig_id)
        self.forged += 1
        obs_metrics.counter_inc(
            "repro_service_presigs_forged_total",
            help="presignatures forged (pooled and on-demand)",
        )
        return presig, shares

    async def _forge_some(
        self, count: int
    ) -> list[tuple[Presignature, dict[int, int]]]:
        """One executor call forging ``count`` nonces as concurrent DKG
        sessions over a single multiplexed endpoint set."""
        assert self._forge_batch is not None
        ids = [self._next_id + k for k in range(count)]
        self._next_id += count
        loop = asyncio.get_running_loop()
        batch = await loop.run_in_executor(None, self._forge_batch, ids)
        self.forged += len(batch)
        obs_metrics.counter_inc(
            "repro_service_presigs_forged_total",
            amount=len(batch),
            help="presignatures forged (pooled and on-demand)",
        )
        return batch

    async def refill(self) -> None:
        """Forge until the pool is back at ``target``.  Entries whose
        contributors intersect the quarantine (forged while a crash was
        being processed) are screened out *before* any share is
        installed; if the forge keeps producing quarantined
        contributors, give up until the next wakeup rather than spin.

        With a batch forge, the whole deficit is forged as concurrent
        multiplexed DKG sessions in one call."""
        if self._closed or self.level >= self.target:
            return
        started = time.perf_counter()
        screened = 0
        while not self._closed and self.level < self.target:
            deficit = self.target - self.level
            if self._forge_batch is not None and deficit > 1:
                batch = await self._forge_some(deficit)
            else:
                batch = [await self._forge_one()]
            for presig, shares in batch:
                if self._closed:
                    return
                if self._quarantine & set(presig.contributors):
                    self.invalidated += 1
                    obs_metrics.counter_inc(
                        "repro_service_presigs_invalidated_total",
                        help="pooled presignatures discarded or screened out",
                    )
                    screened += 1
                    continue
                self._install(presig, shares)
                self._ready.append(presig)
                self._publish_level()
            if screened > self.target:
                break
        obs_metrics.observe(
            "repro_service_pool_refill_seconds",
            time.perf_counter() - started,
            help="wall time to bring the pool back to target",
        )

    async def _refill_loop(self) -> None:
        while not self._closed:
            await self._wakeup.wait()
            self._wakeup.clear()
            try:
                await self.refill()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # A failed forge (e.g. too few live nodes for the nonce
                # DKG) must not kill the pool: signing falls back to
                # on-demand forging; retry once conditions may have
                # changed.
                self.refill_failures += 1
                self.logger.warning("presignature refill failed: %s", exc)
                await asyncio.sleep(_REFILL_RETRY_S)
                if not self._closed and self.level < self.target:
                    self._wakeup.set()

    # -- crash safety ----------------------------------------------------------

    def invalidate(self, node_index: int) -> int:
        """Drop every pooled presignature ``node_index`` contributed
        to and quarantine it for future refills; returns the number of
        entries dropped."""
        self._quarantine.add(node_index)
        survivors: deque[Presignature] = deque()
        dropped = 0
        for presig in self._ready:
            if node_index in presig.contributors:
                dropped += 1
                # Tell the workers to erase their shares of the dropped
                # nonce — otherwise they would hold them forever.
                self._discard(presig.presig_id)
            else:
                survivors.append(presig)
        self._ready = survivors
        self.invalidated += dropped
        if dropped:
            obs_metrics.counter_inc(
                "repro_service_presigs_invalidated_total",
                amount=dropped,
                help="pooled presignatures discarded or screened out",
            )
        self._publish_level()
        if self.enabled and self.level < self.low_watermark:
            self._wakeup.set()
        return dropped

    def absolve(self, node_index: int) -> None:
        """Lift the quarantine after the node recovers (it still holds
        no nonce shares — only *new* presignatures may include it)."""
        self._quarantine.discard(node_index)
