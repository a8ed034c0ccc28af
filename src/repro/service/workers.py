"""Per-node request handlers and the assembled threshold service.

:class:`SignerWorker` is the serving-layer stand-in for one cluster
member's *request path*: it holds the node's long-term key share from
the bootstrap DKG plus its node-local shares of pooled nonces, and
answers partial-signature calls by reusing the :mod:`repro.apps`
logic.  Shares never leave the worker — only public partials do — and
a crash wipes the worker's ephemeral nonce shares, exactly the
memory-loss semantics the paper's crash model ascribes to rebooted
nodes (§2.2).

:class:`ThresholdService` assembles a full service: it bootstraps the
group key with one DKG, builds a worker per member, attaches the
presignature pool (:mod:`repro.service.presig`), and exposes the
operation handlers the frontend gateway fans requests out to.  The
signing path verifies the signature, not the partials:
:func:`repro.apps.threshold_schnorr.combine` interpolates, checks the
result once under the group key, and examines partials one by one
only when that check fails; the signers it then rejects are counted
in ``repro_service_bad_partials_total``.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Awaitable, Callable

from repro import deployment
from repro.apps import PartialSignature, threshold_schnorr
from repro.crypto import parallel, schnorr
from repro.crypto.feldman import (
    FeldmanCommitment,
    FeldmanVector,
    share_verifier,
)
from repro.crypto.backend import AbstractGroup
from repro.crypto.groups import toy_group
from repro.crypto.polynomials import interpolate_polynomial
from repro.dkg import DkgConfig, run_dkg
from repro.dkg.messages import DkgCompletedOutput, DkgStartInput
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.service import protocol
from repro.service.presig import PresigPool, Presignature
from repro.sim.network import ConstantDelay

Commitment = FeldmanCommitment | FeldmanVector


# Held by the one nonce this process forges itself at a time, whichever
# service it belongs to: the process has one GIL.
_forge_lane = threading.Lock()

# On-demand nonce DKGs one service runs at once (pool misses).
FORGE_CONCURRENCY = 4


@lru_cache(maxsize=32)
def _forge_pki(
    group: AbstractGroup, members: tuple[int, ...], seed: int
) -> deployment.Pki:
    """The forge's identities, enrolled once per process per service:
    the gateway and each pool worker keep them (and the signature
    checkers' tables warm on their keys) from forge to forge."""
    return deployment.forge_pki(group, members, seed)


def run_dkg_sessions(
    group: AbstractGroup, live: tuple[int, ...], seed: int, sessions: deployment.Stage
) -> dict[str, dict[int, DkgCompletedOutput]]:
    """Run nonce DKG ``sessions`` as one stage of a world of ``live``
    runtimes with instant delivery; each session's completions.  The
    runtimes evict a session as it completes (its outputs survive), so
    a large batch holds live machines only for its stragglers."""
    world = deployment.SimWorld(group, live, seed, ConstantDelay(0.0))
    for runtime in world.runtimes.values():
        runtime.evict_completed = True
    outputs, _ = world.run_stage(sessions, DkgCompletedOutput.kind)
    return outputs


def _forge_sessions(
    group: AbstractGroup,
    members: tuple[int, ...],
    live: tuple[int, ...],
    t: int,
    seed: int,
    presig_ids: list[int],
) -> list[tuple[Presignature, dict[int, int]]]:
    """Run one batch of nonce DKGs among ``live`` as concurrent sessions
    multiplexed over one embedded runtime world, under the PKI of the
    service's ``members``.  Pure and process-safe: the serial forge
    calls it directly, the parallel forge runs one call per chunk in a
    pool worker (seeded exactly as a serial run of that chunk alone, so
    forge results are deterministic given seed)."""
    pki = _forge_pki(group, members, seed)
    sessions: deployment.Stage = {}
    for presig_id in presig_ids:
        config = DkgConfig(
            n=len(live),
            t=t,
            group=group,
            members=tuple(live),
            initial_leader=live[presig_id % len(live)],
            enforce_resilience=False,
        )
        sessions[f"nonce-{presig_id}"] = (
            deployment.dkg_machines(config, pki, live, tau=presig_id),
            {i: DkgStartInput(presig_id) for i in live},
        )
    results = run_dkg_sessions(
        group, live, seed * 1_000_003 + presig_ids[0] + 1, sessions
    )
    batch: list[tuple[Presignature, dict[int, int]]] = []
    for presig_id in presig_ids:
        outputs = results[f"nonce-{presig_id}"]
        if set(outputs) != set(live):
            raise RuntimeError(f"nonce DKG {presig_id} did not complete")
        shares, commitment, q_set = deployment.adopt(outputs, "nonce DKG")
        batch.append(
            (
                Presignature(
                    presig_id=presig_id,
                    commitment=commitment,
                    nonce_point=commitment.public_key(),
                    contributors=q_set,
                ),
                shares,
            )
        )
    return batch


def _forge_sessions_job(payload: tuple) -> tuple[float, list]:
    """Pool-worker wrapper around :func:`_forge_sessions`: commitments
    cross back to the parent in canonical serialized form (the
    :class:`FeldmanCommitment` memo caches are per-process and must not
    travel)."""
    spec, members, live, t, seed, presig_ids = payload
    started = time.perf_counter()
    group = parallel.group_from_spec(spec)
    encoded = []
    forged = _forge_sessions(group, members, live, t, seed, list(presig_ids))
    for presig, shares in forged:
        rows = [
            [group.element_to_bytes(entry) for entry in row]
            for row in presig.commitment.matrix
        ]
        encoded.append(
            (presig.presig_id, tuple(presig.contributors), dict(shares), rows)
        )
    return time.perf_counter() - started, encoded


def _on_committed_polynomial(vector: FeldmanVector, shares: dict[int, int]) -> bool:
    """True iff every ``(index, share)`` lies on the polynomial that
    ``vector`` commits to: the one through the t+1 lowest-index shares
    must pass through the others, in the field, and its coefficients
    must exponentiate to ``vector``'s entries, in one batch.  Exact,
    so its verdict is every share's :meth:`FeldmanVector.verify_share`
    at once."""
    group = vector.group
    points = sorted(shares.items())
    k = len(vector.entries)
    if len(points) < k:
        return all(vector.verify_share(i, share) for i, share in points)
    poly = interpolate_polynomial(points[:k], group.q)
    if any(poly(i) != share % group.q for i, share in points[k:]):
        return False
    return group.fixed_base(group.g).pow_many(poly.coeffs) == list(vector.entries)


class WorkerCrashed(Exception):
    """The worker is down (or lost the requested nonce share)."""


class ServiceUnavailable(Exception):
    """Too few live contributors to reach the t+1 threshold."""


class SignerWorker:
    """One member's request-path handler, keyed by its DKG share."""

    def __init__(
        self,
        index: int,
        group: AbstractGroup,
        key_share: int,
        key_commitment: Commitment,
    ):
        self.index = index
        self.group = group
        self.key_commitment = key_commitment
        self.crashed = False
        self.handled = 0
        self._key_share = key_share
        # presig id -> this node's share of the shared nonce k.
        self._nonce_shares: dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def crash(self) -> None:
        """Take the worker down; ephemeral nonce shares are memory-only
        and do not survive (the long-term key share is assumed to be on
        persistent storage, as for protocol recovery)."""
        self.crashed = True
        self._nonce_shares.clear()

    def recover(self) -> None:
        """Come back up.  Nonce shares stay lost — pooled presignatures
        this node contributed to were invalidated at crash time."""
        self.crashed = False

    def _check_up(self) -> None:
        if self.crashed:
            raise WorkerCrashed(f"node {self.index} is down")

    # -- nonce share custody ---------------------------------------------------

    def install_nonce(self, presig_id: int, nonce_share: int) -> None:
        self._check_up()
        self._nonce_shares[presig_id] = nonce_share

    def discard_nonce(self, presig_id: int) -> None:
        self._nonce_shares.pop(presig_id, None)

    @property
    def nonce_count(self) -> int:
        return len(self._nonce_shares)

    # -- partial operations ----------------------------------------------------

    async def partial_sign(
        self, presig_id: int, nonce_point: int, message: bytes
    ) -> PartialSignature:
        """z_i = k_i + c * s_i for the pooled nonce ``presig_id``.

        The nonce share is *consumed*: signing two different messages
        with one Schnorr nonce leaks the key share, so a worker only
        ever answers once per presignature.
        """
        await asyncio.sleep(0)
        self._check_up()
        if presig_id not in self._nonce_shares:
            raise WorkerCrashed(
                f"node {self.index} holds no share of presignature {presig_id}"
            )
        nonce_share = self._nonce_shares.pop(presig_id)
        response = threshold_schnorr.partial_sign(
            self.group,
            message,
            self._key_share,
            nonce_share,
            self.key_commitment.public_key(),
            nonce_point,
        )
        self.handled += 1
        return PartialSignature(self.index, response)


async def collect_partials(
    workers: list[SignerWorker],
    op: Callable[[SignerWorker], Awaitable],
    need: int,
) -> list:
    """Fan ``op`` out to every live worker concurrently.

    Crashed workers (including mid-await crashes surfacing as
    :class:`WorkerCrashed`) are tolerated; any other handler exception
    propagates.  Raises :class:`ServiceUnavailable` when fewer than
    ``need`` partials come back.
    """
    live = [w for w in workers if not w.crashed]
    results = await asyncio.gather(
        *(op(worker) for worker in live), return_exceptions=True
    )
    collected = []
    for outcome in results:
        if isinstance(outcome, WorkerCrashed):
            continue
        if isinstance(outcome, BaseException):
            raise outcome
        collected.append(outcome)
    if len(collected) < need:
        raise ServiceUnavailable(
            f"{len(collected)} live contributions, need {need}"
        )
    return collected


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters for one :class:`ThresholdService` deployment."""

    n: int = 7
    t: int = 2
    f: int = 0
    group: AbstractGroup = field(default_factory=toy_group)
    seed: int = 0
    pool_target: int = 16  # 0 disables the pool (every sign forges on demand)
    pool_low_watermark: int | None = None  # default: half the target


class ThresholdService:
    """A DKG'd cluster turned into a long-running request servant.

    Construction runs the bootstrap DKG (the paper's protocol, in the
    embedded deterministic runtime) and distributes the key shares to
    one :class:`SignerWorker` per member; :meth:`start` brings up the
    presignature pool.  The operation handlers return protocol response
    dataclasses ready for the wire; :meth:`handle` / :meth:`handle_batch`
    are the dispatch surface the frontend uses.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.group = config.group
        dkg_config = DkgConfig(n=config.n, t=config.t, f=config.f, group=config.group)
        # Each member's contributed secret depends on the service seed:
        # node-local DKG randomness is seeded by (tau, node_id) alone and
        # the bootstrap runs at tau=0, so without this every service of a
        # given (n, t) would derive the same group key whatever its seed.
        secrets = {
            i: config.group.random_scalar(
                random.Random(("svc-bootstrap", config.seed, i).__repr__())
            )
            for i in dkg_config.vss().indices
        }
        bootstrap = run_dkg(
            dkg_config,
            seed=config.seed,
            delay_model=ConstantDelay(0.0),
            secrets=secrets,
        )
        if not bootstrap.succeeded:
            raise RuntimeError("bootstrap DKG did not complete")
        self.key_commitment: Commitment = bootstrap.commitment
        self.public_key = bootstrap.public_key
        self.workers = {
            i: SignerWorker(i, config.group, share, self.key_commitment)
            for i, share in bootstrap.shares.items()
        }
        self.pool = PresigPool(
            self._forge_nonce,
            self._install_nonce,
            target=config.pool_target,
            low_watermark=config.pool_low_watermark,
            discard=self._discard_nonce,
            forge_batch=self._forge_nonce_batch,
        )
        self.served = 0
        self.failed = 0
        self.logger = get_logger(
            "repro.service.workers", n=config.n, t=config.t
        )
        self._forge_gate = asyncio.Semaphore(FORGE_CONCURRENCY)
        # The forge's process pool: one worker per CPU, never more than
        # a refill can use (None = serial: one CPU, or pool disabled).
        # Created and warmed here, before any event loop runs, so the
        # fork happens from a quiet process.
        self.crypto_executor: parallel.CryptoExecutor | None = None
        width = min(parallel.available_cpus(), config.pool_target)
        if width > 1:
            self.crypto_executor = parallel.CryptoExecutor(width)
            self.crypto_executor.warm()

    # -- lifecycle -------------------------------------------------------------

    async def start(self, prefill: bool = True) -> None:
        await self.pool.start(prefill=prefill)

    async def stop(self) -> None:
        await self.pool.stop()
        if self.crypto_executor is not None:
            self.crypto_executor.close()

    def crash_node(self, index: int) -> int:
        """Crash one member mid-run: its worker loses all ephemeral
        state and every pooled presignature it contributed to is
        invalidated (its nonce sub-share must be presumed exposed).
        Returns the number of presignatures dropped."""
        self.workers[index].crash()
        dropped = self.pool.invalidate(index)
        self.logger.bind(node=index).warning(
            "worker crashed; %d pooled presignatures invalidated", dropped
        )
        return dropped

    def recover_node(self, index: int) -> None:
        self.workers[index].recover()
        self.pool.absolve(index)
        self.logger.bind(node=index).info("worker recovered")

    def flush_presignatures(self) -> int:
        """Drain the pool and discard every worker's nonce shares for
        the drained presignatures, so no usable one-time nonce outlives
        the pool entry that held it.  Returns the number of
        presignatures flushed."""
        flushed = 0
        while (presig := self.pool.take()) is not None:
            self._discard_nonce(presig.presig_id)
            flushed += 1
        self.logger.info("flushed %d pooled presignatures", flushed)
        return flushed

    @property
    def t(self) -> int:
        return self.config.t

    @property
    def alive(self) -> list[SignerWorker]:
        return [w for w in self.workers.values() if not w.crashed]

    # -- presignature plumbing -------------------------------------------------

    def _forge_nonce_batch(
        self, presig_ids: list[int]
    ) -> list[tuple[Presignature, dict[int, int]]]:
        """Fresh shared nonces = more DKGs (§1), run among the
        currently-live members as *concurrent sessions* multiplexed
        over one runtime endpoint per node, under one PKI over all
        members for the service's life.  A single nonce is forged in
        this process while no other forge holds its one lane; any other
        batch, with a crypto executor, is partitioned into per-worker
        chunks, each chunk one embedded protocol world in a pool worker.
        Without an executor (or if the pool fails) the batch runs
        serially in one world.  Blocking; the pool calls it off the
        event loop."""
        live = tuple(sorted(i for i, w in self.workers.items() if not w.crashed))
        if len(live) < 2 * self.t + 1:
            raise ServiceUnavailable(
                f"{len(live)} live nodes cannot run a t={self.t} nonce DKG"
            )
        members = tuple(sorted(self.workers))
        executor = self.crypto_executor
        # The lane keeps one single-nonce forge in process, where the
        # benchmark's tracer times it; the tracer cannot see pool
        # workers.  A second one at the same time would share the GIL
        # with it and with the event loop, so it goes to the pool like
        # any batch.
        in_lane = len(presig_ids) == 1 and _forge_lane.acquire(blocking=False)
        try:
            if not in_lane and executor is not None and executor.parallel:
                spec = parallel.group_spec(self.group)
                payloads = [
                    (spec, members, live, self.t, self.config.seed, chunk)
                    for chunk in parallel.partition(presig_ids, executor.width)
                ]
                results = executor.map_jobs("forge", _forge_sessions_job, payloads)
                if results is not None:
                    batch: list[tuple[Presignature, dict[int, int]]] = []
                    for _, encoded in results:
                        batch.extend(self._decode_forged(item) for item in encoded)
                    return batch
            return _forge_sessions(
                self.group, members, live, self.t, self.config.seed, presig_ids
            )
        finally:
            if in_lane:
                _forge_lane.release()

    def _decode_forged(
        self, item: tuple
    ) -> tuple[Presignature, dict[int, int]]:
        """Rebuild one forged presignature from its canonical encoding
        (element decode validates what came back across the pool)."""
        presig_id, contributors, shares, rows = item
        group = self.group
        commitment = FeldmanCommitment(
            tuple(
                tuple(group.element_decode(raw) for raw in row) for row in rows
            ),
            group,
        )
        return (
            Presignature(
                presig_id=presig_id,
                commitment=commitment,
                nonce_point=commitment.public_key(),
                contributors=contributors,
            ),
            shares,
        )

    def _forge_nonce(self, presig_id: int) -> tuple[Presignature, dict[int, int]]:
        """Single-nonce forge (the pool's on-demand fallback path)."""
        return self._forge_nonce_batch([presig_id])[0]

    def _install_nonce(self, presig: Presignature, shares: dict[int, int]) -> None:
        # Refill-time defense in depth: check every nonce share against
        # the presignature commitment before any worker takes custody.
        # A share that would later produce an unusable partial is caught
        # here, off the request path, with the culprit identified.
        vector = share_verifier(presig.commitment)
        if not _on_committed_polynomial(vector, shares):
            bad = [
                i for i, share in shares.items() if not vector.verify_share(i, share)
            ]
            raise RuntimeError(
                f"presignature {presig.presig_id}: nonce shares failed "
                f"commitment verification for nodes {sorted(bad)}"
            )
        for index, share in shares.items():
            worker = self.workers.get(index)
            if worker is not None and not worker.crashed:
                worker.install_nonce(presig.presig_id, share)

    def _discard_nonce(self, presig_id: int) -> None:
        for worker in self.workers.values():
            worker.discard_nonce(presig_id)

    # -- operations ------------------------------------------------------------

    async def sign(self, message: bytes) -> tuple[schnorr.Signature, bool]:
        """Threshold-sign ``message``; returns (signature, presig_used).

        The hot path pops a precomputed nonce from the pool; when the
        pool is dry (burst, crash invalidation, or disabled) the nonce
        DKG runs on demand — the unamortized cost the pool exists to
        hide.
        """
        presig = self.pool.take()
        from_pool = presig is not None
        if presig is None:
            async with self._forge_gate:
                presig = await self.pool.forge_now()

        async def ask(worker: SignerWorker) -> tuple[int, PartialSignature]:
            return worker.index, await worker.partial_sign(
                presig.presig_id, presig.nonce_point, message
            )

        answers = await collect_partials(list(self.workers.values()), ask, self.t + 1)
        # A worker answers for itself only: a partial under another index
        # is dropped and charged to the worker that sent it, so it can
        # neither shadow that signer's own partial nor get it blamed.
        partials = [partial for index, partial in answers if partial.index == index]
        rejected = [index for index, partial in answers if partial.index != index]
        try:
            # Returns a signature that verifies under the group key as an
            # ordinary single-signer Schnorr signature, or raises.
            signature = threshold_schnorr.combine(
                self.group,
                message,
                partials,
                self.key_commitment,
                presig.commitment,
                self.t,
                rejected=rejected,
            )
        except threshold_schnorr.SigningError as exc:
            raise ServiceUnavailable(str(exc)) from exc
        finally:
            if rejected:
                self._charge_bad_partials(presig.presig_id, rejected)
        return signature, from_pool

    def _charge_bad_partials(self, presig_id: int, indices: list[int]) -> None:
        # Counted and logged, and nothing more.  In particular NOT
        # PresigPool.invalidate(index): that discards every pooled
        # presignature the node contributed to (all of them, when every
        # member deals), so one bad partial per request would cost a
        # whole pool of nonce DKGs -- a denial-of-service amplifier
        # handed to exactly the signer being charged.
        for index in indices:
            obs_metrics.counter_inc(
                "repro_service_bad_partials_total",
                help="partial signatures that failed verification, by signer",
                node=index,
            )
        self.logger.warning(
            "presignature %d: bad partial signatures from nodes %s",
            presig_id,
            sorted(indices),
        )

    def status(self, request_id: int = 0) -> protocol.StatusResponse:
        return protocol.StatusResponse(
            request_id=request_id,
            n=self.config.n,
            t=self.config.t,
            alive=len(self.alive),
            pool_ready=self.pool.level,
            pool_target=self.pool.target,
            served=self.served,
            failed=self.failed,
            public_key=self.public_key,
            group_name=self.group.name,
        )

    def ops(self, request_id: int = 0) -> protocol.OpsResponse:
        """The live metrics snapshot plus a status digest, as JSON.

        Metric families are carried opaquely (one JSON document) so
        adding instrumentation anywhere in the stack never requires a
        codec change — clients read names they know and ignore the rest.
        """
        reg = obs_metrics.registry()
        document = {
            "schema": 1,
            "status": {
                "n": self.config.n,
                "t": self.config.t,
                "alive": len(self.alive),
                "pool_ready": self.pool.level,
                "pool_target": self.pool.target,
                "served": self.served,
                "failed": self.failed,
                "group": self.group.name,
                # Which fast paths this server actually has: native
                # probes (gmpy2, coincurve) and the forge's pool width.
                "acceleration": parallel.acceleration_status(
                    self.crypto_executor
                ),
            },
            "metrics": reg.snapshot() if reg is not None else {},
        }
        return protocol.OpsResponse(
            request_id,
            json.dumps(document, separators=(",", ":"), default=str).encode(),
        )

    # -- request dispatch ------------------------------------------------------

    async def handle(self, request) -> object:
        """Map one protocol request to its response (never raises).

        Every request is timed into
        ``repro_service_request_seconds{kind}``.
        """
        started = time.perf_counter()
        response = await self._handle_inner(request)
        kind = getattr(request, "kind", type(request).__name__)
        obs_metrics.observe(
            "repro_service_request_seconds",
            time.perf_counter() - started,
            help="request handling latency by request kind",
            kind=kind,
        )
        obs_metrics.counter_inc(
            "repro_service_requests_total",
            help="requests handled by kind and outcome",
            kind=kind,
            outcome="error"
            if isinstance(response, protocol.ErrorResponse)
            else "ok",
        )
        return response

    async def _handle_inner(self, request) -> object:
        rid = request.request_id
        try:
            if isinstance(request, protocol.SignRequest):
                signature, from_pool = await self.sign(request.message)
                response: object = protocol.SignResponse(
                    rid, signature.challenge, signature.response, from_pool
                )
            elif isinstance(request, protocol.StatusRequest):
                response = self.status(rid)
            elif isinstance(request, protocol.OpsRequest):
                response = self.ops(rid)
            else:
                raise ValueError(f"unsupported request {type(request).__name__}")
        except (ValueError, TypeError) as exc:
            self.failed += 1
            return protocol.ErrorResponse(rid, protocol.ERR_BAD_REQUEST, str(exc))
        except ServiceUnavailable as exc:
            self.failed += 1
            return protocol.ErrorResponse(rid, protocol.ERR_UNAVAILABLE, str(exc))
        except Exception as exc:
            self.failed += 1
            return protocol.ErrorResponse(rid, protocol.ERR_FAILED, str(exc))
        self.served += 1
        return response

    async def handle_batch(self, requests: list) -> list:
        """Handle a same-kind batch concurrently (each SIGN needs its
        own nonce, so nothing in a batch is shared)."""
        return list(await asyncio.gather(*(self.handle(r) for r in requests)))
