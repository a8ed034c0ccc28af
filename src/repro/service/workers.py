"""Per-node request handlers and the assembled threshold service.

:class:`SignerWorker` is the serving-layer stand-in for one cluster
member's *request path*: it holds the node's long-term key share from
the bootstrap DKG plus its node-local shares of pooled nonces, and
answers partial-operation calls (partial Schnorr signatures, DPRF
contributions, partial ElGamal decryptions) by reusing the
:mod:`repro.apps` logic.  Shares never leave the worker — only public,
proof-carrying partials do — and a crash wipes the worker's ephemeral
nonce shares, exactly the memory-loss semantics the paper's crash model
ascribes to rebooted nodes (§2.2).

:class:`ThresholdService` assembles a full service: it bootstraps the
group key with one DKG, builds a worker per member, attaches the
presignature pool (:mod:`repro.service.presig`) and the randomness
beacon chain, and exposes the operation handlers the frontend gateway
fans requests out to.  The signing path verifies the signature, not
the partials: :func:`repro.apps.threshold_schnorr.combine` interpolates,
checks the result once under the group key, and examines partials one by
one only when that check fails; the signers it then rejects are counted
in ``repro_service_bad_partials_total``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.apps import (
    Beacon,
    BeaconRound,
    PartialSignature,
    dprf,
    threshold_elgamal,
    threshold_schnorr,
)
from repro.crypto import parallel, schnorr
from repro.crypto.feldman import (
    FeldmanCommitment,
    FeldmanVector,
    share_verifier,
)
from repro.crypto.backend import AbstractGroup
from repro.crypto.groups import toy_group
from repro.dkg import DkgConfig, run_dkg
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.runtime.sessions import DkgSessionSpec, run_dkg_sessions
from repro.service import protocol
from repro.service.presig import PresigPool, Presignature
from repro.sim.network import ConstantDelay

Commitment = FeldmanCommitment | FeldmanVector


def _forge_sessions(
    group: AbstractGroup,
    live: tuple[int, ...],
    t: int,
    seed: int,
    presig_ids: list[int],
) -> list[tuple[Presignature, dict[int, int]]]:
    """Run one batch of nonce DKGs as concurrent sessions multiplexed
    over one embedded runtime world.  Pure and process-safe: the serial
    forge calls it directly, the parallel forge runs one call per chunk
    in a pool worker (seeded exactly as a serial run of that chunk
    alone, so forge results are deterministic given seed)."""
    specs = [
        DkgSessionSpec(
            session=f"nonce-{presig_id}",
            config=DkgConfig(
                n=len(live),
                t=t,
                group=group,
                members=tuple(live),
                initial_leader=live[presig_id % len(live)],
                enforce_resilience=False,
            ),
            tau=presig_id,
        )
        for presig_id in presig_ids
    ]
    results = run_dkg_sessions(
        specs,
        seed=seed * 1_000_003 + presig_ids[0] + 1,
        delay_model=ConstantDelay(0.0),
    )
    batch: list[tuple[Presignature, dict[int, int]]] = []
    for presig_id in presig_ids:
        result = results[f"nonce-{presig_id}"]
        if not result.succeeded:
            raise RuntimeError(f"nonce DKG {presig_id} did not complete")
        commitment = result.commitment
        batch.append(
            (
                Presignature(
                    presig_id=presig_id,
                    commitment=commitment,
                    nonce_point=commitment.public_key(),
                    contributors=result.q_set,
                ),
                result.shares,
            )
        )
    return batch


def _forge_sessions_job(payload: tuple) -> tuple[float, list]:
    """Pool-worker wrapper around :func:`_forge_sessions`: commitments
    cross back to the parent in canonical serialized form (the
    :class:`FeldmanCommitment` memo caches are per-process and must not
    travel)."""
    spec, live, t, seed, presig_ids = payload
    started = time.perf_counter()
    group = parallel.group_from_spec(spec)
    encoded = []
    for presig, shares in _forge_sessions(group, live, t, seed, list(presig_ids)):
        rows = [
            [group.element_to_bytes(entry) for entry in row]
            for row in presig.commitment.matrix
        ]
        encoded.append(
            (presig.presig_id, tuple(presig.contributors), dict(shares), rows)
        )
    return time.perf_counter() - started, encoded


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
        seed: int = 0,
    ):
        self.index = index
        self.group = group
        self.key_commitment = key_commitment
        self.crashed = False
        self.handled = 0
        self._key_share = key_share
        self._rng = random.Random(("svc-worker", seed, index).__repr__())
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

    async def dprf_contribute(self, tag: bytes) -> dprf.PartialEval:
        """H1(tag)^{s_i} with its DLEQ proof (PRF and beacon rounds)."""
        await asyncio.sleep(0)
        self._check_up()
        self.handled += 1
        return dprf.partial_eval(self.group, tag, self.index, self._key_share, self._rng)

    async def partial_decrypt(self, c1: int) -> threshold_elgamal.PartialDecryption:
        """c1^{s_i} with its DLEQ proof (threshold ElGamal)."""
        await asyncio.sleep(0)
        self._check_up()
        self.handled += 1
        return threshold_elgamal.partial_decrypt(
            self.group,
            threshold_elgamal.Ciphertext(c1, self.group.identity),
            self.index,
            self._key_share,
            self._rng,
        )


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
    beacon_output_bytes: int = 32
    forge_concurrency: int = 4  # concurrent on-demand nonce DKGs
    # Shard id when this service is one committee of a ShardRouter
    # fleet: embedded shards share the process registry, so every
    # service/pool metric is labelled with the shard for the fleet
    # merge to scope by (see repro.obs.fleet).
    shard: str | None = None


class ThresholdService:
    """A DKG'd cluster turned into a long-running request servant.

    Construction runs the bootstrap DKG (the paper's protocol, in the
    embedded deterministic runtime) and distributes the key shares to
    one :class:`SignerWorker` per member; :meth:`start` brings up the
    presignature pool.  The operation handlers return protocol response
    dataclasses ready for the wire; :meth:`handle` / :meth:`handle_batch`
    are the dispatch surface the frontend uses.
    """

    def __init__(self, config: ServiceConfig, *, bootstrap=None):
        self.config = config
        self.group = config.group
        self._labels = {"shard": config.shard} if config.shard else {}
        if bootstrap is None:
            dkg_config = DkgConfig(
                n=config.n, t=config.t, f=config.f, group=config.group
            )
            # Each member's contributed secret must depend on the
            # service seed: node-local DKG randomness is seeded by
            # (tau, node_id) alone, and every shard of a router runs
            # tau=0 — without this, all shards would derive the same
            # group key.
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
        # ``bootstrap`` may also be any completed key-establishment
        # outcome carrying .commitment / .shares / .public_key — e.g. a
        # GroupModClusterResult, so a committee grown over real TCP via
        # the §6.2 machinery can be commissioned as a service directly.
        if len(bootstrap.shares) != config.n:
            raise ValueError(
                f"bootstrap carries {len(bootstrap.shares)} shares "
                f"for an n={config.n} service"
            )
        self.key_commitment: Commitment = bootstrap.commitment
        self.public_key = bootstrap.public_key
        self.workers = {
            i: SignerWorker(
                i, config.group, share, self.key_commitment, seed=config.seed
            )
            for i, share in bootstrap.shares.items()
        }
        self.beacon = Beacon(
            config.group,
            self.key_commitment,
            config.t,
            output_bytes=config.beacon_output_bytes,
        )
        self.pool = PresigPool(
            self._forge_nonce,
            self._install_nonce,
            target=config.pool_target,
            low_watermark=config.pool_low_watermark,
            discard=self._discard_nonce,
            forge_batch=self._forge_nonce_batch,
            labels=self._labels,
        )
        self.served = 0
        self.failed = 0
        self.logger = get_logger(
            "repro.service.workers", n=config.n, t=config.t
        )
        # The seed string is older than the name; changing it would change
        # the share-check weights.
        self._share_check_rng = random.Random(("svc-combine", config.seed).__repr__())
        self._beacon_lock = asyncio.Lock()
        self._forge_gate = asyncio.Semaphore(max(1, config.forge_concurrency))
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
        the drained presignatures (the shard-drain step: a retiring
        committee must not leave usable one-time nonces behind).
        Returns the number of presignatures flushed."""
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
        over one runtime endpoint per node.  With a crypto executor the
        whole-deficit batch is partitioned into per-worker chunks, each
        chunk one embedded protocol world in a pool worker; without one
        (or if the pool fails) the batch runs serially in one world.
        Blocking; the pool calls it off the event loop."""
        live = sorted(i for i, w in self.workers.items() if not w.crashed)
        if len(live) < 2 * self.t + 1:
            raise ServiceUnavailable(
                f"{len(live)} live nodes cannot run a t={self.t} nonce DKG"
            )
        executor = self.crypto_executor
        # A single nonce is one chunk: it stays in process.
        if executor is not None and executor.parallel and len(presig_ids) > 1:
            spec = parallel.group_spec(self.group)
            payloads = [
                (spec, tuple(live), self.t, self.config.seed, chunk)
                for chunk in parallel.partition(presig_ids, executor.width)
            ]
            results = executor.map_jobs("forge", _forge_sessions_job, payloads)
            if results is not None:
                batch: list[tuple[Presignature, dict[int, int]]] = []
                for _, encoded in results:
                    batch.extend(self._decode_forged(item) for item in encoded)
                return batch
        return _forge_sessions(
            self.group, tuple(live), self.t, self.config.seed, presig_ids
        )

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
        # the presignature commitment in ONE randomized-linear-
        # combination batch before any worker takes custody.  A share
        # that would later produce an unusable partial is caught here,
        # off the request path, with the culprit identified.
        _good, bad = share_verifier(presig.commitment).batch_verify(
            list(shares.items()), rng=self._share_check_rng
        )
        if bad:
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
                **self._labels,
            )
        self.logger.warning(
            "presignature %d: bad partial signatures from nodes %s",
            presig_id,
            sorted(indices),
        )

    async def beacon_next(self) -> BeaconRound:
        """Advance the beacon chain by one round (serialized: rounds
        are chained, so advances cannot interleave)."""
        async with self._beacon_lock:
            tag = self.beacon.next_tag()
            contributions = await collect_partials(
                list(self.workers.values()),
                lambda w: w.dprf_contribute(tag),
                self.t + 1,
            )
            try:
                return self.beacon.advance(contributions)
            except dprf.EvaluationError as exc:
                raise ServiceUnavailable(str(exc)) from exc

    def beacon_get(self, round_number: int) -> BeaconRound | None:
        if 0 <= round_number < self.beacon.height:
            return self.beacon.rounds[round_number]
        return None

    async def dprf_eval(self, tag: bytes) -> bytes:
        partials = await collect_partials(
            list(self.workers.values()),
            lambda w: w.dprf_contribute(tag),
            self.t + 1,
        )
        try:
            value = dprf.combine(
                self.group, tag, self.key_commitment, partials, self.t
            )
        except dprf.EvaluationError as exc:
            raise ServiceUnavailable(str(exc)) from exc
        return dprf.prf_bytes(self.group, value, self.config.beacon_output_bytes)

    async def decrypt(self, c1: int, pad: bytes) -> bytes:
        if not self.group.is_element(c1):
            raise ValueError("c1 is not a group element")
        partials = await collect_partials(
            list(self.workers.values()),
            lambda w: w.partial_decrypt(c1),
            self.t + 1,
        )
        try:
            return threshold_elgamal.decrypt_bytes_combine(
                self.group,
                threshold_elgamal.HybridCiphertext(c1, pad),
                self.key_commitment,
                partials,
                self.t,
            )
        except threshold_elgamal.DecryptionError as exc:
            raise ServiceUnavailable(str(exc)) from exc

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
            beacon_height=self.beacon.height,
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
                "beacon_height": self.beacon.height,
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

        Every singly-dispatched request is timed into
        ``repro_service_request_seconds{kind}`` (coalesced batch paths
        in :meth:`handle_batch` meter themselves).
        """
        started = time.perf_counter()
        response = await self._handle_inner(request)
        kind = getattr(request, "kind", type(request).__name__)
        obs_metrics.observe(
            "repro_service_request_seconds",
            time.perf_counter() - started,
            help="request handling latency by request kind",
            kind=kind,
            **self._labels,
        )
        obs_metrics.counter_inc(
            "repro_service_requests_total",
            help="requests handled by kind and outcome",
            kind=kind,
            outcome="error"
            if isinstance(response, protocol.ErrorResponse)
            else "ok",
            **self._labels,
        )
        return response

    def _meter_batch(self, requests: list, started: float, *, ok: bool) -> None:
        """Meter a coalesced batch as if each request were handled alone."""
        elapsed = time.perf_counter() - started
        for request in requests:
            kind = getattr(request, "kind", type(request).__name__)
            obs_metrics.observe(
                "repro_service_request_seconds",
                elapsed,
                help="request handling latency by request kind",
                kind=kind,
                **self._labels,
            )
            obs_metrics.counter_inc(
                "repro_service_requests_total",
                help="requests handled by kind and outcome",
                kind=kind,
                outcome="ok" if ok else "error",
                **self._labels,
            )

    async def _handle_inner(self, request) -> object:
        rid = request.request_id
        try:
            if isinstance(request, protocol.SignRequest):
                signature, from_pool = await self.sign(request.message)
                response: object = protocol.SignResponse(
                    rid, signature.challenge, signature.response, from_pool
                )
            elif isinstance(request, protocol.BeaconNextRequest):
                round_ = await self.beacon_next()
                response = protocol.BeaconResponse(
                    rid, round_.round_number, round_.output, round_.value
                )
            elif isinstance(request, protocol.BeaconGetRequest):
                found = self.beacon_get(request.round_number)
                if found is None:
                    raise ValueError(
                        f"beacon round {request.round_number} not published"
                    )
                response = protocol.BeaconResponse(
                    rid, found.round_number, found.output, found.value
                )
            elif isinstance(request, protocol.DprfEvalRequest):
                response = protocol.DprfResponse(
                    rid, await self.dprf_eval(request.tag)
                )
            elif isinstance(request, protocol.DecryptRequest):
                response = protocol.DecryptResponse(
                    rid, await self.decrypt(request.c1, request.pad)
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
        """Handle a same-kind batch, exploiting compatibility:

        * BEACON_NEXT — the whole batch is *coalesced* into one round
          advance; every requester receives the same fresh round;
        * DPRF_EVAL — duplicate tags are deduplicated and evaluated
          once;
        * everything else (SIGN included — each signature needs its own
          nonce) runs concurrently.
        """
        if len(requests) > 1 and isinstance(requests[0], protocol.BeaconNextRequest):
            started = time.perf_counter()
            try:
                round_ = await self.beacon_next()
            except ServiceUnavailable as exc:
                self.failed += len(requests)
                self._meter_batch(requests, started, ok=False)
                return [
                    protocol.ErrorResponse(
                        r.request_id, protocol.ERR_UNAVAILABLE, str(exc)
                    )
                    for r in requests
                ]
            self.served += len(requests)
            self._meter_batch(requests, started, ok=True)
            return [
                protocol.BeaconResponse(
                    r.request_id, round_.round_number, round_.output, round_.value
                )
                for r in requests
            ]
        if len(requests) > 1 and isinstance(requests[0], protocol.DprfEvalRequest):
            started = time.perf_counter()
            unique_tags = list(dict.fromkeys(r.tag for r in requests))
            outputs: dict[bytes, object] = {}
            for tag, outcome in zip(
                unique_tags,
                await asyncio.gather(
                    *(self.dprf_eval(tag) for tag in unique_tags),
                    return_exceptions=True,
                ),
            ):
                outputs[tag] = outcome
            responses = []
            for request in requests:
                outcome = outputs[request.tag]
                if isinstance(outcome, BaseException):
                    self.failed += 1
                    self._meter_batch([request], started, ok=False)
                    responses.append(
                        protocol.ErrorResponse(
                            request.request_id,
                            protocol.ERR_UNAVAILABLE
                            if isinstance(outcome, ServiceUnavailable)
                            else protocol.ERR_FAILED,
                            str(outcome),
                        )
                    )
                else:
                    self.served += 1
                    self._meter_batch([request], started, ok=True)
                    responses.append(
                        protocol.DprfResponse(request.request_id, outcome)
                    )
            return responses
        return list(await asyncio.gather(*(self.handle(r) for r in requests)))
