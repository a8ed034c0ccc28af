"""The five workloads.

Each workload draws every input (DKG seeds, the service seed, messages)
from ``--seed``, checks every output, and fills a :class:`Recorder`.
``bench/README.md`` says why each was chosen and what it must not be
used for.  The library sees only the generated values.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.groups import group_by_name
from repro.crypto.schnorr import Signature

# Bound here, before any traced pass patches the module attribute, so
# the client-side check is never attributed to the service.
from repro.crypto.schnorr import verify as verify_signature
from repro.dkg import DkgConfig, run_dkg
from repro.net.cluster import LocalCluster
from repro.service import protocol
from repro.service.frontend import ServiceFrontend
from repro.service.loadgen import ServiceClient
from repro.service.workers import ServiceConfig, ThresholdService
from repro.sim.network import ConstantDelay

clock = time.perf_counter

SETUP_REPEATS = 3  # set-ups per run; setup_s reports their median
CLIENTS = 2  # closed-loop clients, one connection each (= nproc here)
WARMUP_SIGNS = 2  # per client, answered and checked but not timed
STATUS_ROUND_TRIPS = 200
# Seconds of wall clock per protocol time unit on the TCP workload.  At
# the transport's default 0.02 the 30-unit leader timeout is 0.6 s,
# which fires before pure-python crypto finishes an n=7 DKG; every run
# then takes dozens of spurious lead-ch steps.  At 2.0 it never fires.
TCP_TIME_SCALE = 2.0


@dataclass
class Recorder:
    """What one measured section produced."""

    # Reads the layer counters (traced pass only); differenced over
    # each window so that work between windows is not counted.
    counters: Callable[[], dict[str, float]] | None = None
    op_s: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wire_bytes: int = 0
    wire_msgs: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def window(self) -> Iterator[None]:
        """A timed section: operations run inside one."""
        before = self.counters() if self.counters else {}
        start = clock()
        try:
            yield
        finally:
            self.windows.append((start, clock()))
            after = self.counters() if self.counters else {}
            for key, value in after.items():
                self.counts[key] = (
                    self.counts.get(key, 0.0) + value - before.get(key, 0.0)
                )

    @property
    def window_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def bump(self, key: str, amount: float = 1.0) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount


def _rng(*parts: Any) -> random.Random:
    return random.Random("|".join(str(part) for part in ("bench", *parts)))


# -- DKG workloads -------------------------------------------------------------


@dataclass(frozen=True)
class DkgShape:
    group: str
    n: int
    t: int


class _DkgWorkload:
    """Complete DKGs back to back; one operation is one DKG."""

    def __init__(self, name: str, shape: DkgShape, seed: int, smoke: bool):
        self.shape = DkgShape("toy", 4, 1) if smoke else shape
        self.rng = _rng(name, seed)
        self.once_s = 0.0
        self.setup_samples: list[float] = []
        self._footprint: tuple[int, int] | None = None

    def _config(self, n: int, t: int) -> DkgConfig:
        return DkgConfig(n=n, t=t, group=self.group)

    async def _run_one(self, config: DkgConfig, seed: int) -> tuple:
        """One DKG; returns (completions, metrics, transport errors)."""
        raise NotImplementedError

    async def setup(self) -> None:
        started = clock()
        self.group = group_by_name(self.shape.group)
        self.once_s = clock() - started
        for _ in range(SETUP_REPEATS):
            started = clock()
            await self._run_one(self._config(4, 1), self.rng.getrandbits(32))
            self.setup_samples.append(clock() - started)

    async def measure(self, seconds: float, rec: Recorder) -> None:
        config = self._config(self.shape.n, self.shape.t)
        begun = clock()
        while clock() - begun < seconds:
            seed = self.rng.getrandbits(32)
            rec.attempted += 1
            with rec.window():
                started = clock()
                completions, metrics, errors = await self._run_one(config, seed)
                elapsed = clock() - started
            problems = self._check(config, completions, metrics, errors)
            if problems:
                rec.fail(f"dkg seed {seed}: " + "; ".join(problems))
                continue
            rec.op_s.append(elapsed)
            rec.wire_msgs += metrics.messages_total
            rec.wire_bytes += metrics.bytes_total

    def _check(self, config, completions, metrics, errors) -> list[str]:
        problems = []
        if len(completions) != config.n:
            problems.append(f"{len(completions)}/{config.n} nodes completed")
        if len({out.public_key for out in completions.values()}) != 1:
            problems.append("nodes disagree on the public key")
        if len({out.q_set for out in completions.values()}) != 1:
            problems.append("nodes disagree on Q")
        for i, out in completions.items():
            if self.group.commit(out.share) != out.commitment.share_commitment(i):
                problems.append(f"node {i}: g^share != commitment({i})")
        if metrics.leader_changes:
            problems.append(f"{metrics.leader_changes} leader changes")
        if errors:
            problems.append(f"transport errors: {errors[:3]}")
        footprint = (metrics.messages_total, metrics.bytes_total)
        if self._footprint is None:
            self._footprint = footprint
        elif footprint != self._footprint:
            problems.append(
                f"(msgs, bytes) {footprint} differ from {self._footprint}"
            )
        return problems

    async def teardown(self) -> None:
        pass


class DkgSim(_DkgWorkload):
    """``run_dkg`` under the simulator with instant delivery: wall time
    is processor time only."""

    async def _run_one(self, config: DkgConfig, seed: int) -> tuple:
        result = run_dkg(config, seed=seed, delay_model=ConstantDelay(0.0))
        return result.completions, result.metrics, ()


class DkgTcp(_DkgWorkload):
    """The same DKG over localhost asyncio TCP."""

    async def _run_one(self, config: DkgConfig, seed: int) -> tuple:
        cluster = LocalCluster(
            config,
            seed=seed,
            delay_model=ConstantDelay(0.0),
            time_scale=TCP_TIME_SCALE,
        )
        try:
            result = await cluster.run_dkg()
        finally:
            await cluster.stop()
        return result.completions, result.metrics, result.errors


# -- gateway workloads ---------------------------------------------------------


class _CountingStream:
    """The client's side of one gateway connection, counting what
    crosses it.  Stands in for both the reader and the writer of a
    :class:`ServiceClient`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self.bytes = 0
        self.frames = 0

    async def readexactly(self, n: int) -> bytes:
        data = await self._reader.readexactly(n)
        self.bytes += n
        if n == 4:  # every frame starts with its 4-byte length
            self.frames += 1
        return data

    def write(self, data: bytes) -> None:
        self.bytes += len(data)
        self.frames += 1
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def close(self) -> None:
        self._writer.close()


class _SignWorkload:
    """A ThresholdService behind its TCP gateway, driven by ``CLIENTS``
    closed-loop clients; one operation is one SIGN round trip."""

    pool_target: int
    pool_low_watermark: int | None
    prefill: bool

    def __init__(self, name: str, seed: int, smoke: bool):
        self.group_name = "toy" if smoke else "secp256k1"
        self.rng = _rng(name, seed)
        self.client_rngs = [_rng(name, seed, "client", k) for k in range(CLIENTS)]
        self.once_s = 0.0
        self.setup_samples: list[float] = []
        self.clients: list[ServiceClient] = []

    async def _start(self) -> None:
        """Service, gateway, connections and the STATUS public key."""
        self.service = ThresholdService(
            ServiceConfig(
                n=4,
                t=1,
                group=self.group,
                seed=self.rng.getrandbits(32),
                pool_target=self.pool_target,
                pool_low_watermark=self.pool_low_watermark,
            )
        )
        await self.service.start(prefill=self.prefill)
        self.frontend = ServiceFrontend(self.service)
        await self.frontend.start()
        self.streams = []
        self.clients = []
        for _ in range(CLIENTS):
            stream = _CountingStream(
                *await asyncio.open_connection("127.0.0.1", self.frontend.port)
            )
            self.streams.append(stream)
            self.clients.append(ServiceClient(stream, stream, group=self.group))
        self.public_key = (await self.clients[0].status()).public_key

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        await self.frontend.stop()
        await self.service.stop()

    async def _sign(
        self, k: int, rec: Recorder, *, timed: bool = True
    ) -> protocol.SignResponse | None:
        """One SIGN from client ``k``, verified under the STATUS key."""
        message = self.client_rngs[k].randbytes(32)
        if timed:
            rec.attempted += 1
        started = clock()
        response = await self.clients[k].sign(message)
        elapsed = clock() - started
        if not isinstance(response, protocol.SignResponse):
            rec.fail(f"sign answered with {response}")
            return None
        if not verify_signature(
            self.group,
            self.public_key,
            message,
            Signature(response.challenge, response.response),
        ):
            rec.fail("signature does not verify under the STATUS key")
            return None
        if timed:
            rec.op_s.append(elapsed)
            rec.bump("sign_hits" if response.presig_used else "sign_misses")
        return response

    def _traffic(self) -> tuple[int, int]:
        return (
            sum(stream.bytes for stream in self.streams),
            sum(stream.frames for stream in self.streams),
        )

    @contextmanager
    def _metered(self, rec: Recorder) -> Iterator[None]:
        """A window that also books the clients' wire traffic."""
        bytes_before, frames_before = self._traffic()
        with rec.window():
            yield
        bytes_after, frames_after = self._traffic()
        rec.wire_bytes += bytes_after - bytes_before
        rec.wire_msgs += frames_after - frames_before

    def _check_gateway(self, rec: Recorder) -> None:
        if self.frontend.rejected_busy:
            rec.fail(f"{self.frontend.rejected_busy} busy rejections")
        rec.extra["busy_rejections"] = self.frontend.rejected_busy
        rec.extra["presigs_wasted"] = self.service.pool.invalidated


class SignBurst(_SignWorkload):
    """Every request finds a presignature waiting: the request path
    alone.  The pool is refilled between bursts with no client active,
    and each refill is one set-up sample."""

    pool_target = 16
    pool_low_watermark = 0  # never refill behind the clients' backs
    prefill = False  # the first burst's refill is a set-up sample too

    def __init__(self, name: str, seed: int, smoke: bool):
        super().__init__(name, seed, smoke)
        if smoke:
            self.pool_target = 8
        self._warm = False

    async def setup(self) -> None:
        started = clock()
        self.group = group_by_name(self.group_name)
        await self._start()
        self.once_s = clock() - started

    async def _burst(
        self, k: int, count: int, rec: Recorder, *, timed: bool = True
    ) -> None:
        for _ in range(count):
            response = await self._sign(k, rec, timed=timed)
            if response is not None and not response.presig_used:
                rec.fail("a burst request missed the pool")

    async def measure(self, seconds: float, rec: Recorder) -> None:
        pool = self.service.pool
        forged_before = pool.forged
        begun = clock()
        while True:
            if pool.level < pool.target:
                started = clock()
                await pool.refill()
                self.setup_samples.append(clock() - started)
            per_client = pool.target // CLIENTS
            if not self._warm:
                for k in range(CLIENTS):
                    await self._burst(k, WARMUP_SIGNS, rec, timed=False)
                per_client -= WARMUP_SIGNS
                self._warm = True
            with self._metered(rec):
                await asyncio.gather(
                    *(self._burst(k, per_client, rec) for k in range(CLIENTS))
                )
            if clock() - begun >= seconds:
                break
        # The crypto-free floor of the request path, on an idle gateway.
        started = clock()
        for _ in range(STATUS_ROUND_TRIPS):
            await self.clients[0].status()
        rec.extra["status_rtt_ms"] = (
            (clock() - started) * 1000 / STATUS_ROUND_TRIPS
        )
        self._check_gateway(rec)
        rec.extra["presigs_forged"] = pool.forged - forged_before


class SignSustained(_SignWorkload):
    """Demand exceeds stock: throughput is nonce-DKG throughput through
    the pool's refill, forge threads contending with the gateway loop."""

    # The service default of 16 refills in one 12 s lump, which a run
    # of this length sees once or twice.  At 2 the refill thread forges
    # one or two at a time without pause: a third of requests hit, the
    # rest wait for a forge under the same three-way contention, and
    # the median repeats (at 4 it moved by 20 % between runs).
    pool_target = 2
    pool_low_watermark = None  # the service default: half the target
    prefill = True

    async def setup(self) -> None:
        started = clock()
        self.group = group_by_name(self.group_name)
        self.once_s = clock() - started
        for repeat in range(SETUP_REPEATS):
            started = clock()
            await self._start()
            self.setup_samples.append(clock() - started)
            if repeat < SETUP_REPEATS - 1:
                await self.teardown()
        # Drains the prefilled stock, so the timed section is the
        # steady state.  Once only: a refill this starts would still be
        # forging in its thread while the next set-up repeat ran.
        started = clock()
        warmup = Recorder()
        for k in range(CLIENTS):
            for _ in range(WARMUP_SIGNS):
                await self._sign(k, warmup, timed=False)
        if warmup.failures:
            raise RuntimeError(f"warm-up failed: {warmup.failures}")
        self.once_s += clock() - started

    async def measure(self, seconds: float, rec: Recorder) -> None:
        forged_before = self.service.pool.forged
        deadline = clock() + seconds

        async def drive(k: int) -> None:
            while clock() < deadline:
                await self._sign(k, rec)

        with self._metered(rec):
            await asyncio.gather(*(drive(k) for k in range(CLIENTS)))
        self._check_gateway(rec)
        rec.extra["presigs_forged"] = self.service.pool.forged - forged_before


WORKLOADS: dict[str, Callable[[str, int, bool], Any]] = {
    "dkg_sim_ec_n10": lambda name, seed, smoke: DkgSim(
        name, DkgShape("secp256k1", 10, 3), seed, smoke
    ),
    "dkg_sim_modp_n7": lambda name, seed, smoke: DkgSim(
        name, DkgShape("rfc5114-2048-256", 7, 2), seed, smoke
    ),
    "dkg_tcp_ec_n7": lambda name, seed, smoke: DkgTcp(
        name, DkgShape("secp256k1", 7, 2), seed, smoke
    ),
    "sign_burst": SignBurst,
    "sign_sustained": SignSustained,
}
