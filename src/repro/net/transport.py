"""The transport abstraction: one node logic, two networks.

A :class:`~repro.runtime.driver.MachineDriver` interprets a node's
effects through the narrow :class:`Transport` protocol.  Two backends
implement it:

* :class:`SimTransport` — a thin adapter over the discrete-event
  :class:`~repro.sim.runner.Simulation` (which already satisfies the
  protocol structurally; the adapter exists to make the contract
  explicit and to host transport-level knobs);
* :class:`AsyncioTransport` — a real TCP endpoint: frames from
  :mod:`repro.net.wire` over asyncio streams, timers on the event
  loop, lazy outbound connections with reconnect, and the same
  :class:`~repro.sim.network.DelayModel` fault-injection surface as
  the simulator (added latency, partitions via
  :class:`~repro.sim.network.PartitionDelay`, loss via
  :class:`DropRetryLink`), so E6/E11-style scenarios run unchanged on
  real sockets.

Time discipline: protocol code thinks in simulation time units; an
:class:`AsyncioTransport` maps them to wall-clock seconds through
``time_scale`` (seconds per unit), applied to both timers and injected
delays, so a DKG timeout policy tuned in the simulator behaves
identically on the wire.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.hashing import commitment_digest
from repro.net import wire
from repro.obs import metrics as obs_metrics
from repro.net.peers import PeerRegistry
from repro.runtime.envelope import SessionEnvelope
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.sim.node import OutputRecord
from repro.sim.runner import Simulation

DEFAULT_TIME_SCALE = 0.02  # seconds of wall clock per simulation time unit
_CONNECT_ATTEMPTS = 20
_CONNECT_BACKOFF_S = 0.05
_MAX_PENDING_FRAMES = 1024  # digest frames held awaiting their matrix
_MAX_COMMITMENTS = 1024  # decoded matrices kept (the commitment table)
_PEER_QUOTA = 64  # of either, charged to any one link


@runtime_checkable
class Transport(Protocol):
    """What a :class:`~repro.runtime.driver.MachineDriver` needs from
    its backend."""

    def current_time(self) -> float:
        """Clock reading in protocol time units."""
        ...

    def member_ids(self) -> list[int]:
        """Sorted deployment membership."""
        ...

    def node_rng(self, node_id: int) -> random.Random:
        """Deterministic per-node randomness source."""
        ...

    def enqueue_message(self, sender: int, recipient: int, payload: Any) -> None:
        """Hand one protocol message to the network."""
        ...

    def set_timer(self, node: int, delay: float, tag: Any) -> int:
        """Arm a timer; returns a cancellation id."""
        ...

    def cancel_timer(self, node: int, timer_id: int) -> None: ...

    def record_output(self, node: int, payload: Any) -> None:
        """Emit an operator ``out`` message."""
        ...

    def record_leader_change(self) -> None: ...


class SimTransport:
    """Discrete-event backend: delegates to a :class:`Simulation`.

    ``Simulation`` itself satisfies :class:`Transport`; this adapter is
    the explicit seam where code written against the transport
    abstraction plugs into the simulator.
    """

    def __init__(self, simulation: Simulation):
        self.simulation = simulation

    def current_time(self) -> float:
        return self.simulation.current_time()

    def member_ids(self) -> list[int]:
        return self.simulation.member_ids()

    def node_rng(self, node_id: int) -> random.Random:
        return self.simulation.node_rng(node_id)

    def enqueue_message(self, sender: int, recipient: int, payload: Any) -> None:
        self.simulation.enqueue_message(sender, recipient, payload)

    def set_timer(self, node: int, delay: float, tag: Any) -> int:
        return self.simulation.set_timer(node, delay, tag)

    def cancel_timer(self, node: int, timer_id: int) -> None:
        self.simulation.cancel_timer(node, timer_id)

    def record_output(self, node: int, payload: Any) -> None:
        self.simulation.record_output(node, payload)

    def record_leader_change(self) -> None:
        self.simulation.record_leader_change()


@dataclass
class DropRetryLink(DelayModel):
    """A lossy link healed by retransmission, as a delay transform.

    Each drop costs one ``retry_delay``; after ``max_retries`` the
    message goes through regardless, preserving the asynchronous
    model's eventual-delivery guarantee (§2.1).  Composes with any base
    model, so loss can stack on top of latency or partitions.
    """

    base: DelayModel = None  # type: ignore[assignment]
    drop_probability: float = 0.1
    retry_delay: float = 5.0
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.base is None:
            from repro.sim.network import ConstantDelay

            self.base = ConstantDelay(0.0)
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")

    def observe_time(self, now: float) -> None:
        observe = getattr(self.base, "observe_time", None)
        if observe is not None:
            observe(now)

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        delay = self.base.sample(rng, sender, recipient)
        retries = 0
        while retries < self.max_retries and rng.random() < self.drop_probability:
            retries += 1
            delay += self.retry_delay
        return delay


class AsyncioTransport:
    """One node's real network endpoint: TCP frames on localhost/WAN.

    Incoming connections start with a 4-byte peer-index handshake (the
    stand-in for the paper's TLS-certified identity on a trusted local
    cluster); after it, the stream is a sequence of wire frames
    dispatched to ``on_message``.  Outgoing connections are opened
    lazily per recipient and re-dialed on failure; a message whose
    recipient stays unreachable is dropped — exactly the in-flight loss
    the hybrid model ascribes to crashed nodes (§2.2).
    """

    def __init__(
        self,
        node_id: int,
        registry: PeerRegistry,
        members: list[int],
        *,
        seed: int = 0,
        metrics: Metrics | None = None,
        delay_model: DelayModel | None = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        group: Any = None,
        codec: Any = None,
        host: str = "127.0.0.1",
        connect_attempts: int = _CONNECT_ATTEMPTS,
        connect_backoff: float = _CONNECT_BACKOFF_S,
    ):
        self.node_id = node_id
        self.registry = registry
        self.members = sorted(members)
        self.metrics = metrics if metrics is not None else Metrics()
        self.delay_model = delay_model
        self.time_scale = time_scale
        self.group = group
        self.codec = codec
        self.host = host
        self.seed = seed
        self.connect_attempts = connect_attempts
        self.connect_backoff = connect_backoff
        self.crashed = False
        self.outputs: list[OutputRecord] = []
        self.errors: list[Exception] = []
        self.output_event: asyncio.Event | None = None
        # Dispatch hooks, bound by the NodeHost.  Timers echo the
        # backend timer id so the driver can translate to the
        # machine-chosen id from the SetTimer effect.
        self.on_message: Callable[[int, Any], None] = lambda s, m: None
        self.on_timer: Callable[[Any, int], None] = lambda tag, timer_id: None

        self._net_rng = random.Random(("net", seed, node_id).__repr__())
        self._node_rngs: dict[int, random.Random] = {}
        # Every matrix this endpoint has decoded: repeats of it are not
        # decoded again, and digest-only frames (hashed codec) resolve
        # against it — or wait here, by digest, for their matrix.
        self._table = wire.CommitmentTable(_MAX_COMMITMENTS, _PEER_QUOTA)
        self._pending_frames: dict[bytes, list[tuple[int, bytes]]] = {}
        self._pending_by_peer: Counter[int] = Counter()
        # Broadcast encode memo (identity-keyed, single entry).
        self._last_payload: Any = None
        self._last_mode = "inline"
        self._last_frame = b""
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float | None = None
        self._server: asyncio.AbstractServer | None = None
        self._port: int | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._dial_locks: dict[int, asyncio.Lock] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        self._send_tasks: set[asyncio.Task] = set()
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._timer_seq = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the server socket and register our address."""
        self._loop = asyncio.get_running_loop()
        if self._t0 is None:
            self._t0 = self._loop.time()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._port or 0
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self.registry.register(self.node_id, self.host, self._port)
        if self.output_event is None:
            self.output_event = asyncio.Event()

    async def stop(self) -> None:
        """Tear the endpoint down completely (end of deployment)."""
        self._close_links()
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for task in list(self._send_tasks):
            task.cancel()
        await self._drain_tasks()

    def crash(self) -> None:
        """Take the node's links down (§2.2: in-flight messages lost)."""
        self.crashed = True
        obs_metrics.counter_inc(
            "repro_net_crashes_total", help="endpoint crash transitions"
        )
        self._close_links()
        self._pending_frames.clear()
        self._pending_by_peer.clear()

    async def recover(self) -> None:
        """Come back up on the same address."""
        await self.start()
        self.crashed = False
        obs_metrics.counter_inc(
            "repro_net_recoveries_total", help="endpoint recovery transitions"
        )

    def _close_links(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in list(self._reader_tasks):
            task.cancel()
        self._reader_tasks.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    async def _drain_tasks(self) -> None:
        pending = list(self._send_tasks) + list(self._reader_tasks)
        for task in pending:
            if not task.done():
                task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- Transport protocol --------------------------------------------------

    def current_time(self) -> float:
        if self._loop is None or self._t0 is None:
            return 0.0
        return (self._loop.time() - self._t0) / self.time_scale

    def member_ids(self) -> list[int]:
        return list(self.members)

    def node_rng(self, node_id: int) -> random.Random:
        if node_id not in self._node_rngs:
            self._node_rngs[node_id] = random.Random(
                ("node", self.seed, node_id).__repr__()
            )
        return self._node_rngs[node_id]

    def enqueue_message(self, sender: int, recipient: int, payload: Any) -> None:
        if self.crashed or self._loop is None:
            return
        # Meter the protocol message, not the envelope wrapper: the
        # session id is transport framing (like the TCP header), and
        # keeping per-kind/per-byte accounting identical across
        # drivers is what makes sim-vs-real comparisons exact (E12).
        metered = payload.payload if isinstance(payload, SessionEnvelope) else payload
        self.metrics.record_send(sender, metered.kind, metered.byte_size())
        obs_metrics.counter_inc(
            "repro_net_frames_sent_total",
            help="wire frames sent, by protocol message kind",
            kind=metered.kind,
        )
        obs_metrics.counter_inc(
            "repro_net_bytes_sent_total",
            metered.byte_size(),
            help="wire bytes sent, by protocol message kind",
            kind=metered.kind,
        )
        # Under the hashed codec, echo/ready frames really do carry only
        # the 32-byte digest — the metered (stamped) size is the true
        # frame length in either mode.  Broadcasts hand the same payload
        # object to every recipient, so the last encoding is reused.
        mode = wire.commitment_mode(self.codec, payload)
        if payload is self._last_payload and mode == self._last_mode:
            frame = self._last_frame
        else:
            frame = wire.encode(payload, group=self.group, commitments=mode)
            self._last_payload, self._last_mode, self._last_frame = (
                payload,
                mode,
                frame,
            )
        delay_units = 0.0
        if self.delay_model is not None:
            observe = getattr(self.delay_model, "observe_time", None)
            if observe is not None:
                observe(self.current_time())
            delay_units = self.delay_model.sample(self._net_rng, sender, recipient)
        task = self._loop.create_task(
            self._deliver(recipient, frame, delay_units * self.time_scale)
        )
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    def set_timer(self, node: int, delay: float, tag: Any) -> int:
        assert self._loop is not None, "transport not started"
        self._timer_seq += 1
        timer_id = self._timer_seq
        self.metrics.record_timer_set()
        deadline = self._loop.time() + delay * self.time_scale
        handle = self._loop.call_later(
            delay * self.time_scale, self._fire_timer, timer_id, tag, deadline
        )
        self._timers[timer_id] = handle
        return timer_id

    def cancel_timer(self, node: int, timer_id: int) -> None:
        handle = self._timers.pop(timer_id, None)
        if handle is not None:
            handle.cancel()

    def record_output(self, node: int, payload: Any) -> None:
        self.outputs.append(OutputRecord(node, self.current_time(), payload))
        self.metrics.record_completion(node, self.current_time())
        if self.output_event is not None:
            self.output_event.set()

    def record_leader_change(self) -> None:
        self.metrics.record_leader_change()

    # -- internals -----------------------------------------------------------

    def _fire_timer(
        self, timer_id: int, tag: Any, deadline: float | None = None
    ) -> None:
        self._timers.pop(timer_id, None)
        if deadline is not None and self._loop is not None:
            # How late the event loop ran this timer — the live proxy
            # for scheduler pressure on the node.
            obs_metrics.observe(
                "repro_net_timer_lag_seconds",
                max(0.0, self._loop.time() - deadline),
                help="delay between a timer's deadline and its callback",
            )
        if self.crashed:
            return  # a timer firing while down is lost, as in the simulator
        try:
            self.on_timer(tag, timer_id)
        except Exception as exc:  # pragma: no cover - defensive
            self.errors.append(exc)

    def _dispatch_frame(self, peer: int, frame: bytes) -> None:
        try:
            message = wire.decode(
                frame, commitments=self._table.charged_to(peer), group=self.group
            )
        except wire.UnresolvedDigest as exc:
            # Compressed vote arrived before the dealer's send; hold it
            # until the matrix shows up (the receiver-side cache the
            # Cachin trick presumes).  Under a non-hashed codec nothing
            # will ever resolve it, and the buffer is bounded, per link,
            # against peers flooding bogus digests.
            if (
                getattr(self.codec, "name", None) != "hashed-matrix"
                or self._pending_by_peer[peer] >= _PEER_QUOTA
                or self._pending_by_peer.total() >= _MAX_PENDING_FRAMES
            ):
                self.metrics.record_drop()
                return
            self._pending_frames.setdefault(exc.digest, []).append((peer, frame))
            self._pending_by_peer[peer] += 1
            return
        except wire.WireError:
            self.metrics.record_drop()
            obs_metrics.counter_inc(
                "repro_net_frames_dropped_total",
                help="inbound frames dropped (undecodable or node down)",
            )
            return
        inner = message.payload if isinstance(message, SessionEnvelope) else message
        kind = getattr(inner, "kind", type(inner).__name__)
        obs_metrics.counter_inc(
            "repro_net_frames_received_total",
            help="wire frames received, by protocol message kind",
            kind=kind,
        )
        obs_metrics.counter_inc(
            "repro_net_bytes_received_total",
            len(frame),
            help="wire bytes received, by protocol message kind",
            kind=kind,
        )
        self._release_pending(inner)
        try:
            self.on_message(peer, message)
        except Exception as exc:
            self.errors.append(exc)

    def _release_pending(self, message: Any) -> None:
        """Dispatch the digest frames that waited for ``message``'s matrix
        (which decoding it has just put in the table)."""
        commitment = getattr(message, "commitment", None)
        if not self._pending_frames or not isinstance(commitment, FeldmanCommitment):
            return
        for peer, frame in self._pending_frames.pop(commitment_digest(commitment), ()):
            self._pending_by_peer[peer] -= 1
            if not self._pending_by_peer[peer]:
                del self._pending_by_peer[peer]
            self._dispatch_frame(peer, frame)

    async def _deliver(self, recipient: int, frame: bytes, delay_s: float) -> None:
        if delay_s > 0:
            await asyncio.sleep(delay_s)
        try:
            writer = await self._connect(recipient)
            writer.write(frame)
            await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            self._writers.pop(recipient, None)
            self.metrics.record_drop()

    async def _connect(self, recipient: int) -> asyncio.StreamWriter:
        # One dial at a time per recipient: concurrent sends before the
        # first connection completes must share it (a second parallel
        # connection would leak and could reorder frames).
        lock = self._dial_locks.setdefault(recipient, asyncio.Lock())
        async with lock:
            writer = self._writers.get(recipient)
            if writer is not None and not writer.is_closing():
                return writer
            last_error: Exception = ConnectionError(f"no route to node {recipient}")
            for attempt in range(self.connect_attempts):
                if self.crashed:
                    break
                try:
                    address = self.registry.address_of(recipient)
                    _, writer = await asyncio.open_connection(
                        address.host, address.port
                    )
                    writer.write(self.node_id.to_bytes(4, "big"))
                    self._writers[recipient] = writer
                    obs_metrics.counter_inc(
                        "repro_net_connects_total",
                        help="outbound connections established",
                    )
                    return writer
                except (KeyError, ConnectionError, OSError) as exc:
                    last_error = exc
                    obs_metrics.counter_inc(
                        "repro_net_connect_retries_total",
                        help="failed outbound dial attempts (will back off)",
                    )
                    await asyncio.sleep(self.connect_backoff * (attempt + 1))
        raise ConnectionError(
            f"node {recipient} unreachable: {last_error}"
        ) from last_error

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        try:
            peer = int.from_bytes(await reader.readexactly(4), "big")
            while True:
                header = await reader.readexactly(4)
                length = int.from_bytes(header, "big")
                if length > wire.MAX_FRAME_BYTES:
                    break  # garbled stream; drop the connection
                body = await reader.readexactly(length)
                if self.crashed:
                    # Links are down: the frame is lost, and metered as
                    # such — same accounting as the simulator's
                    # delivery-to-crashed-node path.
                    self.metrics.record_drop()
                    obs_metrics.counter_inc(
                        "repro_net_frames_dropped_total",
                        help="inbound frames dropped (undecodable or node down)",
                    )
                    continue
                self._dispatch_frame(peer, header + body)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away; it will re-dial if it needs us
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
