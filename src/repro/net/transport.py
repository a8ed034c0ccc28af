"""The transport abstraction: one node logic, two networks.

A :class:`~repro.runtime.driver.MachineDriver` interprets a node's
effects through the narrow :class:`Transport` protocol.  Two backends
implement it:

* the discrete-event :class:`~repro.sim.runner.Simulation`, which
  satisfies the protocol structurally;
* :class:`AsyncioTransport` — a real TCP endpoint: frames from
  :mod:`repro.net.wire` over asyncio sockets, timers on the event
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

Commitments travel in one form (:func:`repro.net.wire.commitment_mode`):
``echo``/``ready`` carry the matrix's digest.  A digest frame that
arrives before its matrix waits; if the matrix has not come after
:data:`MATRIX_FETCH_AFTER`, the endpoint asks a sender of a waiting
frame for it, and on each further expiry the next one.
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

DEFAULT_TIME_SCALE = 0.02  # seconds of wall clock per simulation time unit
_CONNECT_ATTEMPTS = 20
_CONNECT_BACKOFF_S = 0.05
_MAX_PENDING_FRAMES = 1024  # digest frames held awaiting their matrix
_MAX_COMMITMENTS = 1024  # decoded matrices kept (the commitment table)
_PEER_QUOTA = 64  # of either, charged to any one link
# Protocol time units a digest frame waits for its matrix before the
# endpoint asks a peer for it; no fault-free run waits this long
# (tests/net/test_matrix_fetch.py).
MATRIX_FETCH_AFTER = 10.0

# Metered on every frame, so looked up once per registry.
_FRAMES_SENT = obs_metrics.Bound(
    "repro_net_frames_sent_total", "wire frames sent, by protocol message kind", "kind"
)
_BYTES_SENT = obs_metrics.Bound(
    "repro_net_bytes_sent_total",
    "protocol-frame bytes sent (session envelope excluded), by message kind",
    "kind",
)
_FRAMES_RECEIVED = obs_metrics.Bound(
    "repro_net_frames_received_total",
    "wire frames received, by protocol message kind",
    "kind",
)
_BYTES_RECEIVED = obs_metrics.Bound(
    "repro_net_bytes_received_total",
    "protocol-frame bytes received (session envelope excluded), by message kind",
    "kind",
)


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


class _InboundLink(asyncio.Protocol):
    """One accepted connection: a 4-byte peer-index handshake, then
    ``[u32 length]`` frames, each dispatched as soon as its last byte
    has arrived.  A link that connects while its endpoint is down
    drains: every frame on it is dropped and metered, until recovery
    closes it."""

    def __init__(self, endpoint: "AsyncioTransport"):
        self.endpoint = endpoint
        self.peer: int | None = None
        self.buffer = bytearray()
        self.transport: asyncio.BaseTransport | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.endpoint._inbound.add(self)
        if self.endpoint._stopped:
            transport.close()  # accepted as the endpoint stopped

    def connection_lost(self, exc: Exception | None) -> None:
        self.endpoint._inbound.discard(self)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        pos = 0
        if self.peer is None:
            if len(buffer) < 4:
                return
            self.peer = int.from_bytes(buffer[:4], "big")
            pos = 4
        while len(buffer) - pos >= 4:
            length = int.from_bytes(buffer[pos : pos + 4], "big")
            if length > wire.MAX_FRAME_BYTES:
                # A garbled stream: drop this link and what it buffered.
                buffer.clear()
                self.transport.close()
                return
            end = pos + 4 + length
            if end > len(buffer):
                break
            frame = bytes(buffer[pos:end])
            pos = end
            self.endpoint._receive(self.peer, frame)
        del buffer[:pos]


class AsyncioTransport:
    """One node's real network endpoint: TCP frames on localhost/WAN.

    Incoming connections start with a 4-byte peer-index handshake (the
    stand-in for the paper's TLS-certified identity on a trusted local
    cluster); after it, the stream is a sequence of wire frames
    dispatched to ``on_message``.  Outgoing connections are opened
    lazily per recipient and re-dialed on failure; a message whose
    recipient stays unreachable is dropped — exactly the in-flight loss
    the hybrid model ascribes to crashed nodes (§2.2).  A message a node
    sends itself crosses no socket: after its sampled delay the object
    itself is delivered, as in the simulator.
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
        # Every matrix this endpoint has decoded (repeats of it are not
        # decoded again), delivered to itself or sent: digest-form
        # frames resolve against it
        # — or wait here, by digest, for their matrix, with the timer
        # that fetches it armed and the links already asked — and a
        # peer's request for one is answered from it.
        self._table = wire.CommitmentTable(_MAX_COMMITMENTS, _PEER_QUOTA)
        self._pending_frames: dict[bytes, list[tuple[int, bytes]]] = {}
        self._pending_by_peer: Counter[int] = Counter()
        self._fetch_timers: dict[bytes, asyncio.TimerHandle] = {}
        self._asked: dict[bytes, set[int]] = {}
        # Broadcast encode memo (single entry): the protocol payload, by
        # identity, and the session it travels in.
        self._last_payload: Any = None
        self._last_session: str | None = None
        self._last_frame = b""
        self._last_size = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped = False
        self._port: int | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        # Frames for a link being dialled, in send order; one dial each.
        self._dialing: dict[int, list[bytes]] = {}
        self._dial_tasks: set[asyncio.Task] = set()
        self._inbound: set[_InboundLink] = set()
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._timer_seq = 0
        # Deliveries waiting out their sampled delay, by sequence number.
        self._in_flight: dict[int, asyncio.Handle] = {}
        self._flight_seq = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the server socket and register our address."""
        self._loop = asyncio.get_running_loop()
        if self._t0 is None:
            self._t0 = self._loop.time()
        self._server = await self._loop.create_server(
            lambda: _InboundLink(self), self.host, self._port or 0
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._stopped = False
        self.registry.register(self.node_id, self.host, self._port)
        if self.output_event is None:
            self.output_event = asyncio.Event()

    async def stop(self) -> None:
        """Tear the endpoint down completely (end of deployment)."""
        self._stopped = True
        self._close_links()
        self._forget_pending()
        for handles in (self._timers, self._in_flight):
            for handle in handles.values():
                handle.cancel()
            handles.clear()
        self._dialing.clear()
        tasks = list(self._dial_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # the server finishes closing

    def crash(self) -> None:
        """Take the node's links down (§2.2: in-flight messages lost)."""
        self.crashed = True
        obs_metrics.counter_inc(
            "repro_net_crashes_total", help="endpoint crash transitions"
        )
        self._close_links()
        self._forget_pending()

    async def recover(self) -> None:
        """Come back up on the same address, on fresh links: those that
        connected while the node was down are closed."""
        self._close_links()
        await asyncio.sleep(0)  # the old server finishes closing
        await self.start()
        self.crashed = False
        obs_metrics.counter_inc(
            "repro_net_recoveries_total", help="endpoint recovery transitions"
        )

    def _forget_pending(self) -> None:
        for handle in self._fetch_timers.values():
            handle.cancel()
        self._fetch_timers.clear()
        self._asked.clear()
        self._pending_frames.clear()
        self._pending_by_peer.clear()

    def _close_links(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            # A socket the server accepted in this loop pass becomes a
            # link in the next one, and asyncio cannot attach it to a
            # closed server: it would stay open and unread.  So the
            # server stops accepting now and closes behind those
            # accepts; their links then drain or close as they connect.
            for sock in server.sockets:
                self._loop.remove_reader(sock.fileno())
            self._loop.call_soon(server.close)
        for link in self._inbound:
            link.transport.close()
        self._inbound.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

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
        # Meter the protocol frame, not the envelope wrapper: the
        # session id is transport framing (like the TCP header), and
        # keeping per-kind/per-byte accounting identical across
        # drivers is what makes sim-vs-real comparisons exact (E12).
        enveloped = isinstance(payload, SessionEnvelope)
        metered = payload.payload if enveloped else payload
        session = payload.session if enveloped else None
        # Echo/ready frames carry only the 32-byte digest.  Broadcasts
        # hand the same payload object to every recipient (each in an
        # envelope of its own), so the last encoding is reused.
        if metered is self._last_payload and session == self._last_session:
            frame, size = self._last_frame, self._last_size
        else:
            mode = wire.commitment_mode(payload)
            frame = wire.encode(payload, group=self.group, commitments=mode)
            size = wire.payload_length(frame)
            self._last_payload, self._last_session = metered, session
            self._last_frame, self._last_size = frame, size
            if metered.kind == "vss.send":
                self._table.record_sent(metered.commitment)
        kind = metered.kind
        self.metrics.record_send(sender, kind, size)
        _FRAMES_SENT.inc(kind)
        _BYTES_SENT.inc(kind, size)
        delay_units = 0.0
        if self.delay_model is not None:
            observe = getattr(self.delay_model, "observe_time", None)
            if observe is not None:
                observe(self.current_time())
            delay_units = self.delay_model.sample(self._net_rng, sender, recipient)
        delay_s = delay_units * self.time_scale
        if recipient == self.node_id:
            self._later(delay_s, self._deliver_local, payload, size)
        elif delay_s > 0:
            self._later(delay_s, self._transmit, recipient, frame)
        else:
            self._transmit(recipient, frame)

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

    def _later(self, delay_s: float, callback: Callable[..., None], *args) -> None:
        """Run ``callback(*args)`` after ``delay_s`` seconds, unless the
        endpoint is stopped first.  At zero delay it runs as soon as the
        current callback returns, ahead of frames polled after it — in
        send order, as the simulator delivers zero-delay messages."""
        assert self._loop is not None
        self._flight_seq += 1
        seq = self._flight_seq
        if delay_s > 0:
            handle = self._loop.call_later(delay_s, self._land, seq, callback, args)
        else:
            handle = self._loop.call_soon(self._land, seq, callback, args)
        self._in_flight[seq] = handle

    def _land(self, seq: int, callback: Callable[..., None], args: tuple) -> None:
        del self._in_flight[seq]
        callback(*args)

    def _drop_inbound(self) -> None:
        self.metrics.record_drop()
        obs_metrics.counter_inc(
            "repro_net_frames_dropped_total",
            help="inbound frames dropped (undecodable or node down)",
        )

    def _deliver_local(self, message: Any, size: int) -> None:
        """A message this node sent itself, delivered as the object.  Its
        own ``send`` enters the commitment table here, as decoding the
        frame would have put it there."""
        if self.crashed:
            self._drop_inbound()
            return
        inner = message.payload if isinstance(message, SessionEnvelope) else message
        if inner.kind == "vss.send":
            digest = commitment_digest(inner.commitment)
            if self._table.get(digest) is None:
                self._table.insert(digest, inner.commitment, self.node_id)
        self._accept(self.node_id, message, size)

    def _receive(self, peer: int, frame: bytes) -> None:
        """One complete frame off ``peer``'s inbound link."""
        if self.crashed:
            # Links are down: the frame is lost, and metered as such —
            # same accounting as the simulator's delivery-to-crashed-node
            # path.
            self._drop_inbound()
            return
        self._dispatch_frame(peer, frame)

    def _dispatch_frame(self, peer: int, frame: bytes) -> None:
        try:
            message = wire.decode(
                frame, commitments=self._table.charged_to(peer), group=self.group
            )
        except wire.UnresolvedDigest as exc:
            self._hold(peer, frame, exc.digest)
            return
        except wire.WireError:
            self._drop_inbound()
            return
        self._accept(peer, message, wire.payload_length(frame))

    def _accept(self, peer: int, message: Any, size: int) -> None:
        inner = message.payload if isinstance(message, SessionEnvelope) else message
        kind = getattr(inner, "kind", type(inner).__name__)
        _FRAMES_RECEIVED.inc(kind)
        _BYTES_RECEIVED.inc(kind, size)
        if isinstance(inner, wire.MatrixRequest):
            commitment = self._table.answer(inner.digest, peer)
            if commitment is not None:
                self.enqueue_message(self.node_id, peer, wire.MatrixReply(commitment))
            return
        self._release_pending(inner)
        if isinstance(inner, wire.MatrixReply):
            return
        try:
            self.on_message(peer, message)
        except Exception as exc:
            self.errors.append(exc)

    def _hold(self, peer: int, frame: bytes, digest: bytes) -> None:
        """Keep a digest frame that arrived before its matrix (the
        receiver-side cache the Cachin trick presumes) until the dealer's
        send or a :class:`~repro.net.wire.MatrixReply` brings it.  Bounded
        per link and in total against peers flooding bogus digests."""
        if (
            self._pending_by_peer[peer] >= _PEER_QUOTA
            or self._pending_by_peer.total() >= _MAX_PENDING_FRAMES
        ):
            self.metrics.record_drop()
            return
        self._pending_frames.setdefault(digest, []).append((peer, frame))
        self._pending_by_peer[peer] += 1
        self._arm_fetch(digest)

    def _arm_fetch(self, digest: bytes) -> None:
        """Arm ``digest``'s fetch timer, unless it is armed or every
        sender of a waiting frame has been asked already."""
        if digest in self._fetch_timers or self._loop is None:
            return
        asked = self._asked.get(digest, ())
        if all(peer in asked for peer, _ in self._pending_frames[digest]):
            return
        self._fetch_timers[digest] = self._loop.call_later(
            MATRIX_FETCH_AFTER * self.time_scale, self._fetch, digest
        )

    def _fetch(self, digest: bytes) -> None:
        """``digest`` has waited past the bound: ask the next sender of a
        waiting frame not asked yet for the matrix."""
        del self._fetch_timers[digest]
        asked = self._asked.setdefault(digest, set())
        peer = next(p for p, _ in self._pending_frames[digest] if p not in asked)
        asked.add(peer)
        self.enqueue_message(self.node_id, peer, wire.MatrixRequest(digest))
        self._arm_fetch(digest)

    def _release_pending(self, message: Any) -> None:
        """Dispatch the digest frames that waited for ``message``'s matrix
        (which decoding it has just put in the table)."""
        commitment = getattr(message, "commitment", None)
        if not self._pending_frames or not isinstance(commitment, FeldmanCommitment):
            return
        digest = commitment_digest(commitment)
        handle = self._fetch_timers.pop(digest, None)
        if handle is not None:
            handle.cancel()
        self._asked.pop(digest, None)
        for peer, frame in self._pending_frames.pop(digest, ()):
            self._pending_by_peer[peer] -= 1
            if not self._pending_by_peer[peer]:
                del self._pending_by_peer[peer]
            self._dispatch_frame(peer, frame)

    def _transmit(self, recipient: int, frame: bytes) -> None:
        """Write ``frame`` to ``recipient``'s link, or queue it behind
        the link's dial (starting one if none is under way)."""
        if self.crashed:
            self.metrics.record_drop()
            return
        queue = self._dialing.get(recipient)
        if queue is not None:
            queue.append(frame)
            return
        writer = self._writers.get(recipient)
        if writer is not None and not writer.is_closing():
            writer.write(frame)
            return
        assert self._loop is not None
        self._dialing[recipient] = [frame]
        task = self._loop.create_task(self._dial(recipient))
        self._dial_tasks.add(task)
        task.add_done_callback(self._dial_tasks.discard)

    async def _dial(self, recipient: int) -> None:
        """Connect to ``recipient``, then flush the frames that queued
        meanwhile, in order; if it stays unreachable, drop them."""
        try:
            writer = await self._connect(recipient)
        except ConnectionError:
            writer = None
        queue = self._dialing.pop(recipient, ())
        for frame in queue:
            if writer is None:
                self.metrics.record_drop()
            else:
                writer.write(frame)

    async def _connect(self, recipient: int) -> asyncio.StreamWriter:
        last_error: Exception = ConnectionError(f"no route to node {recipient}")
        for attempt in range(self.connect_attempts):
            if self.crashed:
                break
            try:
                address = self.registry.address_of(recipient)
                _, writer = await asyncio.open_connection(address.host, address.port)
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
