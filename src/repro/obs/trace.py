"""Driver-agnostic structured tracing of machine transitions.

Every backend — the discrete-event :class:`~repro.sim.runner.Simulation`,
the asyncio :class:`~repro.net.host.NodeHost`, the service forge — steps
machines through the same :class:`~repro.runtime.driver.MachineDriver`,
so that seam is the one place a complete execution transcript can be
captured regardless of transport.  The driver emits one
:class:`TraceSpan` per ``step(event) -> [Effect]`` transition: the node,
the event kind, the session it routed to (unwrapped from
:class:`~repro.runtime.envelope.SessionEnvelope` payloads and
session-namespaced timer tags), the effect kinds produced, the backend
clock and wall clock, and the transition's ``perf_counter`` duration.

Spans are JSON-ready; :class:`JsonlTraceSink` appends one JSON object
per line, :class:`MemoryTraceSink` keeps a bounded in-memory list for
tests and interactive debugging.  This is the package's one tracer.

**Flight recording.**  With ``payloads=True`` a :class:`JsonlTraceSink`
is a full-fidelity flight recorder: every span additionally carries the
event's canonical wire encoding (hex, via :mod:`repro.net.wire`,
group-tagged through the capture's meta record so both group backends
round-trip) and the wire frames of its ``Output`` effects.  Because
protocols are sans-I/O machines, that event stream *is* the execution:
:mod:`repro.obs.replay` re-runs it bit-identically through the sim
driver and checks the reproduced transcript hash against the one the
sink records at close; :mod:`repro.obs.analysis` mines the same file
for phase latencies, flow matrices and critical paths.
"""

from __future__ import annotations

import json
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.obs.logging import get_logger
from repro.runtime.effects import (
    Broadcast,
    CancelTimer,
    LeaderChange,
    Output,
    Send,
    SetTimer,
    SpawnSession,
)
from repro.runtime.envelope import SessionEnvelope, SessionTimerTag
from repro.runtime.events import (
    Crashed,
    MessageReceived,
    OperatorInput,
    Recovered,
    TimerFired,
)


@dataclass(frozen=True)
class TraceSpan:
    """One machine transition: the event consumed and effects produced.

    ``duration`` is the transition's ``perf_counter``-measured step +
    apply cost in seconds (``None`` when decoding captures that predate
    the field).  ``data`` and ``outputs`` are populated only in payload
    mode: the wire-encoded event and the wire frames of the
    transition's ``Output`` effects, all lowercase hex.
    """

    node: int
    event: str
    session: str | None
    effects: tuple[str, ...]
    sim_time: float
    wall_time: float
    duration: float | None = None
    data: dict[str, Any] | None = None
    outputs: tuple[str, ...] | None = None

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "node": self.node,
            "event": self.event,
            "session": self.session,
            "effects": list(self.effects),
            "t": self.sim_time,
            "wall": self.wall_time,
            "dur": self.duration,
        }
        if self.data is not None:
            record["data"] = self.data
        if self.outputs is not None:
            record["outputs"] = list(self.outputs)
        return record


def _payload_kind(payload: Any) -> str:
    return getattr(payload, "kind", type(payload).__name__)


def describe_event(event: Any) -> tuple[str, str | None]:
    """``(label, session)`` for an event; session from the envelope or
    a runtime-namespaced :class:`SessionTimerTag`, else ``None``.

    A machine's own tuple-shaped tag — e.g. the DKG's
    ``("dkg-timeout", view)`` — is *not* session namespacing and stays
    intact in the label.
    """
    session: str | None = None
    if isinstance(event, MessageReceived):
        payload = event.payload
        if isinstance(payload, SessionEnvelope):
            session = payload.session
            payload = payload.payload
        return f"message:{_payload_kind(payload)}", session
    if isinstance(event, OperatorInput):
        payload = event.payload
        if isinstance(payload, SessionEnvelope):
            session = payload.session
            payload = payload.payload
        return f"operator:{_payload_kind(payload)}", session
    if isinstance(event, TimerFired):
        tag = event.tag
        if isinstance(tag, SessionTimerTag):
            session, tag = tag.session, tag.tag
        return f"timer:{tag}", session
    if isinstance(event, Crashed):
        return "crash", None
    if isinstance(event, Recovered):
        return "recover", None
    return type(event).__name__, None


def describe_effect(effect: Any) -> str:
    if isinstance(effect, Send):
        payload = effect.payload
        if isinstance(payload, SessionEnvelope):
            payload = payload.payload
        return f"send:{_payload_kind(payload)}"
    if isinstance(effect, Broadcast):
        payload = effect.payload
        if isinstance(payload, SessionEnvelope):
            payload = payload.payload
        return f"broadcast:{_payload_kind(payload)}"
    if isinstance(effect, SetTimer):
        return "set-timer"
    if isinstance(effect, CancelTimer):
        return "cancel-timer"
    if isinstance(effect, Output):
        return f"output:{_payload_kind(effect.payload)}"
    if isinstance(effect, LeaderChange):
        return "leader-change"
    if isinstance(effect, SpawnSession):
        return f"spawn:{effect.session}"
    return type(effect).__name__


# -- payload capture -----------------------------------------------------------


def tag_to_json(tag: Any) -> Any:
    """A JSON encoding of a timer tag that survives the round trip.

    Machines compare tags by equality, and tags are routinely tuples
    (``("dkg-timeout", view)``), which plain JSON would flatten into
    lists — so tuples travel as ``{"__tuple__": [...]}`` and the
    runtime's :class:`SessionTimerTag` as ``{"__stag__": [...]}``.
    """
    if isinstance(tag, SessionTimerTag):
        return {"__stag__": [tag.session, tag_to_json(tag.tag)]}
    if isinstance(tag, tuple):
        return {"__tuple__": [tag_to_json(item) for item in tag]}
    if isinstance(tag, list):
        return [tag_to_json(item) for item in tag]
    return tag


def tag_from_json(obj: Any) -> Any:
    """Inverse of :func:`tag_to_json`."""
    if isinstance(obj, dict):
        if "__stag__" in obj:
            session, inner = obj["__stag__"]
            return SessionTimerTag(session, tag_from_json(inner))
        if "__tuple__" in obj:
            return tuple(tag_from_json(item) for item in obj["__tuple__"])
        return obj
    if isinstance(obj, list):
        return [tag_from_json(item) for item in obj]
    return obj


@dataclass(frozen=True)
class PayloadCodec:
    """Wire-encodes events and outputs for full-payload capture.

    ``group`` pins the canonical per-group serialization (and is named
    in the capture's meta record), so frames round-trip on both the
    modp and elliptic-curve backends.  Frames are always encoded with
    inline commitments: at the driver seam every digest-compressed
    payload has already been resolved, so the capture is self-contained
    and replay needs no resolver.
    """

    group: Any = None

    def encode_frame(self, payload: Any) -> str:
        from repro.net import wire

        return wire.encode(payload, group=self.group).hex()

    def event_data(self, event: Any) -> dict[str, Any]:
        if isinstance(event, MessageReceived):
            return {
                "type": "message",
                "sender": event.sender,
                "frame": self.encode_frame(event.payload),
            }
        if isinstance(event, OperatorInput):
            return {"type": "operator", "frame": self.encode_frame(event.payload)}
        if isinstance(event, TimerFired):
            return {
                "type": "timer",
                "tag": tag_to_json(event.tag),
                "id": event.timer_id,
            }
        if isinstance(event, Crashed):
            return {"type": "crash"}
        if isinstance(event, Recovered):
            return {"type": "recover"}
        return {"type": type(event).__name__}

    def output_frames(self, effects: list[Any]) -> tuple[str, ...]:
        return tuple(
            self.encode_frame(effect.payload)
            for effect in effects
            if isinstance(effect, Output)
        )


def span_for(
    node: int,
    event: Any,
    effects: list[Any],
    sim_time: float,
    *,
    duration: float | None = None,
    codec: PayloadCodec | None = None,
) -> TraceSpan:
    label, session = describe_event(event)
    return TraceSpan(
        node=node,
        event=label,
        session=session,
        effects=tuple(describe_effect(e) for e in effects),
        sim_time=sim_time,
        wall_time=_time.time(),
        duration=duration,
        data=codec.event_data(event) if codec is not None else None,
        outputs=codec.output_frames(effects) if codec is not None else None,
    )


class TraceSink(Protocol):
    """Anything that accepts spans (duck-typed; see the two below)."""

    def record(self, span: TraceSpan) -> None: ...


@dataclass
class MemoryTraceSink:
    """Bounded in-memory span store for tests and debugging."""

    limit: int = 100_000
    spans: list[TraceSpan] = field(default_factory=list)
    dropped: int = 0

    def record(self, span: TraceSpan) -> None:
        if len(self.spans) >= self.limit:
            if self.dropped == 0:
                get_logger("repro.obs.trace").warning(
                    "MemoryTraceSink at its %d-span limit; dropping further "
                    "spans (raise `limit` or switch to JsonlTraceSink)",
                    self.limit,
                )
            self.dropped += 1
            return
        self.spans.append(span)

    def for_node(self, node: int) -> list[TraceSpan]:
        return [s for s in self.spans if s.node == node]

    def sessions(self) -> set[str]:
        return {s.session for s in self.spans if s.session is not None}

    def output_kinds(self, node: int | None = None) -> set[str]:
        """The distinct ``output:*`` effect labels (optionally per node)."""
        return {
            effect
            for span in self.spans
            if node is None or span.node == node
            for effect in span.effects
            if effect.startswith("output:")
        }


DEFAULT_FLUSH_EVERY = 16


class JsonlTraceSink:
    """Appends one JSON object per span to ``path`` (or a file object).

    The buffer is flushed every ``flush_every`` records (and on
    :meth:`close`), so a crashed process loses at most a handful of
    trailing spans — the tail of exactly the run one wants to debug.

    ``payloads=True`` turns the sink into the flight recorder: spans
    carry wire-encoded event/output frames (see :class:`PayloadCodec`;
    ``group`` supplies the backend context), a ``meta`` dict is written
    as the leading ``{"record": "meta", ...}`` line, orchestration
    layers may append ``{"record": "open", ...}`` session-open control
    lines via :meth:`record_control`, and :meth:`close` appends a
    ``{"record": "end", ...}`` line holding the run's
    :func:`~repro.runtime.trace.transcript_hash` over every captured
    ``Output`` frame (also available as :attr:`transcript` afterwards).
    """

    def __init__(
        self,
        path: Any,
        *,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        payloads: bool = False,
        group: Any = None,
        meta: dict[str, Any] | None = None,
        mode: str = "a",
    ):
        if hasattr(path, "write"):
            self._fh = path
            self._owns = False
        else:
            self._fh = open(path, mode, encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()
        self._flush_every = max(1, flush_every)
        self._pending = 0
        self.recorded = 0
        self.payload_codec = PayloadCodec(group) if payloads else None
        self._output_frames: list[tuple[int, bytes]] = []
        self.transcript: str | None = None
        self._closed = False
        if meta is not None:
            self._write({"record": "meta", **meta})

    def _write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")
            self._pending += 1
            if self._pending >= self._flush_every:
                self._fh.flush()
                self._pending = 0

    def record(self, span: TraceSpan) -> None:
        if span.outputs:
            with self._lock:
                self._output_frames.extend(
                    (span.node, bytes.fromhex(frame)) for frame in span.outputs
                )
        self._write(span.as_dict())
        with self._lock:
            self.recorded += 1

    def record_control(self, record: dict[str, Any]) -> None:
        """Append an out-of-band control line (e.g. a session open)."""
        self._write(record)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.payload_codec is not None:
            from repro.runtime.trace import transcript_hash_frames

            self.transcript = transcript_hash_frames(self._output_frames)
            self._write(
                {
                    "record": "end",
                    "transcript_hash": self.transcript,
                    "outputs": len(self._output_frames),
                    "spans": self.recorded,
                }
            )
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()

    def __enter__(self) -> JsonlTraceSink:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- the active sink -----------------------------------------------------------

_sink: TraceSink | None = None


def trace_sink() -> TraceSink | None:
    """The process-wide sink drivers fall back to (``None`` = off)."""
    return _sink


def set_trace_sink(sink: TraceSink | None) -> TraceSink | None:
    """Install the process-wide sink; returns the previous one."""
    global _sink
    previous = _sink
    _sink = sink
    return previous
