"""The mutable view of a flight-recorder capture.

A :class:`Schedule` is a capture whose records carry stable ids
(``_fid``) so mutation operators can reference events symbolically —
"drop f17", "move f42 three slots later" — and a plan (a list of such
ops) can be re-applied, shrunk to a subset, and serialized next to a
reproducer.  The id of an event never changes once assigned; copies
made by duplication get derived ids (``d<orig>-<k>``) and injected
crash/recover markers get fresh ones (``c<node>-<k>``), so a shrunk
plan still names the same events the full plan did.

The causal-delivery constraint lives here too (:func:`can_swap`): a
receive must never move before the send it answers.  Captures do not
record explicit send events — sends appear as ``send:<kind>`` /
``broadcast:<kind>`` entries in the *effects* of the step that emitted
them — so the check is conservative: span ``b`` (a receive of kind
``k`` from node ``s``) may not move before span ``a`` when ``a`` is a
step of node ``s`` in the same session whose effects emit ``k``.
Same-node timer/operator/crash/recover spans are barriers (an event
must not overtake its own node's lifecycle), and control records
(session opens) never move.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any

from repro.obs.replay import Capture, ReplayError, capture_meta, load_capture

# Event types a span's ``data.type`` may carry (see PayloadCodec).
_LIFECYCLE = ("timer", "operator", "crash", "recover")


def record_id(record: dict[str, Any]) -> str | None:
    return record.get("_fid")


def is_span(record: dict[str, Any]) -> bool:
    return "event" in record


def is_message(record: dict[str, Any]) -> bool:
    data = record.get("data") or {}
    return data.get("type") == "message"


def event_type(record: dict[str, Any]) -> str | None:
    data = record.get("data") or {}
    return data.get("type")


def message_kind(record: dict[str, Any]) -> str | None:
    """The wire kind of a message/operator receive, from the span label.

    Span labels are ``message:<kind>`` / ``operator:<kind>`` (the
    driver labels dispatches by payload kind), which survives payload
    mutation — the label describes the *slot*, not the mutated bytes.
    """
    event = record.get("event", "")
    if ":" in event:
        return event.split(":", 1)[1]
    return None


def emitted_kinds(record: dict[str, Any]) -> set[str]:
    """The wire kinds this span's effects sent or broadcast."""
    return {
        effect.split(":", 1)[1]
        for effect in record.get("effects", ())
        if effect.startswith(("send:", "broadcast:"))
    }


def emits(record: dict[str, Any], kind: str) -> bool:
    """Whether this span's effects sent or broadcast wire kind ``kind``."""
    return kind in emitted_kinds(record)


@dataclass
class Schedule:
    """A capture with addressable records, ready for mutation."""

    meta: dict[str, Any]
    records: list[dict[str, Any]]
    has_end: bool = True
    recorded_hash: str | None = None

    @classmethod
    def from_capture(cls, capture: Capture) -> "Schedule":
        records = []
        for index, record in enumerate(capture.records):
            copy = dict(record)
            copy["_fid"] = f"f{index}"
            records.append(copy)
        return cls(
            meta=dict(capture.meta),
            records=records,
            has_end=capture.has_end,
            recorded_hash=capture.recorded_hash,
        )

    def to_capture(self) -> Capture:
        return Capture(
            meta=self.meta,
            records=[dict(r) for r in self.records],
            recorded_hash=self.recorded_hash,
            has_end=self.has_end,
        )

    def copy(self) -> "Schedule":
        return Schedule(
            meta=dict(self.meta),
            records=[dict(r) for r in self.records],
            has_end=self.has_end,
            recorded_hash=self.recorded_hash,
        )

    def index_of(self, fid: str) -> int:
        for index, record in enumerate(self.records):
            if record.get("_fid") == fid:
                return index
        raise KeyError(f"no record with id {fid!r}")

    @property
    def spans(self) -> list[dict[str, Any]]:
        return [r for r in self.records if is_span(r)]

    def canonical_lines(self) -> list[str]:
        """Byte-stable serialization: meta, records, sorted keys.

        Wall-clock instrumentation (``wall``, ``dur``) is excluded: it
        differs between two otherwise-identical runs, and the digest
        must identify the *logical* schedule so a regenerated base
        capture yields the same per-seed mutation plans everywhere.
        """
        lines = [json.dumps(self.meta, sort_keys=True)]
        lines.extend(
            json.dumps(
                {k: v for k, v in r.items() if k not in ("wall", "dur")},
                sort_keys=True,
            )
            for r in self.records
        )
        return lines

    def canonical_bytes(self) -> bytes:
        return ("\n".join(self.canonical_lines()) + "\n").encode()

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def load_schedule(source: Any) -> Schedule:
    """Parse a capture file (or file-like) into a Schedule."""
    capture = load_capture(source)
    schedule = Schedule.from_capture(capture)
    # Reproducers persist their ids; honor them over positional ones so
    # a re-loaded reproducer's plan still resolves.
    for index, (mutated, original) in enumerate(
        zip(schedule.records, capture.records)
    ):
        if "_fid" in original:
            mutated["_fid"] = original["_fid"]
    return schedule


def can_swap(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """May adjacent records ``a`` (earlier) and ``b`` swap places?

    Conservative causal-delivery + lifecycle rules; ``False`` on any
    doubt.  Used by the reorder operator, and asserted wholesale by the
    property tests.
    """
    if not (is_span(a) and is_span(b)):
        return False  # control records (session opens) are barriers
    if a.get("node") == b.get("node"):
        # Same-node order is program order: a node's own lifecycle
        # events (timers, operator inputs, crash/recover) and its
        # receive sequence stay put relative to each other.
        return False
    if event_type(a) in _LIFECYCLE or event_type(b) in _LIFECYCLE:
        # Cross-node moves past lifecycle events are legal for
        # messages, but moving the lifecycle events themselves risks
        # spurious timer firings before their cause; keep them pinned.
        return False
    # Causal delivery: b (a receive on node r of kind k claimed from
    # node s) must not move before the step of s that emitted k.
    if is_message(b):
        kind = message_kind(b)
        sender = (b.get("data") or {}).get("sender")
        if (
            kind is not None
            and sender == a.get("node")
            and a.get("session") == b.get("session")
            and emits(a, kind)
        ):
            return False
    # Symmetric: a must not move after a step it caused... which is the
    # same rule seen from the other side; moving a later is moving b
    # earlier.  Nothing else constrains two cross-node receives.
    if is_message(a):
        kind = message_kind(a)
        sender = (a.get("data") or {}).get("sender")
        if (
            kind is not None
            and sender == b.get("node")
            and a.get("session") == b.get("session")
            and emits(b, kind)
        ):
            # b emitted what a receives: a is already *after* its cause
            # in file order only if the cause is earlier; b here is
            # later, so swapping would move a's cause before it — that
            # direction is fine.  Kept explicit for symmetry; allowed.
            pass
    return True


# -- in-process base-capture generation ---------------------------------------


def generate_capture(
    protocol: str,
    *,
    n: int,
    t: int,
    f: int = 0,
    seed: int = 0,
    group: Any = None,
    phases: int = 1,
    time_scale: float = 0.01,
) -> Capture:
    """Run a protocol under a payload-mode recorder, in memory.

    ``dkg`` runs in the deterministic simulator; ``renew`` and
    ``groupmod`` run their asyncio-TCP clusters on localhost (the sim
    orchestrators' captures are analysis-only — they cannot replay, so
    they cannot fuzz either).
    """
    from repro.crypto.groups import toy_group
    from repro.dkg.config import DkgConfig
    from repro.obs import trace as obs_trace

    if group is None:
        group = toy_group()
    config = DkgConfig(n=n, t=t, f=f, group=group)
    if protocol in ("dkg", "cluster"):
        meta = capture_meta("dkg", config, seed, "sim", tau=0)

        def run() -> None:
            from repro.dkg.runner import run_dkg

            run_dkg(config, seed=seed)

    elif protocol == "renew":
        meta = capture_meta("renew", config, seed, "tcp", phases=phases)

        def run() -> None:
            from repro.net.proactive import run_renewal_cluster

            result = run_renewal_cluster(
                config, seed=seed, phases=phases, time_scale=time_scale
            )
            if not result.succeeded:
                raise ReplayError("base renewal run did not complete")

    elif protocol == "groupmod":
        meta = capture_meta("groupmod", config, seed, "tcp", new_node=n + 1)

        def run() -> None:
            from repro.net.groupmod import run_groupmod_cluster

            result = run_groupmod_cluster(
                config, seed=seed, new_node=n + 1, time_scale=time_scale
            )
            if not result.succeeded:
                raise ReplayError("base groupmod run did not complete")

    else:
        raise ValueError(f"unknown fuzz protocol {protocol!r}")

    buffer = io.StringIO()
    sink = obs_trace.JsonlTraceSink(
        buffer, payloads=True, group=group, meta=meta, mode="w"
    )
    previous = obs_trace.set_trace_sink(sink)
    try:
        run()
    finally:
        obs_trace.set_trace_sink(previous)
        sink.close()
    buffer.seek(0)
    return load_capture(buffer)
