"""Deterministic re-execution of flight-recorder captures.

A payload-mode capture (see :class:`repro.obs.trace.JsonlTraceSink`) is
a complete event transcript: for every ``MachineDriver.dispatch`` it
stores the node, the backend clock at consumption time, and the event's
canonical wire encoding.  Because protocols are sans-I/O machines whose
only inputs are those events plus deterministic per-node RNG streams,
replaying the transcript through fresh machines in the sim driver *is*
the original execution — down to the bytes of every ``Output`` effect.
:func:`replay_capture` does exactly that and checks the reproduced
:func:`~repro.runtime.trace.transcript_hash` against the one the
recorder wrote at close.

What replay rebuilds (and how it knows):

* the deployment — the capture's leading meta record names the CLI
  command, group, codec and full :class:`~repro.dkg.config.DkgConfig`
  parameters, so machines are built by the live runner's own
  per-session constructor in :mod:`repro.deployment`, PKI label and
  all;
* the network — not at all: captured ``MessageReceived`` events stand
  in for it, and ``Send``/``Broadcast`` effects are dropped on the
  replay transport;
* timers — captured ``TimerFired`` events are dispatched directly.
  Re-execution re-arms the same timers in the same order (machine and
  runtime timer-id counters are deterministic), so recorded ids route
  to the right session;
* multi-session state — that constructor is handed the *replayed*
  outputs of a ``renew-N`` / ``add-1`` session's predecessor where the
  live runner hands it its own (a crashed node that never renewed gets
  ``prev_share=None``, exactly like live).

Captures from ``repro serve`` (client-driven traffic) record fine but
are analysis-only; :func:`replay_capture` raises :class:`ReplayError`
for them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import count
from typing import Any

from repro.obs.trace import tag_from_json
from repro.runtime.driver import MachineDriver
from repro.runtime.events import (
    Crashed,
    MessageReceived,
    OperatorInput,
    Recovered,
    TimerFired,
)
from repro.runtime.runtime import ProtocolRuntime
from repro.runtime.trace import transcript_hash

_TABLE_ENTRIES = 1024  # decoded commitment matrices a replay world keeps


class ReplayError(Exception):
    """The capture cannot be re-executed (wrong mode, missing data)."""


class TruncatedCaptureError(ReplayError):
    """The capture file ends mid-write (no end record / partial line).

    A recorder that died mid-run — or a fuzz reproducer interrupted
    while being emitted — leaves exactly this shape behind, so callers
    (the CLI, the fuzzer) distinguish it from structurally bad input.
    """


class FrameDecodeError(ReplayError):
    """A captured wire frame failed to decode back into an event.

    Pristine captures never hit this (frames round-trip by
    construction); mutated schedules from :mod:`repro.fuzz` reach it
    whenever a bit-flip lands outside the codec's validity envelope —
    the replay-level analogue of a garbled frame dropped on the wire.
    """


@dataclass
class Capture:
    """A parsed flight-recorder file."""

    meta: dict[str, Any]
    records: list[dict[str, Any]]  # spans + control lines, file order
    recorded_hash: str | None
    recorded_outputs: int | None = None
    has_end: bool = False  # the recorder's close marker was seen

    @property
    def spans(self) -> list[dict[str, Any]]:
        return [r for r in self.records if "event" in r]


def load_capture(source: Any) -> Capture:
    """Parse a capture from a path or an open text file."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    meta: dict[str, Any] = {}
    records: list[dict[str, Any]] = []
    recorded_hash: str | None = None
    recorded_outputs: int | None = None
    has_end = False
    non_empty = [number for number, line in enumerate(lines, start=1) if line.strip()]
    last_line = non_empty[-1] if non_empty else 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == last_line:
                # A bad *final* line is the signature of a recorder (or
                # reproducer emit) killed mid-write, not of a corrupt file.
                raise TruncatedCaptureError(
                    f"line {number}: not JSON — partial line at end of "
                    f"capture, truncated file? ({exc})"
                ) from exc
            raise ReplayError(f"line {number}: not JSON ({exc})") from exc
        kind = record.get("record")
        if kind == "meta":
            meta = record
        elif kind == "end":
            has_end = True
            recorded_hash = record.get("transcript_hash")
            recorded_outputs = record.get("outputs")
        else:
            records.append(record)
    return Capture(meta, records, recorded_hash, recorded_outputs, has_end)


def capture_meta(
    cmd: str,
    config: Any,
    seed: int,
    transport: str,
    **extra: Any,
) -> dict[str, Any]:
    """The meta record a recorder writes so replay can rebuild the run.

    Shared by the CLI's ``--trace-out`` plumbing and the tests, so the
    two never drift on what replay needs.
    """
    return {
        "cmd": cmd,
        "transport": transport,
        "seed": seed,
        "group": config.group.name,
        "codec": config.codec.name,
        "config": {
            "n": config.n,
            "t": config.t,
            "f": config.f,
            "d_budget": config.d_budget,
            "initial_leader": config.initial_leader,
            "timeout": [
                config.timeout.initial,
                config.timeout.multiplier,
                config.timeout.cap,
            ],
            "q_size": config.q_size,
        },
        **extra,
    }


def resolve_group_name(name: str) -> Any:
    """A group object for a capture's recorded group name."""
    from repro.crypto.groups import group_by_name

    try:
        return group_by_name(name)
    except KeyError:
        raise ReplayError(f"unknown group name {name!r} in capture meta") from None


def _config_from_meta(meta: dict[str, Any]) -> Any:
    from repro.crypto.hashing import FullMatrixCodec, HashedMatrixCodec
    from repro.dkg.config import DkgConfig
    from repro.sim.clock import TimeoutPolicy

    try:
        group = resolve_group_name(meta["group"])
        codec = (
            HashedMatrixCodec()
            if meta["codec"] == "hashed-matrix"
            else FullMatrixCodec()
        )
        params = meta["config"]
        initial, multiplier, cap = params["timeout"]
        return DkgConfig(
            n=params["n"],
            t=params["t"],
            f=params["f"],
            group=group,
            codec=codec,
            d_budget=params["d_budget"],
            initial_leader=params["initial_leader"],
            timeout=TimeoutPolicy(initial, multiplier, cap),
            q_size=params["q_size"],
        )
    except KeyError as exc:
        raise ReplayError(f"capture meta lacks {exc} — not a payload capture?")


class ReplayTransport:
    """The :class:`~repro.net.transport.Transport` surface of a replay.

    The captured event stream *is* the network, so sends vanish; timers
    only need fresh backend ids (fires come from the capture); the
    clock is pinned to each span's recorded ``t`` before dispatch; the
    per-node RNG streams mirror the live transports' derivation
    (``("node", seed, node_id)``), cached so they advance continuously.
    """

    def __init__(
        self,
        node_id: int,
        seed: int,
        members: list[int],
        outputs: list[tuple[int, Any]],
    ):
        self.node_id = node_id
        self.seed = seed
        self.members = sorted(members)
        self.now = 0.0
        self._outputs = outputs
        self._timer_ids = count(1)
        self._node_rngs: dict[int, random.Random] = {}

    def current_time(self) -> float:
        return self.now

    def member_ids(self) -> list[int]:
        return list(self.members)

    def node_rng(self, node_id: int) -> random.Random:
        if node_id not in self._node_rngs:
            self._node_rngs[node_id] = random.Random(
                ("node", self.seed, node_id).__repr__()
            )
        return self._node_rngs[node_id]

    def enqueue_message(self, sender: int, recipient: int, payload: Any) -> None:
        pass  # the capture stands in for the network

    def set_timer(self, node: int, delay: float, tag: Any) -> int:
        return next(self._timer_ids)

    def cancel_timer(self, node: int, timer_id: int) -> None:
        pass

    def record_output(self, node: int, payload: Any) -> None:
        self._outputs.append((node, payload))

    def record_leader_change(self) -> None:
        pass


def _session_machines(meta: dict[str, Any], config: Any) -> Any:
    """The recorded lifecycle's own per-session constructor (see
    :mod:`repro.deployment`), with the live runner's PKI label."""
    from repro import deployment

    cmd, seed = meta.get("cmd"), meta["seed"]
    if cmd in ("dkg", "cluster"):
        nodes = deployment.dkg_machines(
            config,
            deployment.dkg_pki(config, seed),
            config.vss().indices,
            tau=meta.get("tau", 0),
        )
        return lambda session, members, prior: {i: nodes[i] for i in members}
    if cmd == "renew":
        return deployment.renewal_cluster_sessions(config, seed)
    if cmd == "groupmod":
        if meta.get("new_node") is None:
            raise ReplayError("groupmod capture meta lacks 'new_node'")
        return deployment.groupmod_cluster_sessions(config, seed, meta["new_node"])
    raise ReplayError(f"captures from {cmd!r} are analysis-only (no replay factory)")


# -- the replay world ----------------------------------------------------------


class ReplayWorld:
    """Per-node drivers being fed the captured event stream.

    Public because :mod:`repro.fuzz` subclasses it: a mutated schedule
    is replayed through the same world-building, with decode failures
    and machine exceptions downgraded from hard errors to observations.
    """

    def __init__(self, capture: Capture):
        meta = capture.meta
        if not meta:
            raise ReplayError("capture has no meta record — not a payload capture")
        self.meta = meta
        self.config = _config_from_meta(meta)
        self.group = self.config.group
        self.seed = meta["seed"]
        self.transport_kind = meta.get("transport", "sim")
        cmd = meta.get("cmd")
        if cmd in ("renew", "groupmod") and self.transport_kind != "tcp":
            # The sim orchestrators spin up a fresh simulation per
            # stage, so their captures interleave worlds replay cannot
            # reconstruct; the tcp runners keep one world end to end.
            raise ReplayError(
                f"sim-transport {cmd!r} captures are analysis-only; "
                "record with --transport tcp to replay"
            )
        self.session_machines = _session_machines(meta, self.config)
        from repro.net import wire

        # One table for the whole world: a capture repeats each dealer's
        # matrix in every echo and ready, for every node.
        self.commitments = wire.CommitmentTable(_TABLE_ENTRIES, _TABLE_ENTRIES)
        self.outputs: list[tuple[int, Any]] = []
        self.transports: dict[int, ReplayTransport] = {}
        self.drivers: dict[int, MachineDriver] = {}
        self.runtimes: dict[int, ProtocolRuntime] = {}
        if self.transport_kind == "sim":
            # Plain machines, no session multiplexing, fixed membership
            # (exactly what the sim runner drives).
            for i in self.config.vss().indices:
                transport = ReplayTransport(
                    i, self.seed, list(self.config.vss().indices), self.outputs
                )
                self.transports[i] = transport
                self.drivers[i] = MachineDriver(self.machine(i, "dkg"), transport, i)

    def _tcp_driver(self, node: int) -> MachineDriver:
        if node not in self.drivers:
            transport = ReplayTransport(node, self.seed, [], self.outputs)
            runtime = ProtocolRuntime(node)
            self.transports[node] = transport
            self.runtimes[node] = runtime
            self.drivers[node] = MachineDriver(runtime, transport, node)
        return self.drivers[node]

    def open_session(self, record: dict[str, Any]) -> None:
        node = record["node"]
        session = record["session"]
        self._tcp_driver(node)
        self.transports[node].members = sorted(record.get("members", []))
        runtime = self.runtimes[node]
        if session not in runtime.sessions:
            runtime.open_session(session, self.machine(node, session))

    def machine(self, node: int, session: str) -> Any:
        """The machine the live runner built for ``node`` in ``session``,
        chained from the *replayed* outputs of earlier sessions."""
        try:
            return self.session_machines(session, [node], self._prior)[node]
        except (KeyError, ValueError) as exc:
            raise ReplayError(
                f"cannot build node {node} of session {session!r}: {exc!r}"
            ) from exc

    def _prior(self, session: str) -> tuple[dict[int, int], Any]:
        """(shares, commitment) of a finished session, as replayed."""
        shares: dict[int, int] = {}
        commitment = None
        for node, runtime in self.runtimes.items():
            for payload in runtime.session_outputs.get(session, []):
                if hasattr(payload, "share"):
                    shares[node] = payload.share
                    commitment = getattr(payload, "commitment", commitment)
        if not shares:
            raise ReplayError(
                f"session {session!r} produced no outputs to chain from"
            )
        return shares, commitment

    def decode_frame(self, frame_hex: str) -> Any:
        from repro.net import wire

        try:
            return wire.decode(
                bytes.fromhex(frame_hex), commitments=self.commitments, group=self.group
            )
        except ValueError as exc:
            # WireError is a ValueError; bad hex raises one directly.
            raise FrameDecodeError(f"frame does not decode: {exc}") from exc

    def dispatch_span(self, record: dict[str, Any]) -> None:
        data = record.get("data")
        if data is None:
            raise ReplayError(
                "capture has label-only spans — re-record with --trace-out "
                "(payload mode) to make it replayable"
            )
        node = record["node"]
        if self.transport_kind == "sim":
            driver = self.drivers.get(node)
            if driver is None:
                raise ReplayError(f"span for unknown node {node}")
        else:
            driver = self._tcp_driver(node)
        kind = data["type"]
        if kind == "message":
            payload = self.decode_frame(data["frame"])
            event: Any = MessageReceived(data["sender"], payload)
        elif kind == "operator":
            payload = self.decode_frame(data["frame"])
            event = OperatorInput(payload)
        elif kind == "timer":
            event = TimerFired(tag_from_json(data["tag"]), data["id"])
        elif kind == "crash":
            event = Crashed()
        elif kind == "recover":
            event = Recovered()
        else:
            raise ReplayError(f"unknown captured event type {kind!r}")
        self.transports[node].now = record.get("t", 0.0)
        driver.dispatch(event)


@dataclass
class ReplayResult:
    """Outcome of re-executing a capture."""

    meta: dict[str, Any]
    recorded_hash: str | None
    replayed_hash: str
    outputs: int
    spans: int

    @property
    def matched(self) -> bool:
        return (
            self.recorded_hash is not None
            and self.recorded_hash == self.replayed_hash
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "cmd": self.meta.get("cmd"),
            "transport": self.meta.get("transport"),
            "group": self.meta.get("group"),
            "seed": self.meta.get("seed"),
            "spans": self.spans,
            "outputs": self.outputs,
            "recorded_hash": self.recorded_hash,
            "replayed_hash": self.replayed_hash,
            "matched": self.matched,
        }


def replay_capture(capture: Capture) -> ReplayResult:
    """Re-execute a parsed capture; the result carries both hashes."""
    world = ReplayWorld(capture)
    # A payload-mode recorder writes the end record (with the transcript
    # hash) at close — a payload capture without one was interrupted
    # mid-run and has nothing to verify the replay against.  Label-only
    # sinks write no end record at all; their spans (no "data") fall
    # through to the label-only rejection below.
    payload_mode = any("data" in r for r in capture.spans)
    if not capture.has_end and (payload_mode or not capture.spans):
        raise TruncatedCaptureError(
            "capture has no end record — recorder interrupted mid-run "
            "or file truncated"
        )
    spans = 0
    for record in capture.records:
        if record.get("record") == "open":
            world.open_session(record)
        elif "event" in record:
            world.dispatch_span(record)
            spans += 1
    return ReplayResult(
        meta=capture.meta,
        recorded_hash=capture.recorded_hash,
        replayed_hash=transcript_hash(world.outputs, group=world.group),
        outputs=len(world.outputs),
        spans=spans,
    )


def replay_file(path: Any) -> ReplayResult:
    return replay_capture(load_capture(path))
