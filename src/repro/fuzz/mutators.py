"""Seeded mutation operators over a :class:`~repro.fuzz.schedule.Schedule`.

A *plan* is a JSON list of operator dicts, fully parameterized — no
randomness survives into application, so re-applying a plan (or any
subset of it, which is what shrinking does) is deterministic.  The
operators:

``move``
    Shift one record ``delta`` slots via adjacent swaps, each gated by
    :func:`~repro.fuzz.schedule.can_swap`; stops early at the first
    illegal swap, so causal delivery is preserved by construction.
``dup``
    Re-deliver a copy of a message span ``delta`` slots later (network
    duplication).  The copy's id is ``d<orig>-<k>``.
``drop``
    Remove a message span (crash-faulty sender / lossy link).  The
    planner budgets drops at ``f``, the crash limit.
``delay-quorum``
    Find the *threshold-th* ECHO or READY arriving at a node in a
    session — the exact Fig. 1 quorum-completing message, thresholds
    from :mod:`repro.quorum` — and push it later.  This is the
    scheduling adversary the paper's termination argument reasons
    about: the quorum must still complete, merely later.
``crash``
    Insert a ``Crashed`` marker before an anchor record and a
    ``Recovered`` marker ``gap`` records later, dropping the node's
    own events in the window (a down node receives nothing).  Refused
    when a dropped step is the first to emit a kind that a surviving
    later record receives from the node: the mutant would deliver a
    message nobody sent.
``mutate``
    Byzantine payload mutation through the wire codec: ``bitflip``
    flips one bit of the captured frame, ``stale`` substitutes an
    earlier captured frame (replay attack), ``sender`` re-labels the
    envelope sender (spoofing).  The *claimed* sender of a mutated
    frame is tainted; the planner keeps distinct tainted senders
    within ``t``.
``corrupt-output``
    Post-execution: tamper a completer's share by +1.  Never planned —
    it exists so the self-check can plant a violation the invariant
    verifier provably catches (and shrinking provably keeps).

Liveness accounting (:class:`ApplyReport`) is where the paper meets the
open-loop replay model.  Replay feeds each node its *captured* incoming
stream, so a mutation at node r never propagates to the others — safety
invariants therefore stay checkable unconditionally, but a node whose
own inputs were damaged may legitimately not complete.  Three sets are
maintained:

* ``crashed`` — crash-injected nodes;
* ``tainted`` — claimed senders of mutated frames (the Byzantine set);
* ``degraded`` — nodes whose incoming stream lost more than the Fig. 1
  quorum slack.  Disabling up to ``n - echo_threshold`` echoes or
  ``t + f`` readies per (node, session, kind) is provably harmless —
  the remaining honest quorum still clears the threshold — so only
  counts beyond that slack, or any damage to a unique-role message
  (``vss.send`` subshares, leader proposals: things no quorum can
  route around in an open loop), degrade the recipient.

The liveness invariant then asserts completion for every node *not* in
``crashed | degraded`` — mutations within budget must not stop anyone
else, which is precisely the paper's weak-termination claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import quorum
from repro.fuzz.schedule import (
    Schedule,
    can_swap,
    emitted_kinds,
    is_message,
    is_span,
    message_kind,
)

PLANNED_OPS = ("move", "dup", "drop", "delay-quorum", "crash", "mutate")


@dataclass(frozen=True)
class MutationBudget:
    """Adversary budgets, in the paper's (t, f) terms."""

    t: int  # max distinct tainted (Byzantine) senders
    f: int  # max dropped messages / crash-prone nodes

    @property
    def crash_nodes(self) -> int:
        # Injected crashes always pair with a recovery, so the node is
        # only *transiently* down — the hybrid model's f bounds nodes
        # that stay down, so one transient crash is admitted even at
        # f=0 (open-loop replay still exempts the node from liveness:
        # its lost inbox cannot be re-delivered).
        return max(self.f, 1)


@dataclass
class ApplyReport:
    """What a plan did to the schedule, in invariant-relevant terms."""

    applied: list[dict[str, Any]] = field(default_factory=list)
    skipped: list[dict[str, Any]] = field(default_factory=list)
    crashed: set[int] = field(default_factory=set)
    degraded: set[int] = field(default_factory=set)
    tainted: set[int] = field(default_factory=set)
    post_ops: list[dict[str, Any]] = field(default_factory=list)
    # (node, session, kind) -> count of disabled incoming messages
    disabled: dict[tuple[int, str, str], int] = field(default_factory=dict)

    def exempt(self) -> set[int]:
        return self.crashed | self.degraded


def _quorum_slack(kind: str, n: int, t: int, f: int) -> int:
    """How many incoming frames of ``kind`` a node can lose and still
    clear the Fig. 1 threshold, given an all-honest capture of n."""
    if kind.endswith(".echo"):
        return n - quorum.echo_threshold(n, t)
    if kind.endswith(".ready"):
        # Output needs n - t - f readies; the capture delivered n.
        return n - quorum.output_threshold(n, t, f)
    return 0  # unique-role messages (sends, proposals): no slack


class _Applier:
    """Sequential, deterministic application of one plan."""

    def __init__(self, schedule: Schedule, budget: MutationBudget):
        self.schedule = schedule
        self.budget = budget
        self.report = ApplyReport()
        params = schedule.meta.get("config") or {}
        self.n = params.get("n", 0)
        self.t = params.get("t", 0)
        self.f = params.get("f", 0)
        self._dup_counts: dict[str, int] = {}
        self._crash_counts: dict[int, int] = {}

    def _find(self, fid: str) -> int | None:
        for index, record in enumerate(self.schedule.records):
            if record.get("_fid") == fid:
                return index
        return None

    def _disable(self, record: dict[str, Any]) -> None:
        """Account one incoming message of this slot as unusable."""
        node = record.get("node")
        session = record.get("session") or "dkg"
        kind = message_kind(record) or "?"
        key = (node, session, kind)
        count = self.report.disabled.get(key, 0) + 1
        self.report.disabled[key] = count
        if count > _quorum_slack(kind, self.n, self.t, self.f):
            self.report.degraded.add(node)

    def apply(self, op: dict[str, Any]) -> bool:
        kind = op["op"]
        handler = getattr(self, "_op_" + kind.replace("-", "_"), None)
        if handler is None:
            raise ValueError(f"unknown mutation op {kind!r}")
        done = handler(op)
        (self.report.applied if done else self.report.skipped).append(op)
        return done

    # -- operators ------------------------------------------------------------

    def _move_by_swaps(self, index: int, delta: int) -> int:
        records = self.schedule.records
        moved = 0
        step = 1 if delta > 0 else -1
        for _ in range(abs(delta)):
            other = index + step
            if not 0 <= other < len(records):
                break
            earlier, later = (
                (records[index], records[other])
                if step > 0
                else (records[other], records[index])
            )
            if not can_swap(earlier, later):
                break
            records[index], records[other] = records[other], records[index]
            index = other
            moved += 1
        return moved

    def _op_move(self, op: dict[str, Any]) -> bool:
        index = self._find(op["id"])
        if index is None:
            return False
        return self._move_by_swaps(index, op["delta"]) > 0

    def _op_dup(self, op: dict[str, Any]) -> bool:
        index = self._find(op["id"])
        if index is None:
            return False
        record = self.schedule.records[index]
        if not is_message(record):
            return False
        copy = dict(record)
        count = self._dup_counts.get(op["id"], 0) + 1
        self._dup_counts[op["id"]] = count
        copy["_fid"] = f"d{op['id']}-{count}"
        at = min(index + 1 + max(op["delta"], 0), len(self.schedule.records))
        self.schedule.records.insert(at, copy)
        return True

    def _op_drop(self, op: dict[str, Any]) -> bool:
        index = self._find(op["id"])
        if index is None:
            return False
        record = self.schedule.records[index]
        if not is_message(record):
            return False
        del self.schedule.records[index]
        self._disable(record)
        return True

    def _op_delay_quorum(self, op: dict[str, Any]) -> bool:
        node, session = op["node"], op["session"]
        suffix = "." + op["suffix"]
        if op["suffix"] == "echo":
            threshold = quorum.echo_threshold(self.n, self.t)
        else:
            threshold = quorum.output_threshold(self.n, self.t, self.f)
        seen = 0
        for index, record in enumerate(self.schedule.records):
            if (
                is_message(record)
                and record.get("node") == node
                and (record.get("session") or "dkg") == session
                and (message_kind(record) or "").endswith(suffix)
            ):
                seen += 1
                if seen == threshold:
                    return self._move_by_swaps(index, op["delta"]) > 0
        return False

    def _crash_orphans_receive(self, node: int, start: int, stop: int) -> bool:
        """Would dropping ``node``'s steps in ``records[start:stop]``
        leave a later receive from ``node`` with no earlier emitter?"""
        orphaned: set[tuple[Any, str]] = set()  # (session, kind)
        emitted: set[tuple[Any, str]] = set()  # by surviving steps so far
        for index, record in enumerate(self.schedule.records):
            dropped = (
                start <= index < stop
                and is_span(record)
                and record.get("node") == node
            )
            session = record.get("session")
            if (
                not dropped
                and is_message(record)
                and (record.get("data") or {}).get("sender") == node
                and (session, message_kind(record)) in orphaned
            ):
                return True
            if record.get("node") != node:
                continue
            kinds = {(session, kind) for kind in emitted_kinds(record)}
            if dropped:
                orphaned |= kinds - emitted
            else:
                emitted |= kinds
                orphaned -= kinds
        return False

    def _op_crash(self, op: dict[str, Any]) -> bool:
        node = op["node"]
        anchor = self._find(op["at"])
        if anchor is None:
            return False
        if (
            node not in self.report.crashed
            and len(self.report.crashed) >= self.budget.crash_nodes
        ):
            return False
        if self._crash_orphans_receive(node, anchor, anchor + max(op["gap"], 0)):
            return False
        count = self._crash_counts.get(node, 0) + 1
        self._crash_counts[node] = count
        t_at = self.schedule.records[anchor].get("t", 0.0)
        session = self.schedule.records[anchor].get("session") or "dkg"

        def marker(event: str, tag: str) -> dict[str, Any]:
            return {
                "_fid": f"c{node}-{count}{tag}",
                "node": node,
                "event": event,
                "session": session,
                "effects": [],
                "t": t_at,
                "data": {"type": event},
            }

        # Drop the node's own deliveries inside the outage window (a
        # down node receives nothing), then bracket what remains.
        window = self.schedule.records[anchor : anchor + max(op["gap"], 0)]
        kept: list[dict[str, Any]] = []
        for record in window:
            if is_span(record) and record.get("node") == node:
                if is_message(record):
                    self._disable(record)
                continue  # timers of a down node vanish too
            kept.append(record)
        self.schedule.records[anchor : anchor + max(op["gap"], 0)] = (
            [marker("crash", "")] + kept + [marker("recover", "r")]
        )
        self.report.crashed.add(node)
        return True

    def _op_mutate(self, op: dict[str, Any]) -> bool:
        index = self._find(op["id"])
        if index is None:
            return False
        record = self.schedule.records[index]
        if not is_message(record):
            return False
        data = dict(record.get("data") or {})
        mode = op["mode"]
        if mode == "bitflip":
            raw = bytearray(bytes.fromhex(data["frame"]))
            if not raw:
                return False
            bit = op["bit"] % (len(raw) * 8)
            raw[bit // 8] ^= 1 << (bit % 8)
            data["frame"] = raw.hex()
            claimed = data.get("sender")
        elif mode == "stale":
            source = self._find(op["from"])
            if source is None or source >= index:
                return False
            source_data = self.schedule.records[source].get("data") or {}
            if source_data.get("type") != "message":
                return False
            data["frame"] = source_data["frame"]
            data["sender"] = source_data.get("sender")
            claimed = data.get("sender")
        elif mode == "sender":
            claimed = op["sender"]
            data["sender"] = claimed
        else:
            raise ValueError(f"unknown mutate mode {mode!r}")
        if (
            claimed is not None
            and claimed not in self.report.tainted
            and len(self.report.tainted) >= self.budget.t
        ):
            return False  # Byzantine budget exhausted
        record = dict(record)
        record["data"] = data
        self.schedule.records[index] = record
        if claimed is not None:
            self.report.tainted.add(claimed)
        # Whatever the machine does with the mutated frame (reject,
        # miscount, drop on decode failure), the slot's honest content
        # is gone for this recipient.
        self._disable(record)
        if mode in ("stale", "sender"):
            # A forged envelope sender poisons *two* votes at the
            # recipient: the slot it replaced, and the claimed sender's
            # genuine message — whose content now lands under the wrong
            # index and whose real delivery is absorbed as a duplicate.
            self._disable(record)
        return True

    def _op_corrupt_output(self, op: dict[str, Any]) -> bool:
        # Post-execution tampering: recorded for the executor, which
        # applies it to the replayed outputs (the planted-bug seam the
        # self-check drives).
        self.report.post_ops.append(op)
        return True


def apply_plan(
    schedule: Schedule,
    plan: list[dict[str, Any]],
    budget: MutationBudget | None = None,
) -> tuple[Schedule, ApplyReport]:
    """Apply ``plan`` to a copy of ``schedule``; fully deterministic."""
    params = schedule.meta.get("config") or {}
    if budget is None:
        budget = MutationBudget(t=params.get("t", 0), f=params.get("f", 0))
    applier = _Applier(schedule.copy(), budget)
    for op in plan:
        applier.apply(op)
    return applier.schedule, applier.report


class ScheduleMutator:
    """Plans seeded mutations against one base schedule.

    ``plan(rng, max_ops)`` draws operators from the given RNG only —
    the same RNG state always yields the same plan, and the plan alone
    (via :func:`apply_plan`) always yields the same mutated schedule.
    """

    def __init__(self, schedule: Schedule, budget: MutationBudget | None = None):
        self.schedule = schedule
        params = schedule.meta.get("config") or {}
        self.n = params.get("n", 0)
        self.t = params.get("t", 0)
        self.f = params.get("f", 0)
        self.budget = budget or MutationBudget(t=self.t, f=self.f)
        self._messages = [
            r for r in schedule.records if is_span(r) and is_message(r)
        ]
        self._members = sorted(
            {r["node"] for r in schedule.records if is_span(r)}
        )
        self._sessions = sorted(
            {
                (r.get("session") or "dkg")
                for r in self._messages
            }
        )

    def _weighted_ops(self) -> list[str]:
        ops = ["move"] * 30 + ["dup"] * 15 + ["delay-quorum"] * 15
        ops += ["crash"] * 10
        if self.budget.f > 0:
            ops += ["drop"] * 10
        if self.budget.t > 0:
            ops += ["mutate"] * 20
        return ops

    def plan(self, rng: Any, max_ops: int) -> list[dict[str, Any]]:
        if not self._messages:
            return []
        choices = self._weighted_ops()
        plan: list[dict[str, Any]] = []
        drops = 0
        for _ in range(max_ops):
            kind = rng.choice(choices)
            target = rng.choice(self._messages)
            if kind == "move":
                delta = rng.choice([-3, -2, -1, 1, 2, 3, 5, 8])
                plan.append({"op": "move", "id": target["_fid"], "delta": delta})
            elif kind == "dup":
                plan.append(
                    {
                        "op": "dup",
                        "id": target["_fid"],
                        "delta": rng.randrange(0, 12),
                    }
                )
            elif kind == "drop":
                if drops >= self.budget.f:
                    continue
                drops += 1
                plan.append({"op": "drop", "id": target["_fid"]})
            elif kind == "delay-quorum":
                plan.append(
                    {
                        "op": "delay-quorum",
                        "node": rng.choice(self._members),
                        "session": rng.choice(self._sessions),
                        "suffix": rng.choice(["echo", "ready"]),
                        "delta": rng.randrange(1, 10),
                    }
                )
            elif kind == "crash":
                plan.append(
                    {
                        "op": "crash",
                        "node": rng.choice(self._members),
                        "at": target["_fid"],
                        "gap": rng.randrange(2, 16),
                    }
                )
            elif kind == "mutate":
                mode = rng.choice(["bitflip", "bitflip", "stale", "sender"])
                op: dict[str, Any] = {
                    "op": "mutate",
                    "id": target["_fid"],
                    "mode": mode,
                }
                if mode == "bitflip":
                    op["bit"] = rng.randrange(0, 4096)
                elif mode == "stale":
                    op["from"] = rng.choice(self._messages)["_fid"]
                else:
                    op["sender"] = rng.choice(self._members)
                plan.append(op)
        return plan
