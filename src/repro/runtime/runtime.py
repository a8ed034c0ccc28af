"""ProtocolRuntime: many concurrent protocol sessions, one endpoint.

A runtime is itself a :class:`~repro.runtime.core.Machine` — a
composite one.  It owns a set of named sessions, each a protocol
machine (a VSS sharing, a DKG, a renewal phase, a group-modification
agreement...), and

* routes inbound :class:`~repro.runtime.envelope.SessionEnvelope`
  traffic to the addressed session (enveloped operator inputs too),
  and drops and counts anything else;
* wraps each session's outbound ``Send``/``Broadcast`` in an envelope
  carrying its session id;
* namespaces session timers into its own timer-id space so any number
  of sessions can arm timers against the one underlying endpoint;
* fans ``Crashed``/``Recovered`` out to every session (one node
  identity crashes as a whole);
* honours ``SpawnSession`` effects, letting a running machine open a
  sibling session without driver involvement.

Because the runtime is just a machine, the same instance runs
unchanged under the discrete-event simulator, the asyncio TCP host, or
any future driver — that is the whole point.
"""

from __future__ import annotations

from typing import Any

from repro.obs import metrics as obs_metrics
from repro.runtime.core import Env, Machine
from repro.runtime.effects import (
    Broadcast,
    CancelTimer,
    Effect,
    Output,
    Send,
    SetTimer,
    SpawnSession,
)
from repro.runtime.envelope import SessionEnvelope, SessionTimerTag
from repro.runtime.events import (
    Crashed,
    Event,
    MessageReceived,
    OperatorInput,
    Recovered,
    TimerFired,
)


class ProtocolRuntime:
    """Multiplexes protocol sessions over one transport endpoint."""

    def __init__(
        self,
        node_id: int,
        *,
        evict_completed: bool = False,
    ):
        self.node_id = node_id
        # Evict a session's machine (and timers) once it reports a
        # non-None ``completed`` attribute, keeping only its recorded
        # outputs — bounds live state on long-lived endpoints that open
        # sessions forever (proactive phases, presignature forging).
        self.evict_completed = evict_completed
        self.sessions: dict[str, Machine] = {}
        self.session_outputs: dict[str, list[Any]] = {}
        self.dropped = 0  # unroutable frames (no envelope, unknown session)
        self.sessions_completed = 0  # evicted-after-completion count
        self._next_timer_id = 1
        # runtime timer id -> (session, machine timer id, machine tag)
        self._timers: dict[int, tuple[str, int, Any]] = {}
        self._by_inner: dict[tuple[str, int], int] = {}

    # -- session management ----------------------------------------------------

    def open_session(self, session: str, machine: Machine) -> Machine:
        """Register ``machine`` under id ``session``."""
        if session in self.sessions:
            raise ValueError(f"session {session!r} already open")
        self.sessions[session] = machine
        self.session_outputs.setdefault(session, [])
        self._publish_active()
        return machine

    def close_session(self, session: str) -> None:
        """Forget a finished session.

        Its pending timer mappings and recorded outputs are purged too
        — otherwise a later session reopened under the same id could
        receive the dead instance's timer fires, have its own cancels
        resolve to stale runtime timer ids, or hand waiters the dead
        instance's outputs."""
        self.sessions.pop(session, None)
        self.session_outputs.pop(session, None)
        stale = [
            timer_id
            for timer_id, (sid, _inner, _tag) in self._timers.items()
            if sid == session
        ]
        for timer_id in stale:
            _sid, inner_id, _tag = self._timers.pop(timer_id)
            self._by_inner.pop((session, inner_id), None)
        self._publish_active()

    def _evict_session(self, session: str) -> None:
        """Drop a *completed* session's machine and timer state.

        Unlike :meth:`close_session` the recorded outputs are kept —
        completion is detected mid-run, and waiters (``outputs_of``,
        ``NodeHost.wait_for_output``) read results after the fact.
        """
        self.sessions.pop(session, None)
        stale = [
            timer_id
            for timer_id, (sid, _inner, _tag) in self._timers.items()
            if sid == session
        ]
        for timer_id in stale:
            _sid, inner_id, _tag = self._timers.pop(timer_id)
            self._by_inner.pop((session, inner_id), None)
        self.sessions_completed += 1
        obs_metrics.counter_inc(
            "repro_runtime_sessions_completed_total",
            help="sessions evicted after reporting completion",
        )
        self._publish_active()

    def _publish_active(self) -> None:
        obs_metrics.gauge_set(
            "repro_runtime_sessions_active",
            len(self.sessions),
            help="live protocol sessions multiplexed on this endpoint",
            node=self.node_id,
        )

    def outputs_of(self, session: str) -> list[Any]:
        return list(self.session_outputs.get(session, []))

    # -- the machine interface -------------------------------------------------

    def step(self, event: Event, env: Env) -> list[Effect]:
        if isinstance(event, MessageReceived):
            session, inner = self._route(event.payload)
            if session is None:
                return []
            return self._step_session(
                session, MessageReceived(event.sender, inner), env
            )
        if isinstance(event, OperatorInput):
            session, inner = self._route(event.payload)
            if session is None:
                return []
            return self._step_session(session, OperatorInput(inner), env)
        if isinstance(event, TimerFired):
            entry = self._timers.pop(event.timer_id, None)
            if entry is None:
                return []  # cancelled or stale
            session, inner_id, inner_tag = entry
            self._by_inner.pop((session, inner_id), None)
            if session not in self.sessions:
                return []
            return self._step_session(
                session, TimerFired(inner_tag, inner_id), env
            )
        if isinstance(event, (Crashed, Recovered)):
            effects: list[Effect] = []
            for session in sorted(self.sessions):
                effects.extend(self._step_session(session, event, env))
            return effects
        raise TypeError(f"unknown event {event!r}")

    # -- internals -------------------------------------------------------------

    def _route(self, payload: Any) -> tuple[str | None, Any]:
        """Resolve (session id, inner payload) for an inbound payload;
        anything but an envelope naming an open session is dropped."""
        if isinstance(payload, SessionEnvelope) and payload.session in self.sessions:
            return payload.session, payload.payload
        self.dropped += 1
        return None, None

    def _step_session(
        self, session: str, event: Event, env: Env
    ) -> list[Effect]:
        machine = self.sessions[session]
        effects = self._translate(session, machine.step(event, env))
        if (
            self.evict_completed
            and session in self.sessions
            and getattr(machine, "completed", None) is not None
        ):
            self._evict_session(session)
        return effects

    def _translate(
        self, session: str, effects: list[Effect]
    ) -> list[Effect]:
        """Lift a session's effects into the runtime's namespace."""
        out: list[Effect] = []
        for effect in effects:
            if isinstance(effect, Send):
                out.append(
                    Send(
                        effect.recipient,
                        SessionEnvelope(session, effect.payload),
                    )
                )
            elif isinstance(effect, Broadcast):
                out.append(
                    Broadcast(
                        SessionEnvelope(session, effect.payload),
                        effect.include_self,
                    )
                )
            elif isinstance(effect, SetTimer):
                timer_id = self._next_timer_id
                self._next_timer_id += 1
                self._timers[timer_id] = (session, effect.timer_id, effect.tag)
                self._by_inner[(session, effect.timer_id)] = timer_id
                out.append(
                    SetTimer(
                        effect.delay,
                        SessionTimerTag(session, effect.tag),
                        timer_id,
                    )
                )
            elif isinstance(effect, CancelTimer):
                timer_id = self._by_inner.pop((session, effect.timer_id), None)
                if timer_id is not None:
                    self._timers.pop(timer_id, None)
                    out.append(CancelTimer(timer_id))
            elif isinstance(effect, Output):
                self.session_outputs.setdefault(session, []).append(
                    effect.payload
                )
                out.append(effect)
            elif isinstance(effect, SpawnSession):
                self.open_session(effect.session, effect.machine)
            else:  # LeaderChange and future pass-throughs
                out.append(effect)
        return out
