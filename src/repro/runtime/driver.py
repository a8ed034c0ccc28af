"""MachineDriver: the one effect interpreter every backend shares.

A driver binds one machine (a protocol state machine or a whole
:class:`~repro.runtime.runtime.ProtocolRuntime`) to one object
satisfying the :class:`repro.net.transport.Transport` protocol, turns
backend happenings into events, steps the machine, and interprets the
returned effects against the backend.  The discrete-event simulator,
the asyncio :class:`~repro.net.host.NodeHost` and the service layer's
embedded forge are all thin shells around this class — protocol
execution semantics live here exactly once.
"""

from __future__ import annotations

import time as _time
from typing import Any

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.core import Env, Machine
from repro.runtime.effects import (
    Broadcast,
    CancelTimer,
    Effect,
    LeaderChange,
    Output,
    Send,
    SetTimer,
    SpawnSession,
)
from repro.runtime.events import (
    Crashed,
    Event,
    MessageReceived,
    OperatorInput,
    Recovered,
    TimerFired,
)


class MachineDriver:
    """Drives one machine against one transport endpoint."""

    def __init__(
        self,
        machine: Machine,
        transport: Any,
        node_id: int,
        *,
        trace_sink: Any = None,
    ):
        self.machine = machine
        self.transport = transport
        self.node_id = node_id
        # Per-driver sink override; falls back to the process-wide one
        # installed with repro.obs.trace.set_trace_sink.
        self.trace_sink = trace_sink
        # machine-chosen timer id <-> backend timer id
        self._backend_by_machine: dict[int, int] = {}
        self._machine_by_backend: dict[int, int] = {}

    # -- event entry points ----------------------------------------------------

    def handle_message(self, sender: int, payload: Any) -> list[Effect]:
        return self.dispatch(MessageReceived(sender, payload))

    def handle_timer(self, backend_id: int, tag: Any) -> list[Effect]:
        """A backend timer fired; translate to the machine's own id.

        Every live timer was armed through :meth:`apply`, so the
        translation maps are authoritative: an unknown backend id is a
        stale timer (armed by a driver instance that a crash/recovery
        replaced) and is dropped.  The passthrough that used to forward
        unknown ids to plain machines served the legacy live-``Context``
        adapter, retired along with it.
        """
        machine_id = self._machine_by_backend.pop(backend_id, None)
        if machine_id is None:
            return []
        self._backend_by_machine.pop(machine_id, None)
        return self.dispatch(TimerFired(tag, machine_id))

    def handle_operator(self, payload: Any) -> list[Effect]:
        return self.dispatch(OperatorInput(payload))

    def handle_crash(self) -> list[Effect]:
        return self.dispatch(Crashed())

    def handle_recover(self) -> list[Effect]:
        return self.dispatch(Recovered())

    # -- the step/interpret cycle ----------------------------------------------

    def env(self) -> Env:
        t = self.transport
        return Env(
            now=t.current_time(),
            rng=t.node_rng(self.node_id),
            node_id=self.node_id,
            members=tuple(t.member_ids()),
        )

    def dispatch(self, event: Event) -> list[Effect]:
        # Snapshot the backend clock *before* stepping: replay restores
        # this exact value as env.now, so it must be the time the event
        # was consumed, not whatever applying the effects advanced to.
        clock = self.transport.current_time()
        started = _time.perf_counter()
        effects = self.machine.step(event, self.env())
        self.apply(effects)
        duration = _time.perf_counter() - started
        self._observe(event, effects, clock, duration)
        return effects

    def _observe(
        self,
        event: Event,
        effects: list[Effect],
        clock: float,
        duration: float,
    ) -> None:
        """Per-transition metering and tracing (the one cross-driver
        observability seam); both paths no-op when disabled."""
        reg = obs_metrics.registry()
        if reg is not None:
            reg.counter(
                "repro_runtime_events_total",
                "events stepped through MachineDriver by kind",
                event=type(event).__name__,
            ).inc()
            for effect in effects:
                reg.counter(
                    "repro_runtime_effects_total",
                    "effects emitted by machine transitions by kind",
                    effect=type(effect).__name__,
                ).inc()
            reg.histogram(
                "repro_runtime_step_seconds",
                "step + effect-apply duration of one machine transition",
            ).observe(duration)
        sink = self.trace_sink
        if sink is None:
            sink = obs_trace.trace_sink()
        if sink is not None:
            sink.record(
                obs_trace.span_for(
                    self.node_id,
                    event,
                    effects,
                    clock,
                    duration=duration,
                    codec=getattr(sink, "payload_codec", None),
                )
            )

    def apply(self, effects: list[Effect]) -> None:
        t = self.transport
        for effect in effects:
            if isinstance(effect, Send):
                t.enqueue_message(self.node_id, effect.recipient, effect.payload)
            elif isinstance(effect, Broadcast):
                for recipient in t.member_ids():
                    if recipient == self.node_id and not effect.include_self:
                        continue
                    t.enqueue_message(self.node_id, recipient, effect.payload)
            elif isinstance(effect, SetTimer):
                backend_id = t.set_timer(self.node_id, effect.delay, effect.tag)
                self._backend_by_machine[effect.timer_id] = backend_id
                self._machine_by_backend[backend_id] = effect.timer_id
            elif isinstance(effect, CancelTimer):
                backend_id = self._backend_by_machine.pop(effect.timer_id, None)
                if backend_id is not None:
                    self._machine_by_backend.pop(backend_id, None)
                    t.cancel_timer(self.node_id, backend_id)
            elif isinstance(effect, Output):
                t.record_output(self.node_id, effect.payload)
            elif isinstance(effect, LeaderChange):
                t.record_leader_change()
            elif isinstance(effect, SpawnSession):
                raise RuntimeError(
                    "SpawnSession reached a bare driver: only a "
                    "ProtocolRuntime can host sessions"
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown effect {effect!r}")
