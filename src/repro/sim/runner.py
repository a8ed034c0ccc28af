"""The simulation runner: a discrete-event driver for protocol machines.

A :class:`Simulation` is a deterministic function of (machines, delay
model, adversary, seed).  It owns the event queue; each queued
happening is translated into a sans-I/O
:class:`~repro.runtime.events.Event`, stepped through the owning
machine via a shared :class:`~repro.runtime.driver.MachineDriver`, and
the returned effects are interpreted against this class's
:class:`~repro.net.transport.Transport` surface (message enqueue with
sampled delays, timers on the virtual clock, output records).  The
identical driver interprets the identical machines over real asyncio
TCP (:class:`~repro.net.host.NodeHost`) — the simulator is just the
deterministic backend.

Protocol layers build a simulation, inject operator inputs, call
:meth:`Simulation.run`, and read results from
:attr:`Simulation.outputs` and :attr:`Simulation.metrics`.  Any object
with a ``node_id`` and a ``step(event, env)`` is a valid node — plain
:class:`~repro.sim.node.ProtocolNode` subclasses and whole
:class:`~repro.runtime.runtime.ProtocolRuntime` endpoints alike (the
latter is how many concurrent protocol sessions share one simulated
node identity).
"""

from __future__ import annotations

import random
import weakref
from typing import Any

from repro.runtime.driver import MachineDriver
from repro.runtime.envelope import SessionEnvelope
from repro.sim.adversary import Adversary
from repro.sim.events import (
    CrashNode,
    EventQueue,
    MessageDelivery,
    OperatorInput,
    RecoverNode,
    TimerFired,
)
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel, UniformDelay
from repro.sim.node import OutputRecord, ProtocolNode


class Simulation:
    """A deterministic discrete-event run of a set of protocol nodes.

    ``group`` is the run's: every message is metered at the length of
    the frame the real transport would send for it.
    """

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        adversary: Adversary | None = None,
        seed: int = 0,
        observers: list | None = None,
        group: Any = None,
    ):
        # Imported here: repro.net builds on this module.
        from repro.net.pricing import FramePricer

        self.price = FramePricer(group)
        self.queue = EventQueue()
        self.metrics = Metrics()
        # Observers see every dispatched event: on_event(time, event).
        self.observers = list(observers or [])
        self.nodes: dict[int, ProtocolNode] = {}
        self._drivers: dict[int, MachineDriver] = {}
        self.delay_model = delay_model or UniformDelay()
        self.adversary = adversary or Adversary.passive()
        self.seed = seed
        self.outputs: list[OutputRecord] = []
        self.crashed: set[int] = set()
        self._net_rng = random.Random(("net", seed).__repr__())
        self._node_rngs: dict[int, random.Random] = {}
        self._timer_ids = iter(range(1, 1 << 62))
        self._cancelled_timers: set[int] = set()
        self._events_processed = 0
        self._schedule_crash_plan()

    # -- construction --------------------------------------------------------

    def add_node(self, node: Any) -> None:
        """Register a machine (anything with ``node_id`` and ``step``)."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        # The simulation owns its drivers; the way back is weak so that a
        # finished world is freed when dropped, not at the next full
        # garbage collection.
        self._drivers[node.node_id] = MachineDriver(
            node, weakref.proxy(self), node.node_id
        )

    def node_rng(self, node_id: int) -> random.Random:
        """A per-node RNG derived deterministically from the seed."""
        if node_id not in self._node_rngs:
            self._node_rngs[node_id] = random.Random(
                ("node", self.seed, node_id).__repr__()
            )
        return self._node_rngs[node_id]

    # -- Transport protocol surface (repro.net.transport.Transport) ----------

    def current_time(self) -> float:
        """Simulated clock reading (Transport protocol)."""
        return self.queue.now

    def member_ids(self) -> list[int]:
        """Deployment membership (Transport protocol)."""
        return sorted(self.nodes)

    def record_leader_change(self) -> None:
        """Meter one DKG leader change (Transport protocol)."""
        self.metrics.record_leader_change()

    def _schedule_crash_plan(self) -> None:
        for time, node, up_duration in self.adversary.crash_plan:
            self.queue.push(time, CrashNode(node))
            if up_duration is not None:
                self.queue.push(time + up_duration, RecoverNode(node))

    # -- effects interpreted by MachineDriver ----------------------------------

    def enqueue_message(self, sender: int, recipient: int, payload: Any) -> None:
        if recipient not in self.nodes:
            raise KeyError(f"unknown recipient {recipient}")
        # Meter the protocol message, not the envelope wrapper (the
        # session id is transport framing), so per-kind/per-byte
        # accounting is identical with and without multiplexing — and
        # identical to the real transport's accounting (E12).
        metered = (
            payload.payload if isinstance(payload, SessionEnvelope) else payload
        )
        self.metrics.record_send(sender, metered.kind, self.price(metered))
        observe = getattr(self.delay_model, "observe_time", None)
        if observe is not None:
            observe(self.queue.now)
        base = self.delay_model.sample(self._net_rng, sender, recipient)
        delay = self.adversary.delivery_delay(self._net_rng, sender, recipient, base)
        self.queue.push(
            self.queue.now + delay,
            MessageDelivery(sender, recipient, payload),
        )

    def set_timer(self, node: int, delay: float, tag: Any) -> int:
        timer_id = next(self._timer_ids)
        self.metrics.record_timer_set()
        self.queue.push(self.queue.now + delay, TimerFired(node, tag, timer_id))
        return timer_id

    def cancel_timer(self, node: int, timer_id: int) -> None:
        self._cancelled_timers.add(timer_id)

    def record_output(self, node: int, payload: Any) -> None:
        record = OutputRecord(node, self.queue.now, payload)
        self.outputs.append(record)
        self.metrics.record_completion(node, self.queue.now)

    # -- external inputs -------------------------------------------------------

    def inject(self, node: int, payload: Any, at: float | None = None) -> None:
        """Schedule an operator ``in`` message for ``node``."""
        self.queue.push(
            at if at is not None else self.queue.now, OperatorInput(node, payload)
        )

    def crash(self, node: int, at: float) -> None:
        """Manually schedule a crash (bench/test convenience)."""
        self.queue.push(at, CrashNode(node))

    def recover(self, node: int, at: float) -> None:
        self.queue.push(at, RecoverNode(node))

    # -- main loop --------------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        max_events: int | None = 2_000_000,
    ) -> None:
        """Process events until quiescence, ``until``, or ``max_events``."""
        while self.queue:
            if max_events is not None and self._events_processed >= max_events:
                raise RuntimeError(
                    f"event budget {max_events} exhausted at t={self.queue.now:.2f} "
                    "(possible livelock)"
                )
            next_time = self.queue._heap[0][0]
            if until is not None and next_time > until:
                self.queue.now = until
                return
            time, event = self.queue.pop()
            self._events_processed += 1
            for observer in self.observers:
                observer.on_event(time, event)
            self._dispatch(event)

    def _dispatch(self, event: Any) -> None:
        """Translate a queued happening into a machine event, step the
        owning machine through the shared driver, and let the driver
        interpret the returned effects against this simulation."""
        if isinstance(event, MessageDelivery):
            if event.recipient in self.crashed:
                # §2.2: a crashed node's links are down; in-flight
                # messages to it are lost (recovered later via help).
                self.metrics.record_drop()
                return
            self._drivers[event.recipient].handle_message(
                event.sender, event.payload
            )
        elif isinstance(event, TimerFired):
            if event.timer_id in self._cancelled_timers:
                self._cancelled_timers.discard(event.timer_id)
                return
            if event.node in self.crashed:
                return
            self._drivers[event.node].handle_timer(event.timer_id, event.tag)
        elif isinstance(event, OperatorInput):
            if event.node in self.crashed:
                return
            self._drivers[event.node].handle_operator(event.payload)
        elif isinstance(event, CrashNode):
            if event.node not in self.crashed:
                self.crashed.add(event.node)
                self.metrics.record_crash()
                self._drivers[event.node].handle_crash()
        elif isinstance(event, RecoverNode):
            if event.node in self.crashed:
                self.crashed.discard(event.node)
                self.metrics.record_recovery()
                self._drivers[event.node].handle_recover()
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown event {event!r}")

    # -- result helpers -----------------------------------------------------------

    def outputs_for(self, node: int) -> list[OutputRecord]:
        return [o for o in self.outputs if o.node == node]

    def outputs_of_kind(self, kind: str) -> list[OutputRecord]:
        """Outputs whose payload has the given ``kind`` attribute."""
        return [
            o for o in self.outputs if getattr(o.payload, "kind", None) == kind
        ]
