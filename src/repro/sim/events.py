"""Discrete-event core: a deterministic priority queue of timestamped events.

The simulator advances virtual time by popping the earliest event.
Ties are broken by a monotonically increasing sequence number, so runs
are exactly reproducible: the event order is a pure function of the
pushed (time, event) pairs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Event:
    """Base class for all simulator events."""


@dataclass(frozen=True)
class MessageDelivery(Event):
    """A network message arriving at ``recipient``."""

    sender: int
    recipient: int
    payload: Any


@dataclass(frozen=True)
class TimerFired(Event):
    """A timer set by ``node`` with an opaque ``tag`` has expired."""

    node: int
    tag: Any
    timer_id: int


@dataclass(frozen=True)
class OperatorInput(Event):
    """An operator ``in`` message (§7): external input to a node."""

    node: int
    payload: Any


@dataclass(frozen=True)
class CrashNode(Event):
    """Adversary crashes ``node`` (silently; its state freezes)."""

    node: int


@dataclass(frozen=True)
class RecoverNode(Event):
    """``node`` recovers from a crash (well-defined state, §2.2)."""

    node: int


@dataclass
class EventQueue:
    """A deterministic min-heap of (time, seq, event)."""

    _heap: list[tuple[float, int, Event]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)
    now: float = 0.0

    def push(self, time: float, event: Event) -> None:
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, next(self._counter), event))

    def pop(self) -> tuple[float, Event]:
        """Pop the earliest event and advance ``now`` to its timestamp."""
        time, _, event = heapq.heappop(self._heap)
        self.now = time
        return time, event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
