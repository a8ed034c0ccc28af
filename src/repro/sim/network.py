"""Message payload protocol and delay models for the simulated network.

The paper's communication model (§2.1) is an asynchronous network: the
adversary schedules message delivery, but every message between honest,
uncrashed nodes is eventually delivered.  Delay models capture the
"perfect links between honest nodes" observation — honest traffic gets
small random delays, while an adversary hook may stretch the delays of
traffic it controls (its own nodes' messages) to the verge of timeouts,
which is exactly the E6 experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Payload(Protocol):
    """What the network requires of a message body.

    Its size is the transport's business: the length of the frame
    :mod:`repro.net.wire` encodes for it.  A payload type with no wire
    schema declares ``byte_size()`` instead.
    """

    @property
    def kind(self) -> str:
        """Short message-type tag used for metrics bucketing."""
        ...


@dataclass(frozen=True)
class RawPayload:
    """A minimal payload for tests and padding traffic (no wire schema,
    so it declares its own size)."""

    kind: str
    size: int
    body: Any = None

    def byte_size(self) -> int:
        return self.size


class DelayModel:
    """Base: draws the network delay for one message."""

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        raise NotImplementedError


@dataclass
class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    delay: float = 1.0

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        return self.delay


@dataclass
class UniformDelay(DelayModel):
    """Delay drawn uniformly from [low, high] — the default 'Internet'."""

    low: float = 0.5
    high: float = 1.5

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        return rng.uniform(self.low, self.high)


@dataclass
class ExponentialDelay(DelayModel):
    """Heavy-ish tail: min_delay + Exp(mean).  Models congestion spikes."""

    mean: float = 1.0
    min_delay: float = 0.1

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        return self.min_delay + rng.expovariate(1.0 / self.mean)


@dataclass
class PartitionDelay(DelayModel):
    """A temporary network partition that eventually heals (§2.2 models
    partitions via the crash abstraction; this model instead keeps both
    sides alive but stalls cross-partition traffic until ``heal_time`` —
    deliveries are delayed, never lost, preserving the asynchronous
    model's eventual-delivery guarantee).

    Messages within a side use ``base``; messages crossing between
    ``group_a`` and its complement before ``heal_time`` are held until
    shortly after the partition heals.
    """

    group_a: frozenset[int]
    heal_time: float
    base: DelayModel = None  # type: ignore[assignment]
    post_heal_jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.base is None:
            self.base = UniformDelay()
        self._clock = 0.0

    def observe_time(self, now: float) -> None:
        """Clock injection — the *only* way time reaches a delay model.

        Every runtime that samples delays (the discrete-event
        ``Simulation`` and the real-socket ``AsyncioTransport``) calls
        this with its current time immediately before each
        :meth:`sample`, so time-dependent models never hold their own
        clock source."""
        self._clock = now

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        normal = self.base.sample(rng, sender, recipient)
        crosses = (sender in self.group_a) != (recipient in self.group_a)
        if not crosses or self._clock >= self.heal_time:
            return normal
        # Held until the partition heals, then delivered with jitter.
        wait = self.heal_time - self._clock
        return wait + rng.uniform(0, self.post_heal_jitter)


@dataclass
class AsymmetricDelay(DelayModel):
    """Per-link base latency matrix entry + jitter; models a WAN where
    node pairs sit at different RTTs (e.g. geo-distributed deployments)."""

    base: dict[tuple[int, int], float]
    jitter: float = 0.2
    default: float = 1.0

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        b = self.base.get((sender, recipient), self.default)
        return b + rng.uniform(0, self.jitter)
