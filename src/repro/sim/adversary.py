"""The hybrid-model adversary (§2.2): t-limited Byzantine + f-limited
crash/link failures, static, rushing, with a d(kappa) crash budget.

Responsibilities, matching the paper's assumptions:

* **Corruption** — before the run, the adversary picks up to ``t``
  nodes to corrupt (static adversary).  Protocol layers substitute a
  Byzantine strategy node for each corrupted index.
* **Crash scheduling** — at most ``f`` non-Byzantine nodes are crashed
  at any instant, and at most ``d_budget`` crash events occur over the
  adversary's lifetime (the ``d(kappa)`` bound that makes complexity
  d-uniformly bounded).  Link failures are modelled as crashes of one
  endpoint, per the paper's convention.
* **Scheduling** — the adversary may delay messages, subject to the
  rule that messages between honest uncrashed nodes are delivered; a
  *rushing* adversary sees honest messages before choosing its own,
  modelled by delivering messages to Byzantine recipients with
  near-zero delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Collection, Iterable


CrashPlan = list[tuple[float, int, float | None]]


class CrashBudgetExceeded(ValueError):
    """The adversary attempted more crashes than d(kappa) allows."""


def check_crash_plan(
    plan: Iterable[tuple[float, int, float | None]],
    f: int,
    d_budget: int,
    *,
    members: Collection[int] | None = None,
    byzantine: Collection[int] = (),
    down: Collection[int] = (),
) -> CrashPlan:
    """§2.2's bound on a crash plan: ``(at, node, up_after)`` entries,
    ``at`` in protocol units from the start of the run or stage, the
    node recovering ``up_after`` units later (None: never).

    Raises ValueError, before anything runs, when an entry's node is
    not an ``int`` index of ``members`` (when given) or is Byzantine,
    when more than ``d_budget`` crashes are planned, or when more than
    ``f`` nodes — counting the ``down`` ones — are down at any instant.
    """
    plan = list(plan)
    for _, node, _ in plan:
        # ``2.0 in members`` holds, so the type is checked first: an
        # entry written (node, at, up_after) must not crash node ``at``.
        if type(node) is not int or (members is not None and node not in members):
            raise ValueError(f"crash plan names {node!r}, not a member index")
        if node in byzantine:
            raise ValueError(
                "crash plan may only target non-Byzantine nodes; "
                f"node {node} is corrupted"
            )
    if len(plan) > d_budget:
        raise CrashBudgetExceeded(
            f"{len(plan)} crashes exceed d(kappa)={d_budget}"
        )
    # Sweep the crash intervals; at no instant may more than f overlap.
    boundaries: list[tuple[float, int]] = []
    for start, _, duration in plan:
        boundaries.append((start, +1))
        if duration is not None:
            boundaries.append((start + duration, -1))
    boundaries.sort()
    depth = len(down)
    for _, delta in boundaries:
        depth += delta
        if depth > f:
            raise ValueError(f"crash plan exceeds f={f} simultaneous crashes")
    return plan


@dataclass
class Adversary:
    """Fault configuration and scheduling policy for one run.

    ``byzantine`` is the static corruption set (|byzantine| <= t);
    ``crash_plan`` is a :func:`check_crash_plan` plan, times from the
    run's start.
    """

    t: int
    f: int
    byzantine: frozenset[int] = frozenset()
    crash_plan: CrashPlan = field(default_factory=list)
    d_budget: int = 10
    rushing: bool = True
    rush_delay: float = 1e-6

    def __post_init__(self) -> None:
        if len(self.byzantine) > self.t:
            raise ValueError(
                f"{len(self.byzantine)} corrupt nodes exceeds t={self.t}"
            )
        check_crash_plan(
            self.crash_plan, self.f, self.d_budget, byzantine=self.byzantine
        )

    def is_byzantine(self, node: int) -> bool:
        return node in self.byzantine

    def delivery_delay(
        self,
        rng: random.Random,
        sender: int,
        recipient: int,
        base_delay: float,
    ) -> float:
        """Final delay for one message, after adversarial scheduling."""
        if self.rushing and recipient in self.byzantine:
            # Rushing adversary: its nodes see honest traffic "first".
            return self.rush_delay
        return base_delay

    @classmethod
    def passive(cls, t: int = 0, f: int = 0) -> "Adversary":
        """No corruptions, no crashes: the fault-free baseline."""
        return cls(t=t, f=f)

    @classmethod
    def crash_only(
        cls,
        t: int,
        f: int,
        crash_plan: CrashPlan,
        d_budget: int | None = None,
    ) -> "Adversary":
        """Crash/recovery faults without Byzantine corruption."""
        return cls(
            t=t,
            f=f,
            crash_plan=crash_plan,
            d_budget=d_budget if d_budget is not None else max(10, len(crash_plan)),
        )

    @classmethod
    def corrupting(
        cls,
        t: int,
        f: int,
        byzantine: set[int],
        **kwargs: object,
    ) -> "Adversary":
        """Static Byzantine corruption of the given node set."""
        return cls(t=t, f=f, byzantine=frozenset(byzantine), **kwargs)  # type: ignore[arg-type]
