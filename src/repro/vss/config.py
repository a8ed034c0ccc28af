"""Shared protocol configuration for HybridVSS and the DKG built on it.

Encodes the hybrid-model resilience arithmetic of §2.2:

* ``n >= 3t + 2f + 1`` nodes overall;
* echo threshold ``ceil((n + t + 1) / 2)`` (Fig. 1);
* ready-amplification threshold ``t + 1``;
* output threshold ``n - t - f`` (the count of *finally up* honest
  nodes that must be represented before a node completes);
* help-request budgets ``c_l <= d(kappa)`` and ``c <= (t+1) d(kappa)``.

Node indices run 1..n — index 0 is reserved for the secret itself
(shares are evaluations at the node index, the secret at 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import quorum
from repro.crypto.backend import AbstractGroup
from repro.crypto.groups import toy_group


class ResilienceError(ValueError):
    """Raised when (n, t, f) violates n >= 3t + 2f + 1."""


@dataclass(frozen=True)
class VssConfig:
    """Static parameters shared by every node of one deployment.

    ``members`` defaults to indices 1..n; group modification (§6) may
    leave gaps (e.g. after removing node 3 the members are (1, 2, 4,
    5, ...)).  Indices double as polynomial evaluation points, so they
    must be positive and never re-used for different identities.
    """

    n: int
    t: int
    f: int = 0
    group: AbstractGroup = field(default_factory=toy_group)
    d_budget: int = 10
    enforce_resilience: bool = True
    members: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.t < 0 or self.f < 0:
            raise ValueError("need n >= 1, t >= 0, f >= 0")
        if self.members is not None:
            members = tuple(sorted(self.members))
            if len(members) != self.n:
                raise ValueError(
                    f"{len(members)} members inconsistent with n={self.n}"
                )
            if len(set(members)) != len(members) or members[0] < 1:
                raise ValueError("members must be distinct positive indices")
            object.__setattr__(self, "members", members)
        if self.enforce_resilience and not self.satisfies_resilience():
            raise ResilienceError(
                f"n={self.n} < 3t+2f+1 = "
                f"{quorum.resilience_bound(self.t, self.f)}"
            )

    def satisfies_resilience(self) -> bool:
        return quorum.satisfies_resilience(self.n, self.t, self.f)

    @property
    def echo_threshold(self) -> int:
        """ceil((n + t + 1) / 2) — enough echoes to pin down one C."""
        return quorum.echo_threshold(self.n, self.t)

    @property
    def ready_threshold(self) -> int:
        """t + 1 — at least one honest ready, triggers amplification."""
        return quorum.ready_threshold(self.t)

    @property
    def output_threshold(self) -> int:
        """n - t - f — ready count at which Sh completes."""
        return quorum.output_threshold(self.n, self.t, self.f)

    @property
    def help_per_node_budget(self) -> int:
        """c_l <= d(kappa)."""
        return self.d_budget

    @property
    def help_total_budget(self) -> int:
        """c <= (t + 1) d(kappa)."""
        return (self.t + 1) * self.d_budget

    @property
    def indices(self) -> list[int]:
        """Member indices (0 is reserved for the secret's evaluation point)."""
        if self.members is not None:
            return list(self.members)
        return list(range(1, self.n + 1))
