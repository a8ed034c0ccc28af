"""DKG deployment configuration (§4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.backend import AbstractGroup
from repro.crypto.groups import toy_group
from repro.sim.clock import TimeoutPolicy
from repro.vss.config import VssConfig


@dataclass(frozen=True)
class DkgConfig:
    """Parameters for one DKG deployment.

    Extends the VSS parameters with the leader schedule: the initial
    leader and the weak-synchrony timeout policy driving the
    pessimistic phase (Fig. 3).  Leaders rotate cyclically —
    ``leader(view) = ((initial_leader - 1 + view) mod n) + 1`` — which
    is the paper's public permutation ``pi``.
    """

    n: int
    t: int
    f: int = 0
    group: AbstractGroup = field(default_factory=toy_group)
    d_budget: int = 10
    initial_leader: int = 1
    timeout: TimeoutPolicy = field(
        default_factory=lambda: TimeoutPolicy(initial=30.0, multiplier=2.0)
    )
    enforce_resilience: bool = True
    members: tuple[int, ...] | None = None
    # Number of completed sharings the leader must collect into Q.
    # Defaults to t + 1; reconfiguration protocols (§6) override it to
    # the *previous* threshold + 1, because interpolating the old
    # sharing needs old_t + 1 dealer subsharings.
    q_size: int | None = None

    def __post_init__(self) -> None:
        # Delegate the resilience/membership arithmetic to the validator.
        vss = self.vss()
        if self.initial_leader not in vss.indices:
            raise ValueError("initial leader is not a member")
        if self.q_size is not None and not 1 <= self.q_size <= self.n:
            raise ValueError("q_size out of range")

    def vss(self) -> VssConfig:
        """The VSS-layer view of these parameters."""
        return VssConfig(
            n=self.n,
            t=self.t,
            f=self.f,
            group=self.group,
            d_budget=self.d_budget,
            enforce_resilience=self.enforce_resilience,
            members=self.members,
        )

    @property
    def proposal_size(self) -> int:
        """|Q|: how many completed sharings a proposal must certify."""
        return self.q_size if self.q_size is not None else self.t + 1

    def leader_of_view(self, view: int) -> int:
        """pi^view applied to the initial leader (cyclic rotation over
        the member list)."""
        members = self.vss().indices
        start = members.index(self.initial_leader)
        return members[(start + view) % len(members)]
