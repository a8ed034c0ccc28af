"""Group modification messages and proposals (§6)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.feldman import FeldmanVector


@dataclass(frozen=True)
class ModProposal:
    """A commutative group-modification proposal (§6.1).

    ``action`` is ``"add"`` or ``"remove"``; ``node`` the affected
    index.  ``t_delta``/``f_delta`` carry the attached threshold /
    crash-limit modification request — deltas rather than absolute
    values, so any set of agreed proposals composes commutatively
    (the paper's reason for avoiding atomic broadcast).
    """

    action: str
    node: int
    t_delta: int = 0
    f_delta: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("add", "remove"):
            raise ValueError("action must be 'add' or 'remove'")
        if self.node < 1:
            raise ValueError("node index must be positive")

    def as_bytes(self) -> bytes:
        return (
            f"{self.action}|{self.node}|{self.t_delta}|{self.f_delta}".encode()
        )


@dataclass(frozen=True)
class ProposeInput:
    """Operator: put this proposal to the group."""

    proposal: ModProposal

    kind = "groupmod.in.propose"


@dataclass(frozen=True)
class ProposalMsg:
    """Proposer -> all: the initial broadcast of a proposal."""

    proposal: ModProposal

    kind = "groupmod.propose"


@dataclass(frozen=True)
class ProposalEchoMsg:
    """Reliable-broadcast echo: the sender agrees with the proposal."""

    proposal: ModProposal

    kind = "groupmod.echo"


@dataclass(frozen=True)
class ProposalReadyMsg:
    """Reliable-broadcast ready for the proposal."""

    proposal: ModProposal

    kind = "groupmod.ready"


@dataclass(frozen=True)
class ProposalDeliveredOutput:
    """A proposal entered this node's modification queue (§6.1)."""

    proposal: ModProposal

    kind = "groupmod.out.delivered"


# -- node addition (§6.2) -------------------------------------------------------


@dataclass(frozen=True)
class NodeAddRequestMsg:
    """Broadcast of a Node-Add request; nodes wait for t+1 identical
    requests before resharing (mirrors the renewal tick gate)."""

    new_node: int
    tau: int

    kind = "groupmod.add-request"


@dataclass(frozen=True)
class NodeAddInput:
    """Operator: start the node-addition protocol for ``new_node``."""

    new_node: int
    tau: int

    kind = "groupmod.in.add"


@dataclass(frozen=True)
class SubshareMsg:
    """P_i -> P_new: the subshare s_{i,new} with its commitment vector V."""

    tau: int
    vector: FeldmanVector
    subshare: int

    kind = "groupmod.subshare"


@dataclass(frozen=True)
class JoinedOutput:
    """The new node's result: its share of the existing secret."""

    tau: int
    share: int
    vector: FeldmanVector

    kind = "groupmod.out.joined"
