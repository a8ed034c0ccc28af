"""DKG message types and validity proofs (§4, Figs. 2–3).

The DKG's agreement layer reliably broadcasts a *set* ``Q`` of t+1
dealer indices whose HybridVSS sharings completed.  Three kinds of
self-certifying evidence travel with proposals:

* :class:`ReadyCert` (the paper's ``R_d``) — ``n - t - f`` signed VSS
  ready messages proving dealer ``d``'s sharing completed for the
  commitment with the given digest;
* :class:`MTypeProof` (the paper's ``M``) — ``ceil((n+t+1)/2)`` signed
  DKG echo votes or ``t + 1`` signed DKG ready votes for a set ``Q``,
  proving ``Q`` was locked by the Bracha-style broadcast;
* :class:`LeadChWitness` sets — ``n - t - f`` signed lead-ch votes
  proving a new leader's election for a view.

Views: the paper cycles leaders through a public permutation ``pi``.
We use *view numbers* ``v = 0, 1, 2, ...`` with leader
``((L0 - 1 + v) mod n) + 1``; a lead-ch message for view ``v`` is the
paper's lead-ch for leader ``pi^v(L0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.crypto.schnorr import Signature
from repro.vss.messages import ReadyWitness

VIEW_BYTES = 2
TAU_BYTES = 4


def q_encoding(q_set: tuple[int, ...]) -> bytes:
    """Canonical byte encoding of a dealer set (sorted, comma-joined)."""
    return ",".join(str(i) for i in sorted(q_set)).encode()


def dkg_echo_bytes(tau: int, q_set: tuple[int, ...]) -> bytes:
    """Signed content of a DKG echo vote.

    Deliberately excludes the view/leader so that a proof set ``M``
    collected under one leader remains valid under the next (Fig. 3
    hands Q and M to the new leader)."""
    return b"dkg-echo|" + tau.to_bytes(TAU_BYTES, "big") + q_encoding(q_set)


def dkg_ready_bytes(tau: int, q_set: tuple[int, ...]) -> bytes:
    """Signed content of a DKG ready vote (view-independent, as above)."""
    return b"dkg-ready|" + tau.to_bytes(TAU_BYTES, "big") + q_encoding(q_set)


def lead_ch_bytes(tau: int, view: int) -> bytes:
    """Signed content of a lead-ch vote for ``view``."""
    return (
        b"dkg-leadch|"
        + tau.to_bytes(TAU_BYTES, "big")
        + view.to_bytes(VIEW_BYTES, "big")
    )


@dataclass(frozen=True)
class ReadyCert:
    """R_d: evidence that dealer d's VSS completed for digest(C_d)."""

    dealer: int
    digest: bytes
    witnesses: tuple[ReadyWitness, ...]


@dataclass(frozen=True)
class RTypeProof:
    """The leader's evidence when proposing its own finished set Q-hat."""

    certs: tuple[ReadyCert, ...]

    proof_type = "R"

    @property
    def q_set(self) -> tuple[int, ...]:
        return tuple(sorted(cert.dealer for cert in self.certs))


@dataclass(frozen=True)
class SetVote:
    """One signed DKG echo/ready vote for a set Q."""

    voter: int
    vote_kind: str  # "echo" | "ready"
    signature: Signature


@dataclass(frozen=True)
class MTypeProof:
    """Evidence that Q was locked: a quorum of signed echo or ready votes."""

    q: tuple[int, ...]
    votes: tuple[SetVote, ...]

    proof_type = "M"

    @property
    def q_set(self) -> tuple[int, ...]:
        return tuple(sorted(self.q))


Proof = Union[RTypeProof, MTypeProof]


@dataclass(frozen=True)
class LeadChWitness:
    """One signed lead-ch vote: (voter, view, signature)."""

    voter: int
    view: int
    signature: Signature


@dataclass(frozen=True)
class DkgSendMsg:
    """Leader -> all: (L, tau, send, Q, R/M) [+ election proof if view > 0]."""

    tau: int
    view: int
    proof: Proof
    election: tuple[LeadChWitness, ...] = ()

    kind = "dkg.send"

    @property
    def q_set(self) -> tuple[int, ...]:
        return self.proof.q_set


@dataclass(frozen=True)
class DkgEchoMsg:
    """(L, tau, echo, Q)_sign."""

    tau: int
    view: int
    q: tuple[int, ...]
    signature: Signature

    kind = "dkg.echo"


@dataclass(frozen=True)
class DkgReadyMsg:
    """(L, tau, ready, Q)_sign."""

    tau: int
    view: int
    q: tuple[int, ...]
    signature: Signature

    kind = "dkg.ready"


@dataclass(frozen=True)
class LeadChMsg:
    """(tau, lead-ch, view, Q-or-Qhat, R/M)_sign."""

    tau: int
    view: int
    proof: Proof | None
    signature: Signature

    kind = "dkg.lead-ch"


@dataclass(frozen=True)
class DkgSharePointMsg:
    """Rec protocol at the DKG layer: P_m -> all: my share s_m of the
    jointly generated secret (paper: "Protocol Rec remains exactly the
    same")."""

    tau: int
    point: int

    kind = "dkg.rec-share"


@dataclass(frozen=True)
class DkgReconstructInput:
    """Operator: start reconstructing the group secret at this node."""

    tau: int

    kind = "dkg.in.reconstruct"


@dataclass(frozen=True)
class DkgReconstructedOutput:
    """(tau, out, reconstructed, z_i)."""

    tau: int
    value: int

    kind = "dkg.out.reconstructed"


@dataclass(frozen=True)
class DkgHelpMsg:
    """Recovering node -> all: retransmit DKG-level B_l."""

    tau: int

    kind = "dkg.help"


DkgMessage = Union[DkgSendMsg, DkgEchoMsg, DkgReadyMsg, LeadChMsg, DkgHelpMsg]


# -- operator messages ---------------------------------------------------------


@dataclass(frozen=True)
class DkgStartInput:
    """Operator: begin DKG session tau (every node picks and shares s_d)."""

    tau: int

    kind = "dkg.in.start"


@dataclass(frozen=True)
class DkgRecoverInput:
    """Operator: run the recovery procedure for session tau."""

    tau: int

    kind = "dkg.in.recover"


@dataclass(frozen=True)
class DkgCompletedOutput:
    """(L-bar, tau, DKG-completed, C, s_i).

    ``commitment`` is the combined matrix  C = prod_{d in Q} C_d and
    ``share`` the summed share s_i = sum_{d in Q} s_{i,d}; ``public_key``
    is g^s for the jointly generated secret s = sum_{d in Q} s_d.
    """

    tau: int
    view: int
    q_set: tuple[int, ...]
    commitment: object
    share: int
    public_key: int

    kind = "dkg.out.completed"
