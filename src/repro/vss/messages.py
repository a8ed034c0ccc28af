"""HybridVSS message types (Fig. 1) and session identifiers.

A session is identified by ``(P_d, tau)`` — dealer index plus a counter
(§3).  Messages carry values only.  What one costs on the wire — the
paper's accounting, dominated by the commitment matrix ``C`` with
O(n^2) entries — is the length of its frame in :mod:`repro.net.wire`,
metered by the transport that sends it.  How the matrix travels — inline
in ``send``, as its digest in ``echo``/``ready`` (Cachin-style hash
compression) — is the wire's business, not these types'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.polynomials import Polynomial
from repro.crypto.schnorr import Signature


@dataclass(frozen=True)
class SessionId:
    """Unique VSS session identifier (P_d, tau)."""

    dealer: int
    tau: int

    def as_bytes(self) -> bytes:
        return self.dealer.to_bytes(4, "big") + self.tau.to_bytes(4, "big")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(P{self.dealer},{self.tau})"


@dataclass(frozen=True)
class SendMsg:
    """Dealer -> P_j: the commitment C and row polynomial a_j = f(j, .).

    ``poly`` is None when a recovering node retransmits from its B set
    during share renewal, where §5.2 mandates that only commitments be
    resent (the univariate polynomials were erased)."""

    session: SessionId
    commitment: FeldmanCommitment
    poly: Polynomial | None

    kind = "vss.send"


@dataclass(frozen=True)
class EchoMsg:
    """P_i -> P_j: the point alpha = f(i, j) under commitment C."""

    session: SessionId
    commitment: FeldmanCommitment
    point: int

    kind = "vss.echo"


@dataclass(frozen=True)
class ReadyMsg:
    """P_i -> P_j: a ready point, optionally signed (extended-HybridVSS).

    The signature covers (session, digest(C)) so a third party — the
    DKG leader's audience — can verify that the signer voted ready for
    exactly this commitment (§4, sets R_d)."""

    session: SessionId
    commitment: FeldmanCommitment
    point: int
    signature: Signature | None = None

    kind = "vss.ready"


@dataclass(frozen=True)
class HelpMsg:
    """Recovering node -> all: please retransmit your B_l for me."""

    session: SessionId

    kind = "vss.help"


@dataclass(frozen=True)
class SharePointMsg:
    """Rec protocol: P_m -> all: my share s_m = f(m, 0)."""

    session: SessionId
    point: int

    kind = "vss.rec-share"


VssMessage = Union[SendMsg, EchoMsg, ReadyMsg, HelpMsg, SharePointMsg]


# -- operator messages (in/out, §7) -------------------------------------------


@dataclass(frozen=True)
class ShareInput:
    """(P_d, tau, in, share, s): operator tells the dealer to share s."""

    session: SessionId
    secret: int

    kind = "vss.in.share"


@dataclass(frozen=True)
class ReconstructInput:
    """(P_d, tau, in, reconstruct): operator starts Rec at this node."""

    session: SessionId

    kind = "vss.in.reconstruct"


@dataclass(frozen=True)
class RecoverInput:
    """(P_d, tau, in, recover): operator-triggered recovery."""

    session: SessionId

    kind = "vss.in.recover"


@dataclass(frozen=True)
class ReadyWitness:
    """One signed ready vote: (signer index, signature over session+digest)."""

    signer: int
    signature: Signature


@dataclass(frozen=True)
class SharedOutput:
    """(P_d, tau, out, shared, C, s_i) — plus the signed ready set R_d
    when running as extended-HybridVSS inside the DKG."""

    session: SessionId
    commitment: FeldmanCommitment
    share: int
    ready_proof: tuple[ReadyWitness, ...] = ()

    kind = "vss.out.shared"


@dataclass(frozen=True)
class ReconstructedOutput:
    """(P_d, tau, out, reconstructed, z_i)."""

    session: SessionId
    value: int

    kind = "vss.out.reconstructed"


def ready_signing_bytes(session: SessionId, commitment_digest: bytes) -> bytes:
    """Canonical byte string signed in extended-HybridVSS ready messages."""
    return b"vss-ready|" + session.as_bytes() + b"|" + commitment_digest
