"""Validity checking for DKG proposal and election proofs.

Implements the paper's ``verify-signature(Q, R/M)`` predicate (Fig. 2)
and lead-ch election verification (Fig. 3).  All checks are against the
CA's certificate registry, so a Byzantine node cannot fabricate quorum
evidence without controlling more than t signing keys.

An R_d certificate proves that sharing Sh_d completes with the
commitment it names.  A node that has itself completed Sh_d with that
commitment already holds the fact, so ``verify_r_proof`` accepts such a
certificate without checking its signatures; by HybridVSS agreement
(§3) every honest node completes Sh_d with the same commitment.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.sim.pki import AcceptedSignatures, CertificateAuthority
from repro.vss.config import VssConfig
from repro.vss.messages import SessionId, ready_signing_bytes
from repro.dkg.messages import (
    LeadChWitness,
    MTypeProof,
    Proof,
    ReadyCert,
    RTypeProof,
    dkg_echo_bytes,
    dkg_ready_bytes,
    lead_ch_bytes,
)


def verify_ready_cert(
    config: VssConfig,
    ca: CertificateAuthority | AcceptedSignatures,
    tau: int,
    cert: ReadyCert,
) -> bool:
    """Check one R_d: n-t-f distinct, valid ready signatures."""
    signers = {w.signer for w in cert.witnesses}
    if len(signers) < config.output_threshold:
        return False
    members = set(config.indices)
    payload = ready_signing_bytes(SessionId(cert.dealer, tau), cert.digest)
    seen: set[int] = set()
    valid = 0
    for witness in cert.witnesses:
        if witness.signer in seen:
            continue
        if witness.signer not in members:
            return False
        if ca.verify(witness.signer, payload, witness.signature):
            seen.add(witness.signer)
            valid += 1
    return valid >= config.output_threshold


def verify_r_proof(
    config: VssConfig,
    ca: CertificateAuthority | AcceptedSignatures,
    tau: int,
    proof: RTypeProof,
    q_size: int | None = None,
    completed: Mapping[int, bytes] | None = None,
) -> bool:
    """An R-type proposal is valid iff it certifies >= |Q| distinct
    dealers (|Q| defaults to t + 1; reconfiguration may require more).
    ``completed`` maps a dealer to the commitment digest of the checking
    node's own completed sharing; a certificate naming that digest is
    taken as valid without checking its signatures."""
    required = q_size if q_size is not None else config.t + 1
    dealers = {c.dealer for c in proof.certs}
    if len(dealers) < required or len(dealers) != len(proof.certs):
        return False
    members = set(config.indices)
    if not dealers <= members:
        return False
    completed = completed or {}
    return all(
        completed.get(c.dealer) == c.digest or verify_ready_cert(config, ca, tau, c)
        for c in proof.certs
    )


def verify_m_proof(
    config: VssConfig,
    ca: CertificateAuthority | AcceptedSignatures,
    tau: int,
    proof: MTypeProof,
    q_size: int | None = None,
) -> bool:
    """An M-type proof is valid iff it holds an echo quorum
    (ceil((n+t+1)/2)) or a ready quorum (t+1) of valid votes for Q."""
    required = q_size if q_size is not None else config.t + 1
    if len(proof.q) < required:
        return False
    echo_payload = dkg_echo_bytes(tau, proof.q_set)
    ready_payload = dkg_ready_bytes(tau, proof.q_set)
    members = set(config.indices)
    echo_voters: set[int] = set()
    ready_voters: set[int] = set()
    for vote in proof.votes:
        if vote.voter not in members:
            continue
        if vote.vote_kind == "echo" and vote.voter not in echo_voters:
            if ca.verify(vote.voter, echo_payload, vote.signature):
                echo_voters.add(vote.voter)
        elif vote.vote_kind == "ready" and vote.voter not in ready_voters:
            if ca.verify(vote.voter, ready_payload, vote.signature):
                ready_voters.add(vote.voter)
    return (
        len(echo_voters) >= config.echo_threshold
        or len(ready_voters) >= config.ready_threshold
    )


def verify_proof(
    config: VssConfig,
    ca: CertificateAuthority | AcceptedSignatures,
    tau: int,
    proof: Proof,
    q_size: int | None = None,
    completed: Mapping[int, bytes] | None = None,
) -> bool:
    """The paper's verify-signature(Q, R/M); ``completed`` as for
    :func:`verify_r_proof` (an M-type proof has no local counterpart)."""
    if isinstance(proof, RTypeProof):
        return verify_r_proof(config, ca, tau, proof, q_size, completed)
    if isinstance(proof, MTypeProof):
        return verify_m_proof(config, ca, tau, proof, q_size)
    return False


def verify_election(
    config: VssConfig,
    ca: CertificateAuthority | AcceptedSignatures,
    tau: int,
    view: int,
    witnesses: tuple[LeadChWitness, ...],
) -> bool:
    """A view-v leader's election proof: n-t-f distinct signed lead-ch
    votes for view v.  View 0 (the initial leader) needs no proof."""
    if view == 0:
        return True
    payload = lead_ch_bytes(tau, view)
    members = set(config.indices)
    voters: set[int] = set()
    for witness in witnesses:
        if witness.view != view or witness.voter not in members:
            continue
        if witness.voter in voters:
            continue
        if ca.verify(witness.voter, payload, witness.signature):
            voters.add(witness.voter)
    return len(voters) >= config.output_threshold
