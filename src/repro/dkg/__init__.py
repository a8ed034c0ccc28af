"""Asynchronous distributed key generation (§4).

The DKG runs ``n`` extended-HybridVSS sharings plus a leader-based
agreement (optimistic reliable broadcast + pessimistic leader change)
on the set ``Q`` of sharings to combine.

Public API::

    from repro.dkg import DkgConfig, run_dkg
    result = run_dkg(DkgConfig(n=7, t=2, f=0), seed=1)
    result.public_key     # the group public key g^s
    result.shares         # verifiable per-node shares of s
"""

from repro.dkg.config import DkgConfig
from repro.dkg.messages import (
    DkgCompletedOutput,
    DkgEchoMsg,
    DkgHelpMsg,
    DkgReadyMsg,
    DkgReconstructInput,
    DkgReconstructedOutput,
    DkgRecoverInput,
    DkgSendMsg,
    DkgSharePointMsg,
    DkgStartInput,
    LeadChMsg,
    LeadChWitness,
    MTypeProof,
    ReadyCert,
    RTypeProof,
    SetVote,
)
from repro.dkg.node import DkgNode
from repro.dkg.proofs import (
    verify_election,
    verify_m_proof,
    verify_proof,
    verify_r_proof,
    verify_ready_cert,
)
from repro.dkg.runner import DkgResult, run_dkg

__all__ = [
    "DkgCompletedOutput",
    "DkgConfig",
    "DkgEchoMsg",
    "DkgHelpMsg",
    "DkgNode",
    "DkgReadyMsg",
    "DkgReconstructInput",
    "DkgReconstructedOutput",
    "DkgRecoverInput",
    "DkgResult",
    "DkgSendMsg",
    "DkgSharePointMsg",
    "DkgStartInput",
    "LeadChMsg",
    "LeadChWitness",
    "MTypeProof",
    "ReadyCert",
    "RTypeProof",
    "SetVote",
    "run_dkg",
    "verify_election",
    "verify_m_proof",
    "verify_proof",
    "verify_r_proof",
    "verify_ready_cert",
]
