"""HybridVSS (§3): asynchronous verifiable secret sharing for the
hybrid Byzantine + crash-recovery model.

Public API:

* :class:`VssConfig` — deployment parameters (n, t, f, group);
* :func:`run_vss` — one-call simulated sharing (plus optional Rec);
* :class:`VssSession` — the per-session state machine (Fig. 1), for
  embedding (the DKG runs n of these);
* message and output dataclasses in :mod:`repro.vss.messages`.
"""

from repro.vss.config import ResilienceError, VssConfig
from repro.vss.messages import (
    EchoMsg,
    HelpMsg,
    ReadyMsg,
    ReadyWitness,
    ReconstructInput,
    ReconstructedOutput,
    RecoverInput,
    SendMsg,
    SessionId,
    ShareInput,
    SharedOutput,
    SharePointMsg,
)
from repro.vss.node import VssNode, VssRunResult, run_vss
from repro.vss.session import VssSession

__all__ = [
    "EchoMsg",
    "HelpMsg",
    "ReadyMsg",
    "ReadyWitness",
    "ReconstructInput",
    "ReconstructedOutput",
    "RecoverInput",
    "ResilienceError",
    "SendMsg",
    "SessionId",
    "ShareInput",
    "SharedOutput",
    "SharePointMsg",
    "VssConfig",
    "VssNode",
    "VssRunResult",
    "VssSession",
    "run_vss",
]
