"""Baselines and classic comparators: Bracha reliable broadcast,
synchronous Joint-Feldman (Pedersen) DKG, and the general-bivariate
AVSS cost model for the symmetric-polynomial ablation."""

from repro.baselines.avss_general import run_general_avss
from repro.baselines.bracha import (
    BrachaNode,
    BroadcastInput,
    DeliveredOutput,
)
from repro.baselines.joint_feldman import (
    JfResult,
    JointFeldmanNode,
    run_joint_feldman,
)
from repro.baselines.syncnet import SyncMessage, SyncResult, run_synchronous

__all__ = [
    "BrachaNode",
    "BroadcastInput",
    "DeliveredOutput",
    "JfResult",
    "JointFeldmanNode",
    "SyncMessage",
    "SyncResult",
    "run_general_avss",
    "run_joint_feldman",
    "run_synchronous",
]
