"""Deterministic discrete-event simulator implementing the paper's
hybrid system model (§2): asynchronous message delivery with adversarial
scheduling, t-limited Byzantine corruption, f-limited crash/link
failures with a d(kappa) lifetime budget, weak-synchrony timers, and a
simulated PKI."""

from repro.sim.adversary import Adversary, CrashBudgetExceeded
from repro.sim.clock import PhaseClock, TimeoutPolicy
from repro.sim.events import (
    CrashNode,
    Event,
    EventQueue,
    MessageDelivery,
    OperatorInput,
    RecoverNode,
    TimerFired,
)
from repro.sim.metrics import Metrics
from repro.sim.network import (
    AsymmetricDelay,
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    PartitionDelay,
    Payload,
    RawPayload,
    UniformDelay,
)
from repro.sim.scenarios import (
    ScenarioSpec,
    crash_storm,
    fault_free,
    flaky_node,
    leader_assassination,
    rolling_restart,
)
from repro.sim.node import Context, OutputRecord, ProtocolNode, RecordingNode
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.runner import Simulation

__all__ = [
    "Adversary",
    "AsymmetricDelay",
    "CertificateAuthority",
    "ConstantDelay",
    "Context",
    "CrashBudgetExceeded",
    "CrashNode",
    "DelayModel",
    "Event",
    "EventQueue",
    "ExponentialDelay",
    "KeyStore",
    "MessageDelivery",
    "Metrics",
    "OperatorInput",
    "OutputRecord",
    "PartitionDelay",
    "Payload",
    "PhaseClock",
    "ProtocolNode",
    "RawPayload",
    "RecordingNode",
    "RecoverNode",
    "ScenarioSpec",
    "Simulation",
    "TimeoutPolicy",
    "UniformDelay",
    "crash_storm",
    "fault_free",
    "flaky_node",
    "leader_assassination",
    "rolling_restart",
]
