"""Lifecycle orchestration: agreement, phase-change reconfiguration
(node removal, threshold/crash-limit modification), and mid-phase node
addition (§6).

:class:`GroupManager` is the long-lived controller a deployment
operator would run: it bootstraps the initial DKG, collects agreed
modification proposals during a phase (§6.1), applies them at the next
phase change by running a *reconfiguring* share renewal (§6.3/§6.4 —
the resharing polynomials get the new degree ``t'`` and the member set
changes), and supports §6.2 node addition inside a phase.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.sim.adversary import Adversary
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.deployment import (
    addition_seed,
    adopt,
    agreement_machines,
    agreement_seed,
    groupmod_phase,
    simulate,
)
from repro.dkg.config import DkgConfig
from repro.proactive.system import ShareLifecycle
from repro.groupmod.addition import AdditionResult, run_node_addition
from repro.groupmod.agreement import apply_proposals
from repro.groupmod.messages import ModProposal, ProposeInput


@dataclass
class AgreementReport:
    """What one agreement round delivered at each node."""

    queues: dict[int, list[ModProposal]]
    metrics: Metrics

    def common_queue(self) -> list[ModProposal]:
        """Proposals delivered by every node (commutative, so order-free)."""
        queues = list(self.queues.values())
        if not queues:
            return []
        common = set(queues[0])
        for queue in queues[1:]:
            common &= set(queue)
        return sorted(common, key=lambda p: p.as_bytes())


class GroupManager(ShareLifecycle):
    """A threshold deployment with evolving membership."""

    def __init__(self, config: DkgConfig, seed: int = 0):
        super().__init__(config, seed)
        self.pending: list[ModProposal] = []

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self.config.vss().indices)

    # -- §6.1 agreement --------------------------------------------------------------

    def agree(
        self,
        proposals: dict[int, ModProposal],
        seed_offset: int = 0,
        delay_model: DelayModel | None = None,
        until: float | None = None,
    ) -> AgreementReport:
        """Run one agreement round: ``proposals`` maps proposer -> proposal.

        Proposals delivered at every node are appended to the pending
        modification queue (applied at the next phase change).
        """
        nodes = agreement_machines(self.config, self.members)
        sim = simulate(
            nodes,
            [(proposer, ProposeInput(p), 0.0) for proposer, p in proposals.items()],
            until=until,
            delay_model=delay_model,
            adversary=Adversary.passive(self.config.t, self.config.f),
            seed=agreement_seed(self.seed, seed_offset, self.phase),
        )
        report = AgreementReport(
            queues={i: list(node.queue) for i, node in nodes.items()},
            metrics=sim.metrics,
        )
        self.pending.extend(report.common_queue())
        return report

    # -- §6.2 node addition (mid-phase) --------------------------------------------------

    def add_node(
        self,
        new_node: int,
        seed_offset: int = 0,
        delay_model: DelayModel | None = None,
    ) -> AdditionResult:
        """Provide ``new_node`` a share *now* (without renewal), then
        extend the member list.  The commitment is unchanged."""
        if self.commitment is None:
            raise RuntimeError("bootstrap() must run first")
        result = run_node_addition(
            self.config,
            self.shares,
            self.commitment,
            new_node,
            seed=addition_seed(self.seed, seed_offset),
            tau=self.phase + 1,
            delay_model=delay_model,
        )
        if result.share is None:
            raise RuntimeError("node addition failed to deliver a share")
        new_members = tuple(sorted(set(self.members) | {new_node}))
        self.config = dataclasses.replace(
            self.config,
            n=len(new_members),
            members=new_members,
            initial_leader=min(new_members),
        )
        self.shares[new_node] = result.share
        return result

    # -- §6.3/§6.4 phase change: apply queued modifications ---------------------------------

    def phase_change(
        self,
        delay_model: DelayModel | None = None,
        crash_plan: list[tuple[float, int, float | None]] | None = None,
        until: float | None = None,
    ) -> Metrics:
        """Apply all pending proposals and renew shares for the new group.

        Node removals simply exclude the node from the resharing
        (§6.3); the resharing polynomials take the *new* degree t'
        (§6.4); the agreement still needs old_t + 1 dealer subsharings,
        so the reconfiguration DKG runs with ``q_size = old_t + 1``.
        """
        if self.commitment is None:
            raise RuntimeError("bootstrap() must run first")
        old_t = self.config.t
        new_members, new_t, new_f = apply_proposals(
            self.members, old_t, self.config.f, self.pending
        )
        self.pending = []
        self.phase += 1
        new_config = dataclasses.replace(
            self.config,
            n=len(new_members),
            t=new_t,
            f=new_f,
            members=new_members,
            initial_leader=min(new_members),
            q_size=old_t + 1,
        )
        renewed, metrics = self._renewal_phase(
            new_config,
            list(new_members),
            groupmod_phase(self.seed, self.phase),
            crash_plan=crash_plan,
            delay_model=delay_model,
            until=until,
        )
        self.shares, self.commitment, _ = adopt(renewed, "phase change renewal")
        # Adopt the new world: config without the q_size override.
        self.config = dataclasses.replace(new_config, q_size=None)
        return metrics
