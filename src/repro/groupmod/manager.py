"""Lifecycle orchestration: agreement, phase-change reconfiguration
(node removal, threshold/crash-limit modification), and mid-phase node
addition (§6).

:class:`GroupManager` is the long-lived controller a deployment
operator would run: it bootstraps the initial DKG, collects agreed
modification proposals during a phase (§6.1), applies them at the next
phase change by running a *reconfiguring* share renewal (§6.3/§6.4 —
the resharing polynomials get the new degree ``t'`` and the member set
changes), and supports §6.2 node addition inside a phase.  Each stage
is a session in one world (see
:class:`~repro.proactive.system.ShareLifecycle`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.sim.adversary import CrashPlan
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.deployment import adopt, groupmod_cluster_sessions
from repro.dkg.config import DkgConfig
from repro.proactive.system import ShareLifecycle
from repro.groupmod.addition import AdditionResult
from repro.groupmod.agreement import apply_proposals
from repro.groupmod.messages import (
    JoinedOutput,
    ModProposal,
    NodeAddInput,
    ProposalDeliveredOutput,
    ProposeInput,
)


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

    def __init__(self, config: DkgConfig, seed: int = 0, **options: Any):
        sessions = groupmod_cluster_sessions(config, seed)
        super().__init__(config, seed, sessions, **options)
        self.pending: list[ModProposal] = []
        self.agreements = 0

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self.config.vss().indices)

    def _regroup(self, config: DkgConfig) -> None:
        """The group as the next session opens."""
        self.config = self.sessions.config = config

    # -- §6.1 agreement --------------------------------------------------------------

    def agree(
        self,
        proposals: dict[int, ModProposal],
        delay_model: DelayModel | None = None,
        until: float | None = None,
    ) -> AgreementReport:
        """Run one agreement round: ``proposals`` maps proposer -> proposal.

        Proposals delivered at every node are appended to the pending
        modification queue (applied at the next phase change).
        """
        self.agreements += 1
        members = list(self.members)
        nodes, _, metrics = self._run(
            f"agree-{self.agreements}",
            members,
            {proposer: ProposeInput(p) for proposer, p in proposals.items()},
            ProposalDeliveredOutput.kind,
            delay_model=delay_model,
            until=until,
        )
        report = AgreementReport(
            queues={i: list(node.queue) for i, node in nodes.items()},
            metrics=metrics,
        )
        self.pending.extend(report.common_queue())
        return report

    # -- §6.2 node addition (mid-phase) --------------------------------------------------

    def add_node(
        self,
        new_node: int,
        delay_model: DelayModel | None = None,
        crash_plan: CrashPlan | None = None,
    ) -> AdditionResult:
        """Provide ``new_node`` a share *now* (without renewal), then
        extend the member list.  The commitment is unchanged."""
        if self.commitment is None:
            raise RuntimeError("bootstrap() must run first")
        if new_node in self.members:
            raise ValueError(f"node {new_node} is already a member")
        members = list(self.members)
        crash_plan = self._checked(crash_plan, [*members, new_node], self.config)
        self.phase += 1
        self.sessions.joiner = new_node
        self.world.join(new_node)
        _, joined, metrics = self._run(
            f"add-{self.phase}",
            [*members, new_node],
            {i: NodeAddInput(new_node, self.phase) for i in members},
            JoinedOutput.kind,
            expected={new_node},
            delay_model=delay_model,
            crash_plan=crash_plan,
        )
        if new_node not in joined:
            raise RuntimeError("node addition failed to deliver a share")
        out = joined[new_node]
        new_members = tuple(sorted(set(members) | {new_node}))
        self._regroup(
            dataclasses.replace(
                self.config,
                n=len(new_members),
                members=new_members,
                initial_leader=min(new_members),
            )
        )
        self.shares[new_node] = out.share
        return AdditionResult(new_node, out.share, out.vector, metrics)

    # -- §6.3/§6.4 phase change: apply queued modifications ---------------------------------

    def phase_change(
        self,
        delay_model: DelayModel | None = None,
        crash_plan: CrashPlan | None = None,
        until: float | None = None,
    ) -> Metrics:
        """Apply all pending proposals and renew shares for the new group.

        Node removals simply exclude the node from the resharing
        (§6.3); the resharing polynomials take the *new* degree t'
        (§6.4); the agreement still needs old_t + 1 dealer subsharings,
        so the reconfiguration DKG runs with ``q_size = old_t + 1``.
        A node an agreed proposal adds gets its endpoint here and takes
        part without dealing.
        """
        from repro.proactive.messages import RenewedOutput, RenewInput

        if self.commitment is None:
            raise RuntimeError("bootstrap() must run first")
        old_t = self.config.t
        new_members, new_t, new_f = apply_proposals(
            self.members, old_t, self.config.f, self.pending
        )
        new_config = dataclasses.replace(
            self.config,
            n=len(new_members),
            t=new_t,
            f=new_f,
            members=new_members,
            initial_leader=min(new_members),
            q_size=old_t + 1,
        )
        crash_plan = self._checked(crash_plan, list(new_members), new_config)
        self.pending = []
        self.phase += 1
        self._regroup(new_config)
        for i in new_members:
            self.world.join(i)
        _, renewed, metrics = self._run(
            f"renew-{self.phase}",
            list(new_members),
            {i: RenewInput(self.phase) for i in new_members},
            RenewedOutput.kind,
            crash_plan=crash_plan,
            delay_model=delay_model,
            until=until,
        )
        self.shares, self.commitment, _ = adopt(renewed, "phase change renewal")
        # Adopt the new world: config without the q_size override.
        self._regroup(dataclasses.replace(new_config, q_size=None))
        return metrics
