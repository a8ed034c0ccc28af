"""Group modification over real sockets (§6 on the wire).

The full §6.1 + §6.2 lifecycle on live endpoints: the cluster
bootstraps a DKG as one session, agrees on an add-node proposal with a
Bracha-style reliable broadcast as a second session, brings up a real
endpoint for the joiner, and runs the node-addition protocol — the
existing members reshare their current shares, interpolate subshares
*for the joiner's index*, and the joiner verifies and interpolates its
new share — as a third session over the same sockets.  The system
commitment and the old members' shares are untouched, which the result
checks by reconstructing the secret from a mixed share set.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.shares import Share, reconstruct_secret
from repro.deployment import DKG_SESSION, adopt, groupmod_cluster_sessions
from repro.net.cluster import COMPLETED_KIND, SessionCluster
from repro.net.transport import DEFAULT_TIME_SCALE
from repro.proactive.renewal import share_commitment_at
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.dkg.config import DkgConfig
from repro.dkg.messages import DkgStartInput
from repro.groupmod.messages import (
    ModProposal,
    NodeAddInput,
    ProposeInput,
)

AGREE_SESSION = "agree-1"
ADD_SESSION = "add-1"
DELIVERED_KIND = "groupmod.out.delivered"
JOINED_KIND = "groupmod.out.joined"


@dataclass
class GroupModClusterResult:
    """Outcome of one agree-then-add lifecycle over asyncio TCP."""

    config: DkgConfig
    seed: int
    new_node: int
    public_key: Any
    agreement_nodes: list[int]
    joined_share: int | None
    share_verified: bool
    secret_invariant: bool
    crashed: set[int]
    metrics: Metrics
    wall_seconds: float
    errors: list[Exception] = field(default_factory=list)
    # The committee's key material: the system commitment plus every
    # member's share (the joiner included when it joined).  With these a
    # successful result duck-types a DKG outcome, so a committee grown
    # over real TCP can be commissioned directly as a ThresholdService
    # (the shard router's ``commission="tcp"`` add path).
    commitment: Any = None
    shares: dict[int, int] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return (
            not self.errors
            and self.joined_share is not None
            and self.share_verified
            and self.secret_invariant
        )


def run_groupmod_cluster(
    config: DkgConfig,
    seed: int = 0,
    *,
    new_node: int | None = None,
    delay_model: DelayModel | None = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    crash_plan: list[tuple[int, float, float | None]] | None = None,
    timeout: float = 60.0,
) -> GroupModClusterResult:
    """Bootstrap, agree on an add proposal, and deliver the joiner its
    share — all over one set of real asyncio TCP endpoints.

    ``crash_plan`` entries are ``(node, at, up_after-or-None)`` with
    ``at`` in protocol time units *from the start of the addition
    phase* (the resharing is the crash-sensitive window).
    """

    async def _run() -> GroupModClusterResult:
        members = config.vss().indices
        joiner = new_node if new_node is not None else max(members) + 1
        if joiner in members:
            raise ValueError(f"node {joiner} is already a member")
        machines = groupmod_cluster_sessions(config, seed, joiner)
        cluster = SessionCluster(
            list(members),
            seed=seed,
            group=config.group,
            codec=config.codec,
            delay_model=delay_model,
            time_scale=time_scale,
        )
        try:
            await cluster.start()
            loop = asyncio.get_running_loop()
            t_start = loop.time()

            # Session 1 — bootstrap DKG.
            boot = await cluster.run_session(
                DKG_SESSION,
                machines(DKG_SESSION, members, None),
                {i: DkgStartInput(0) for i in members},
                COMPLETED_KIND,
                set(members),
                timeout,
            )
            shares, commitment, _ = adopt(boot, "bootstrap DKG")
            secret_before = reconstruct_secret(
                [Share(i, v, commitment) for i, v in shares.items()],
                config.t,
                config.group.q,
            )

            # Session 2 — §6.1 agreement on the add proposal.
            delivered = await cluster.run_session(
                AGREE_SESSION,
                machines(AGREE_SESSION, members, None),
                {min(members): ProposeInput(ModProposal("add", joiner))},
                DELIVERED_KIND,
                set(members),
                timeout,
            )
            if len(delivered) < config.vss().output_threshold:
                raise RuntimeError(
                    f"agreement delivered at only {sorted(delivered)}"
                )

            # Session 3 — §6.2 node addition over a real joiner endpoint.
            await cluster.add_member(joiner)
            cluster.schedule_crashes_from_now(list(crash_plan or []))
            joined = await cluster.run_session(
                ADD_SESSION,
                machines(
                    ADD_SESSION, [*members, joiner], lambda _: (shares, commitment)
                ),
                {i: NodeAddInput(joiner, 1) for i in members},
                JOINED_KIND,
                {joiner},
                timeout,
            )
            await cluster.settle_recoveries()
            joined_share = (
                joined[joiner].share if joiner in joined else None
            )
            share_verified = joined_share is not None and config.group.commit(
                joined_share
            ) == share_commitment_at(commitment, joiner)

            # The joiner's share lies on the *original* polynomial:
            # reconstruct from a mixed old/new share set.
            secret_invariant = False
            if joined_share is not None:
                mixed = [Share(joiner, joined_share, commitment)] + [
                    Share(i, shares[i], commitment)
                    for i in sorted(shares)[: config.t]
                ]
                secret_invariant = (
                    reconstruct_secret(mixed, config.t, config.group.q)
                    == secret_before
                )
            return GroupModClusterResult(
                config=config,
                seed=seed,
                new_node=joiner,
                public_key=commitment.public_key(),
                agreement_nodes=sorted(delivered),
                joined_share=joined_share,
                share_verified=share_verified,
                secret_invariant=secret_invariant,
                crashed=set(cluster.crashed),
                metrics=cluster.metrics,
                wall_seconds=loop.time() - t_start,
                errors=cluster.collect_errors(),
                commitment=commitment,
                shares=dict(shares)
                if joined_share is None
                else {**shares, joiner: joined_share},
            )
        finally:
            await cluster.stop()

    return asyncio.run(_run())
