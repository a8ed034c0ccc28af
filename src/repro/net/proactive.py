"""Proactive share renewal over real sockets (§5 on the wire).

Before the session-multiplexing runtime, :class:`ProactiveSystem` was
simulator-only: each phase spun up a fresh discrete-event world.  Here
the *same* long-lived cluster endpoints carry the whole lifecycle —
the bootstrap DKG runs as one session, then every renewal phase opens
a new session over the same n sockets, exactly the paper's picture of
a long-lived node running protocol instance after protocol instance
over one network identity.  Crash/recovery entries hit the endpoint
(taking down every session on it) and the recovering node replays its
B logs per session.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.shares import Share, reconstruct_secret
from repro.deployment import DKG_SESSION, adopt, renewal_cluster_sessions
from repro.net.cluster import COMPLETED_KIND, SessionCluster
from repro.net.transport import DEFAULT_TIME_SCALE
from repro.proactive.messages import RenewInput
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.dkg.config import DkgConfig
from repro.dkg.messages import DkgStartInput

RENEWED_KIND = "proactive.out.renewed"


@dataclass
class NetPhaseReport:
    """One renewal phase as observed over the real network."""

    phase: int
    session: str
    renewed_nodes: list[int]
    public_key: Any
    public_key_stable: bool
    wall_seconds: float


@dataclass
class RenewalClusterResult:
    """Outcome of bootstrap + renewal phases over asyncio TCP."""

    config: DkgConfig
    seed: int
    public_key: Any
    bootstrap_nodes: list[int]
    phases: list[NetPhaseReport]
    crashed: set[int]
    metrics: Metrics
    secret_invariant: bool
    errors: list[Exception] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return (
            not self.errors
            and bool(self.phases)
            and all(p.public_key_stable for p in self.phases)
            and self.secret_invariant
        )


def run_renewal_cluster(
    config: DkgConfig,
    seed: int = 0,
    *,
    phases: int = 1,
    delay_model: DelayModel | None = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    crash_plan: list[tuple[int, float, float | None]] | None = None,
    timeout: float = 60.0,
) -> RenewalClusterResult:
    """Bootstrap a DKG and run ``phases`` share-renewal phases, all
    over one set of real asyncio TCP endpoints.

    ``crash_plan`` entries are ``(node, at, up_after-or-None)`` with
    ``at`` in protocol time units *from the start of the first renewal
    phase* — the window the proactive model cares about.
    """

    async def _run() -> RenewalClusterResult:
        members = config.vss().indices
        machines = renewal_cluster_sessions(config, seed)
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
            boot = await cluster.run_session(
                DKG_SESSION,
                machines(DKG_SESSION, members, None),
                {i: DkgStartInput(0) for i in members},
                COMPLETED_KIND,
                set(members),
                timeout,
            )
            shares, commitment, _ = adopt(boot, "bootstrap DKG")
            public_key = commitment.public_key()
            secret_before = _secret(config, shares, commitment)
            # Crash entries are relative to the *first renewal phase*
            # (the interesting window); offset them past the bootstrap.
            cluster.schedule_crashes_from_now(list(crash_plan or []))
            reports: list[NetPhaseReport] = []
            for phase in range(1, phases + 1):
                session = f"renew-{phase}"
                t_phase = loop.time()
                nodes = machines(session, members, lambda _: (shares, commitment))
                renewed = await cluster.run_session(
                    session,
                    nodes,
                    {i: RenewInput(phase) for i in nodes},
                    RENEWED_KIND,
                    cluster.finally_up(),
                    timeout,
                )
                shares, commitment, _ = adopt(renewed, f"renewal phase {phase}")
                reports.append(
                    NetPhaseReport(
                        phase=phase,
                        session=session,
                        renewed_nodes=sorted(renewed),
                        public_key=commitment.public_key(),
                        public_key_stable=commitment.public_key() == public_key,
                        wall_seconds=loop.time() - t_phase,
                    )
                )
            await cluster.settle_recoveries()
            return RenewalClusterResult(
                config=config,
                seed=seed,
                public_key=public_key,
                bootstrap_nodes=sorted(boot),
                phases=reports,
                crashed=set(cluster.crashed),
                metrics=cluster.metrics,
                secret_invariant=_secret(config, shares, commitment) == secret_before,
                errors=cluster.collect_errors(),
            )
        finally:
            await cluster.stop()

    return asyncio.run(_run())


def _secret(config: DkgConfig, shares: dict[int, int], commitment: Any) -> int:
    """The secret the shares reconstruct (oracle check, not protocol)."""
    return reconstruct_secret(
        [Share(i, v, commitment) for i, v in shares.items()],
        config.t,
        config.group.q,
    )
