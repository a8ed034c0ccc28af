"""Multi-phase proactive DKG orchestration (§5).

:class:`ProactiveSystem` strings together an initial DKG (phase 0) and
successive share-renewal phases as sessions ``dkg``, ``renew-1``, ...
in one simulated or real-socket world under one PKI.  It tracks the
authoritative share set and commitment across phases, injects
per-node clock skew (local clocks, §5.1) and applies per-phase
crash/recovery schedules.  A node keeps its one signing key: the §5.1
reboot procedure's key rotation is not modelled.

A mobile adversary is modelled by giving each phase its own corruption
set; the system records what the adversary saw (the corrupted nodes'
shares) so tests can check that cross-phase share collections are
useless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.shares import Share, reconstruct_secret
from repro.sim.adversary import CrashPlan, check_crash_plan
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.deployment import (
    DKG_SESSION,
    LifecycleSessions,
    SimWorld,
    adopt,
    renewal_cluster_sessions,
)
from repro.dkg.config import DkgConfig
from repro.proactive.messages import RenewedOutput, RenewInput


@dataclass
class PhaseReport:
    """Result of one stage that hands on shares: the bootstrap DKG
    (phase 0) or a renewal phase."""

    phase: int
    shares: dict[int, int]
    commitment: FeldmanCommitment | FeldmanVector
    metrics: Metrics
    exposed_shares: dict[int, int] = field(default_factory=dict)
    q_set: tuple[int, ...] = ()

    @property
    def public_key(self) -> Any:
        return self.commitment.public_key()


class ShareLifecycle:
    """What a long-lived deployment carries from stage to stage: its
    config, the live shares and the commitment they verify against,
    and the one world every stage runs in as a session: ``world``
    (:class:`~repro.deployment.SimWorld`, or a
    :class:`~repro.net.cluster.TcpWorld`, which holds sockets until
    :meth:`close`) built with ``options`` such as ``delay_model``."""

    def __init__(
        self,
        config: DkgConfig,
        seed: int,
        sessions: LifecycleSessions,
        *,
        world: Any = SimWorld,
        **options: Any,
    ):
        self.config = config
        self.seed = seed
        self.sessions = sessions
        # The protocol instance tau last run: 0 after the bootstrap.
        self.phase = 0
        self.shares: dict[int, int] = {}
        self.commitment: FeldmanCommitment | FeldmanVector | None = None
        self.public_key: Any = None
        self.world = world(config.group, config.vss().indices, seed, **options)

    def close(self) -> None:
        self.world.close()

    def __enter__(self) -> "ShareLifecycle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _run(
        self, session: str, members: list[int], inputs: dict, kind: str, **stage: Any
    ) -> tuple[dict[int, Any], dict[int, Any], Metrics]:
        """Run one stage of one session: ``members``' machines, first
        ``kind`` outputs and metrics (a TCP world waits for
        ``expected``, default all).  The stage's crash plan is checked
        against §2.2 under the config as the session opens, counting
        the members the world holds down, before anything runs."""
        stage["crash_plan"] = check_crash_plan(
            stage.get("crash_plan") or (),
            self.config.f,
            self.config.d_budget,
            members=members,
            down=self.world.crashed.intersection(members),
        )
        machines = self.sessions(
            session, members, lambda _: (self.shares, self.commitment)
        )
        outputs, metrics = self.world.run_stage(
            {session: (machines, inputs)}, kind, **stage
        )
        return machines, outputs[session], metrics

    def bootstrap(self, **stage: Any) -> PhaseReport:
        """Run the initial DKG and adopt its shares as phase 0; ``stage``
        takes ``delay_model``, ``crash_plan`` and ``until`` as a renewal
        does."""
        from repro.dkg.messages import DkgCompletedOutput, DkgStartInput

        members = list(self.config.vss().indices)
        _, outputs, metrics = self._run(
            DKG_SESSION,
            members,
            {i: DkgStartInput(0) for i in members},
            DkgCompletedOutput.kind,
            **stage,
        )
        self.shares, self.commitment, q_set = adopt(outputs, "bootstrap DKG")
        self.public_key = self.commitment.public_key()
        return PhaseReport(0, dict(self.shares), self.commitment, metrics, q_set=q_set)

    def reconstruct(self) -> int:
        """Reconstruct the current secret from the live share set."""
        if self.commitment is None:
            raise RuntimeError("no shares yet")
        shares = [Share(i, v, self.commitment) for i, v in self.shares.items()]
        return reconstruct_secret(shares, self.config.t, self.config.group.q)


class ProactiveSystem(ShareLifecycle):
    """A long-lived (n, t, f) threshold system with periodic renewal."""

    def __init__(self, config: DkgConfig, seed: int = 0, **options: Any):
        sessions = renewal_cluster_sessions(config, seed)
        super().__init__(config, seed, sessions, **options)
        self.adversary_view: dict[int, dict[int, int]] = {}  # phase -> node -> share

    # -- renewal phases ------------------------------------------------------------

    def renew(
        self,
        corrupted: set[int] | None = None,
        crash_plan: CrashPlan | None = None,
        delay_model: DelayModel | None = None,
        clock_skews: dict[int, float] | None = None,
        until: float | None = None,
    ) -> PhaseReport:
        """Run one share-renewal phase.

        ``corrupted`` — the mobile adversary's choice of nodes *this
        phase* (their current shares are recorded as exposed); they
        still follow the protocol (honest-but-curious corruption),
        which suffices for the mobile-adversary privacy experiments.
        ``crash_plan`` — ``(at, node, up_after)`` entries, times from
        the phase's start.  ``clock_skews`` — per-node local-clock
        offsets for the tick.  A member that holds no share (it crashed
        through an earlier phase) takes part without dealing.
        """
        if self.commitment is None:
            raise RuntimeError("bootstrap() must run before renew()")
        corrupted = corrupted or set()
        if len(corrupted) > self.config.t:
            raise ValueError("mobile adversary exceeds t corruptions in a phase")
        self.phase += 1
        phase = self.phase

        # The adversary reads the corrupted nodes' current shares.
        exposed = {i: self.shares[i] for i in corrupted if i in self.shares}
        self.adversary_view[phase] = dict(exposed)

        members = list(self.config.vss().indices)
        _, renewed, metrics = self._run(
            f"renew-{phase}",
            members,
            {i: RenewInput(phase) for i in members},
            RenewedOutput.kind,
            starts=clock_skews,
            crash_plan=crash_plan,
            delay_model=delay_model,
            until=until,
        )
        # §5.1: safety over liveness — shares not renewed this phase are
        # gone (their owners deleted them when the protocol started).
        self.shares, self.commitment, q_set = adopt(
            renewed, f"renewal phase {phase}"
        )
        report = PhaseReport(
            phase=phase,
            shares=dict(self.shares),
            commitment=self.commitment,
            metrics=metrics,
            exposed_shares=exposed,
            q_set=q_set,
        )
        return report
