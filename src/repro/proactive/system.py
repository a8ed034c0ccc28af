"""Multi-phase proactive DKG orchestration (§5).

:class:`ProactiveSystem` strings together an initial DKG (phase 0) and
successive share-renewal phases, each run as its own deterministic
simulation.  It tracks the authoritative share set and commitment
across phases, injects per-node clock skew (local clocks, §5.1),
applies per-phase crash/corruption schedules, and rotates the keys of
recovering nodes (§5.1's reboot procedure).

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
from repro.sim.adversary import Adversary
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.deployment import (
    adopt,
    enroll,
    proactive_phase,
    renewal_machines,
    simulate,
)
from repro.dkg.config import DkgConfig
from repro.dkg.runner import DkgResult, run_dkg
from repro.proactive.messages import RenewedOutput, RenewInput


@dataclass
class PhaseReport:
    """Result of one renewal phase."""

    phase: int
    shares: dict[int, int]
    commitment: FeldmanVector
    metrics: Metrics
    exposed_shares: dict[int, int] = field(default_factory=dict)
    q_set: tuple[int, ...] = ()

    @property
    def public_key(self) -> int:
        return self.commitment.public_key()


class ShareLifecycle:
    """What a long-lived deployment carries from phase to phase: its
    config, the live shares and the commitment they verify against.
    Shared by :class:`ProactiveSystem` and
    :class:`~repro.groupmod.manager.GroupManager`."""

    def __init__(self, config: DkgConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.phase = 0
        self.shares: dict[int, int] = {}
        self.commitment: FeldmanCommitment | FeldmanVector | None = None
        self.public_key: int | None = None

    def bootstrap(self, **kwargs: Any) -> DkgResult:
        """Run the initial DKG and adopt its shares as phase 0."""
        result = run_dkg(self.config, seed=self.seed, **kwargs)
        self.shares, self.commitment, _ = adopt(result.completions, "bootstrap DKG")
        self.public_key = result.public_key
        return result

    def _renewal_phase(
        self,
        config: DkgConfig,
        members: list[int],
        label_and_seed: tuple[tuple, int],
        *,
        crash_plan: list[tuple[float, int, float | None]] | None,
        delay_model: DelayModel | None,
        until: float | None,
        starts: dict[int, float] | None = None,
    ) -> tuple[dict[int, RenewedOutput], Metrics]:
        """Simulate renewal phase ``self.phase`` of ``config`` over
        ``members`` (a fresh PKI and world per phase, under the PKI
        label and simulation seed given); each member starts at its
        ``starts`` offset.  Returns the renewed outputs and metrics."""
        label, seed = label_and_seed
        adversary = (
            Adversary.crash_only(config.t, config.f, crash_plan)
            if crash_plan
            else Adversary.passive(config.t, config.f)
        )
        machines = renewal_machines(
            config,
            enroll(config.group, members, label),
            members,
            phase=self.phase,
            shares=self.shares,
            commitment=self.commitment,
        )
        sim = simulate(
            machines,
            [(i, RenewInput(self.phase), (starts or {}).get(i, 0.0)) for i in machines],
            until=until,
            delay_model=delay_model,
            adversary=adversary,
            seed=seed,
            group=config.group,
        )
        renewed = {
            i: node.renewed for i, node in machines.items() if node.renewed is not None
        }
        return renewed, sim.metrics

    def reconstruct(self) -> int:
        """Reconstruct the current secret from the live share set."""
        if self.commitment is None:
            raise RuntimeError("no shares yet")
        shares = [Share(i, v, self.commitment) for i, v in self.shares.items()]
        return reconstruct_secret(shares, self.config.t, self.config.group.q)


class ProactiveSystem(ShareLifecycle):
    """A long-lived (n, t, f) threshold system with periodic renewal."""

    def __init__(self, config: DkgConfig, seed: int = 0):
        super().__init__(config, seed)
        self.reports: list[PhaseReport] = []
        self.adversary_view: dict[int, dict[int, int]] = {}  # phase -> node -> share

    # -- renewal phases ------------------------------------------------------------

    def renew(
        self,
        corrupted: set[int] | None = None,
        crash_plan: list[tuple[float, int, float | None]] | None = None,
        delay_model: DelayModel | None = None,
        clock_skews: dict[int, float] | None = None,
        until: float | None = None,
    ) -> PhaseReport:
        """Run one share-renewal phase.

        ``corrupted`` — the mobile adversary's choice of nodes *this
        phase* (their current shares are recorded as exposed); they
        still follow the protocol (honest-but-curious corruption),
        which suffices for the mobile-adversary privacy experiments.
        ``crash_plan`` — per-phase crash/recovery schedule.
        ``clock_skews`` — per-node local-clock offsets for the tick.
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

        renewed, metrics = self._renewal_phase(
            self.config,
            # A node that lost its share (e.g. crashed through a phase)
            # sits the phase out.
            [i for i in range(1, self.config.n + 1) if i in self.shares],
            proactive_phase(self.seed, phase),
            crash_plan=crash_plan,
            delay_model=delay_model,
            until=until,
            starts=clock_skews,
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
        self.reports.append(report)
        return report

    # -- oracle helpers for tests/benches ---------------------------------------------

    def exposed_union(self) -> dict[int, list[tuple[int, int]]]:
        """Everything the mobile adversary ever saw: phase -> (node, share)."""
        return {
            phase: sorted(view.items())
            for phase, view in self.adversary_view.items()
        }
