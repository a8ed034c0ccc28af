"""One-call DKG simulation: build PKI, nodes, adversary — run — collect.

:func:`run_dkg` is the package's flagship entry point (and the
``quickstart`` example's workhorse): it simulates a complete DKG
session in the hybrid model and returns a :class:`DkgResult` exposing
the group public key, per-node shares, the agreed dealer set ``Q``,
and the run's metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.shares import Share, reconstruct_secret
from repro.sim.adversary import Adversary
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.runner import Simulation
from repro.deployment import AgreementView, dkg_machines, dkg_pki, simulate
from repro.dkg.config import DkgConfig
from repro.dkg.messages import (
    DkgCompletedOutput,
    DkgReconstructInput,
    DkgStartInput,
)
from repro.dkg.node import DkgNode


@dataclass
class DkgResult(AgreementView):
    """Outcome of one simulated DKG session."""

    config: DkgConfig
    nodes: dict[int, DkgNode]
    metrics: Metrics
    simulation: Simulation
    ca: CertificateAuthority

    @property
    def completions(self) -> dict[int, DkgCompletedOutput]:
        return {
            i: node.completed
            for i, node in self.nodes.items()
            if node.completed is not None
        }

    @property
    def succeeded(self) -> bool:
        """True iff every honest, finally-up node completed."""
        finally_up = [
            i
            for i in self.nodes
            if i not in self.simulation.crashed
            and not self.simulation.adversary.is_byzantine(i)
        ]
        return all(self.nodes[i].completed is not None for i in finally_up)

    @property
    def last_completion_time(self) -> float | None:
        """Time when the slowest node output DKG-completed (not to be
        confused with Metrics.last_completion, which tracks the first
        output of any kind — e.g. a VSS shared output)."""
        times = [
            o.time
            for o in self.simulation.outputs
            if getattr(o.payload, "kind", "") == "dkg.out.completed"
        ]
        return max(times) if times else None

    @property
    def protocol_reconstructions(self) -> dict[int, int]:
        """Values output by nodes that ran protocol Rec (if requested)."""
        return {
            i: node.reconstructed.value
            for i, node in self.nodes.items()
            if node.reconstructed is not None
        }

    def reconstruct(self) -> int:
        """Client-side reconstruction of the group secret from shares."""
        commitment = self.commitment
        shares = [
            Share(i, value, commitment) for i, value in self.shares.items()
        ]
        return reconstruct_secret(shares, self.config.t, self.config.group.q)

    def expected_secret(self) -> int:
        """sum of the dealt secrets over the agreed set Q (oracle view)."""
        q = self.config.group.q
        return sum(self.nodes[d].secret for d in self.q_set) % q


def run_dkg(
    config: DkgConfig,
    seed: int = 0,
    tau: int = 0,
    delay_model: DelayModel | None = None,
    adversary: Adversary | None = None,
    secrets: dict[int, int] | None = None,
    node_factory: Callable[[int, DkgConfig, KeyStore, CertificateAuthority], Any]
    | None = None,
    until: float | None = None,
    max_events: int | None = 2_000_000,
    reconstruct: bool = False,
) -> DkgResult:
    """Simulate one DKG session.

    ``node_factory(i, config, keystore, ca)`` may return a replacement
    (Byzantine) node for index ``i`` or None for the default honest node.
    """
    pki = dkg_pki(config, seed)
    machines = dkg_machines(
        config,
        pki,
        config.vss().indices,
        tau=tau,
        secrets=secrets,
        node_factory=node_factory,
    )
    sim = simulate(
        machines,
        [(i, DkgStartInput(tau), 0.0) for i in machines],
        until=until,
        max_events=max_events,
        delay_model=delay_model,
        adversary=adversary or Adversary.passive(config.t, config.f),
        seed=seed,
        group=config.group,
    )
    nodes = {i: m for i, m in machines.items() if isinstance(m, DkgNode)}
    if reconstruct:
        # Run protocol Rec on the combined shares (Definition 4.1's
        # consistency clause) as a second stage of the same simulation.
        for i, node in nodes.items():
            if node.completed is not None and i not in sim.crashed:
                sim.inject(i, DkgReconstructInput(tau), at=sim.queue.now)
        sim.run(until=until, max_events=max_events)
    return DkgResult(config, nodes, sim.metrics, sim, pki[0])
