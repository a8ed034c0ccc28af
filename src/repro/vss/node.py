"""Standalone HybridVSS node and one-call simulation helpers.

:class:`VssNode` hosts a single :class:`~repro.vss.session.VssSession`
behind the :class:`~repro.sim.node.ProtocolNode` interface, and
:func:`run_vss` assembles a full deployment (nodes, network, adversary),
runs protocol Sh — optionally followed by Rec — and returns a
:class:`VssRunResult` with shares, metrics and reconstruction values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.sim.adversary import Adversary
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.sim.node import Context, ProtocolNode
from repro.sim.runner import Simulation
from repro.deployment import simulate
from repro.vss.config import VssConfig
from repro.vss.messages import (
    ReconstructInput,
    ReconstructedOutput,
    RecoverInput,
    SessionId,
    ShareInput,
    SharedOutput,
)
from repro.vss.session import VssSession


@dataclass
class VssNode(ProtocolNode):
    """A protocol node running exactly one HybridVSS session."""

    config: VssConfig = None  # type: ignore[assignment]
    session_id: SessionId = None  # type: ignore[assignment]
    session: VssSession = field(init=False)
    shared: SharedOutput | None = None
    reconstructed: ReconstructedOutput | None = None

    # Subclasses may substitute a session variant (e.g. the
    # general-bivariate AVSS cost model used by the E9 ablation).
    session_cls: type[VssSession] = VssSession

    def __post_init__(self) -> None:
        if self.config is None or self.session_id is None:
            raise ValueError("VssNode requires a config and session id")
        self.session = self.session_cls(
            self.config,
            self.node_id,
            self.session_id,
            on_shared=self._record_shared,
            on_reconstructed=self._record_reconstructed,
        )

    def _record_shared(self, output: SharedOutput) -> None:
        self.shared = output

    def _record_reconstructed(self, output: ReconstructedOutput) -> None:
        self.reconstructed = output

    def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
        self.session.handle(sender, payload, ctx)

    def on_operator(self, payload: Any, ctx: Context) -> None:
        if isinstance(payload, ShareInput):
            self.session.start_dealing(payload.secret, ctx)
        elif isinstance(payload, ReconstructInput):
            self.session.start_reconstruction(ctx)
        elif isinstance(payload, RecoverInput):
            self.session.start_recovery(ctx)
        else:
            raise TypeError(f"unexpected operator input {payload!r}")

    def on_recover(self, ctx: Context) -> None:
        # §5.3: automatic share recovery is wired into the reboot
        # procedure — a recovering node immediately asks for help.
        self.session.start_recovery(ctx)


@dataclass
class VssRunResult:
    """Everything a test or bench wants to know about one VSS run."""

    config: VssConfig
    secret: int
    nodes: dict[int, VssNode]
    metrics: Metrics
    simulation: Simulation

    @property
    def shares(self) -> dict[int, SharedOutput]:
        return {
            i: node.shared for i, node in self.nodes.items() if node.shared
        }

    @property
    def completed_nodes(self) -> list[int]:
        return sorted(self.shares)

    @property
    def reconstructions(self) -> dict[int, int]:
        return {
            i: node.reconstructed.value
            for i, node in self.nodes.items()
            if node.reconstructed
        }

    def agreed_commitment(self) -> Any:
        """The single commitment all completing nodes agreed on.

        Raises AssertionError if two nodes completed with different C —
        which would be a consistency violation.
        """
        commitments = {out.commitment for out in self.shares.values()}
        if len(commitments) > 1:
            raise AssertionError("consistency violation: divergent commitments")
        if not commitments:
            raise AssertionError("no node completed Sh")
        return commitments.pop()


def run_vss(
    config: VssConfig,
    secret: int | None = None,
    dealer: int = 1,
    tau: int = 0,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    adversary: Adversary | None = None,
    reconstruct: bool = False,
    node_factory: dict[int, Any] | None = None,
    until: float | None = None,
    observers: list[Any] | None = None,
) -> VssRunResult:
    """Simulate one full HybridVSS sharing (and optionally Rec).

    ``node_factory`` maps node indices to replacement ProtocolNode
    instances, which is how tests inject Byzantine dealers/participants.
    ``observers`` are forwarded to the simulation, whose run loop hands
    each one every event it dispatches (``on_event(time, event)``); the
    wire-codec tests use one to check that every delivered payload is
    stamped with its true frame length.
    """
    rng = random.Random(("run-vss", seed).__repr__())
    if secret is None:
        secret = config.group.random_scalar(rng)
    session_id = SessionId(dealer, tau)
    machines = {
        i: node_factory[i]
        if node_factory and i in node_factory
        else VssNode(i, config, session_id)
        for i in config.indices
    }
    sim = simulate(
        machines,
        [(dealer, ShareInput(session_id, secret), 0.0)],
        until=until,
        delay_model=delay_model,
        adversary=adversary or Adversary.passive(config.t, config.f),
        seed=seed,
        observers=observers,
    )
    nodes = {i: m for i, m in machines.items() if isinstance(m, VssNode)}
    if reconstruct:
        for i, node in nodes.items():
            if node.shared is not None and i not in sim.crashed:
                sim.inject(i, ReconstructInput(session_id), at=sim.queue.now)
        sim.run(until=until)
    return VssRunResult(config, secret % config.group.q, nodes, sim.metrics, sim)
