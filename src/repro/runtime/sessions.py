"""Concurrent DKG sessions multiplexed over per-node runtimes.

The paper's serving workloads need *many* DKGs — one per pooled
presignature nonce — and before the session runtime each of those got
its own simulated world (or its own socket set).  Here each member
index hosts exactly one :class:`~repro.runtime.runtime.ProtocolRuntime`
inside one :class:`~repro.sim.runner.Simulation`, and every requested
DKG runs as a session multiplexed over those n endpoints: the layout
the service layer uses for batch presignature refills and the layout
``benchmarks/bench_e16_runtime.py`` measures against the old
one-world-per-protocol arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deployment import AgreementView, Pki, dkg_machines, sessions_pki, simulate
from repro.runtime.envelope import SessionEnvelope
from repro.runtime.runtime import ProtocolRuntime
from repro.sim.network import DelayModel
from repro.dkg.config import DkgConfig
from repro.dkg.messages import DkgCompletedOutput, DkgStartInput

COMPLETED_KIND = "dkg.out.completed"


@dataclass(frozen=True)
class DkgSessionSpec:
    """One DKG instance to multiplex: a session id, its deployment
    parameters (whose ``members`` may be any subset of the cluster) and
    the instance tag ``tau`` (distinct taus keep sharing randomness
    independent across concurrent sessions)."""

    session: str
    config: DkgConfig
    tau: int = 0
    secrets: dict[int, int] | None = None


@dataclass
class DkgSessionResult(AgreementView):
    """Per-session outcome of one multiplexed run."""

    spec: DkgSessionSpec
    completions: dict[int, DkgCompletedOutput] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        members = set(self.spec.config.vss().indices)
        return members <= set(self.completions) and self.agrees


def run_dkg_sessions(
    specs: list[DkgSessionSpec],
    *,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    until: float | None = None,
    max_events: int | None = 2_000_000,
    pki: Pki | None = None,
) -> dict[str, DkgSessionResult]:
    """Run every spec'd DKG concurrently, one runtime per member.

    All sessions interleave over the same simulated endpoints — one
    event queue, one set of node identities — and complete
    independently.  Returns results keyed by session id.  ``pki``
    defaults to a one-shot world's, enrolled over the union of the
    specs' members; a caller running DKG after DKG under one set of
    identities (the presignature forge) passes its own, enrolling at
    least every spec's members.
    """
    if len({spec.session for spec in specs}) != len(specs):
        raise ValueError("duplicate session ids")
    if len({spec.config.group for spec in specs}) != 1:
        # The shared PKI is enrolled against one group; mixed backends
        # would fail signature checks far from the cause.
        raise ValueError("all session specs must share one group")
    universe = sorted(
        {i for spec in specs for i in spec.config.vss().indices}
    )
    if pki is None:
        pki = sessions_pki(specs[0].config.group, universe, seed)
    # Completed DKG sessions are evicted as they finish (their outputs
    # survive for the result sweep below) so a large batch holds live
    # machines only for its stragglers.
    runtimes = {i: ProtocolRuntime(i, evict_completed=True) for i in universe}
    for spec in specs:
        machines = dkg_machines(
            spec.config,
            pki,
            spec.config.vss().indices,
            tau=spec.tau,
            secrets=spec.secrets,
        )
        for i, machine in machines.items():
            runtimes[i].open_session(spec.session, machine)
    simulate(
        runtimes,
        [
            (i, SessionEnvelope(spec.session, DkgStartInput(spec.tau)), 0.0)
            for spec in specs
            for i in spec.config.vss().indices
        ],
        until=until,
        max_events=max_events,
        delay_model=delay_model,
        seed=seed,
        group=specs[0].config.group,
    )
    results: dict[str, DkgSessionResult] = {}
    for spec in specs:
        result = DkgSessionResult(spec)
        for i in spec.config.vss().indices:
            for payload in runtimes[i].outputs_of(spec.session):
                if getattr(payload, "kind", None) == COMPLETED_KIND:
                    result.completions[i] = payload
                    break
        results[spec.session] = result
    return results
