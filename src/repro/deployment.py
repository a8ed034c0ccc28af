"""One way to build a deployment: the PKI, each session's machines, the
simulator loop, and the agreed state a session hands on.

The paper's long-lived deployment (§5 renewal, §6 modification) is one
PKI over one set of identities, running protocol instance after
protocol instance.  Every lifecycle in this package — the simulator
runners, the real-socket clusters and capture replay — builds its
machines here, so a replayed session is constructed by the very code
that built the live one.

* :func:`enroll` is the one PKI enrolment: a CA for the group, and one
  signing key per member drawn in member order from an rng seeded by
  the lifecycle's label; :func:`enroll_member` adds a joiner.
* :func:`dkg_machines`, :func:`renewal_machines`,
  :func:`addition_machines` and :func:`agreement_machines` are the one
  constructor per session kind.  Each takes the member indices to
  build for (one node when replay asks, the whole set when a live
  runner does) and the prior session's shares and commitment.
* :func:`simulate` is the one discrete-event run: add machines, inject
  operator inputs, run.
* :class:`LifecycleSessions` builds every session of a long-lived
  lifecycle under one PKI, and :class:`SimWorld` (one
  :class:`Simulation` for the world's life) is the world it runs in
  unless it runs over the real sockets of a
  :class:`~repro.net.cluster.TcpWorld`.  Both worlds run a stage —
  one session or many at once, such as the presignature forge's
  nonce DKGs — through one ``run_stage`` call.
* :class:`AgreementView` and :func:`adopt` are Definition 4.1's
  agreement view over a completions dict: one public key, one ``Q``,
  one commitment, and the shares a session hands to the next.

Every lifecycle's PKI label and simulation seed is written once, in
the last section of this module (tabled in ``docs/architecture.md``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

from repro.sim.adversary import CrashPlan, check_crash_plan
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.runner import Simulation

Pki = tuple[CertificateAuthority, dict[int, KeyStore]]
# (shares, commitment) a finished session hands to the next one.
Prior = tuple[dict[int, int], Any]

# One stage's sessions: session id -> (machines by node, inputs by node).
Stage = dict[str, tuple[dict[int, Any], dict[int, Any]]]

DKG_SESSION = "dkg"


def enroll(group: Any, members: Iterable[int], label: tuple) -> Pki:
    """A CA for ``group`` and one enrolled keystore per member, in order."""
    rng = random.Random(label.__repr__())
    ca = CertificateAuthority(group)
    return ca, {i: KeyStore.enroll(i, ca, rng) for i in members}


def enroll_member(pki: Pki, index: int, label: tuple) -> None:
    """Enrol a member that joins after :func:`enroll` (a no-op for one
    already enrolled).  Its key comes from an rng seeded by the label
    and its index alone, so a replay enrols it alike whenever it first
    appears."""
    ca, keystores = pki
    if index not in keystores:
        rng = random.Random((label, index).__repr__())
        keystores[index] = KeyStore.enroll(index, ca, rng)


# -- one constructor per session kind ------------------------------------------


def dkg_machines(
    config: Any,
    pki: Pki,
    members: Iterable[int],
    *,
    tau: int = 0,
    secrets: dict[int, int] | None = None,
    node_factory: Callable[..., Any] | None = None,
) -> dict[int, Any]:
    """One DKG node per member.  ``node_factory(i, config, keystore,
    ca)`` may return a replacement (Byzantine) node for an index, or
    None for the honest :class:`~repro.dkg.node.DkgNode`."""
    from repro.dkg.node import DkgNode

    ca, keystores = pki
    machines: dict[int, Any] = {}
    for i in members:
        node = node_factory(i, config, keystores[i], ca) if node_factory else None
        if node is None:
            node = DkgNode(
                i, config, keystores[i], ca, tau=tau, secret=(secrets or {}).get(i)
            )
        machines[i] = node
    return machines


def renewal_machines(
    config: Any,
    pki: Pki,
    members: Iterable[int],
    *,
    phase: int,
    shares: dict[int, int],
    commitment: Any,
) -> dict[int, Any]:
    """One §5 renewal node per member, resharing its prior share (None
    for a member that holds none)."""
    from repro.proactive.renewal import RenewalNode

    ca, keystores = pki
    return {
        i: RenewalNode(
            i,
            config,
            keystores[i],
            ca,
            phase=phase,
            prev_share=shares.get(i),
            prev_commitment=commitment,
        )
        for i in members
    }


def addition_machines(
    config: Any,
    pki: Pki,
    members: Iterable[int],
    joiners: list[int],
    *,
    shares: dict[int, int],
    commitment: Any,
    tau: int,
) -> dict[int, Any]:
    """§6.2 machines: an addition node per existing member (resharing
    its share for every joiner) and a joining node per joiner."""
    from repro.groupmod.addition import AdditionNode, JoiningNode
    from repro.proactive.renewal import share_commitment_at

    ca, keystores = pki
    machines: dict[int, Any] = {}
    for i in members:
        if i in joiners:
            machines[i] = JoiningNode(
                i,
                t=config.t,
                group_q=config.group.q,
                expected_share_pk=share_commitment_at(commitment, i),
            )
        else:
            machines[i] = AdditionNode(
                i,
                config,
                keystores[i],
                ca,
                new_node=joiners,
                current_share=shares[i],
                current_commitment=commitment,
                tau=tau,
            )
    return machines


def agreement_machines(config: Any, members: Iterable[int]) -> dict[int, Any]:
    """One §6.1 agreement node per member (no PKI: Bracha broadcast over
    authenticated channels)."""
    from repro.groupmod.agreement import GroupModAgreementNode

    vss_config = config.vss()
    return {i: GroupModAgreementNode(i, vss_config) for i in members}


class LifecycleSessions:
    """Every session of a long-lived deployment under one PKI: ``dkg``,
    ``agree-k``, and ``renew-k`` / ``add-k`` (k the instance tau), which
    reshare what ``prior(session)`` says the lifecycle holds to
    :attr:`config`, the group as the session opens, or to
    :attr:`joiner`.  A member new to the PKI is enrolled on first use."""

    def __init__(self, config: Any, label: tuple, joiner: int | None = None):
        self.config = config
        self.joiner = joiner
        self.label = label
        self.pki = enroll(config.group, config.vss().indices, label)

    def __call__(
        self, session: str, members: Iterable[int], prior: Callable[[str], Prior]
    ) -> dict[int, Any]:
        """``session``'s machines for ``members``."""
        members = list(members)
        kind, _, tau = session.partition("-")
        if kind == "agree":
            return agreement_machines(self.config, members)
        for i in members:
            enroll_member(self.pki, i, self.label)
        if session == DKG_SESSION:
            return dkg_machines(self.config, self.pki, members)
        shares, commitment = prior(session)
        if kind == "renew":
            return renewal_machines(
                self.config,
                self.pki,
                members,
                phase=int(tau),
                shares=shares,
                commitment=commitment,
            )
        if kind == "add":
            return addition_machines(
                self.config,
                self.pki,
                members,
                [self.joiner],
                shares=shares,
                commitment=commitment,
                tau=int(tau),
            )
        raise ValueError(f"unexpected session {session!r} in a lifecycle")


# -- the simulator loop -----------------------------------------------------------


def simulate(
    machines: dict[int, Any],
    inputs: Iterable[tuple[int, Any, float]],
    *,
    until: float | None = None,
    max_events: int | None = 2_000_000,
    **kwargs: Any,
) -> Simulation:
    """Run ``machines`` in one :class:`Simulation` (built from
    ``kwargs``) after injecting each ``(node, payload, at)`` input.  The
    adversary's crash plan may name only these machines' nodes."""
    sim = Simulation(**kwargs)
    adversary = sim.adversary
    check_crash_plan(
        adversary.crash_plan,
        adversary.f,
        adversary.d_budget,
        members=machines,
        byzantine=adversary.byzantine,
    )
    for machine in machines.values():
        sim.add_node(machine)
    for node, payload, at in inputs:
        sim.inject(node, payload, at=at)
    sim.run(until=until, max_events=max_events)
    return sim


class SimWorld:
    """A deployment's simulated world: one ``ProtocolRuntime`` per member
    in one :class:`Simulation`.  A stage runs until the queue is empty
    (or ``until`` time units have passed)."""

    def __init__(
        self, group: Any, members: Iterable[int], seed: int, delay_model: Any = None
    ):
        self.sim = Simulation(delay_model=delay_model, seed=seed, group=group)
        self.delay_model = self.sim.delay_model
        self.runtimes: dict[int, Any] = {}
        for i in members:
            self.join(i)

    def join(self, index: int) -> None:
        """Give a joining node its endpoint (a no-op for a known one)."""
        from repro.runtime.runtime import ProtocolRuntime

        if index not in self.runtimes:
            self.runtimes[index] = ProtocolRuntime(index)
            self.sim.add_node(self.runtimes[index])

    @property
    def crashed(self) -> set[int]:
        """The members down now."""
        return self.sim.crashed

    def open_session(self, session: str, nodes: dict[int, Any]) -> None:
        from repro.obs.trace import record_open

        for index, node in nodes.items():
            self.runtimes[index].open_session(session, node)
            record_open(index, session, self.sim.member_ids())

    def run_stage(
        self,
        sessions: Stage,
        kind: str,
        expected: set[int] | None = None,
        *,
        starts: dict[int, float] | None = None,
        crash_plan: CrashPlan = (),
        delay_model: Any = None,
        until: float | None = None,
    ) -> tuple[dict[str, dict[int, Any]], Any]:
        """Open every session of ``sessions`` (id -> (machines, inputs)),
        land each input at its node's ``starts`` offset, apply
        ``crash_plan`` ``(at, node, up_after)`` entries (times from the
        stage's start), run; each session's first ``kind`` output per
        node and the stage's metrics (``expected`` is for TCP)."""
        from repro.runtime.envelope import SessionEnvelope
        from repro.sim.metrics import Metrics

        sim, now = self.sim, self.sim.queue.now
        sim.metrics, sim.delay_model = Metrics(), delay_model or self.delay_model
        for session, (nodes, _) in sessions.items():
            self.open_session(session, nodes)
        for session, (_, inputs) in sessions.items():
            for index, payload in inputs.items():
                at = now + (starts or {}).get(index, 0.0)
                sim.inject(index, SessionEnvelope(session, payload), at=at)
        sim.schedule_crash_plan(crash_plan, now)
        sim.run(until=None if until is None else now + until)
        outputs: dict[str, dict[int, Any]] = {}
        for session, (nodes, _) in sessions.items():
            found = outputs[session] = {}
            for i in nodes:
                for out in self.runtimes[i].outputs_of(session):
                    if out.kind == kind:
                        found[i] = out
                        break
        return outputs, sim.metrics

    def collect_errors(self) -> list[Exception]:
        return []  # a machine that raises stops the run instead

    def close(self) -> None:
        """Nothing to release: the world is garbage once dropped."""


# -- Definition 4.1's agreement view ----------------------------------------------


def agreed(outputs: dict[int, Any], attr: str) -> Any:
    """The one value of ``attr`` every output carries; AssertionError
    on an agreement violation."""
    values = {getattr(out, attr) for out in outputs.values()}
    if len(values) != 1:
        raise AssertionError(f"agreement violation: {len(values)} values of {attr}")
    return values.pop()


class AgreementView:
    """``public_key`` / ``q_set`` / ``commitment`` / ``shares`` over a
    ``completions`` dict (node -> completed output)."""

    completions: dict[int, Any]

    @property
    def public_key(self) -> Any:
        return agreed(self.completions, "public_key")

    @property
    def q_set(self) -> tuple[int, ...]:
        return agreed(self.completions, "q_set")

    @property
    def commitment(self) -> Any:
        return agreed(self.completions, "commitment")

    @property
    def shares(self) -> dict[int, int]:
        return {i: out.share for i, out in self.completions.items()}

    @property
    def completed_nodes(self) -> list[int]:
        return sorted(self.completions)

    @property
    def agrees(self) -> bool:
        """Every completion names the same public key and ``Q``."""
        outputs = self.completions.values()
        return all(
            len({getattr(out, attr) for out in outputs}) == 1
            for attr in ("public_key", "q_set")
        )


def adopt(outputs: dict[int, Any], stage: str) -> tuple[dict[int, int], Any, tuple]:
    """The ``(shares, commitment, Q)`` a finished DKG or renewal hands
    on.  §5.1, safety over liveness: a share not in ``outputs`` is gone."""
    if not outputs:
        raise RuntimeError(f"{stage} did not complete")
    return (
        {i: out.share for i, out in outputs.items()},
        agreed(outputs, "commitment"),
        agreed(outputs, "q_set"),
    )


# -- every lifecycle's PKI label and simulation seed -------------------------------


def dkg_pki(config: Any, seed: int) -> Pki:
    """``run_dkg``, :class:`~repro.net.cluster.LocalCluster` and their
    replay; the simulation seed is ``seed``."""
    return enroll(config.group, config.vss().indices, ("dkg-pki", seed))


def forge_pki(group: Any, members: Iterable[int], seed: int) -> Pki:
    """The presignature forge's one PKI for a service's life: every
    member, crashed or not, so a crash changes no identity.  Reuse
    across nonce DKGs is sound because every signed payload binds tau,
    and the forge never reuses a tau (the presignature id) within a
    service.  The simulation seed is ``seed * 1_000_003 + first id + 1``."""
    return enroll(group, members, ("forge-pki", seed))


def addition_pki(config: Any, seed: int) -> Pki:
    """``run_node_additions`` (simulation seed ``seed``)."""
    return enroll(config.group, config.vss().indices, ("add-pki", seed))


def renewal_cluster_sessions(config: Any, seed: int) -> LifecycleSessions:
    """:class:`~repro.proactive.system.ProactiveSystem` and its replay
    (simulation seed ``seed``)."""
    return LifecycleSessions(config, ("net-renewal-pki", seed))


def groupmod_cluster_sessions(
    config: Any, seed: int, joiner: int | None = None
) -> LifecycleSessions:
    """:class:`~repro.groupmod.manager.GroupManager` and its replay
    (simulation seed ``seed``)."""
    return LifecycleSessions(config, ("net-groupmod-pki", seed), joiner)
