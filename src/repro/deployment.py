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
  the lifecycle's label.
* :func:`dkg_machines`, :func:`renewal_machines`,
  :func:`addition_machines` and :func:`agreement_machines` are the one
  constructor per session kind.  Each takes the member indices to
  build for (one node when replay asks, the whole set when a live
  runner does) and the prior session's shares and commitment.
* :func:`simulate` is the one discrete-event run: add machines, inject
  operator inputs, run.
* :class:`AgreementView` and :func:`adopt` are Definition 4.1's
  agreement view over a completions dict: one public key, one ``Q``,
  one commitment, and the shares a session hands to the next.

Every lifecycle's PKI label and simulation seed is written once, in
the last section of this module (tabled in ``docs/architecture.md``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.runner import Simulation

Pki = tuple[CertificateAuthority, dict[int, KeyStore]]
# (shares, commitment) a finished session hands to the next one.
Prior = tuple[dict[int, int], Any]
# session, member indices, prior(session) -> {member: machine}
SessionMachines = Callable[[str, Iterable[int], Callable[[str], Prior]], dict]

DKG_SESSION = "dkg"


def enroll(group: Any, members: Iterable[int], label: tuple) -> Pki:
    """A CA for ``group`` and one enrolled keystore per member, in order."""
    rng = random.Random(label.__repr__())
    ca = CertificateAuthority(group)
    return ca, {i: KeyStore.enroll(i, ca, rng) for i in members}


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
    ``kwargs``) after injecting each ``(node, payload, at)`` input."""
    sim = Simulation(**kwargs)
    for machine in machines.values():
        sim.add_node(machine)
    for node, payload, at in inputs:
        sim.inject(node, payload, at=at)
    sim.run(until=until, max_events=max_events)
    return sim


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


def sessions_pki(group: Any, members: Iterable[int], seed: int) -> Pki:
    """``run_dkg_sessions`` (simulation seed ``seed``)."""
    return enroll(group, members, ("sessions-pki", seed))


def addition_pki(config: Any, seed: int) -> Pki:
    """``run_node_additions`` (simulation seed ``seed``)."""
    return enroll(config.group, config.vss().indices, ("add-pki", seed))


def proactive_phase(seed: int, phase: int) -> tuple[tuple, int]:
    """``ProactiveSystem.renew``: (PKI label, simulation seed)."""
    return ("proactive-pki", seed, phase), seed * 1009 + phase


def groupmod_phase(seed: int, phase: int) -> tuple[tuple, int]:
    """``GroupManager.phase_change``: (PKI label, simulation seed)."""
    return ("gm-pki", seed, phase), seed * 101 + phase


def agreement_seed(seed: int, offset: int, phase: int) -> int:
    """``GroupManager.agree``'s simulation seed."""
    return seed * 31 + offset + phase


def addition_seed(seed: int, offset: int) -> int:
    """``GroupManager.add_node``'s simulation seed."""
    return seed * 17 + offset


def renewal_cluster_sessions(config: Any, seed: int) -> SessionMachines:
    """The TCP renewal lifecycle (``run_renewal_cluster`` and its
    replay): a bootstrap ``dkg`` session, then ``renew-N`` for phase N,
    each resharing the previous session's shares."""
    pki = enroll(config.group, config.vss().indices, ("net-renewal-pki", seed))

    def machines(session: str, members: Iterable[int], prior: Callable) -> dict:
        if session == DKG_SESSION:
            return dkg_machines(config, pki, members)
        if not session.startswith("renew-"):
            raise ValueError(f"unexpected session {session!r} in renew lifecycle")
        phase = int(session.split("-", 1)[1])
        shares, commitment = prior(DKG_SESSION if phase == 1 else f"renew-{phase - 1}")
        return renewal_machines(
            config, pki, members, phase=phase, shares=shares, commitment=commitment
        )

    return machines


def groupmod_cluster_sessions(config: Any, seed: int, joiner: int) -> SessionMachines:
    """The TCP group-modification lifecycle (``run_groupmod_cluster`` and
    its replay): ``dkg``, ``agree-*`` on the add proposal, then
    ``add-*`` handing ``joiner`` a share of the bootstrap sharing."""
    pki = enroll(config.group, config.vss().indices, ("net-groupmod-pki", seed))

    def machines(session: str, members: Iterable[int], prior: Callable) -> dict:
        if session == DKG_SESSION:
            return dkg_machines(config, pki, members)
        if session.startswith("agree-"):
            return agreement_machines(config, members)
        if not session.startswith("add-"):
            raise ValueError(f"unexpected session {session!r} in groupmod lifecycle")
        shares, commitment = prior(DKG_SESSION)
        return addition_machines(
            config, pki, members, [joiner], shares=shares, commitment=commitment, tau=1
        )

    return machines
