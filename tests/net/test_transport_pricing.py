"""Each transport prices a message at the length of its frame.

:class:`~repro.net.transport.AsyncioTransport` meters the frame it
encodes; the simulator prices through :func:`repro.net.wire.encoded_size`.
Nothing in the protocol core states a size, so the two can only
disagree if the simulator's memo does — and both are checked here
against the frame an endpoint sends (echo and ready with the
commitment digest, everything else inline), message by message, on
the lifecycles with the rarest frames: node additions (subshares) and
renewal recovery (an erased dealer ``send`` carries no polynomial).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro.deployment import SimWorld, adopt, enroll
from repro.dkg import DkgConfig, run_dkg
from repro.groupmod import GroupManager, ModProposal, run_node_additions
from repro.net import wire
from repro.net.cluster import COMPLETED_KIND, TcpWorld, run_local_cluster
from repro.proactive import ProactiveSystem
from repro.runtime.envelope import SessionEnvelope
from repro.sim.clock import TimeoutPolicy

from tests.helpers import default_test_group, dkg_stage, sent_frame

G = default_test_group()
SEED = 3


def _mispriced(metered) -> list[tuple[str, int, int]]:
    wrong = []
    for payload, size in metered:
        inner = payload.payload if isinstance(payload, SessionEnvelope) else payload
        frame = len(sent_frame(inner, G))
        if size != frame:
            wrong.append((inner.kind, size, frame))
    return wrong


class TestEveryMessageMeteredAtItsFrame:
    def test_node_additions(self, metered) -> None:
        config = DkgConfig(n=4, t=1, group=G)
        dkg = run_dkg(config, seed=SEED)
        run_node_additions(config, dkg.shares, dkg.commitment, [5, 6], seed=SEED)
        kinds = {payload.kind for payload, _ in metered}
        assert "groupmod.subshare" in kinds
        assert _mispriced(metered) == []

    def test_renewal_with_a_recovering_node(self, metered) -> None:
        # After a renewal the dealers erase their row polynomials, so
        # the sends a recovering node is re-sent carry commitments only.
        system = ProactiveSystem(DkgConfig(n=6, t=1, f=1, group=G), seed=SEED)
        system.bootstrap()
        system.renew()
        system.renew(
            crash_plan=[(0.5, 4, 40.0)],
            clock_skews={1: 0.0, 2: 0.3, 3: 1.1, 5: 0.7},
        )
        erased = [
            p.payload
            for p, _ in metered
            if p.payload.kind == "vss.send" and p.payload.poly is None
        ]
        assert erased
        assert _mispriced(metered) == []

    def test_groupmod_cluster(self, metered) -> None:
        with GroupManager(
            DkgConfig(n=4, t=1, group=G),
            seed=SEED,
            world=TcpWorld,
            time_scale=0.005,
            timeout=120.0,
        ) as manager:
            manager.bootstrap()
            manager.agree({1: ModProposal("add", 5)})
            manager.add_node(5)
            assert manager.world.collect_errors() == []
        assert any(isinstance(p, SessionEnvelope) for p, _ in metered)
        assert _mispriced(metered) == []


@pytest.fixture(scope="module")
def sim_and_tcp():
    # Q is every dealer and no view changes, so the message pattern
    # does not depend on arrival order.
    config = DkgConfig(
        n=4, t=1, group=G, q_size=4, timeout=TimeoutPolicy(initial=1_000_000.0)
    )
    sim = run_dkg(config, seed=SEED)
    tcp = run_local_cluster(config, seed=SEED, time_scale=0.005, timeout=120.0)
    assert sim.succeeded and tcp.succeeded, tcp.errors
    return sim.metrics, tcp.metrics


_PROTOCOL_KINDS = (
    "vss.send",
    "vss.echo",
    "vss.ready",
    "dkg.send",
    "dkg.echo",
    "dkg.ready",
)


class TestSimAndTcpMeterAlike:
    @pytest.mark.parametrize("form", ["inline", "digest"], ids=["full", "hashed"])
    def test_fault_free_dkg(self, sim_and_tcp, form) -> None:
        # One wire form, two commitment shapes inside it: echo and ready
        # cross the sockets with the digest, everything else with its
        # matrix inline.  Each case checks the kinds of one shape, priced
        # alike by the simulator and the sockets, and no endpoint
        # fetches a matrix: the kinds are the protocol's own.
        sim, tcp = sim_and_tcp
        assert set(sim.messages_by_kind) == set(_PROTOCOL_KINDS)
        assert set(tcp.messages_by_kind) == set(_PROTOCOL_KINDS)
        kinds = [
            kind
            for kind in _PROTOCOL_KINDS
            if wire.commitment_mode(SimpleNamespace(kind=kind)) == form
        ]
        assert kinds

        def of_form(by_kind: dict) -> dict:
            return {kind: by_kind[kind] for kind in kinds}

        assert of_form(sim.messages_by_kind) == of_form(tcp.messages_by_kind)
        assert of_form(sim.bytes_by_kind) == of_form(tcp.bytes_by_kind)


def _lifecycle_counts(tcp: bool) -> dict[str, dict]:
    """Per-session, per-kind message counts of the renewal and
    group-modification lifecycles in one world."""
    from repro.sim.network import ConstantDelay

    config = DkgConfig(
        n=4, t=1, group=G, q_size=4, timeout=TimeoutPolicy(initial=1_000_000.0)
    )
    world = {"delay_model": ConstantDelay(0.0)}
    if tcp:
        world.update(world=TcpWorld, time_scale=0.005, timeout=120.0)
    counts: dict[str, dict] = {}
    with ProactiveSystem(config, seed=SEED, **world) as system:
        counts["renew/dkg"] = system.bootstrap().metrics
        counts["renew/renew-1"] = system.renew().metrics
        counts["renew/renew-2"] = system.renew().metrics
        assert system.world.collect_errors() == []
    with GroupManager(config, seed=SEED, **world) as manager:
        counts["groupmod/dkg"] = manager.bootstrap().metrics
        counts["groupmod/agree-1"] = manager.agree({1: ModProposal("add", 5)}).metrics
        counts["groupmod/add-1"] = manager.add_node(5).metrics
        assert manager.world.collect_errors() == []
    return {stage: dict(m.messages_by_kind) for stage, m in counts.items()}


class TestSimAndTcpLifecyclesCountAlike:
    def test_renew_and_groupmod_sessions(self) -> None:
        # The sim_and_tcp shape: Q is every dealer, no view changes and
        # no delay, so each session's message pattern does not depend on
        # arrival order, and a stage in either world ends with its
        # session quiet.
        sim = _lifecycle_counts(tcp=False)
        assert sim["groupmod/add-1"]["groupmod.subshare"] == 4
        assert _lifecycle_counts(tcp=True) == sim


def _three_session_stage(metered, world: type, **options) -> tuple[dict, dict]:
    """Three DKGs as one stage of ``world``: each session's public key
    and per-kind message counts."""
    from repro.sim.network import ConstantDelay

    config = DkgConfig(
        n=4, t=1, group=G, q_size=4, timeout=TimeoutPolicy(initial=1_000_000.0)
    )
    members = config.vss().indices
    pki = enroll(G, members, ("k-session-test", SEED))
    stage = dkg_stage(pki, {f"dkg-{k}": (config, k) for k in range(3)})
    built = world(G, members, SEED, delay_model=ConstantDelay(0.0), **options)
    try:
        outputs, _ = built.run_stage(stage, COMPLETED_KIND)
        assert built.collect_errors() == []
    finally:
        built.close()
    keys = {}
    for session, completions in outputs.items():
        assert sorted(completions) == members, session
        keys[session] = adopt(completions, session)[1].public_key()
    counts: dict[str, Counter] = defaultdict(Counter)
    for payload, _ in metered:
        counts[payload.session][payload.payload.kind] += 1
    metered.clear()
    return keys, dict(counts)


class TestSimAndTcpConcurrentSessionsCountAlike:
    def test_three_dkg_sessions_in_one_stage(self, metered) -> None:
        # The sim_and_tcp shape, three sessions at once: each session's
        # message pattern does not depend on arrival order, so either
        # world sends the same messages per session, and the sessions'
        # keys are independent.
        sim_keys, sim = _three_session_stage(metered, SimWorld)
        tcp_keys, tcp = _three_session_stage(
            metered, TcpWorld, time_scale=0.005, timeout=120.0
        )
        assert sorted(sim) == ["dkg-0", "dkg-1", "dkg-2"]
        assert tcp == sim
        assert len(set(sim_keys.values())) == 3
        assert tcp_keys == sim_keys
