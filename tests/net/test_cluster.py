"""End-to-end: full DKG sessions over real asyncio TCP on localhost.

These are the acceptance tests for the network runtime: the *same*
``DkgNode`` state machines the simulator drives complete a DKG across
kernel sockets, all honest nodes agree on one group public key, and the
transport-level fault scenarios (crash, added latency, loss, partition)
behave like their simulated counterparts.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.crypto.shares import Share, reconstruct_secret
from repro.dkg import DkgConfig
from repro.net import DropRetryLink, LocalCluster, run_local_cluster, wire
from repro.obs import metrics as obs_metrics
from repro.sim.network import PartitionDelay, UniformDelay

from tests.helpers import default_test_group

G = default_test_group()

# Fast wall clocks for CI: 10 ms per protocol time unit.
SCALE = 0.01


def _config(n: int = 4, t: int = 1, f: int = 0) -> DkgConfig:
    return DkgConfig(n=n, t=t, f=f, group=G)


def _construction(machine) -> tuple:
    """What a lifecycle machine was built from: its kind, keystore,
    prior share and the prior commitment each dealing is checked against."""
    keystore = getattr(machine, "keystore", None)
    return (
        type(machine).__name__,
        keystore.signing_key.public_key if keystore else None,
        getattr(machine, "secret", None),
        getattr(machine, "_deals", None),
        {
            dealer: session.expected_secret_commitment
            for dealer, session in getattr(machine, "sessions", {}).items()
        },
        getattr(machine, "expected_share_pk", None),
    )


class TestRealSocketDkg:
    def test_dkg_completes_with_agreement(self) -> None:
        result = run_local_cluster(_config(), seed=7, time_scale=SCALE)
        assert result.errors == []
        assert result.succeeded
        assert result.completed_nodes == [1, 2, 3, 4]
        # Single public key and Q set across all nodes (Definition 4.1).
        assert result.public_key
        assert len(result.q_set) == 2  # t + 1 dealers

    def test_shares_reconstruct_the_group_secret(self) -> None:
        result = run_local_cluster(_config(), seed=11, time_scale=SCALE)
        assert result.succeeded
        commitment = next(iter(result.completions.values())).commitment
        shares = [
            Share(i, value, commitment)
            for i, value in result.shares.items()
        ]
        secret = reconstruct_secret(shares, 1, G.q)
        assert G.commit(secret) == result.public_key

    def test_real_bytes_are_metered(self) -> None:
        result = run_local_cluster(_config(), seed=1, time_scale=SCALE)
        assert result.metrics.messages_total > 0
        assert result.metrics.bytes_total > result.metrics.messages_total

    def test_crash_fault_scenario(self) -> None:
        """n=6, t=1, f=1: node 6 crashes mid-run; every other node must
        still complete and agree — the paper's crash-resilience clause."""
        result = run_local_cluster(
            _config(n=6, t=1, f=1),
            seed=3,
            time_scale=SCALE,
            crash_plan=[(2.0, 6, None)],
        )
        assert result.errors == []
        assert 6 in result.crashed
        assert result.succeeded
        assert set(result.completed_nodes) >= {1, 2, 3, 4, 5}
        assert result.public_key

    def test_added_latency_slows_but_completes(self) -> None:
        """Asserted on the delays injected, not on two wall times whose
        gap shrinks whenever the DKG itself gets faster."""
        drawn: list[float] = []

        class Recorded(UniformDelay):
            def sample(self, rng, sender, recipient) -> float:
                drawn.append(super().sample(rng, sender, recipient))
                return drawn[-1]

        slow = run_local_cluster(
            _config(), seed=5, time_scale=SCALE, delay_model=Recorded(1.0, 2.0)
        )
        assert slow.succeeded
        # Every message sent was held back by at least one protocol
        # time unit, and the session still completed.
        assert len(drawn) == slow.metrics.messages_total > 0
        assert min(drawn) >= 1.0

    def test_message_loss_with_retry(self) -> None:
        result = run_local_cluster(
            _config(),
            seed=9,
            time_scale=SCALE,
            delay_model=DropRetryLink(drop_probability=0.15, retry_delay=0.5),
        )
        assert result.succeeded

    def test_partition_heals_and_dkg_finishes(self) -> None:
        """{1,2} vs {3,4} cannot reach quorum; completion must wait for
        the heal — mirroring the simulator's E11 partition scenario."""
        result = run_local_cluster(
            _config(),
            seed=2,
            time_scale=SCALE,
            delay_model=PartitionDelay(
                group_a=frozenset({1, 2}),
                heal_time=5.0,
                base=UniformDelay(0.05, 0.2),
            ),
        )
        assert result.succeeded
        # No quorum without cross-partition traffic: completion is after
        # the heal, in protocol units.
        assert result.wall_seconds / SCALE >= 5.0


class TestClusterOrchestration:
    def test_async_context_manager_lifecycle(self) -> None:
        async def scenario():
            async with LocalCluster(
                _config(), seed=4, time_scale=SCALE
            ) as cluster:
                assert len(cluster.registry) == 4
                result = await cluster.run_dkg(timeout=30.0)
            return result

        result = asyncio.run(scenario())
        assert result.succeeded

    def test_stopped_cluster_is_freed_without_the_collector(self) -> None:
        async def scenario() -> list[weakref.ref]:
            cluster = LocalCluster(_config(), seed=13, time_scale=SCALE)
            try:
                res = await cluster.run_dkg(timeout=20.0)
            finally:
                await cluster.stop()
            assert res.succeeded
            return [
                weakref.ref(machine)
                for host in cluster.hosts.values()
                for machine in host.runtime.sessions.values()
            ]

        gc.collect()
        gc.disable()
        try:
            nodes = asyncio.run(scenario())
            assert nodes and all(ref() is None for ref in nodes)
        finally:
            gc.enable()

    def test_ports_are_ephemeral_and_distinct(self) -> None:
        async def scenario():
            async with LocalCluster(
                _config(), seed=4, time_scale=SCALE
            ) as cluster:
                return [
                    cluster.registry.address_of(i).port
                    for i in cluster.registry
                ]

        ports = asyncio.run(scenario())
        assert len(set(ports)) == 4

    def test_finally_up_excludes_unrecovered_crashes(self) -> None:
        cluster = LocalCluster(_config(n=6, t=1, f=1), seed=0)
        plan = [(1.0, 5, 3.0), (5.0, 6, None)]
        assert cluster.finally_up(plan) == {1, 2, 3, 4, 5}

    def test_hashed_codec_compresses_real_wire_traffic(self) -> None:
        """Echo/ready frames on the real wire carry the commitment's
        digest (Cachin et al.), not the matrix, and the run completes."""
        import random

        from repro.crypto.bivariate import BivariatePolynomial
        from repro.crypto.feldman import FeldmanCommitment
        from repro.crypto.schnorr import Signature
        from repro.net import wire
        from repro.vss.messages import EchoMsg, ReadyMsg, SessionId

        config = _config()
        result = run_local_cluster(config, seed=8, time_scale=SCALE)
        assert result.succeeded and result.public_key
        poly = BivariatePolynomial.random_symmetric(config.t, G.q, random.Random(8))
        c = FeldmanCommitment.commit(poly, G)
        sid = SessionId(1, 0)
        metrics = result.metrics
        for vote in (EchoMsg(sid, c, 0), ReadyMsg(sid, c, 0, Signature(1, 1))):
            digest = len(wire.encode(vote, group=G, commitments="digest"))
            assert digest < len(wire.encode(vote, group=G))
            count = metrics.messages_by_kind[vote.kind]
            assert count and metrics.bytes_by_kind[vote.kind] == count * digest

    def test_hashed_codec_digest_frames_that_overtake_their_send(
        self, monkeypatch
    ) -> None:
        """Node 4 hears of dealer 1's sharing from everyone else first:
        the digest-form echoes and readies wait, and resolve through
        node 4's commitment table once the slow ``send`` is decoded —
        before the wait is long enough to fetch the matrix."""
        from repro.net import wire
        from repro.sim.network import DelayModel

        class SlowLink(DelayModel):
            def sample(self, rng, sender, recipient) -> float:
                return 4.0 if (sender, recipient) == (1, 4) else 0.0

        unresolved = []
        decode = wire.decode

        def watching(frame, **kwargs):
            try:
                return decode(frame, **kwargs)
            except wire.UnresolvedDigest:
                unresolved.append(frame)
                raise

        monkeypatch.setattr(wire, "decode", watching)
        result = run_local_cluster(
            DkgConfig(n=4, t=1, group=G),
            seed=8,
            delay_model=SlowLink(),
            time_scale=SCALE,
        )
        assert unresolved  # the out-of-order path was taken
        assert result.errors == [] and result.succeeded
        assert result.completed_nodes == [1, 2, 3, 4]
        assert result.metrics.deliveries_dropped == 0
        assert "net.matrix_request" not in result.metrics.messages_by_kind

    def test_timeout_yields_failed_result(self) -> None:
        # An impossible deadline: the run returns (rather than hangs)
        # with succeeded=False.
        result = run_local_cluster(
            _config(), seed=6, time_scale=SCALE, timeout=0.001
        )
        assert not result.succeeded

    def test_sim_and_cluster_build_identical_nodes(self) -> None:
        """Both execution layers build DKG nodes through
        repro.deployment: same PKI derivation, same per-node secrets."""
        from repro.deployment import dkg_machines, dkg_pki

        config = _config()
        sim_nodes = dkg_machines(config, dkg_pki(config, 7), config.vss().indices)
        cluster = LocalCluster(config, seed=7)
        for i, node in cluster.nodes.items():
            assert node.secret == sim_nodes[i].secret
            assert (
                node.keystore.signing_key.secret
                == sim_nodes[i].keystore.signing_key.secret
            )

    @pytest.mark.parametrize("protocol", ["renew", "groupmod"])
    def test_replay_builds_the_live_lifecycle_machines(
        self, protocol, monkeypatch
    ) -> None:
        """For every (node, session) of a lifecycle, replay rebuilds
        the machine the live lifecycle built: same keystore, same prior
        share and commitment."""
        from repro.deployment import SimWorld
        from repro.fuzz.schedule import generate_capture
        from repro.obs.replay import ReplayWorld

        live: dict[tuple[int, str], object] = {}
        open_session = SimWorld.open_session

        def recording(world, session, nodes):
            live.update({(i, session): node for i, node in nodes.items()})
            open_session(world, session, nodes)

        monkeypatch.setattr(SimWorld, "open_session", recording)
        capture = generate_capture(protocol, n=4, t=1, seed=7, group=G, phases=2)
        world = ReplayWorld(capture)
        for record in capture.records:
            if record.get("record") == "open":
                world.open_session(record)
            elif "event" in record:
                world.dispatch_span(record)
        replayed = {
            (node, session): machine
            for node, runtime in world.runtimes.items()
            for session, machine in runtime.sessions.items()
        }
        assert replayed.keys() == live.keys()
        assert {session for _node, session in live} == (
            {"dkg", "renew-1", "renew-2"}
            if protocol == "renew"
            else {"dkg", "agree-1", "add-1"}
        )
        for key, machine in live.items():
            assert _construction(replayed[key]) == _construction(machine), key


def _per_kind(registry, family: str) -> dict[str, int]:
    samples = registry.snapshot().get(family, {}).get("samples", ())
    return {s["labels"]["kind"]: s["value"] for s in samples}


def _frame_counts(registry) -> dict[str, dict[str, int]]:
    return {
        f"{what}_{way}": _per_kind(registry, f"repro_net_{what}_{way}_total")
        for what in ("frames", "bytes")
        for way in ("sent", "received")
    }


async def _metered_dkg(seed: int):
    """One n=4 DKG; returns its metrics once every frame sent has
    been received (the last completion can beat a late frame)."""
    cluster = LocalCluster(_config(), seed=seed, time_scale=SCALE)
    try:
        result = await cluster.run_dkg()
        assert result.succeeded
        registry = obs_metrics.registry()
        for _ in range(500):
            counts = _frame_counts(registry)
            if counts["frames_received"] == counts["frames_sent"]:
                break
            await asyncio.sleep(0.01)
    finally:
        await cluster.stop()
    return result.metrics


class TestMetricBinding:
    """The per-frame counters are bound once per registry: they still
    agree with the run's own tallies, and follow a registry swap."""

    @staticmethod
    def _assert_counts_match(registry, metrics) -> None:
        counts = _frame_counts(registry)
        # Both directions meter the protocol frame, session envelope
        # excluded.
        assert counts["frames_sent"] == dict(metrics.messages_by_kind)
        assert counts["bytes_sent"] == dict(metrics.bytes_by_kind)
        assert counts["frames_received"] == counts["frames_sent"]
        assert counts["bytes_received"] == counts["bytes_sent"]

    def test_frame_counters_equal_the_run_metrics(self) -> None:
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        try:
            metrics = asyncio.run(_metered_dkg(seed=5))
        finally:
            obs_metrics.set_registry(previous)
        self._assert_counts_match(registry, metrics)

    def test_a_swapped_registry_gets_the_next_run_alone(self) -> None:
        first, second = obs_metrics.MetricsRegistry(), obs_metrics.MetricsRegistry()
        events = "repro_runtime_events_total"
        previous = obs_metrics.set_registry(first)
        try:
            asyncio.run(_metered_dkg(seed=5))
            before = (_frame_counts(first), first.snapshot()[events])
            obs_metrics.set_registry(second)
            metrics = asyncio.run(_metered_dkg(seed=6))
        finally:
            obs_metrics.set_registry(previous)
        assert (_frame_counts(first), first.snapshot()[events]) == before
        self._assert_counts_match(second, metrics)
        assert second.snapshot()[events]["samples"]
