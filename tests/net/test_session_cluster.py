"""SessionCluster: concurrent sessions, renewal and groupmod on TCP.

Everything here crosses real kernel sockets: concurrent DKG sessions
multiplexed over one endpoint per node, and the §5 renewal and §6
agree-then-add lifecycles in their TCP world, with crash/recovery
against live endpoints.  The scales are kept small (n <= 5, toy group) so the whole
module stays a few seconds.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.crypto.groups import toy_group
from repro.net.cluster import COMPLETED_KIND, LocalCluster, SessionCluster, TcpWorld
from repro.sim.network import UniformDelay
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.dkg import DkgConfig
from repro.dkg.messages import DkgStartInput
from repro.dkg.node import DkgNode
from repro.groupmod import GroupManager, ModProposal
from repro.proactive import ProactiveSystem

G = toy_group()
FAST = 0.005  # wall seconds per protocol time unit


def _dkg_nodes(config: DkgConfig, ca, keystores, tau: int) -> dict:
    return {
        i: DkgNode(i, config, keystores[i], ca, tau=tau)
        for i in config.vss().indices
    }


class TestConcurrentSessionsOverTcp:
    def test_four_concurrent_dkg_sessions_share_one_endpoint_set(self) -> None:
        """The acceptance bar, on real sockets: >= 4 concurrent DKG
        sessions over ONE endpoint per node (n sockets total, not
        4n), all completing with independent keys."""
        config = DkgConfig(n=4, t=1, group=G)
        members = config.vss().indices

        async def scenario():
            import random

            ca = CertificateAuthority(G)
            rng = random.Random(1)
            keystores = {i: KeyStore.enroll(i, ca, rng) for i in members}
            async with SessionCluster(
                list(members), seed=3, group=G, time_scale=FAST
            ) as cluster:
                for k in range(4):
                    cluster.open_session(
                        f"dkg-{k}", _dkg_nodes(config, ca, keystores, tau=k)
                    )
                # One server socket per member, however many sessions.
                assert len(cluster.hosts) == len(members)
                for k in range(4):
                    cluster.inject_all(f"dkg-{k}", DkgStartInput(k))
                completions = {}
                for k in range(4):
                    completions[k] = await cluster.wait_session_outputs(
                        f"dkg-{k}", COMPLETED_KIND, set(members), timeout=60.0
                    )
                assert cluster.collect_errors() == []
                return completions

        completions = asyncio.run(scenario())
        keys = set()
        for k, outs in completions.items():
            assert sorted(outs) == list(range(1, 5)), f"session dkg-{k}"
            session_keys = {o.public_key for o in outs.values()}
            assert len(session_keys) == 1  # agreement inside the session
            keys |= session_keys
        assert len(keys) == 4  # independence across sessions

    def test_local_cluster_is_a_session_cluster(self) -> None:
        cluster = LocalCluster(DkgConfig(n=4, t=1, group=G), seed=2)
        assert isinstance(cluster, SessionCluster)
        assert "dkg" in cluster.hosts[1].runtime.sessions

    def test_add_member_updates_every_endpoints_membership(self) -> None:
        async def scenario():
            async with SessionCluster([1, 2, 3], seed=1, group=G) as cluster:
                await cluster.add_member(4)
                return {
                    i: host.transport.member_ids()
                    for i, host in cluster.hosts.items()
                }

        views = asyncio.run(scenario())
        # Pre-join endpoints see the joiner too: Broadcast effects and
        # Env.members must include node 4 from now on.
        assert all(view == [1, 2, 3, 4] for view in views.values()), views


class TestRenewalOverTcp:
    def test_renewal_phase_with_crash_and_recover(self) -> None:
        with ProactiveSystem(
            DkgConfig(n=5, t=1, group=G),
            seed=7,
            world=TcpWorld,
            time_scale=0.01,
            delay_model=UniformDelay(1.0, 3.0),
            timeout=90.0,
        ) as system:
            system.bootstrap()
            secret = system.reconstruct()
            report = system.renew(crash_plan=[(2.0, 3, 25.0)])
            assert system.world.collect_errors() == []
        assert report.metrics.crashes == 1
        assert report.metrics.recoveries == 1
        assert sorted(report.shares) == [1, 2, 3, 4, 5]
        assert report.public_key == system.public_key
        assert system.reconstruct() == secret

    def test_two_phases_share_stable_public_key(self) -> None:
        with ProactiveSystem(
            DkgConfig(n=4, t=1, group=G), seed=3, world=TcpWorld, time_scale=FAST
        ) as system:
            system.bootstrap()
            reports = [system.renew(), system.renew()]
            assert system.world.collect_errors() == []
        assert [r.phase for r in reports] == [1, 2]
        assert all(r.public_key == system.public_key for r in reports)


class TestGroupModOverTcp:
    def test_agree_then_add_with_crash_and_recover(self) -> None:
        with GroupManager(
            DkgConfig(n=5, t=1, group=G),
            seed=9,
            world=TcpWorld,
            time_scale=0.01,
            delay_model=UniformDelay(1.0, 3.0),
            timeout=90.0,
        ) as manager:
            manager.bootstrap()
            secret = manager.reconstruct()
            report = manager.agree({1: ModProposal("add", 6)})
            addition = manager.add_node(6, crash_plan=[(2.0, 2, 25.0)])
            assert manager.world.collect_errors() == []
        assert sorted(report.queues) == [1, 2, 3, 4, 5]
        assert report.common_queue() == [ModProposal("add", 6)]
        assert addition.metrics.crashes == 1
        assert addition.metrics.recoveries == 1
        assert manager.commitment.verify_share(6, addition.share)
        assert manager.members == (1, 2, 3, 4, 5, 6)
        assert manager.reconstruct() == secret


class TestInjectReportsDrops:
    def test_inject_on_crashed_endpoint_returns_false_and_logs(
        self, caplog: pytest.LogCaptureFixture
    ) -> None:
        cluster = LocalCluster(DkgConfig(n=4, t=1, group=G), seed=4)

        async def scenario():
            async with cluster:
                host = cluster.hosts[2]
                assert host.inject(DkgStartInput(0), session="dkg") is True
                host.crash()
                with caplog.at_level(logging.WARNING, "repro.net.host"):
                    accepted = host.inject(DkgStartInput(0), session="dkg")
                return accepted

        assert asyncio.run(scenario()) is False
        assert "dropped" in caplog.text
        assert "dkg.in.start" in caplog.text
