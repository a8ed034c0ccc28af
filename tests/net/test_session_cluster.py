"""TcpWorld: concurrent sessions, renewal and groupmod on TCP.

Everything here crosses real kernel sockets: concurrent DKG sessions
multiplexed over one endpoint per node as one world stage, and the §5
renewal and §6 agree-then-add lifecycles in their TCP world, with
crash/recovery against live endpoints.  The scales are kept small (n
<= 5, toy group) so the whole module stays a few seconds.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.crypto.groups import toy_group
from repro.deployment import DKG_SESSION, enroll
from repro.net.cluster import COMPLETED_KIND, LocalCluster, TcpWorld
from repro.sim.network import UniformDelay
from repro.dkg import DkgConfig
from repro.dkg.messages import DkgStartInput
from repro.groupmod import GroupManager, ModProposal
from repro.proactive import ProactiveSystem

from tests.helpers import dkg_stage

G = toy_group()
FAST = 0.005  # wall seconds per protocol time unit


class TestConcurrentSessionsOverTcp:
    def test_four_concurrent_dkg_sessions_share_one_endpoint_set(self) -> None:
        """The acceptance bar, on real sockets: >= 4 concurrent DKG
        sessions over ONE endpoint per node (n sockets total, not
        4n), all completing with independent keys."""
        config = DkgConfig(n=4, t=1, group=G)
        members = config.vss().indices
        pki = enroll(G, members, ("tcp-sessions-test", 1))
        stage = dkg_stage(pki, {f"dkg-{k}": (config, k) for k in range(4)})
        world = TcpWorld(G, members, 3, time_scale=FAST)
        try:
            completions, _ = world.run_stage(stage, COMPLETED_KIND)
            # One server socket per member, however many sessions.
            assert len(world.hosts) == len(members)
            assert world.collect_errors() == []
        finally:
            world.close()
        keys = set()
        for session, outs in completions.items():
            assert sorted(outs) == list(range(1, 5)), session
            session_keys = {o.public_key for o in outs.values()}
            assert len(session_keys) == 1  # agreement inside the session
            keys |= session_keys
        assert len(keys) == 4  # independence across sessions

    def test_local_cluster_is_a_tcp_world(self) -> None:
        async def scenario():
            config = DkgConfig(n=4, t=1, group=G)
            cluster = LocalCluster(config, seed=2, time_scale=FAST)
            try:
                result = await cluster.run_dkg(timeout=30.0)
            finally:
                await cluster.stop()
            return cluster, result

        cluster, result = asyncio.run(scenario())
        assert isinstance(cluster, TcpWorld)
        assert result.succeeded
        assert DKG_SESSION in cluster.hosts[1].runtime.sessions

    def test_add_member_updates_every_endpoints_membership(self) -> None:
        async def scenario():
            async with TcpWorld(G, [1, 2, 3], 1) as world:
                await world.add_member(4)
                return {
                    i: host.transport.member_ids()
                    for i, host in world.hosts.items()
                }

        views = asyncio.run(scenario())
        # Pre-join endpoints see the joiner too: Broadcast effects and
        # Env.members must include node 4 from now on.
        assert all(view == [1, 2, 3, 4] for view in views.values()), views


class TestRenewalOverTcp:
    def test_renewal_phase_with_crash_and_recover(self) -> None:
        with ProactiveSystem(
            DkgConfig(n=6, t=1, f=1, group=G),
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
        assert sorted(report.shares) == [1, 2, 3, 4, 5, 6]
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
            DkgConfig(n=6, t=1, f=1, group=G),
            seed=9,
            world=TcpWorld,
            time_scale=0.01,
            delay_model=UniformDelay(1.0, 3.0),
            timeout=90.0,
        ) as manager:
            manager.bootstrap()
            secret = manager.reconstruct()
            report = manager.agree({1: ModProposal("add", 7)})
            addition = manager.add_node(7, crash_plan=[(2.0, 2, 25.0)])
            assert manager.world.collect_errors() == []
        assert sorted(report.queues) == [1, 2, 3, 4, 5, 6]
        assert report.common_queue() == [ModProposal("add", 7)]
        assert addition.metrics.crashes == 1
        assert addition.metrics.recoveries == 1
        assert manager.commitment.verify_share(7, addition.share)
        assert manager.members == (1, 2, 3, 4, 5, 6, 7)
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
