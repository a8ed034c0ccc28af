"""Unit tests for peers, transports and the link fault models."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.net.peers import PeerRegistry
from repro.net.transport import (
    AsyncioTransport,
    DropRetryLink,
    Transport,
)
from repro.net.host import NodeHost
from repro.runtime.envelope import SessionEnvelope
from repro.runtime.runtime import ProtocolRuntime
from repro.sim.network import ConstantDelay, RawPayload
from repro.sim.node import RecordingNode
from repro.sim.runner import Simulation

from tests.helpers import default_test_group

G = default_test_group()


class TestPeerRegistry:
    def test_register_and_lookup(self) -> None:
        reg = PeerRegistry()
        addr = reg.register(3, "127.0.0.1", 4000)
        assert reg.address_of(3) == addr
        assert reg.knows(3) and not reg.knows(4)
        assert reg.member_ids() == [3]

    def test_unknown_lookup_raises(self) -> None:
        with pytest.raises(KeyError):
            PeerRegistry().address_of(1)

    def test_static_construction(self) -> None:
        reg = PeerRegistry.static("10.0.0.1", {1: 5001, 2: 5002})
        assert len(reg) == 2
        assert list(reg) == [1, 2]
        assert reg.address_of(2).port == 5002


class TestTransportProtocol:
    def test_simulation_satisfies_transport(self) -> None:
        assert isinstance(Simulation(), Transport)

    def test_sim_transport_delegates(self) -> None:
        sim = Simulation(delay_model=ConstantDelay(1.0))
        node = RecordingNode(1)
        peer = RecordingNode(2)
        sim.add_node(node)
        sim.add_node(peer)
        transport: Transport = sim
        assert transport.member_ids() == [1, 2]
        assert transport.current_time() == 0.0
        transport.enqueue_message(1, 2, RawPayload("ping", 10))
        sim.run()
        assert len(peer.received) == 1
        assert sim.metrics.messages_total == 1

    def test_sim_transport_timers(self) -> None:
        from repro.sim.node import Context

        class ArmingNode(RecordingNode):
            def on_operator(self, payload: object, ctx: Context) -> None:
                tick = ctx.set_timer(5.0, "tick")
                ctx.cancel_timer(tick)
                ctx.set_timer(7.0, "tock")

        sim = Simulation()
        node = ArmingNode(1)
        sim.add_node(node)
        sim.inject(1, "arm", at=0.0)
        sim.run()
        assert [tag for _, tag in node.timers] == ["tock"]

    def test_directly_armed_backend_timer_is_stale(self) -> None:
        # Timers not armed through machine effects have no machine-side
        # id; the driver drops them instead of forwarding raw backend
        # ids (the passthrough retired with the live-Context adapter).
        sim = Simulation()
        node = RecordingNode(1)
        sim.add_node(node)
        transport: Transport = sim
        transport.set_timer(1, 5.0, "tick")
        sim.run()
        assert node.timers == []


class TestDropRetryLink:
    def test_zero_probability_is_base_delay(self) -> None:
        link = DropRetryLink(base=ConstantDelay(2.0), drop_probability=0.0)
        assert link.sample(random.Random(0), 1, 2) == 2.0

    def test_drops_add_retry_delay(self) -> None:
        link = DropRetryLink(
            base=ConstantDelay(1.0), drop_probability=0.5, retry_delay=3.0
        )
        rng = random.Random(123)
        samples = [link.sample(rng, 1, 2) for _ in range(200)]
        assert min(samples) == 1.0
        assert max(samples) > 1.0  # some messages were retried
        extra = [(s - 1.0) / 3.0 for s in samples]
        assert all(abs(e - round(e)) < 1e-9 for e in extra)

    def test_eventual_delivery_is_bounded(self) -> None:
        link = DropRetryLink(
            base=ConstantDelay(0.0),
            drop_probability=0.9,
            retry_delay=1.0,
            max_retries=4,
        )
        rng = random.Random(7)
        assert max(link.sample(rng, 1, 2) for _ in range(500)) <= 4.0

    def test_rejects_certain_loss(self) -> None:
        with pytest.raises(ValueError):
            DropRetryLink(drop_probability=1.0)

    def test_observe_time_forwards_to_base(self) -> None:
        from repro.sim.network import PartitionDelay

        inner = PartitionDelay(group_a=frozenset({1}), heal_time=10.0)
        link = DropRetryLink(base=inner, drop_probability=0.0)
        link.observe_time(4.0)
        assert inner._clock == 4.0


def _pair(seed: int = 0, **kwargs):
    registry = PeerRegistry()
    members = [1, 2]
    a = AsyncioTransport(1, registry, members, seed=seed, **kwargs)
    b = AsyncioTransport(2, registry, members, seed=seed, **kwargs)
    return registry, a, b


class TestAsyncioTransport:
    def test_frames_cross_real_sockets(self) -> None:
        async def scenario():
            _, a, b = _pair()
            received: list = []
            b.on_message = lambda sender, msg: received.append((sender, msg))
            await a.start()
            await b.start()
            from repro.vss.messages import HelpMsg, SessionId

            a.enqueue_message(1, 2, HelpMsg(SessionId(1, 0)))
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            await a.stop()
            await b.stop()
            return received

        received = asyncio.run(scenario())
        assert len(received) == 1
        sender, msg = received[0]
        assert sender == 1
        assert msg.kind == "vss.help"

    def test_send_to_unreachable_peer_is_dropped(self) -> None:
        async def scenario():
            registry, a, _ = _pair(connect_attempts=2, connect_backoff=0.01)
            await a.start()
            registry.register(2, "127.0.0.1", 1)  # nothing listens there
            from repro.vss.messages import HelpMsg, SessionId

            a.enqueue_message(1, 2, HelpMsg(SessionId(1, 0)))
            for _ in range(200):
                if a.metrics.deliveries_dropped:
                    break
                await asyncio.sleep(0.02)
            await a.stop()
            return a.metrics.deliveries_dropped

        assert asyncio.run(scenario()) == 1

    def test_crashed_transport_sends_and_delivers_nothing(self) -> None:
        async def scenario():
            _, a, b = _pair()
            received: list = []
            b.on_message = lambda sender, msg: received.append(msg)
            await a.start()
            await b.start()
            from repro.vss.messages import HelpMsg, SessionId

            b.crash()
            a.enqueue_message(1, 2, HelpMsg(SessionId(1, 0)))
            await asyncio.sleep(0.2)
            a.crash()
            a.enqueue_message(1, 2, HelpMsg(SessionId(1, 0)))
            await asyncio.sleep(0.1)
            sent_while_crashed = a.metrics.messages_total
            await a.stop()
            await b.stop()
            return received, sent_while_crashed

        received, sent = asyncio.run(scenario())
        assert received == []
        assert sent == 1  # only the pre-crash send was metered

    def test_timers_fire_and_cancel(self) -> None:
        async def scenario():
            _, a, _ = _pair(time_scale=0.01)
            fired: list = []
            a.on_timer = lambda tag, timer_id: fired.append(tag)
            await a.start()
            keep = a.set_timer(1, 2.0, "keep")
            kill = a.set_timer(1, 2.0, "kill")
            a.cancel_timer(1, kill)
            assert keep != kill
            await asyncio.sleep(0.1)
            await a.stop()
            return fired

        assert asyncio.run(scenario()) == ["keep"]

    def test_timer_lost_while_crashed(self) -> None:
        async def scenario():
            _, a, _ = _pair(time_scale=0.01)
            fired: list = []
            a.on_timer = lambda tag, timer_id: fired.append(tag)
            await a.start()
            a.set_timer(1, 2.0, "tick")
            a.crash()
            await asyncio.sleep(0.1)
            await a.recover()
            await asyncio.sleep(0.05)
            await a.stop()
            return fired

        assert asyncio.run(scenario()) == []

    def test_recover_rebinds_same_port(self) -> None:
        async def scenario():
            registry, a, _ = _pair()
            await a.start()
            before = registry.address_of(1).port
            a.crash()
            await a.recover()
            after = registry.address_of(1).port
            await a.stop()
            return before, after

        before, after = asyncio.run(scenario())
        assert before == after

    def test_delay_model_shapes_wall_clock(self) -> None:
        async def scenario():
            _, a, b = _pair(
                delay_model=ConstantDelay(5.0), time_scale=0.01
            )
            received: list = []
            b.on_message = lambda sender, msg: received.append(
                asyncio.get_running_loop().time()
            )
            await a.start()
            await b.start()
            from repro.vss.messages import HelpMsg, SessionId

            t0 = asyncio.get_running_loop().time()
            a.enqueue_message(1, 2, HelpMsg(SessionId(1, 0)))
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            await a.stop()
            await b.stop()
            return received[0] - t0 if received else None

        elapsed = asyncio.run(scenario())
        assert elapsed is not None
        assert elapsed >= 0.05  # 5 units * 0.01 s/unit

    def test_node_host_dispatches_to_node(self) -> None:
        async def scenario():
            registry = PeerRegistry()
            members = [1, 2]
            ta = AsyncioTransport(1, registry, members)
            tb = AsyncioTransport(2, registry, members)
            na, nb = RecordingNode(1), RecordingNode(2)
            ra, rb = ProtocolRuntime(1), ProtocolRuntime(2)
            ra.open_session("s", na)
            rb.open_session("s", nb)
            ha, hb = NodeHost(ra, ta), NodeHost(rb, tb)
            await ha.start()
            await hb.start()
            from repro.vss.messages import HelpMsg, SessionId

            ta.enqueue_message(1, 2, SessionEnvelope("s", HelpMsg(SessionId(1, 0))))
            for _ in range(100):
                if nb.received:
                    break
                await asyncio.sleep(0.01)
            await ha.stop()
            await hb.stop()
            return na, nb

        na, nb = asyncio.run(scenario())
        assert len(nb.received) == 1
        assert nb.received[0][1] == 1  # sender attribution via handshake
