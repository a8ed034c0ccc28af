"""Unit tests for peers, transports and the link fault models."""

from __future__ import annotations

import asyncio
import gc
import random
import socket
import warnings

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.hashing import commitment_digest
from repro.net import wire
from repro.net.peers import PeerRegistry
from repro.net.transport import (
    AsyncioTransport,
    DropRetryLink,
    Transport,
    _InboundLink,
)
from repro.net.host import NodeHost
from repro.obs import metrics as obs_metrics
from repro.runtime.envelope import SessionEnvelope
from repro.runtime.runtime import ProtocolRuntime
from repro.sim.network import ConstantDelay, DelayModel, RawPayload
from repro.sim.node import RecordingNode
from repro.sim.runner import Simulation
from repro.vss.messages import HelpMsg, SendMsg, SessionId

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


# -- the frame path: one protocol object per link, no task per frame ----------


class FakeSocket:
    """The transport side of an inbound link, without a socket."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def help_frames(count: int) -> tuple[list, bytes]:
    messages = [HelpMsg(SessionId(1, k)) for k in range(count)]
    return messages, b"".join(wire.encode(m) for m in messages)


def inbound_endpoint() -> tuple[AsyncioTransport, list]:
    transport = AsyncioTransport(1, PeerRegistry(), [1, 2, 3], group=G)
    delivered: list = []
    transport.on_message = lambda peer, message: delivered.append((peer, message))
    return transport, delivered


def open_link(transport: AsyncioTransport) -> tuple[_InboundLink, FakeSocket]:
    link, sock = _InboundLink(transport), FakeSocket()
    link.connection_made(sock)
    return link, sock


HANDSHAKE = (2).to_bytes(4, "big")


def _sees_eof(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except OSError:  # timed out: the far end never closed
        return False


class TestInboundFrames:
    def test_a_stream_split_at_every_byte_boundary(self) -> None:
        messages, frames = help_frames(3)
        stream = HANDSHAKE + frames
        for cut in range(len(stream) + 1):
            transport, delivered = inbound_endpoint()
            link, _ = open_link(transport)
            link.data_received(stream[:cut])
            link.data_received(stream[cut:])
            assert delivered == [(2, m) for m in messages], cut
        transport, delivered = inbound_endpoint()
        link, _ = open_link(transport)
        for at in range(len(stream)):
            link.data_received(stream[at : at + 1])
        assert delivered == [(2, m) for m in messages]
        assert not link.buffer

    def test_many_frames_in_one_chunk_arrive_in_order(self) -> None:
        messages, frames = help_frames(50)
        transport, delivered = inbound_endpoint()
        link, _ = open_link(transport)
        link.data_received(HANDSHAKE + frames)
        assert delivered == [(2, m) for m in messages]

    def test_oversize_length_closes_only_that_link(self) -> None:
        messages, frames = help_frames(2)
        transport, delivered = inbound_endpoint()
        bad, bad_sock = open_link(transport)
        good, good_sock = open_link(transport)
        oversize = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        bad.data_received(HANDSHAKE + oversize + frames)
        good.data_received((3).to_bytes(4, "big") + frames)
        assert bad_sock.closed and not good_sock.closed
        assert delivered == [(3, m) for m in messages]

    def test_oversize_length_is_answered_by_a_closed_socket(self) -> None:
        async def scenario():
            _, a, b = _pair()
            received: list = []
            b.on_message = lambda sender, msg: received.append(msg)
            await a.start()
            await b.start()
            port = a.registry.address_of(2).port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(HANDSHAKE + (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            eof = await asyncio.wait_for(reader.read(), 5.0)
            messages, _ = help_frames(1)
            a.enqueue_message(1, 2, messages[0])
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            writer.close()
            await a.stop()
            await b.stop()
            return eof, received, messages

        eof, received, messages = asyncio.run(scenario())
        assert eof == b""
        assert received == messages

    def test_links_accepted_as_the_node_crashes_drain_into_drops(self) -> None:
        messages, frames = help_frames(2)

        async def scenario():
            _, a, _ = _pair()
            await a.start()
            peers = []
            for peer in (2, 3):
                sock = socket.create_connection(("127.0.0.1", a._port))
                sock.sendall(peer.to_bytes(4, "big") + frames)
                sock.settimeout(2.0)
                peers.append(sock)
            # Due timers run after the I/O callbacks of their loop pass,
            # so the crash comes just after the server accepted both.
            asyncio.get_running_loop().call_later(0, a.crash)
            for _ in range(100):
                if a.metrics.deliveries_dropped == 4:
                    break
                await asyncio.sleep(0.01)
            draining = len(a._inbound)
            await a.recover()
            closed = [await asyncio.to_thread(_sees_eof, sock) for sock in peers]
            await a.stop()
            for sock in peers:
                sock.close()
            return a.metrics.deliveries_dropped, draining, closed

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            dropped, draining, closed = asyncio.run(scenario())
            gc.collect()
        assert dropped == 4  # both peers' frames, metered as drops
        assert draining == 2
        assert closed == [True, True]  # recovery closed them
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_frames_after_a_crash_are_dropped_and_metered(self) -> None:
        messages, frames = help_frames(3)
        transport, delivered = inbound_endpoint()
        link, sock = open_link(transport)

        def crash_on_first(peer, message) -> None:
            delivered.append((peer, message))
            transport.crash()

        transport.on_message = crash_on_first
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        try:
            link.data_received(HANDSHAKE + frames)
        finally:
            obs_metrics.set_registry(previous)
        assert delivered == [(2, messages[0])]
        assert sock.closed  # the crash took the link down
        assert transport.metrics.deliveries_dropped == 2
        dropped = registry.snapshot()["repro_net_frames_dropped_total"]
        assert dropped["samples"][0]["value"] == 2


class TestSelfDelivery:
    def test_own_message_arrives_as_the_object_without_a_socket(self) -> None:
        async def scenario():
            _, a, _ = _pair()
            received: list = []
            a.on_message = lambda sender, msg: received.append((sender, msg))
            registry = obs_metrics.MetricsRegistry()
            previous = obs_metrics.set_registry(registry)
            try:
                await a.start()
                message = SessionEnvelope("s", HelpMsg(SessionId(1, 0)))
                a.enqueue_message(1, 1, message)
                await asyncio.sleep(0.05)
                await a.stop()
            finally:
                obs_metrics.set_registry(previous)
            return a, registry.snapshot(), message, received

        a, snapshot, message, received = asyncio.run(scenario())
        assert received == [(1, message)] and received[0][1] is message
        assert not a._writers and not a._dial_tasks
        assert "repro_net_connects_total" not in snapshot
        assert a.metrics.messages_total == 1
        assert a.metrics.bytes_by_kind["vss.help"] > 0
        for name in ("frames_sent", "frames_received"):
            family = snapshot[f"repro_net_{name}_total"]
            assert family["samples"] == [{"labels": {"kind": "vss.help"}, "value": 1}]

    def test_own_message_to_a_crashed_node_is_dropped(self) -> None:
        async def scenario():
            _, a, _ = _pair(delay_model=ConstantDelay(1.0), time_scale=0.01)
            received: list = []
            a.on_message = lambda sender, msg: received.append(msg)
            await a.start()
            a.enqueue_message(1, 1, HelpMsg(SessionId(1, 0)))
            a.crash()
            await asyncio.sleep(0.05)
            await a.recover()
            await asyncio.sleep(0.02)
            await a.stop()
            return a, received

        a, received = asyncio.run(scenario())
        assert received == []
        assert a.metrics.messages_total == 1  # metered when it was sent
        assert a.metrics.deliveries_dropped == 1

    def test_own_send_enters_the_commitment_table(self) -> None:
        poly = BivariatePolynomial.random_symmetric(1, G.q, random.Random(3))
        commitment = FeldmanCommitment.commit(poly, G)

        async def scenario():
            _, a, _ = _pair(group=G)
            await a.start()
            a.enqueue_message(1, 1, SendMsg(SessionId(1, 0), commitment, None))
            held_at_enqueue = a._table.get(commitment_digest(commitment))
            await asyncio.sleep(0.05)
            await a.stop()
            return a, held_at_enqueue

        a, held_at_enqueue = asyncio.run(scenario())
        assert held_at_enqueue is None
        assert a._table.get(commitment_digest(commitment)) is commitment


class RecordingDelay(DelayModel):
    """No delay, but one draw from the link rng per message."""

    def __init__(self) -> None:
        self.links: list[tuple[int, int]] = []

    def sample(self, rng: random.Random, sender: int, recipient: int) -> float:
        self.links.append((sender, recipient))
        rng.random()
        return 0.0


class TestOutboundFrames:
    def test_net_rng_draws_once_per_message_self_addressed_or_not(self) -> None:
        delay = RecordingDelay()

        async def scenario():
            _, a, b = _pair(seed=5, delay_model=delay)
            await a.start()
            await b.start()
            for recipient in (1, 2, 1, 2, 2):
                a.enqueue_message(1, recipient, HelpMsg(SessionId(1, 0)))
            await asyncio.sleep(0.05)
            await a.stop()
            await b.stop()
            return a

        a = asyncio.run(scenario())
        assert delay.links == [(1, 1), (1, 2), (1, 1), (1, 2), (1, 2)]
        reference = random.Random(("net", 5, 1).__repr__())
        for _ in range(5):
            reference.random()
        assert a._net_rng.getstate() == reference.getstate()

    def test_one_dial_per_link_and_fifo_across_it(self) -> None:
        messages, _ = help_frames(60)

        async def scenario():
            _, a, b = _pair()
            received: list = []
            b.on_message = lambda sender, msg: received.append(msg)
            await a.start()
            await b.start()
            for message in messages[:40]:
                a.enqueue_message(1, 2, message)  # queue behind the dial
            dials = len(a._dial_tasks)
            queued = len(a._dialing[2])
            for _ in range(100):
                if len(received) == 40:
                    break
                await asyncio.sleep(0.01)
            for message in messages[40:]:
                a.enqueue_message(1, 2, message)  # straight to the socket
            for _ in range(100):
                if len(received) == 60:
                    break
                await asyncio.sleep(0.01)
            inbound = len(b._inbound)
            await a.stop()
            await b.stop()
            return dials, queued, inbound, received

        dials, queued, inbound, received = asyncio.run(scenario())
        assert (dials, queued, inbound) == (1, 40, 1)
        assert received == messages
