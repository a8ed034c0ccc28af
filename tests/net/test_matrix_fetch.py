"""The matrix fetch: a digest with no matrix behind it is asked for.

Echo and ready frames carry only the commitment's digest.  A node that
never gets the dealer's ``send`` cannot decode them from its own table,
so after :data:`~repro.net.transport.MATRIX_FETCH_AFTER` it asks a
sender of a waiting frame for the matrix.  What must hold: that node
still completes; a peer answers only from its table, once per (link,
digest); a forged reply releases nothing and costs only its own link's
quota; a crash disarms the fetch; and no fault-free run ever fetches.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import group_by_name
from repro.crypto.hashing import commitment_digest
from repro.dkg import DkgConfig
from repro.dkg.node import DkgNode
from repro.net import transport as net_transport
from repro.net import wire
from repro.net.cluster import LocalCluster, run_local_cluster
from repro.net.peers import PeerRegistry
from repro.net.transport import DEFAULT_TIME_SCALE, AsyncioTransport
from repro.runtime.effects import Send
from repro.sim.network import ConstantDelay
from repro.vss.messages import EchoMsg, SendMsg, SessionId

from tests.helpers import default_test_group

G = default_test_group()
SID = SessionId(3, 7)
FETCH_KINDS = {"net.matrix_request", "net.matrix_reply"}


def commitment_over(seed: int) -> FeldmanCommitment:
    poly = BivariatePolynomial.random_symmetric(1, G.q, random.Random(seed))
    return FeldmanCommitment.commit(poly, G)


def digest_echo(c: FeldmanCommitment) -> bytes:
    return wire.encode(EchoMsg(SID, c, 7), group=G, commitments="digest")


def endpoint(**kwargs) -> tuple[AsyncioTransport, list, list]:
    """An endpoint whose deliveries and outgoing messages are recorded
    instead of crossing sockets."""
    transport = AsyncioTransport(1, PeerRegistry(), [1, 2, 3, 4], group=G, **kwargs)
    delivered: list = []
    sent: list = []
    transport.on_message = lambda peer, message: delivered.append((peer, message))
    transport.enqueue_message = lambda s, r, payload: sent.append((r, payload))
    return transport, delivered, sent


def request_frame(c: FeldmanCommitment) -> bytes:
    return wire.encode(wire.MatrixRequest(commitment_digest(c)), group=G)


def reply_frame(c: FeldmanCommitment) -> bytes:
    return wire.encode(wire.MatrixReply(c), group=G)


# -- liveness: a withheld send is fetched --------------------------------------


def test_node_denied_its_send_still_completes() -> None:
    """Dealer 1 never sends node 4 its ``send``.  Everyone else echoes
    and readies dealer 1's sharing as digests, so node 4 must fetch the
    matrix to decode them — and with Q every dealer it cannot complete
    without dealer 1's sharing."""
    victim = 4

    class WithholdsOneSend(DkgNode):
        def step(self, event, env):
            return [
                effect
                for effect in super().step(event, env)
                if not (
                    isinstance(effect, Send)
                    and effect.recipient == victim
                    and effect.payload.kind == "vss.send"
                )
            ]

    def factory(i, config, keystore, ca):
        return WithholdsOneSend(i, config, keystore, ca) if i == 1 else None

    config = DkgConfig(n=4, t=1, group=G, q_size=4)

    async def scenario():
        cluster = LocalCluster(config, seed=5, time_scale=0.01, node_factory=factory)
        try:
            return await cluster.run_dkg(timeout=30.0)
        finally:
            await cluster.stop()

    result = asyncio.run(scenario())
    assert result.errors == [] and result.succeeded
    assert result.completed_nodes == [1, 2, 3, 4]
    assert len({done.public_key for done in result.completions.values()}) == 1
    fetched = result.metrics.messages_by_kind
    assert fetched["net.matrix_request"] >= 1 and fetched["net.matrix_reply"] >= 1


# -- hostile peers -------------------------------------------------------------


class TestAnswering:
    def test_a_flood_of_requests_gets_one_reply_per_link_and_digest(self) -> None:
        transport, _, sent = endpoint()
        decoded, own = commitment_over(1), commitment_over(2)
        transport._dispatch_frame(2, wire.encode(SendMsg(SID, decoded, None), group=G))
        transport._table.record_sent(own)
        for _ in range(500):
            for c in (decoded, own):
                transport._dispatch_frame(3, request_frame(c))
                transport._dispatch_frame(4, request_frame(c))
        assert all(isinstance(m, wire.MatrixReply) for _, m in sent)
        replies = Counter((peer, commitment_digest(m.commitment)) for peer, m in sent)
        digests = [commitment_digest(c) for c in (decoded, own)]
        assert replies == Counter((peer, d) for peer in (3, 4) for d in digests)

    def test_a_request_for_an_unknown_digest_gets_no_reply(self) -> None:
        transport, delivered, sent = endpoint()
        transport._dispatch_frame(3, request_frame(commitment_over(1)))
        assert sent == [] and delivered == []

    def test_a_reply_releases_what_waited_for_its_matrix(self) -> None:
        transport, delivered, _ = endpoint()
        c = commitment_over(1)
        transport._dispatch_frame(2, digest_echo(c))
        assert delivered == []
        transport._dispatch_frame(3, reply_frame(c))
        assert delivered == [(2, EchoMsg(SID, c, 7))]
        assert not transport._pending_frames and not transport._pending_by_peer

    def test_a_forged_reply_releases_nothing_and_costs_its_own_link(self) -> None:
        transport, delivered, _ = endpoint()
        table = transport._table
        honest = commitment_over(1)
        transport._dispatch_frame(4, wire.encode(SendMsg(SID, honest, None), group=G))
        awaited = commitment_over(2)
        transport._dispatch_frame(2, digest_echo(awaited))
        delivered.clear()
        forged = [commitment_over(seed) for seed in range(100, 100 + 2 * table.quota)]
        for c in forged:
            transport._dispatch_frame(3, reply_frame(c))
        assert delivered == []
        assert list(transport._pending_frames) == [commitment_digest(awaited)]
        assert table.get(commitment_digest(honest)) is not None
        assert len(table._owned[3]) == table.quota
        assert len(table) == table.quota + 1


class TestAsking:
    def test_each_expiry_asks_the_next_distinct_waiting_sender(self) -> None:
        async def scenario() -> list:
            transport, _, sent = endpoint(time_scale=0.001)
            transport._loop = asyncio.get_running_loop()
            c = commitment_over(1)
            for peer in (2, 3, 2):
                transport._dispatch_frame(peer, digest_echo(c))
            wait = net_transport.MATRIX_FETCH_AFTER * transport.time_scale
            for _ in range(500):
                if not transport._fetch_timers:  # both senders asked: disarmed
                    break
                await asyncio.sleep(wait)
            await asyncio.sleep(2 * wait)
            return sent

        sent = asyncio.run(scenario())
        request = wire.MatrixRequest(commitment_digest(commitment_over(1)))
        assert sent == [(2, request), (3, request)]

    def test_crash_cancels_armed_fetch_timers(self) -> None:
        async def scenario() -> None:
            transport, _, sent = endpoint()
            await transport.start()
            try:
                transport._dispatch_frame(2, digest_echo(commitment_over(1)))
                handles = list(transport._fetch_timers.values())
                assert len(handles) == 1
                transport.crash()
                assert handles[0].cancelled()
                assert not transport._fetch_timers and not transport._pending_frames
            finally:
                await transport.stop()
            assert sent == []

        asyncio.run(scenario())


# -- the bound: no fault-free run fetches --------------------------------------


@pytest.mark.parametrize("time_scale", [DEFAULT_TIME_SCALE, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fault_free_dkg_fetches_nothing(time_scale: float, seed: int) -> None:
    """secp256k1 n=7 t=2 over localhost TCP, as the benchmark runs it
    (at 2.0) and at the transport's default time scale: every digest
    finds its matrix before :data:`MATRIX_FETCH_AFTER`."""
    config = DkgConfig(n=7, t=2, group=group_by_name("secp256k1"))
    result = run_local_cluster(
        config, seed=seed, delay_model=ConstantDelay(0.0), time_scale=time_scale
    )
    assert result.succeeded, result.errors
    assert not FETCH_KINDS & set(result.metrics.messages_by_kind)
    assert result.metrics.messages_total == 840
