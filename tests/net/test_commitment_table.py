"""The commitment table behind ``wire.decode``: decode each matrix once.

Every ``echo`` and ``ready`` of a sharing repeats the dealer's matrix;
a receiver that hands ``decode`` its :class:`wire.CommitmentTable` gets
the object the first decode built instead of decoding the same bytes
again.  What must hold: a table changes no decoded value, a hit needs
identical matrix bytes under an equal group, the table's key *is*
``commitment_digest``, and one link can fill only its own quota.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import SchnorrGroup, group_by_name, toy_group
from repro.crypto.hashing import HashedMatrixCodec, commitment_digest
from repro.dkg import DkgConfig
from repro.net import run_local_cluster
from repro.net import transport as net_transport
from repro.net import wire
from repro.net.peers import PeerRegistry
from repro.net.transport import AsyncioTransport
from repro.vss.messages import EchoMsg, SendMsg, SessionId

from tests.helpers import default_test_group
from tests.net.test_wire_golden import CASES, GOLDEN, table_holding

G = default_test_group()
SID = SessionId(3, 7)


def fresh_table() -> wire.CommitmentTable:
    return wire.CommitmentTable(64, 32)


def commitment_over(group, seed: int = 1, t: int = 2) -> FeldmanCommitment:
    poly = BivariatePolynomial.random_symmetric(t, group.q, random.Random(seed))
    return FeldmanCommitment.commit(poly, group)


def matrix_bytes(c: FeldmanCommitment) -> bytes:
    return b"".join(c.group.element_to_bytes(e) for row in c.matrix for e in row)


def reframed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def carried(message) -> FeldmanCommitment | None:
    """The commitment matrix ``message`` carries, envelope or not."""
    commitment = getattr(getattr(message, "payload", message), "commitment", None)
    return commitment if isinstance(commitment, FeldmanCommitment) else None


# -- (a) differential: a table changes no decoded value ------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_frame_decodes_equal_with_no_cold_and_warm_table(case: str) -> None:
    message, _, kwargs = CASES[case]
    frame = bytes.fromhex(GOLDEN[case])
    group = kwargs.get("group")
    digest_form = "commitments" in kwargs
    if not digest_form:
        assert wire.decode(frame, group=group) == message
    table = table_holding(message) if digest_form else fresh_table()
    cold = wire.decode(frame, commitments=table, group=group)
    warm = wire.decode(frame, commitments=table, group=group)
    assert cold == message and warm == message
    assert wire.encode(warm, **kwargs) == frame
    first = carried(cold)
    if first is not None:
        assert carried(warm) is first
        assert table.get(commitment_digest(first)) is first


def test_inline_matrix_then_digest_frame_share_one_object() -> None:
    c = commitment_over(G)
    table = fresh_table()
    send = wire.decode(wire.encode(SendMsg(SID, c, None), group=G), commitments=table)
    echo = wire.decode(
        wire.encode(EchoMsg(SID, c, 7), group=G, commitments="digest"),
        commitments=table,
        group=G,
    )
    assert echo.commitment is send.commitment
    assert len(table) == 1


# -- (b) hostile: a hit needs identical bytes under an equal group -------------


class TestHitIsByteExact:
    C = commitment_over(G)
    FRAME = wire.encode(EchoMsg(SID, C, 7), group=G)
    START = FRAME.index(matrix_bytes(C))
    END = START + len(matrix_bytes(C))

    def warm(self) -> tuple[wire.CommitmentTable, FeldmanCommitment]:
        table = fresh_table()
        honest = table.charged_to("honest")
        cached = wire.decode(self.FRAME, commitments=honest, group=G).commitment
        assert wire.decode(self.FRAME, commitments=honest, group=G).commitment is cached
        return table, cached

    def assert_not_answered_from_table(self, table, cached, hostile: bytes) -> None:
        try:
            decoded = wire.decode(
                hostile, commitments=table.charged_to("hostile"), group=G
            )
        except wire.WireError:
            return
        assert decoded.commitment is not cached
        # Whatever it decoded to is what decoding with no table gives.
        assert decoded == wire.decode(hostile, group=G)

    def test_any_flipped_matrix_byte_misses(self) -> None:
        table, cached = self.warm()
        for at in range(self.START, self.END):
            hostile = bytearray(self.FRAME)
            hostile[at] ^= 0x01
            self.assert_not_answered_from_table(table, cached, bytes(hostile))
        # The honest frame still hits, however many lies were interned.
        assert wire.decode(self.FRAME, commitments=table, group=G).commitment is cached

    def test_changed_group_reference_misses(self) -> None:
        table, cached = self.warm()
        name = G.name.encode()
        tagged = bytes([0, len(name)]) + name
        assert self.FRAME.count(tagged) == 1
        others = (b"toy", b"secp256k1")
        references = [bytes([0, len(other)]) + other for other in others]
        if isinstance(G, SchnorrGroup):
            # Same modulus, so the same matrix bytes — another generator.
            w = wire._Writer(None, "inline")
            w.group_ref(SchnorrGroup(G.p, G.q, G.power(G.g, 2)))
            references.append(bytes(w.buf))
        for reference in references:
            if reference == tagged:
                continue
            hostile = reframed(self.FRAME[4:].replace(tagged, reference))
            self.assert_not_answered_from_table(table, cached, hostile)

    def test_same_bytes_under_another_generator_decode_under_that_group(self) -> None:
        group = toy_group()
        other = SchnorrGroup(group.p, group.q, group.power(group.g, 2))
        c = commitment_over(group)
        table = fresh_table()
        first = wire.decode(wire.encode(SendMsg(SID, c, None)), commitments=table)
        relabelled = FeldmanCommitment(c.matrix, other)
        second = wire.decode(
            wire.encode(SendMsg(SID, relabelled, None)), commitments=table
        )
        assert commitment_digest(relabelled) == commitment_digest(c)
        assert second.commitment.group == other != first.commitment.group
        assert table.get(commitment_digest(c)) is first.commitment

    @pytest.mark.parametrize("side", [0, 1, 2, 4, 1025])
    def test_changed_side_misses(self, side: int) -> None:
        table, cached = self.warm()
        assert self.FRAME[self.START - 1] == self.C.degree + 1
        w = wire._Writer(None, "inline")
        w.uvarint(side)
        body = self.FRAME[4 : self.START - 1] + bytes(w.buf) + self.FRAME[self.START :]
        self.assert_not_answered_from_table(table, cached, reframed(body))


# -- (c) property: the table's key is commitment_digest ------------------------


@pytest.mark.parametrize("name", ["toy", "rfc5114-2048-256", "secp256k1"])
def test_digest_of_decoded_matrix_is_hash_of_its_wire_bytes(name: str) -> None:
    group = group_by_name(name)
    c = commitment_over(group, seed=5)
    raw = matrix_bytes(c)
    frames = {raw: wire.encode(SendMsg(SID, c, None))}
    if isinstance(group, SchnorrGroup):
        # The modp decode is structural: a residue >= p travels, and
        # hashes, as the bytes it arrived in.
        width = group.element_bytes
        big = b"\xff" * width + raw[width:]
        assert int.from_bytes(big[:width], "big") >= group.p
        frames[big] = frames[raw].replace(raw, big)
    for matrix_region, frame in frames.items():
        assert frame.count(matrix_region) == 1
        expected = hashlib.sha256(b"feldman-matrix|" + matrix_region).digest()
        table = fresh_table()
        decoded = wire.decode(frame, commitments=table).commitment
        assert commitment_digest(decoded) == expected
        assert commitment_digest(wire.decode(frame).commitment) == expected
        assert table.get(expected) is decoded


# -- (d) bound: one link fills only its own quota ------------------------------


def single_entry_frames(count: int):
    """``count`` distinct valid 1x1 matrices, as ``vss.send`` frames."""
    entry = G.commit(1)
    for _ in range(count):
        entry = G.mul(entry, G.g)
        message = SendMsg(SID, FeldmanCommitment(((entry,),), G), None)
        yield message, wire.encode(message, group=G)


def endpoint(codec=None) -> tuple[AsyncioTransport, list]:
    transport = AsyncioTransport(1, PeerRegistry(), [1, 2, 3, 4], group=G, codec=codec)
    delivered: list = []
    transport.on_message = lambda peer, message: delivered.append((peer, message))
    return transport, delivered


def test_flood_from_one_peer_stays_inside_its_quota() -> None:
    transport, delivered = endpoint()
    table = transport._table
    honest = commitment_over(G)
    honest_frame = wire.encode(EchoMsg(SID, honest, 7), group=G)
    transport._dispatch_frame(3, honest_frame)
    kept = delivered[0][1].commitment
    sent = []
    for message, frame in single_entry_frames(10_000):
        transport._dispatch_frame(2, frame)
        sent.append(message)
    assert [m for _, m in delivered[1:]] == sent  # correct across eviction
    assert len(table) == net_transport._PEER_QUOTA + 1
    assert table.get(commitment_digest(honest)) is kept
    # Evicted long ago: decoded again, correctly, and interned again.
    _, first_frame = next(single_entry_frames(1))
    assert table.get(commitment_digest(sent[0].commitment)) is None
    transport._dispatch_frame(2, first_frame)
    assert delivered[-1][1] == sent[0]
    assert table.get(commitment_digest(sent[0].commitment)) is not None
    assert len(table) == net_transport._PEER_QUOTA + 1
    assert net_transport._PEER_QUOTA < net_transport._MAX_COMMITMENTS


def test_full_table_evicts_from_the_largest_holder() -> None:
    table = wire.CommitmentTable(4, 3)
    entries = [(m.commitment, f) for m, f in single_entry_frames(6)]
    owners = ["a", "a", "a", "b", "c", "a"]
    for (_, frame), owner in zip(entries, owners):
        wire.decode(frame, commitments=table.charged_to(owner), group=G)
    held = [table.get(commitment_digest(c)) is not None for c, _ in entries]
    # "c" arrived at a full table: "a" (three entries) paid with its
    # oldest; then "a", at its own quota, paid for itself again.
    assert held == [False, False, True, True, True, True]
    assert len(table) == 4


def test_tcp_dkg_makes_exactly_the_pinned_number_of_element_decodes(
    monkeypatch,
) -> None:
    """A count that needs no clock: n=4, t=1 over real sockets, every
    node decodes each dealer's (t+1) x (t+1) matrix once — not once per
    send, echo and ready carrying it (that was 576), and not once per
    process (16): the four nodes of this LocalCluster share an
    interpreter, never a table.  DKG frames carry no loose elements."""
    group = group_by_name("secp256k1")
    calls = []
    element_decode = type(group).element_decode

    def counting(self, raw):
        calls.append(raw)
        return element_decode(self, raw)

    monkeypatch.setattr(type(group), "element_decode", counting)
    res = run_local_cluster(DkgConfig(n=4, t=1, group=group), seed=7, time_scale=0.01)
    assert res.succeeded and res.errors == []
    assert len(calls) == 4 * 4 * (1 + 1) ** 2


# -- pending digest frames (hashed codec) --------------------------------------


def unknown_digest_frames(count: int):
    c = commitment_over(G)
    frame = wire.encode(EchoMsg(SID, c, 7), group=G, commitments="digest")
    at = frame.index(commitment_digest(c))
    rng = random.Random(9)
    for _ in range(count):
        yield frame[:at] + rng.randbytes(32) + frame[at + 32 :]


class TestPendingDigestFrames:
    def test_one_peer_cannot_starve_the_others(self) -> None:
        transport, delivered = endpoint(HashedMatrixCodec())
        for frame in unknown_digest_frames(2000):
            transport._dispatch_frame(2, frame)
        assert transport._pending_by_peer == {2: net_transport._PEER_QUOTA}
        assert transport.metrics.deliveries_dropped == 2000 - net_transport._PEER_QUOTA
        # An honest echo that overtook its dealer's send still waits...
        c = commitment_over(G, seed=3)
        echo = EchoMsg(SID, c, 7)
        transport._dispatch_frame(3, wire.encode(echo, group=G, commitments="digest"))
        assert delivered == []
        assert transport._pending_by_peer[3] == 1
        # ...and is delivered, on the send's own matrix, when that arrives.
        transport._dispatch_frame(1, wire.encode(SendMsg(SID, c, None), group=G))
        assert [(peer, m.kind) for peer, m in delivered] == [
            (3, "vss.echo"),
            (1, "vss.send"),
        ]
        assert delivered[0][1] == echo
        assert delivered[0][1].commitment is delivered[1][1].commitment
        assert transport._pending_by_peer == {2: net_transport._PEER_QUOTA}

    def test_crash_loses_what_was_waiting(self) -> None:
        transport, delivered = endpoint(HashedMatrixCodec())
        for frame in unknown_digest_frames(5):
            transport._dispatch_frame(2, frame)
        assert transport._pending_frames
        transport.crash()
        assert not transport._pending_frames and not transport._pending_by_peer

    def test_full_matrix_codec_buffers_nothing(self) -> None:
        transport, delivered = endpoint()
        for frame in unknown_digest_frames(3):
            transport._dispatch_frame(2, frame)
        assert not transport._pending_frames
        assert transport.metrics.deliveries_dropped == 3
