"""Round-trip and rejection tests for the binary wire codec.

The acceptance bar: ``decode(encode(m)) == m`` for *every* protocol
message type in :mod:`repro.vss.messages`, :mod:`repro.dkg.messages`
and :mod:`repro.proactive.messages`, and truncated/garbled frames are
rejected with :class:`~repro.net.wire.WireError` rather than producing
a wrong message.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import SchnorrGroup, small_group, toy_group
from repro.crypto.hashing import commitment_digest
from repro.crypto.schnorr import SigningKey
from repro.groupmod.messages import (
    JoinedOutput,
    ModProposal,
    NodeAddInput,
    NodeAddRequestMsg,
    ProposalDeliveredOutput,
    ProposalEchoMsg,
    ProposalMsg,
    ProposalReadyMsg,
    ProposeInput,
    SubshareMsg,
)
from repro.net import wire
from repro.proactive.messages import ClockTickMsg, RenewedOutput, RenewInput
from repro.runtime.envelope import SessionEnvelope
from repro.sim.runner import Simulation
from repro.service.protocol import (
    ERR_UNAVAILABLE,
    ErrorResponse,
    OpsRequest,
    OpsResponse,
    SignRequest,
    SignResponse,
    StatusRequest,
    StatusResponse,
)
from repro.vss.messages import (
    EchoMsg,
    HelpMsg,
    ReadyMsg,
    ReadyWitness,
    ReconstructInput,
    ReconstructedOutput,
    RecoverInput,
    SendMsg,
    SessionId,
    SharedOutput,
    ShareInput,
    SharePointMsg,
)
from repro.dkg.messages import (
    DkgCompletedOutput,
    DkgEchoMsg,
    DkgHelpMsg,
    DkgReadyMsg,
    DkgReconstructedOutput,
    DkgReconstructInput,
    DkgRecoverInput,
    DkgSendMsg,
    DkgSharePointMsg,
    DkgStartInput,
    LeadChMsg,
    LeadChWitness,
    MTypeProof,
    ReadyCert,
    RTypeProof,
    SetVote,
)

from tests.helpers import sent_frame  # noqa: E402

SID = SessionId(3, 7)


def build_messages(group) -> list:
    """One representative instance per wire-codec message type, over
    ``group``.  Every type the codec registers must appear here —
    enforced below — and the golden frames of ``golden_frames.json``
    are this list encoded on both backends.  ``None`` holds the slot of
    a retired entry, so every other entry keeps its number (and with
    it its test id and golden key)."""
    rng = random.Random(42)
    poly = BivariatePolynomial.random_symmetric(2, group.q, rng)
    c = FeldmanCommitment.commit(poly, group)
    vec = c.column_vector(0)
    key = SigningKey.generate(group, rng)
    sig = key.sign(b"wire-test", rng)
    witnesses = (ReadyWitness(1, sig), ReadyWitness(4, key.sign(b"w2", rng)))
    cert = ReadyCert(2, b"\xab" * 32, witnesses)
    r_proof = RTypeProof((cert, ReadyCert(5, b"\xcd" * 32, witnesses[:1])))
    m_proof = MTypeProof(
        (1, 2, 3),
        (SetVote(1, "echo", sig), SetVote(6, "ready", key.sign(b"v", rng))),
    )
    election = (LeadChWitness(2, 1, sig), LeadChWitness(5, 1, key.sign(b"l", rng)))
    return [
        SendMsg(SID, c, poly.row_polynomial(2)),
        SendMsg(SID, c, None),  # §5.2 erased-polynomial retransmission
        EchoMsg(SID, c, 12345),
        ReadyMsg(SID, c, 99, sig),
        ReadyMsg(SID, c, 99, None),
        HelpMsg(SID),
        SharePointMsg(SID, 42),
        ShareInput(SID, 5),
        ReconstructInput(SID),
        RecoverInput(SID),
        SharedOutput(SID, c, 77, witnesses),
        ReconstructedOutput(SID, 123),
        DkgSendMsg(0, 0, r_proof),
        DkgSendMsg(1, 2, m_proof, election),
        DkgEchoMsg(0, 1, (1, 2, 3), sig),
        DkgReadyMsg(9, 0, (2, 5), sig),
        LeadChMsg(0, 1, None, sig),
        LeadChMsg(0, 1, m_proof, sig),
        LeadChMsg(0, 2, r_proof, sig),
        DkgSharePointMsg(0, 888),
        DkgHelpMsg(4),
        DkgStartInput(0),
        DkgRecoverInput(1),
        DkgReconstructInput(2),
        DkgReconstructedOutput(0, 55),
        DkgCompletedOutput(0, 1, (1, 2, 3), c, 10, c.public_key()),
        DkgCompletedOutput(0, 1, (1, 2), vec, 10, vec.public_key()),
        None,  # retired: a DkgCompletedOutput of commitment shape 2
        ClockTickMsg(3),
        RenewInput(2),
        RenewedOutput(1, vec, 9, (1, 2)),
        # group modification frames (codec v4)
        ProposalMsg(ModProposal("add", 8, 1, 0)),
        ProposalEchoMsg(ModProposal("remove", 2, -1, 0)),
        ProposalReadyMsg(ModProposal("add", 9)),
        ProposeInput(ModProposal("add", 10, 0, 1)),
        ProposalDeliveredOutput(ModProposal("remove", 3)),
        NodeAddRequestMsg(8, 3),
        NodeAddInput(8, 3),
        SubshareMsg(2, vec, 4242),
        JoinedOutput(2, 77, vec),
        # session envelopes (codec v4): multiplexed protocol traffic
        SessionEnvelope("dkg-0", DkgStartInput(0)),
        SessionEnvelope("renew-1", ClockTickMsg(1)),
        SessionEnvelope("vss", EchoMsg(SID, c, 12345)),
        SessionEnvelope("vss", ReadyMsg(SID, c, 99, sig)),
        # service frames (codec v2)
        SignRequest(7, b"pay carol"),
        SignResponse(7, 123, 456, True),
        # retired: the beacon, DPRF and decryption frames (kinds 0x32-0x38)
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        StatusRequest(12),
        StatusResponse(12, 7, 2, 6, 5, 16, 100, 2, group.commit(9), group.name),
        ErrorResponse(13, ERR_UNAVAILABLE, "too few signers"),
        # observability frames (codec v5)
        OpsRequest(14),
        OpsResponse(14, b'{"schema":1,"status":{},"metrics":{}}'),
        # the matrix fetch between endpoints (codec v7)
        wire.MatrixRequest(commitment_digest(c)),
        wire.MatrixReply(c),
    ]


G = toy_group()
_NUMBERED = [(i, m) for i, m in enumerate(build_messages(G)) if m is not None]
MESSAGES = [m for _, m in _NUMBERED]
C = MESSAGES[0].commitment
SIG = MESSAGES[3].signature

_IDS = [f"{type(m).__name__}-{i}" for i, m in _NUMBERED]


class TestRoundTrip:
    @pytest.mark.parametrize("message", MESSAGES, ids=_IDS)
    def test_decode_encode_identity(self, message) -> None:
        assert wire.decode(wire.encode(message)) == message

    @pytest.mark.parametrize("message", MESSAGES, ids=_IDS)
    def test_round_trip_with_group_context(self, message) -> None:
        assert wire.decode(wire.encode(message, group=G)) == message

    def test_every_registered_type_is_covered(self) -> None:
        covered = {type(m) for m in MESSAGES}
        registered = {typ for typ, _, _ in wire.SCHEMA.values()}
        assert registered <= covered, registered - covered

    def test_decode_stamps_true_size(self) -> None:
        # Decoding stamps nothing on the message: it carries values
        # only, and prices again at the length of the frame it came in
        # — an echo's, with the digest in place of the matrix.
        msg = EchoMsg(SID, C, 5)
        data = wire.encode(msg, group=G, commitments="digest")
        table = wire.CommitmentTable(8, 8)
        table.insert(commitment_digest(C), C)
        decoded = wire.decode(data, commitments=table)
        assert not hasattr(decoded, "size")
        assert wire.encoded_size(decoded, group=G) == len(data)

    def test_fixed_size_messages_report_true_frame_length(self) -> None:
        # The simulator meters fixed-size messages at their frame length.
        price = Simulation(group=G).price
        for msg in (HelpMsg(SID), DkgHelpMsg(4), ClockTickMsg(3)):
            assert price(msg) == len(wire.encode(msg)), msg.kind

    def test_sizes_are_value_independent_given_group(self) -> None:
        low = wire.encoded_size(EchoMsg(SID, C, 1), group=G)
        high = wire.encoded_size(EchoMsg(SID, C, G.q - 1), group=G)
        assert low == high

    def test_custom_group_is_inlined(self) -> None:
        custom = SchnorrGroup(G.p, G.q, G.g, name="custom")
        commitment = FeldmanCommitment(C.matrix, custom)
        back = wire.decode(wire.encode(EchoMsg(SID, commitment, 5)))
        # Groups compare by parameters, not name.
        assert back.commitment == commitment

    def test_named_group_reference_is_compact(self) -> None:
        named = len(wire.encode(EchoMsg(SID, C, 5)))
        custom = SchnorrGroup(G.p, G.q, G.g, name="custom")
        inlined = len(
            wire.encode(EchoMsg(SID, FeldmanCommitment(C.matrix, custom), 5))
        )
        assert named < inlined

    def test_larger_group_round_trips(self) -> None:
        big = small_group()
        rng = random.Random(1)
        poly = BivariatePolynomial.random_symmetric(1, big.q, rng)
        commitment = FeldmanCommitment.commit(poly, big)
        msg = SendMsg(SessionId(1, 0), commitment, poly.row_polynomial(1))
        assert wire.decode(wire.encode(msg, group=big)) == msg

    @given(
        dealer=st.integers(0, 2**31 - 1),
        tau=st.integers(0, 2**31 - 1),
        point=st.integers(0, G.q - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_echo_round_trip_property(self, dealer, tau, point) -> None:
        msg = EchoMsg(SessionId(dealer, tau), C, point)
        assert wire.decode(wire.encode(msg, group=G)) == msg


class TestDigestCompression:
    def test_digest_frames_resolve_against_store(self) -> None:
        msg = ReadyMsg(SID, C, 7, SIG)
        data = wire.encode(msg, group=G, commitments="digest")
        table = wire.CommitmentTable(8, 8)
        table.insert(commitment_digest(C), C)
        assert wire.decode(data, commitments=table) == msg

    def test_digest_frame_without_resolver_is_rejected(self) -> None:
        data = wire.encode(EchoMsg(SID, C, 7), commitments="digest")
        with pytest.raises(wire.WireError):
            wire.decode(data)
        with pytest.raises(wire.WireError):
            wire.decode(data, commitments=wire.CommitmentTable(8, 8))

    def test_digest_mode_is_smaller(self) -> None:
        msg = EchoMsg(SID, C, 7)
        assert len(wire.encode(msg, commitments="digest")) < len(
            wire.encode(msg)
        )

    def test_encoded_size_tracks_codec(self) -> None:
        # Echo and ready are priced in digest form, sends inline, and an
        # envelope by what it carries.
        echo = EchoMsg(SID, C, 7)
        send = SendMsg(SID, C, None)
        digest = len(wire.encode(echo, group=G, commitments="digest"))
        assert wire.encoded_size(echo, G) == digest
        assert wire.encoded_size(send, G) == len(wire.encode(send, group=G))
        assert digest < len(wire.encode(echo, group=G))
        for payload in (echo, send, HelpMsg(SID)):
            enveloped = SessionEnvelope("vss", payload)
            mode = wire.commitment_mode(payload)
            assert wire.commitment_mode(enveloped) == mode
            assert wire.encoded_size(enveloped, G) == len(
                wire.encode(enveloped, group=G, commitments=mode)
            )

    def test_unknown_commitment_mode_rejected(self) -> None:
        with pytest.raises(wire.WireError):
            wire.encode(EchoMsg(SID, C, 7), commitments="zstd")


class TestRejection:
    def _frame(self) -> bytes:
        return wire.encode(DkgEchoMsg(0, 1, (1, 2, 3), SIG), group=G)

    def test_truncation_every_prefix_rejected(self) -> None:
        data = self._frame()
        for cut in range(len(data)):
            with pytest.raises(wire.WireError):
                wire.decode(data[:cut])

    def test_trailing_garbage_rejected(self) -> None:
        data = self._frame()
        with pytest.raises(wire.WireError):
            wire.decode(data + b"\x00")

    def test_bad_magic_rejected(self) -> None:
        data = bytearray(self._frame())
        data[4:6] = b"XX"
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_unknown_version_rejected(self) -> None:
        data = bytearray(self._frame())
        data[6] = 99
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_unknown_kind_rejected(self) -> None:
        data = bytearray(self._frame())
        data[7] = 0xEE
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_length_mismatch_rejected(self) -> None:
        data = bytearray(self._frame())
        data[0:4] = (len(data) + 5).to_bytes(4, "big")
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_oversized_length_rejected(self) -> None:
        header = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(wire.WireError):
            wire.decode(header + b"KG" + bytes([wire.VERSION, 0x02]))

    def test_unencodable_type_rejected(self) -> None:
        with pytest.raises(wire.WireError):
            wire.encode(object())

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash(self, blob: bytes) -> None:
        # Garbage must raise WireError — never another exception, never
        # a silently wrong message.
        try:
            wire.decode(blob)
        except wire.WireError:
            pass

    @given(st.integers(8, 200), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_bitflip_garbling_rejected_or_parsed(self, pos, rnd) -> None:
        data = bytearray(self._frame())
        pos %= len(data)
        data[pos] ^= 1 << rnd.randrange(8)
        try:
            decoded = wire.decode(bytes(data))
        except wire.WireError:
            return
        # A surviving parse must at least be a registered message type —
        # flipped signature bits are caught by signature verification
        # one layer up, not by framing.
        assert type(decoded) in {typ for typ, _, _ in wire.SCHEMA.values()}


class TestSessionSizesAreWireTrue:
    """The simulator meters every protocol message at the length of the
    frame the real transport would send, so the metrics layer counts
    true serialized bytes (E1/E3)."""

    def test_dealer_send_stamp_equals_encoded_length(self) -> None:
        from repro.vss.config import VssConfig
        from repro.vss.session import VssSession
        from tests.helpers import StubContext

        config = VssConfig(n=4, t=1, group=G)
        session = VssSession(
            config, 1, SessionId(1, 0), on_shared=lambda o: None
        )
        ctx = StubContext(node_id=1, n_nodes=4)
        session.start_dealing(11, ctx)
        assert ctx.sent
        price = Simulation(group=config.group).price
        for _, payload in ctx.sent:
            assert price(payload) == len(wire.encode(payload, group=config.group))

    def test_every_simulated_vss_message_is_wire_true(self) -> None:
        from repro.sim.events import MessageDelivery
        from repro.vss import VssConfig, run_vss

        class Tap:
            def __init__(self) -> None:
                self.payloads: list = []

            def on_event(self, time, event) -> None:
                if isinstance(event, MessageDelivery):
                    self.payloads.append(event.payload)

        tap = Tap()
        config = VssConfig(n=4, t=1, group=G)
        result = run_vss(config, secret=9, seed=0, observers=[tap])
        assert tap.payloads
        # Crash-free and run to quiescence: every metered send arrived,
        # echo and ready as the digest frames endpoints send.
        expected: Counter = Counter()
        for payload in tap.payloads:
            expected[payload.kind] += len(sent_frame(payload, G))
        assert result.metrics.bytes_by_kind["vss.echo"] < sum(
            len(wire.encode(p, group=G)) for p in tap.payloads if p.kind == "vss.echo"
        )
        assert result.metrics.bytes_by_kind == expected
