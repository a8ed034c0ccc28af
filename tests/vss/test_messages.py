"""Tests for VSS message types, their metered sizes and session identifiers."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.net import wire
from repro.sim.runner import Simulation
from repro.vss.messages import (

    EchoMsg,
    HelpMsg,
    ReadyMsg,
    SendMsg,
    SessionId,
    SharePointMsg,
    ready_signing_bytes,
)

from tests.helpers import default_test_group

G = default_test_group()


def _commitment(seed: int = 0) -> FeldmanCommitment:
    f = BivariatePolynomial.random_symmetric(2, G.q, random.Random(seed))
    return FeldmanCommitment.commit(f, G)


class TestSessionId:
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_bytes_unique_per_session(self, dealer: int, tau: int) -> None:
        a = SessionId(dealer, tau)
        b = SessionId(dealer, tau + 1)
        c = SessionId(dealer + 1, tau)
        assert a.as_bytes() != b.as_bytes()
        assert a.as_bytes() != c.as_bytes()

    def test_hashable_and_equal(self) -> None:
        assert SessionId(1, 2) == SessionId(1, 2)
        assert len({SessionId(1, 2), SessionId(1, 2), SessionId(2, 1)}) == 2

    def test_str(self) -> None:
        assert str(SessionId(3, 7)) == "(P3,7)"


class TestMessageSizes:
    """Messages carry values only; the transport prices each at the
    length of its frame."""

    def test_sizes_are_what_the_sender_stamped(self) -> None:
        # The simulator meters what the real transport would frame.
        c = _commitment()
        sid = SessionId(1, 0)
        poly = BivariatePolynomial.random_symmetric(2, G.q, random.Random(1))
        # Sends carry the matrix; echo and ready carry its digest.
        price = Simulation(group=G).price
        for msg, form in (
            (SendMsg(sid, c, poly.row_polynomial(2)), "inline"),
            (SendMsg(sid, c, None), "inline"),
            (EchoMsg(sid, c, 5), "digest"),
            (ReadyMsg(sid, c, 5, None), "digest"),
            (SharePointMsg(sid, 5), "inline"),
        ):
            frame = wire.encode(msg, group=G, commitments=form)
            assert price(msg) == len(frame), msg.kind

    def test_size_not_part_of_equality(self) -> None:
        # No message type has a size to disagree on: a retransmission
        # compares equal by value, which keeps dedup by value semantics.
        c = _commitment()
        sid = SessionId(1, 0)
        for typ in (SendMsg, EchoMsg, ReadyMsg, HelpMsg, SharePointMsg):
            assert "size" not in typ.__dataclass_fields__
        assert EchoMsg(sid, c, 5) == EchoMsg(sid, c, 5)

    def test_help_msg_size_is_true_frame_length(self) -> None:
        msg = HelpMsg(SessionId(1, 0))
        assert Simulation(group=G).price(msg) == len(wire.encode(msg)) == 16


class TestReadySigningBytes:
    def test_domain_separation(self) -> None:
        sid = SessionId(1, 0)
        assert ready_signing_bytes(sid, b"x" * 32) != ready_signing_bytes(
            SessionId(1, 1), b"x" * 32
        )
        assert ready_signing_bytes(sid, b"x" * 32) != ready_signing_bytes(
            sid, b"y" * 32
        )

    def test_deterministic(self) -> None:
        sid = SessionId(4, 9)
        assert ready_signing_bytes(sid, b"d" * 32) == ready_signing_bytes(
            sid, b"d" * 32
        )
