"""Clause-by-clause unit tests of the HybridVSS Sh state machine,
mirroring Fig. 1's `upon` blocks with hand-fed messages."""

from __future__ import annotations

import random

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.vss.config import VssConfig
from repro.vss.messages import (
    EchoMsg,
    HelpMsg,
    ReadyMsg,
    SendMsg,
    SessionId,
    SharePointMsg,
)
from repro.vss.session import VssSession

from tests.helpers import StubContext, default_test_group

G = default_test_group()
CFG = VssConfig(n=7, t=2, f=0, group=G)
SID = SessionId(1, 0)


def _session(me: int = 2, on_shared=None) -> tuple[VssSession, StubContext]:
    outputs = []
    session = VssSession(
        CFG, me, SID, on_shared=(on_shared or outputs.append)
    )
    return session, StubContext(node_id=me, n_nodes=7)


def _dealing(secret: int = 42, seed: int = 0):
    f = BivariatePolynomial.random_symmetric(
        CFG.t, G.q, random.Random(seed), secret=secret
    )
    return f, FeldmanCommitment.commit(f, G)


class TestUponSend:
    def test_valid_send_triggers_n_echoes(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        session.handle(1, SendMsg(SID, c, f.row_polynomial(2)), ctx)
        echoes = ctx.sent_of_kind("vss.echo")
        assert len(echoes) == 7
        # echo to P_j carries a(j) = f(2, j)
        for j, msg in echoes:
            assert msg.point == f.evaluate(2, j)

    def test_send_from_non_dealer_ignored(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        session.handle(3, SendMsg(SID, c, f.row_polynomial(2)), ctx)
        assert ctx.sent == []

    def test_second_send_ignored_first_time_semantics(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        msg = SendMsg(SID, c, f.row_polynomial(2))
        session.handle(1, msg, ctx)
        first = len(ctx.sent)
        session.handle(1, msg, ctx)
        assert len(ctx.sent) == first  # no double echo

    def test_wrong_row_polynomial_rejected(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        session.handle(1, SendMsg(SID, c, f.row_polynomial(3)), ctx)
        assert ctx.sent == []

    def test_commitment_mismatch_rejected_when_expected_pk_set(self) -> None:
        session, ctx = _session(me=2)
        session.expected_secret_commitment = G.commit(999)  # wrong value
        f, c = _dealing(secret=42)
        session.handle(1, SendMsg(SID, c, f.row_polynomial(2)), ctx)
        assert ctx.sent == []

    def test_poly_none_renewal_retransmission_is_inert(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        session.handle(1, SendMsg(SID, c, None), ctx)
        assert ctx.sent == []
        # the real send may still arrive later and be processed
        session.handle(1, SendMsg(SID, c, f.row_polynomial(2)), ctx)
        assert len(ctx.sent_of_kind("vss.echo")) == 7


class TestUponEcho:
    def _feed_echoes(self, session, ctx, f, c, senders, me):
        for m in senders:
            session.handle(m, EchoMsg(SID, c, f.evaluate(m, me)), ctx)

    def test_echo_threshold_triggers_ready_with_interpolated_points(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        # ceil((7+2+1)/2) = 5 echoes needed
        self._feed_echoes(session, ctx, f, c, [1, 3, 4, 5], 2)
        assert ctx.sent_of_kind("vss.ready") == []
        self._feed_echoes(session, ctx, f, c, [6], 2)
        readies = ctx.sent_of_kind("vss.ready")
        assert len(readies) == 7
        for j, msg in readies:
            assert msg.point == f.evaluate(2, j)  # a(j) from interpolation

    def test_invalid_echo_point_not_counted(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        self._feed_echoes(session, ctx, f, c, [1, 3, 4, 5], 2)
        session.handle(6, EchoMsg(SID, c, 12345), ctx)  # garbage point
        assert ctx.sent_of_kind("vss.ready") == []

    def test_duplicate_echo_from_same_sender_not_counted(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        self._feed_echoes(session, ctx, f, c, [1, 3, 4, 5], 2)
        self._feed_echoes(session, ctx, f, c, [5], 2)  # repeat
        assert ctx.sent_of_kind("vss.ready") == []

    def test_echoes_for_different_commitments_tracked_separately(self) -> None:
        session, ctx = _session(me=2)
        f1, c1 = _dealing(seed=1)
        f2, c2 = _dealing(seed=2)
        self._feed_echoes(session, ctx, f1, c1, [1, 3, 4], 2)
        self._feed_echoes(session, ctx, f2, c2, [5, 6], 2)
        assert ctx.sent_of_kind("vss.ready") == []  # neither reaches 5


class TestUponReady:
    def _ready(self, session, ctx, f, c, m, me):
        session.handle(m, ReadyMsg(SID, c, f.evaluate(m, me), None), ctx)

    def test_t_plus_one_readies_amplify_without_echo_quorum(self) -> None:
        session, ctx = _session(me=2)
        f, c = _dealing()
        self._ready(session, ctx, f, c, 1, 2)
        self._ready(session, ctx, f, c, 3, 2)
        assert ctx.sent_of_kind("vss.ready") == []
        self._ready(session, ctx, f, c, 4, 2)  # t+1 = 3rd ready
        assert len(ctx.sent_of_kind("vss.ready")) == 7

    def test_output_at_n_minus_t_minus_f_readies(self) -> None:
        outputs = []
        session, ctx = _session(me=2, on_shared=outputs.append)
        f, c = _dealing(secret=42)
        for m in [1, 3, 4, 5, 6]:  # n-t-f = 5 readies
            self._ready(session, ctx, f, c, m, 2)
        assert len(outputs) == 1
        out = outputs[0]
        assert out.share == f.evaluate(2, 0)
        assert out.commitment == c
        assert session.completed is out

    def test_no_double_output(self) -> None:
        outputs = []
        session, ctx = _session(me=2, on_shared=outputs.append)
        f, c = _dealing()
        for m in [1, 3, 4, 5, 6, 7]:  # one beyond threshold
            self._ready(session, ctx, f, c, m, 2)
        assert len(outputs) == 1

    def test_share_lies_on_secret_polynomial(self) -> None:
        outputs = []
        session, ctx = _session(me=2, on_shared=outputs.append)
        f, c = _dealing(secret=1234)
        for m in [1, 3, 4, 5, 6]:
            self._ready(session, ctx, f, c, m, 2)
        assert c.verify_share(2, outputs[0].share)


class TestDealerClause:
    def test_start_dealing_sends_rows_to_everyone(self) -> None:
        session, ctx = _session(me=1)
        poly = session.start_dealing(42, ctx)
        sends = ctx.sent_of_kind("vss.send")
        assert len(sends) == 7
        assert poly.secret == 42
        assert poly.is_symmetric()
        for j, msg in sends:
            assert msg.poly.coeffs == poly.row_polynomial(j).coeffs
            assert msg.commitment.verify_poly(j, msg.poly)

    def test_non_dealer_cannot_deal(self) -> None:
        session, ctx = _session(me=2)
        with pytest.raises(RuntimeError, match="dealer"):
            session.start_dealing(42, ctx)

    def test_erase_dealt_polynomials(self) -> None:
        session, ctx = _session(me=1)
        session.start_dealing(42, ctx)
        session.erase_dealt_polynomials()
        ctx.clear()
        session.start_recovery(ctx)
        resent = ctx.sent_of_kind("vss.send")
        assert resent and all(msg.poly is None for _, msg in resent)


class TestHelpClause:
    def test_help_triggers_b_log_replay_within_budget(self) -> None:
        session, ctx = _session(me=1)
        session.start_dealing(42, ctx)
        ctx.clear()
        session.handle(3, HelpMsg(SID), ctx)
        # B_3 holds exactly the one send addressed to node 3
        assert len(ctx.sent) == 1
        assert ctx.sent[0][0] == 3

    def test_per_node_help_budget(self) -> None:
        cfg = VssConfig(n=7, t=2, f=0, group=G, d_budget=2)
        session = VssSession(cfg, 1, SID, on_shared=lambda o: None)
        ctx = StubContext(node_id=1)
        session.start_dealing(42, ctx)
        ctx.clear()
        for _ in range(5):
            session.handle(3, HelpMsg(SID), ctx)
        # only d(kappa) = 2 responses
        assert len(ctx.sent) == 2

    def test_total_help_budget(self) -> None:
        cfg = VssConfig(n=7, t=2, f=0, group=G, d_budget=1)
        session = VssSession(cfg, 1, SID, on_shared=lambda o: None)
        ctx = StubContext(node_id=1)
        session.start_dealing(42, ctx)
        ctx.clear()
        # total budget = (t+1) d = 3
        for sender in (2, 3, 4, 5, 6):
            session.handle(sender, HelpMsg(SID), ctx)
        assert len(ctx.sent) == 3


class TestRecClause:
    def _completed_session(self, me: int = 2, secret: int = 42):
        outputs = []
        session, ctx = _session(me=me, on_shared=outputs.append)
        f, c = _dealing(secret=secret, seed=9)
        for m in [1, 3, 4, 5, 6]:
            session.handle(m, ReadyMsg(SID, c, f.evaluate(m, me), None), ctx)
        assert session.completed
        return session, ctx, f, c

    def test_reconstruct_before_completion_rejected(self) -> None:
        session, ctx = _session(me=2)
        with pytest.raises(RuntimeError, match="before Sh completes"):
            session.start_reconstruction(ctx)

    def test_rec_broadcasts_share_and_combines(self) -> None:
        session, ctx, f, c = self._completed_session()
        ctx.clear()
        session.start_reconstruction(ctx)
        assert len(ctx.sent_of_kind("vss.rec-share")) == 7
        # feed t+1 = 3 valid shares (own share message loops back too,
        # but feed explicit ones)
        done = []
        session.on_reconstructed = done.append
        for m in (1, 3, 4):
            session.handle(m, SharePointMsg(SID, f.evaluate(m, 0)), ctx)
        assert session.reconstructed is not None
        assert session.reconstructed.value == 42

    def test_rec_filters_bad_shares(self) -> None:
        session, ctx, f, c = self._completed_session()
        session.start_reconstruction(ctx)
        session.handle(1, SharePointMsg(SID, 999), ctx)  # invalid
        for m in (3, 4):
            session.handle(m, SharePointMsg(SID, f.evaluate(m, 0)), ctx)
        assert session.reconstructed is None  # only 2 valid so far
        session.handle(5, SharePointMsg(SID, f.evaluate(5, 0)), ctx)
        assert session.reconstructed.value == 42
