"""Echo/ready points checked against the row the session already holds.

Once the dealer's row ``a(y) = f(i, y)`` has passed ``verify-poly``
against a symmetric ``C``, ``verify-point(C, i, m, alpha)`` is evaluated
in the field (``alpha == a(m) mod q``).  These tests pin that the field
path admits exactly what the group batch admits, that a session with no
verified row for a commitment still takes the group path, and that a
row never vouches for any commitment but its own.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.hashing import commitment_digest
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.vss.config import VssConfig
from repro.vss.messages import (
    EchoMsg,
    ReadyMsg,
    SendMsg,
    SessionId,
    ready_signing_bytes,
)
from repro.vss.session import VssSession

from tests.helpers import StubContext, default_test_group

G = default_test_group()
CFG = VssConfig(n=7, t=2, f=0, group=G)
SID = SessionId(1, 0)
ME = 2


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(21)
    ca = CertificateAuthority(G)
    stores = {i: KeyStore.enroll(i, ca, rng) for i in CFG.indices}
    return ca, stores, rng


@pytest.fixture()
def group_batches(monkeypatch) -> list[list[tuple[int, int]]]:
    """Every claim list handed to the group batch, in call order."""
    batches: list[list[tuple[int, int]]] = []
    batch_verify = FeldmanVector.batch_verify

    def recording(self, items, rng=None):
        batches.append(list(items))
        return batch_verify(self, items, rng=rng)

    monkeypatch.setattr(FeldmanVector, "batch_verify", recording)
    return batches


def _dealing(seed: int = 0, symmetric: bool = True):
    make = (
        BivariatePolynomial.random_symmetric
        if symmetric
        else BivariatePolynomial.random_general
    )
    f = make(CFG.t, G.q, random.Random(seed), secret=42)
    return f, FeldmanCommitment.commit(f, G)


def _session(pki=None, outputs=None):
    """A session for ``ME``; extended mode (signed readies) with a PKI."""
    outputs = outputs if outputs is not None else []
    extra = {}
    if pki is not None:
        ca, stores, _ = pki
        extra = {"keystore": stores[ME], "ca": ca, "sign_ready": True}
    session = VssSession(CFG, ME, SID, on_shared=outputs.append, **extra)
    return session, StubContext(node_id=ME, n_nodes=CFG.n)


def _send(session, ctx, f, c) -> None:
    session.handle(SID.dealer, SendMsg(SID, c, f.row_polynomial(ME)), ctx)


def _ready(pki, sender, c, point) -> ReadyMsg:
    signature = None
    if pki is not None:
        _, stores, rng = pki
        payload = ready_signing_bytes(SID, commitment_digest(c))
        signature = stores[sender].sign(payload, rng)
    return ReadyMsg(SID, c, point, signature)


def _snapshot(session, c):
    state = session._per_c[c]
    return (
        dict(state.points),
        state.echo_count,
        state.ready_count,
        dict(state.ready_witnesses),
        state.sent_ready,
    )


def _non_echo(ctx):
    return [(r, m) for r, m in ctx.sent if m.kind != "vss.echo"]


class TestDifferential:
    """The field path and ``column_vector(i).batch_verify`` admit the
    same items, and the two sessions end in the same state."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_waves_admitted_identically(self, seed, pki, group_batches) -> None:
        rng = random.Random(seed)
        f, c = _dealing(seed)
        q = G.q

        def wave():
            """One point per sender (shuffled), a third of them wrong:
            off by one, or off by one and lifted above q; correct
            points are sometimes lifted above q too."""
            out = []
            for m in rng.sample(list(CFG.indices), CFG.n):
                point = f.evaluate(m, ME)
                kind = rng.choice(["good", "good", "good+q", "off", "off+q"])
                if kind.startswith("off"):
                    point = (point + 1) % q
                if kind.endswith("+q"):
                    point += q
                out.append((m, point))
            # A second message from an already-heard sender is ignored.
            out.insert(rng.randrange(2, len(out)), (out[0][0], out[1][1]))
            return out

        echoes, readies = wave(), wave()
        ready_msgs = [_ready(pki, m, c, point) for m, point in readies]

        held, held_ctx = _session(pki)
        blind, blind_ctx = _session(pki)
        _send(held, held_ctx, f, c)
        for session, ctx in ((held, held_ctx), (blind, blind_ctx)):
            for m, point in echoes:
                session.handle(m, EchoMsg(SID, c, point), ctx)
            for (m, _), msg in zip(readies, ready_msgs):
                session.handle(m, msg, ctx)

        # The blind session verified in the group, the other never did.
        assert group_batches
        assert held._per_c[c].point_verifier is None
        assert _snapshot(held, c) == _snapshot(blind, c)
        # Same salt draws from the session rng, so even the ready
        # signature (whose nonce comes from that rng) is the same.
        assert _non_echo(held_ctx) == _non_echo(blind_ctx)
        assert (held.completed is None) == (blind.completed is None)

        # Item for item: what the group batch admitted from each flush
        # is what the row admits.
        row = f.row_polynomial(ME)
        verifier = c.column_vector(ME)
        calls = list(group_batches)
        for items in calls:
            good, _bad = verifier.batch_verify(items)
            assert good == [(m, a) for m, a in items if row(m) == a % q]

    def test_honest_run_never_touches_the_group_for_points(self, group_batches) -> None:
        f, c = _dealing()
        outputs = []
        session, ctx = _session(outputs=outputs)
        _send(session, ctx, f, c)
        for m in CFG.indices:
            session.handle(m, EchoMsg(SID, c, f.evaluate(m, ME)), ctx)
        for m in CFG.indices:
            session.handle(m, _ready(None, m, c, f.evaluate(m, ME)), ctx)
        assert outputs and outputs[0].share == f.evaluate(ME, 0)
        assert group_batches == []


class TestFallBack:
    """No verified row for C: the group batch is the one path."""

    def _complete(self, session, ctx, f, c) -> None:
        for m in CFG.indices:
            session.handle(m, EchoMsg(SID, c, f.evaluate(m, ME)), ctx)
        for m in CFG.indices:
            session.handle(m, _ready(None, m, c, f.evaluate(m, ME)), ctx)

    def test_send_withheld(self, group_batches) -> None:
        f, c = _dealing()
        outputs = []
        session, ctx = _session(outputs=outputs)
        self._complete(session, ctx, f, c)
        assert outputs and outputs[0].share == f.evaluate(ME, 0)
        assert session._per_c[c].verified_row is None
        assert len(group_batches) >= 2  # the echo flush and a ready flush

    def test_send_arrives_after_the_echo_threshold(self, group_batches) -> None:
        f, c = _dealing()
        outputs = []
        session, ctx = _session(outputs=outputs)
        for m in list(CFG.indices)[: CFG.echo_threshold]:
            session.handle(m, EchoMsg(SID, c, f.evaluate(m, ME)), ctx)
        assert len(group_batches) == 1  # flushed before any row was held
        assert ctx.sent_of_kind("vss.ready")
        _send(session, ctx, f, c)
        for m in CFG.indices:
            session.handle(m, _ready(None, m, c, f.evaluate(m, ME)), ctx)
        assert outputs and outputs[0].share == f.evaluate(ME, 0)

    def test_asymmetric_commitment(self, group_batches) -> None:
        f, c = _dealing(symmetric=False)
        assert not c._is_symmetric()
        outputs = []
        session, ctx = _session(outputs=outputs)
        _send(session, ctx, f, c)
        assert len(ctx.sent_of_kind("vss.echo")) == CFG.n  # verify-poly holds
        assert all(s.verified_row is None for s in session._per_c.values())
        self._complete(session, ctx, f, c)
        assert outputs
        assert len(group_batches) >= 2


class TestNoCrossTalk:
    def test_row_for_c_is_not_used_for_another_commitment(self, group_batches) -> None:
        f, c = _dealing(seed=1)
        other_f, other_c = _dealing(seed=2)
        session, ctx = _session()
        _send(session, ctx, f, c)
        ctx.clear()
        # Two points that lie on the held row, claimed for the *other*
        # C, then that commitment's own points.
        for m in CFG.indices:
            source = f if m <= 2 else other_f
            session.handle(m, EchoMsg(SID, other_c, source.evaluate(m, ME)), ctx)
        state = session._per_c[other_c]
        assert state.verified_row is None
        assert len(group_batches) == 2  # judged in the group, against other_c
        assert sorted(state.points) == [3, 4, 5, 6, 7]
        readies = ctx.sent_of_kind("vss.ready")
        assert len(readies) == CFG.n
        assert all(
            msg.commitment == other_c and msg.point == other_f.evaluate(ME, j)
            for j, msg in readies
        )

    def test_rejected_send_records_no_row(self) -> None:
        f, c = _dealing()
        session, ctx = _session()
        session.handle(SID.dealer, SendMsg(SID, c, f.row_polynomial(3)), ctx)
        assert ctx.sent == []
        assert all(s.verified_row is None for s in session._per_c.values())

    def test_send_for_the_wrong_secret_records_no_row(self) -> None:
        f, c = _dealing()
        session, ctx = _session()
        session.expected_secret_commitment = G.commit(999)
        _send(session, ctx, f, c)
        assert ctx.sent == []
        assert all(s.verified_row is None for s in session._per_c.values())


class TestByzantinePoint:
    def test_wrong_point_dropped_and_its_witness_not_promoted(
        self, pki, group_batches
    ) -> None:
        f, c = _dealing()
        outputs = []
        session, ctx = _session(pki, outputs)
        _send(session, ctx, f, c)
        liar = 3  # inside the first flushed wave
        for m in CFG.indices:
            point = f.evaluate(m, ME)
            if m == liar:
                point = (point + 1) % G.q  # validly signed, wrong point
            session.handle(m, _ready(pki, m, c, point), ctx)
        state = session._per_c[c]
        assert group_batches == []
        assert liar not in state.points
        assert liar not in state.ready_witnesses
        assert state.ready_count == CFG.output_threshold
        assert outputs
        assert liar not in {w.signer for w in outputs[0].ready_proof}
