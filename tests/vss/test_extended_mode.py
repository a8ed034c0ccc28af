"""Unit tests for extended-HybridVSS (§4): signed ready messages and
the R_d certificate sets the DKG leader builds proposals from."""

from __future__ import annotations

import random

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.hashing import commitment_digest
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.vss.config import VssConfig
from repro.vss.messages import ReadyMsg, SessionId, ready_signing_bytes
from repro.vss.session import VssSession

from tests.helpers import StubContext, default_test_group

G = default_test_group()
CFG = VssConfig(n=7, t=2, f=0, group=G)
SID = SessionId(1, 0)


@pytest.fixture()
def world():
    rng = random.Random(13)
    ca = CertificateAuthority(G)
    stores = {i: KeyStore.enroll(i, ca, rng) for i in range(1, 8)}
    return ca, stores, rng


def _extended_session(ca, stores, me=2, outputs=None):
    outputs = outputs if outputs is not None else []
    session = VssSession(
        CFG, me, SID,
        on_shared=outputs.append,
        keystore=stores[me], ca=ca, sign_ready=True,
    )
    return session, outputs, StubContext(node_id=me, n_nodes=7)


def _dealing(secret=42, seed=0):
    f = BivariatePolynomial.random_symmetric(
        CFG.t, G.q, random.Random(seed), secret=secret
    )
    return f, FeldmanCommitment.commit(f, G)


def _signed_ready(stores, rng, sender, me, f, c):
    payload = ready_signing_bytes(SID, commitment_digest(c))
    sig = stores[sender].sign(payload, rng)
    return ReadyMsg(SID, c, f.evaluate(sender, me), sig)


class TestExtendedMode:
    def test_requires_keystore_and_ca(self) -> None:
        with pytest.raises(ValueError, match="keystore"):
            VssSession(CFG, 2, SID, on_shared=lambda o: None, sign_ready=True)

    def test_own_readies_are_signed(self, world) -> None:
        ca, stores, rng = world
        session, _, ctx = _extended_session(ca, stores)
        f, c = _dealing()
        # drive to the ready-amplification branch via t+1 signed readies
        for sender in (1, 3, 4):
            session.handle(sender, _signed_ready(stores, rng, sender, 2, f, c), ctx)
        readies = ctx.sent_of_kind("vss.ready")
        assert len(readies) == 7
        payload = ready_signing_bytes(SID, commitment_digest(c))
        for _, msg in readies:
            assert msg.signature is not None
            assert ca.verify(2, payload, msg.signature)

    def test_unsigned_readies_not_counted(self, world) -> None:
        ca, stores, rng = world
        session, outputs, ctx = _extended_session(ca, stores)
        f, c = _dealing()
        for sender in (1, 3, 4, 5, 6):
            msg = ReadyMsg(SID, c, f.evaluate(sender, 2), None)
            session.handle(sender, msg, ctx)
        assert outputs == []  # nothing counted without signatures

    def test_wrong_key_signature_rejected(self, world) -> None:
        ca, stores, rng = world
        session, outputs, ctx = _extended_session(ca, stores)
        f, c = _dealing()
        payload = ready_signing_bytes(SID, commitment_digest(c))
        for sender in (1, 3, 4, 5, 6):
            sig = stores[7].sign(payload, rng)  # always node 7's key
            msg = ReadyMsg(SID, c, f.evaluate(sender, 2), sig)
            session.handle(sender, msg, ctx)
        # The channel vouches for each sender, so the points count; the
        # signatures are evidence only, and none of them verifies.
        assert len(outputs) == 1
        assert session.certificate() is None

        # A DKG node holding such a session never ships R_d for it.
        from repro.dkg.config import DkgConfig
        from repro.dkg.messages import RTypeProof
        from repro.dkg.node import DkgNode

        leader = DkgNode(1, DkgConfig(n=7, t=2, group=G), stores[1], ca)
        lctx = StubContext(node_id=1, n_nodes=7)

        def complete(dealer, key_of):
            f, c = _dealing(secret=dealer, seed=dealer)
            sid = SessionId(dealer, 0)
            payload = ready_signing_bytes(sid, commitment_digest(c))
            for sender in (2, 3, 4, 5, 6):
                sig = stores[key_of(sender)].sign(payload, rng)
                ready = ReadyMsg(sid, c, f.evaluate(sender, 1), sig)
                leader.on_message(sender, ready, lctx)
            assert leader.sessions[dealer].completed is not None

        complete(2, lambda sender: 7)
        complete(3, lambda sender: sender)
        complete(4, lambda sender: sender)
        assert sorted(leader.q_hat) == [2, 3, 4]
        assert lctx.sent_of_kind("dkg.send") == []  # R_2 is short
        complete(5, lambda sender: sender)
        leader.on_timer(("dkg-timeout", 0), lctx)  # and a lead-ch too
        shipped = lctx.sent_of_kind("dkg.send") + lctx.sent_of_kind("dkg.lead-ch")
        assert {type(msg.proof) for _, msg in shipped} == {RTypeProof}
        assert {msg.proof.q_set for _, msg in shipped} == {(3, 4, 5)}

    def test_output_carries_n_t_f_witnesses(self, world) -> None:
        ca, stores, rng = world
        session, outputs, ctx = _extended_session(ca, stores)
        f, c = _dealing(secret=9)
        for sender in (1, 3, 4, 5, 6):  # n - t - f = 5
            session.handle(sender, _signed_ready(stores, rng, sender, 2, f, c), ctx)
        assert len(outputs) == 1
        proof = outputs[0].ready_proof
        assert len(proof) == 5
        payload = ready_signing_bytes(SID, commitment_digest(c))
        assert {w.signer for w in proof} == {1, 3, 4, 5, 6}
        for witness in proof:
            assert ca.verify(witness.signer, payload, witness.signature)

    def test_witnesses_feed_valid_r_certificates(self, world) -> None:
        # The end-to-end contract: a SharedOutput's proof set passes the
        # DKG's ReadyCert verification.
        from repro.dkg.messages import ReadyCert
        from repro.dkg.proofs import verify_ready_cert

        ca, stores, rng = world
        session, outputs, ctx = _extended_session(ca, stores)
        f, c = _dealing()
        for sender in (1, 3, 4, 5, 6):
            session.handle(sender, _signed_ready(stores, rng, sender, 2, f, c), ctx)
        out = outputs[0]
        cert = ReadyCert(1, commitment_digest(out.commitment), out.ready_proof)
        assert verify_ready_cert(CFG, ca, 0, cert)

    def test_ready_size_includes_signature(self, world) -> None:
        # The simulator meters a signed ready at its frame length: the
        # plain ready's plus the signature's two scalars.
        from repro.net.pricing import FramePricer

        ca, stores, rng = world
        f, c = _dealing()
        sent = {}
        for signed in (True, False):
            session, _, ctx = _extended_session(ca, stores)
            session.sign_ready = signed
            for sender in (1, 3, 4):
                msg = _signed_ready(stores, rng, sender, 2, f, c)
                session.handle(sender, msg, ctx)
            sent[signed] = ctx.sent_of_kind("vss.ready")[0][1]
        price = FramePricer(G)
        assert price(sent[True]) == price(sent[False]) + 2 * G.scalar_bytes
