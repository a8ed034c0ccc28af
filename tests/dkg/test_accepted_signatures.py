"""A node verifies a signature it has already accepted only once.

``AcceptedSignatures`` sits between one ``DkgNode`` and the CA.  These
tests count calls at ``CertificateAuthority.verify`` — the same place
the benchmark counts them — to pin what is a hit (the byte-identical
triple under the same certified key, or the node's own signature), what
must stay a miss, that nothing is shared between nodes, and that a
signed ready costs nothing until a certificate quoting it is checked —
never, when the certificate is for a sharing the node has completed.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.hashing import commitment_digest
from repro.dkg.config import DkgConfig
from repro.dkg.messages import DkgSendMsg, ReadyCert, RTypeProof
from repro.dkg.node import DkgNode
from repro.dkg.proofs import verify_proof
from repro.sim.pki import AcceptedSignatures, CertificateAuthority, KeyStore
from repro.vss.messages import (
    ReadyMsg,
    ReadyWitness,
    SessionId,
    ready_signing_bytes,
)

from tests.helpers import StubContext, default_test_group

G = default_test_group()
N, T = 7, 2
CONFIG = DkgConfig(n=N, t=T, group=G)


@pytest.fixture()
def world(monkeypatch):
    """A CA whose ``verify`` calls are listed, and everyone's keystore."""
    rng = random.Random(31)
    ca = CertificateAuthority(G)
    stores = {i: KeyStore.enroll(i, ca, rng) for i in range(1, N + 1)}
    calls: list[tuple[int, bytes]] = []
    verify = CertificateAuthority.verify

    def counting(self, node, message, sig):
        calls.append((node, message))
        return verify(self, node, message, sig)

    monkeypatch.setattr(CertificateAuthority, "verify", counting)
    return ca, stores, rng, calls


def _dealing(dealer: int):
    f = BivariatePolynomial.random_symmetric(
        T, G.q, random.Random(500 + dealer), secret=dealer
    )
    return f, FeldmanCommitment.commit(f, G)


def _proposal(stores, rng, dealers=(1, 3, 4), signers=(3, 4, 5, 6, 7), me=2):
    """An R-type proposal: one certificate of n-t-f signed readies per
    dealer; also those signed readies as ``me`` receives them."""
    certs, readies = [], {}
    for dealer in dealers:
        f, c = _dealing(dealer)
        sid = SessionId(dealer, 0)
        digest = commitment_digest(c)
        payload = ready_signing_bytes(sid, digest)
        sigs = {m: stores[m].sign(payload, rng) for m in signers}
        certs.append(
            ReadyCert(dealer, digest, tuple(ReadyWitness(m, sigs[m]) for m in signers))
        )
        readies[dealer] = [
            (m, ReadyMsg(sid, c, f.evaluate(m, me), sigs[m], 50)) for m in signers
        ]
    return RTypeProof(tuple(certs)), readies


class TestHitsAndMisses:
    def test_second_check_of_an_accepted_triple_is_free(self, world) -> None:
        ca, stores, rng, calls = world
        memo = AcceptedSignatures(stores[2], ca)
        sig = stores[5].sign(b"payload", rng)
        assert memo.verify(5, b"payload", sig)
        assert memo.verify(5, b"payload", sig)
        assert calls == [(5, b"payload")]

    def test_own_signature_is_accepted_without_a_check(self, world) -> None:
        ca, stores, rng, calls = world
        memo = AcceptedSignatures(stores[2], ca)
        sig = memo.sign(b"mine", rng)
        assert ca.verify(2, b"mine", sig)  # it is a real signature
        calls.clear()
        assert memo.verify(2, b"mine", sig)
        assert calls == []
        # Only that triple: the same bytes claimed for someone else, or
        # the same signature under another payload, still reach the CA.
        assert not memo.verify(3, b"mine", sig)
        assert not memo.verify(2, b"other", sig)
        assert len(calls) == 2

    def test_failures_are_not_remembered(self, world) -> None:
        ca, stores, rng, calls = world
        memo = AcceptedSignatures(stores[2], ca)
        sig = stores[5].sign(b"payload", rng)
        tampered = dataclasses.replace(sig, response=(sig.response + 1) % G.q)
        for _ in range(2):
            assert not memo.verify(5, b"payload", tampered)
            assert not memo.verify(5, b"another payload", sig)
            assert not memo.verify(6, b"payload", sig)
        assert len(calls) == 6
        # ...and a failure does not shadow the valid triple either.
        assert memo.verify(5, b"payload", sig)
        assert len(calls) == 7

    def test_rotated_key_does_not_resurrect_a_verdict(self, world) -> None:
        ca, stores, rng, calls = world
        memo = AcceptedSignatures(stores[2], ca)
        sig = stores[5].sign(b"payload", rng)
        assert memo.verify(5, b"payload", sig)
        stores[5].rotate(rng)
        calls.clear()
        assert not memo.verify(5, b"payload", sig)
        assert calls == [(5, b"payload")]
        fresh = stores[5].sign(b"payload", rng)
        assert memo.verify(5, b"payload", fresh)

    def test_revoked_certificate_does_not_resurrect_a_verdict(self, world) -> None:
        ca, stores, rng, calls = world
        memo = AcceptedSignatures(stores[2], ca)
        sig = stores[5].sign(b"payload", rng)
        own = memo.sign(b"mine", rng)
        assert memo.verify(5, b"payload", sig)
        ca.revoke(5)
        ca.revoke(2)
        calls.clear()
        assert not memo.verify(5, b"payload", sig)
        assert not memo.verify(2, b"mine", own)
        assert len(calls) == 2


class TestPerNode:
    def test_two_nodes_in_one_process_never_share_verdicts(self, world) -> None:
        ca, stores, rng, calls = world
        first = DkgNode(2, CONFIG, stores[2], ca)
        second = DkgNode(3, CONFIG, stores[3], ca)
        assert first.signatures is not second.signatures
        sig = stores[5].sign(b"payload", rng)
        assert first.signatures.verify(5, b"payload", sig)
        assert second.signatures.verify(5, b"payload", sig)
        assert len(calls) == 2  # the second node did its own work
        assert first.signatures.verify(5, b"payload", sig)
        assert second.signatures.verify(5, b"payload", sig)
        assert len(calls) == 2

    def test_sessions_and_proofs_share_the_nodes_memo(self, world) -> None:
        ca, stores, _rng, _calls = world
        node = DkgNode(2, CONFIG, stores[2], ca)
        assert all(s.ca is node.signatures for s in node.sessions.values())
        assert all(s.keystore is node.signatures for s in node.sessions.values())


class TestProposals:
    def test_unseen_certificates_cost_what_they_always_did(self, world) -> None:
        ca, stores, rng, calls = world
        proof, _ = _proposal(stores, rng)
        assert verify_proof(CONFIG.vss(), ca, 0, proof)  # the bare CA
        bare = len(calls)
        assert bare == 3 * 5  # t+1 certificates x n-t-f witnesses

        calls.clear()
        node = DkgNode(2, CONFIG, stores[2], ca)
        ctx = StubContext(node_id=2, n_nodes=N)
        node.on_message(1, DkgSendMsg(0, 0, proof), ctx)
        assert len(ctx.sent_of_kind("dkg.echo")) == N  # proposal accepted
        assert len(calls) == bare

    def test_certificates_accepted_on_arrival_cost_nothing(self, world) -> None:
        ca, stores, rng, calls = world
        proof, readies = _proposal(stores, rng)
        node = DkgNode(2, CONFIG, stores[2], ca)
        ctx = StubContext(node_id=2, n_nodes=N)
        for dealer, msgs in readies.items():
            for sender, ready in msgs:
                node.on_message(sender, ready, ctx)
            assert node.sessions[dealer].completed is not None
        assert calls == []  # a signed ready is not checked on arrival
        node.on_message(1, DkgSendMsg(0, 0, proof), ctx)
        assert len(ctx.sent_of_kind("dkg.echo")) == N
        # The node completed all three dealers with the commitments the
        # certificates name: the completion is the evidence, and no
        # certificate signature is checked.
        assert calls == []
        # The same proposal at a node that completed none of them is
        # checked in full: t+1 certificates x n-t-f witnesses.
        fresh = DkgNode(2, CONFIG, stores[2], ca)
        fresh_ctx = StubContext(node_id=2, n_nodes=N)
        fresh.on_message(1, DkgSendMsg(0, 0, proof), fresh_ctx)
        assert len(fresh_ctx.sent_of_kind("dkg.echo")) == N
        assert len(calls) == 3 * 5
        assert {node for node, _ in calls} == {3, 4, 5, 6, 7}
