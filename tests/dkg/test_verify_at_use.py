"""A signature is checked where it becomes evidence, and a bad one never
leaves an honest node.

Signed VSS readies and DKG echo/ready votes are recorded unchecked; the
node verifies them when it builds an R_d certificate to ship or an M
to lock on.  Each test forges signatures at the position that matters
— among the first n - t - f readies of a dealer, at the vote that
crosses a quorum — and judges what the node then ships with a bare
``CertificateAuthority``, not through the node's accepted set.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import group_by_name
from repro.crypto.hashing import commitment_digest
from repro.dkg.config import DkgConfig
from repro.dkg.messages import (
    DkgEchoMsg,
    DkgReadyMsg,
    DkgSendMsg,
    LeadChMsg,
    RTypeProof,
    dkg_echo_bytes,
    dkg_ready_bytes,
)
from repro.dkg.node import DkgNode
from repro.dkg.proofs import verify_m_proof, verify_proof, verify_r_proof
from repro.dkg.runner import run_dkg
from repro.sim.adversary import Adversary
from repro.sim.clock import TimeoutPolicy
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.scenarios import leader_assassination
from repro.vss.messages import ReadyMsg, SessionId, ready_signing_bytes

from tests.helpers import StubContext, default_test_group

G = default_test_group()
N, T = 7, 2
CONFIG = DkgConfig(n=N, t=T, group=G, timeout=TimeoutPolicy(initial=30.0))
VSS = CONFIG.vss()


def _forged(sig):
    return dataclasses.replace(sig, response=(sig.response + 1) % G.q)


@pytest.fixture()
def world():
    rng = random.Random(91)
    ca = CertificateAuthority(G)
    stores = {i: KeyStore.enroll(i, ca, rng) for i in range(1, N + 1)}
    return ca, stores, rng


def _ready(stores, rng, dealer, sender, me, forged=False):
    f = BivariatePolynomial.random_symmetric(
        T, G.q, random.Random(700 + dealer), secret=dealer
    )
    c = FeldmanCommitment.commit(f, G)
    sid = SessionId(dealer, 0)
    sig = stores[sender].sign(ready_signing_bytes(sid, commitment_digest(c)), rng)
    sig = _forged(sig) if forged else sig
    return ReadyMsg(sid, c, f.evaluate(sender, me), sig, 50)


def _proofs(ctx, kind):
    return [msg.proof for _, msg in ctx.sent_of_kind(kind)]


class ShipsCertificatesUnverified(DkgNode):
    """Planted bug: a leader that ships its VSS outputs' witnesses as
    they came, the way a node that checked readies on arrival could."""

    def _certificate(self, dealer):
        return self.q_hat[dealer]


def _leader_with_forged_witnesses(world, node_cls):
    """Leader 1 completes dealers 3 and 4 with valid readies and dealer
    5 with t forged witnesses among its first n - t - f readies, then
    receives dealer 5's two late readies.  Returns the proposals sent
    before the late readies and after."""
    ca, stores, rng = world
    leader = node_cls(1, CONFIG, stores[1], ca)
    ctx = StubContext(node_id=1, n_nodes=N)
    for dealer in (3, 4):
        for sender in (2, 3, 4, 5, 6):
            leader.on_message(sender, _ready(stores, rng, dealer, sender, 1), ctx)
    for sender in (2, 3, 4, 5, 6):
        ready = _ready(stores, rng, 5, sender, 1, forged=sender in (3, 5))
        leader.on_message(sender, ready, ctx)
    assert leader.sessions[5].completed is not None
    early = _proofs(ctx, "dkg.send")
    leader.on_message(7, _ready(stores, rng, 5, 7, 1), ctx)
    assert _proofs(ctx, "dkg.send") == early  # four valid: still short
    # The leader's own ready for dealer 5, delivered back to it.
    own = next(
        msg
        for to, msg in ctx.sent_of_kind("vss.ready")
        if to == 1 and msg.session.dealer == 5
    )
    leader.on_message(1, own, ctx)
    return early, _proofs(ctx, "dkg.send")[len(early) :]


class TestLeaderCertificates:
    def test_short_certificate_waits_for_late_witnesses(self, world) -> None:
        ca, _, _ = world
        early, late = _leader_with_forged_witnesses(world, DkgNode)
        assert early == []
        assert len(late) == N
        proof = late[0]
        assert isinstance(proof, RTypeProof) and proof.q_set == (3, 4, 5)
        assert verify_r_proof(VSS, ca, 0, proof)
        cert = next(c for c in proof.certs if c.dealer == 5)
        assert {w.signer for w in cert.witnesses} == {1, 2, 4, 6, 7}

    def test_planted_unverified_leader_fails_the_same_check(self, world) -> None:
        ca, _, _ = world
        planted = ShipsCertificatesUnverified
        early, _ = _leader_with_forged_witnesses(world, planted)
        assert early, "the planted leader proposes before the late readies"
        assert not verify_r_proof(VSS, ca, 0, early[0])


def _echo(stores, rng, voter, q, forged=False):
    sig = stores[voter].sign(dkg_echo_bytes(0, q), rng)
    return DkgEchoMsg(0, 0, q, _forged(sig) if forged else sig, 50)


def _dkg_ready(stores, rng, voter, q, forged=False):
    sig = stores[voter].sign(dkg_ready_bytes(0, q), rng)
    return DkgReadyMsg(0, 0, q, _forged(sig) if forged else sig, 50)


class TestLockProofs:
    Q = (3, 4, 5)

    def test_forged_echo_at_the_quorum_delays_the_lock(self, world) -> None:
        ca, stores, rng = world
        node = DkgNode(2, CONFIG, stores[2], ca)
        ctx = StubContext(node_id=2, n_nodes=N)
        for voter in (1, 3, 4, 5):
            node.on_message(voter, _echo(stores, rng, voter, self.Q), ctx)
        assert VSS.echo_threshold == 5
        node.on_message(6, _echo(stores, rng, 6, self.Q, forged=True), ctx)
        assert node.locked_q is None
        assert ctx.sent_of_kind("dkg.ready") == []
        assert 6 not in node.echo_votes[self.Q]  # evicted and forgotten
        node.on_message(7, _echo(stores, rng, 7, self.Q), ctx)
        assert node.locked_q == self.Q
        assert len(ctx.sent_of_kind("dkg.ready")) == N
        proof = node.locked_proof
        assert {v.voter for v in proof.votes} == {1, 3, 4, 5, 7}
        assert verify_m_proof(VSS, ca, 0, proof)

    def test_forged_ready_at_the_amplify_quorum_delays_the_lock(
        self, world
    ) -> None:
        ca, stores, rng = world
        node = DkgNode(2, CONFIG, stores[2], ca)
        ctx = StubContext(node_id=2, n_nodes=N)
        for voter in (1, 3):
            node.on_message(voter, _dkg_ready(stores, rng, voter, self.Q), ctx)
        assert VSS.ready_threshold == 3
        node.on_message(4, _dkg_ready(stores, rng, 4, self.Q, forged=True), ctx)
        assert node.locked_q is None
        assert ctx.sent_of_kind("dkg.ready") == []
        node.on_message(5, _dkg_ready(stores, rng, 5, self.Q), ctx)
        assert node.locked_q == self.Q
        assert len(ctx.sent_of_kind("dkg.ready")) == N
        proof = node.locked_proof
        assert {v.voter for v in proof.votes} == {1, 3, 5}
        assert verify_m_proof(VSS, ca, 0, proof)


class TestNothingBadLeaves:
    def test_honest_proofs_verify_with_forging_and_silent_peers(self) -> None:
        """Leader 1 is silent and node 6 signs everything wrongly, so the
        run goes through a leader change; every proposal and lead-ch
        proof an honest node sends verifies against the bare CA."""
        shipped: list = []

        class Recorded(DkgNode):
            def _log_and_broadcast(self, ctx, msg):
                if isinstance(msg, (DkgSendMsg, LeadChMsg)):
                    shipped.append(msg)
                super()._log_and_broadcast(ctx, msg)

        class ForgesEverySignature(DkgNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sign = self.signatures.sign
                self.signatures.sign = lambda message, rng: _forged(sign(message, rng))

        class Silent(DkgNode):
            def on_message(self, sender, payload, ctx):
                pass

            def on_operator(self, payload, ctx):
                pass

        def factory(i, config, keystore, ca):
            cls = {1: Silent, 6: ForgesEverySignature}.get(i, Recorded)
            return cls(i, config, keystore, ca)

        adversary = Adversary.corrupting(t=T, f=0, byzantine={1, 6})
        res = run_dkg(CONFIG, seed=21, adversary=adversary, node_factory=factory)
        assert res.succeeded
        assert res.metrics.leader_changes > 0
        proofs = [msg.proof for msg in shipped if msg.proof is not None]
        assert any(isinstance(p, RTypeProof) for p in proofs)
        for proof in proofs:
            assert verify_proof(VSS, res.ca, 0, proof)


@pytest.mark.parametrize(
    ("seed", "q_set", "messages", "verifications"),
    [(11, (6, 8, 10), 2730, 555), (12, (3, 5, 10), 2751, 493)],
)
def test_leader_change_costs_are_pinned(
    monkeypatch, seed, q_set, messages, verifications
) -> None:
    """The lead-ch path does not get worse: with the view-0 leader
    crashed (n=10, t=2, f=1, secp256k1), checking at use decides the
    same Q with the same messages as checking on arrival did, and
    makes 555 and 493 signature checks where it made 933 and 934."""
    calls = []
    verify = CertificateAuthority.verify

    def counting(self, node, message, sig):
        calls.append(node)
        return verify(self, node, message, sig)

    monkeypatch.setattr(CertificateAuthority, "verify", counting)
    spec = leader_assassination(2, 1, leaders=[1], timeout=30.0)
    config = DkgConfig(n=10, t=2, f=1, group=group_by_name("secp256k1"))
    res = run_dkg(config, seed=seed, adversary=spec.adversary)
    assert res.succeeded
    assert res.metrics.leader_changes > 0
    assert res.q_set == q_set
    assert res.metrics.messages_total == messages
    assert len(calls) == verifications
