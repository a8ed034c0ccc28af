"""A signature is checked where it becomes evidence, and a bad one never
leaves an honest node.

Signed VSS readies and DKG echo/ready votes are recorded unchecked; the
node verifies them when it builds an R_d certificate to ship or an M
to lock on.  Each test forges signatures at the position that matters
— among the first n - t - f readies of a dealer, at the vote that
crosses a quorum — and judges what the node then ships with a bare
``CertificateAuthority``, not through the node's accepted set.  An
arriving certificate for a sharing the node has completed with the same
commitment is taken on that completion; the tests forge exactly those
certificates, and the ones next to them that must still be checked.
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
    ReadyCert,
    RTypeProof,
    dkg_echo_bytes,
    dkg_ready_bytes,
    lead_ch_bytes,
)
from repro.dkg.node import DkgNode
from repro.dkg.proofs import verify_m_proof, verify_proof, verify_r_proof
from repro.dkg.runner import run_dkg
from repro.sim.adversary import Adversary
from repro.sim.clock import TimeoutPolicy
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.scenarios import leader_assassination
from repro.vss.messages import ReadyMsg, ReadyWitness, SessionId, ready_signing_bytes

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


def _dealing(dealer):
    f = BivariatePolynomial.random_symmetric(
        T, G.q, random.Random(700 + dealer), secret=dealer
    )
    return f, FeldmanCommitment.commit(f, G)


def _ready(stores, rng, dealer, sender, me, forged=False):
    f, c = _dealing(dealer)
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


def _cert(stores, rng, dealer, forged=False, digest=None):
    """An R_d of n - t - f readies for dealer ``dealer``'s dealing (or
    for ``digest``), every witness signature forged if ``forged``."""
    digest = digest or commitment_digest(_dealing(dealer)[1])
    payload = ready_signing_bytes(SessionId(dealer, 0), digest)
    witnesses = []
    for signer in (1, 3, 4, 5, 6):
        sig = stores[signer].sign(payload, rng)
        witnesses.append(ReadyWitness(signer, _forged(sig) if forged else sig))
    return ReadyCert(dealer, digest, tuple(witnesses))


def _proof(stores, rng, cert5):
    """Valid certificates for dealers 3 and 4, and ``cert5``."""
    return RTypeProof((_cert(stores, rng, 3), _cert(stores, rng, 4), cert5))


def _node_that_completed(world, dealers, monkeypatch=None):
    """Node 2, having completed the sharings of ``dealers`` from n - t - f
    valid readies each; with ``monkeypatch``, also the list its
    ``CertificateAuthority.verify`` calls are recorded in from then on."""
    ca, stores, rng = world
    node = DkgNode(2, CONFIG, stores[2], ca)
    ctx = StubContext(node_id=2, n_nodes=N)
    for dealer in dealers:
        for sender in (1, 3, 4, 5, 6):
            node.on_message(sender, _ready(stores, rng, dealer, sender, 2), ctx)
        assert node.sessions[dealer].completed is not None
    calls: list[bytes] = []
    if monkeypatch is not None:
        verify = CertificateAuthority.verify

        def counting(self, signer, message, sig):
            calls.append(message)
            return verify(self, signer, message, sig)

        monkeypatch.setattr(CertificateAuthority, "verify", counting)
    return node, ctx, calls


class TestLocalCompletion:
    """A certificate for a sharing the node has completed with the same
    commitment is taken without a check; every other one is checked."""

    def test_forged_certificate_for_a_completed_sharing_gets_an_echo(
        self, world, monkeypatch
    ) -> None:
        ca, stores, rng = world
        proof = _proof(stores, rng, _cert(stores, rng, 5, forged=True))
        assert not verify_r_proof(VSS, ca, 0, proof)  # forged against the CA
        node, ctx, calls = _node_that_completed(world, (3, 4, 5), monkeypatch)
        node.on_message(1, DkgSendMsg(0, 0, proof), ctx)
        assert len(ctx.sent_of_kind("dkg.echo")) == N
        assert calls == []

    def test_same_proposal_without_the_sharing_gets_no_echo(
        self, world, monkeypatch
    ) -> None:
        _, stores, rng = world
        proof = _proof(stores, rng, _cert(stores, rng, 5, forged=True))
        node, ctx, calls = _node_that_completed(world, (3, 4), monkeypatch)
        node.on_message(1, DkgSendMsg(0, 0, proof), ctx)
        assert ctx.sent_of_kind("dkg.echo") == []
        payload = ready_signing_bytes(SessionId(5, 0), proof.certs[2].digest)
        assert calls == [payload] * 5  # dealer 5's witnesses, all checked

    def test_certificate_with_another_digest_is_checked_and_fails(
        self, world, monkeypatch
    ) -> None:
        _, stores, rng = world
        other = commitment_digest(_dealing(6)[1])
        proof = _proof(stores, rng, _cert(stores, rng, 5, forged=True, digest=other))
        node, ctx, calls = _node_that_completed(world, (3, 4, 5), monkeypatch)
        node.on_message(1, DkgSendMsg(0, 0, proof), ctx)
        assert ctx.sent_of_kind("dkg.echo") == []
        assert calls == [ready_signing_bytes(SessionId(5, 0), other)] * 5

    def test_forged_lead_ch_certificate_for_an_open_sharing_is_not_adopted(
        self, world
    ) -> None:
        _, stores, rng = world
        node, ctx, _ = _node_that_completed(world, (3, 4))

        def lead_ch(sender, cert5):
            proof = _proof(stores, rng, cert5)
            sig = stores[sender].sign(lead_ch_bytes(0, 1), rng)
            node.on_message(sender, LeadChMsg(0, 1, proof, sig), ctx)

        lead_ch(3, _cert(stores, rng, 5, forged=True))
        assert 3 in node.lc_votes[1]  # the vote counts; its evidence does not
        assert 5 not in node.q_hat and not node._adopted
        valid = _cert(stores, rng, 5)
        lead_ch(4, valid)
        assert node._adopted == {5} and node._certificate(5) == valid


@pytest.mark.parametrize(("seed", "decided_in_view_0"), [(19, True), (21, False)])
def test_byzantine_leader_with_forged_certificates(seed, decided_in_view_0) -> None:
    """Leader 1 proposes sharings that did complete, every witness
    signature forged.  A node that has completed them all when the
    proposal arrives echoes it; one that has not checks the forgeries
    and does not.  With seed 19, 5 of the 6 honest nodes had completed
    them, enough for the echo quorum with the leader's own echo, and Q
    is decided in view 0; with seed 21 only 3 had, and a leader change
    follows.  Either way all honest nodes complete with one Q."""
    shipped: list = []
    on_arrival: dict[int, bool] = {}

    class ForgesCertificateWitnesses(DkgNode):
        def _certificate(self, dealer):
            cert = super()._certificate(dealer)
            if cert is None:
                return None
            witnesses = tuple(
                dataclasses.replace(w, signature=_forged(w.signature))
                for w in cert.witnesses
            )
            return dataclasses.replace(cert, witnesses=witnesses)

        def _log_and_broadcast(self, ctx, msg):
            if isinstance(msg, DkgSendMsg):
                shipped.append(msg.proof)
            super()._log_and_broadcast(ctx, msg)

    class Honest(DkgNode):
        def _on_send(self, sender, msg, ctx):
            if msg.view == 0:
                done = all(self.sessions[d].completed for d in msg.q_set)
                on_arrival[self.node_id] = done
            super()._on_send(sender, msg, ctx)

    def factory(i, config, keystore, ca):
        cls = ForgesCertificateWitnesses if i == 1 else Honest
        return cls(i, config, keystore, ca)

    adversary = Adversary.corrupting(t=T, f=0, byzantine={1})
    res = run_dkg(CONFIG, seed=seed, adversary=adversary, node_factory=factory)
    assert res.succeeded
    proposal = shipped[0]
    assert not verify_proof(VSS, res.ca, 0, proposal)
    assert len(on_arrival) == N - 1
    for i, completed in on_arrival.items():
        assert ((0, proposal.q_set) in res.nodes[i].sent_echo_for) == completed
    echoes = sum(on_arrival.values()) + 1  # the leader echoes its own
    assert (echoes >= VSS.echo_threshold) == decided_in_view_0
    assert (res.metrics.leader_changes == 0) == decided_in_view_0
    honest = {c.q_set for i, c in res.completions.items() if i != 1}
    assert len(honest) == 1
    if decided_in_view_0:
        assert honest == {proposal.q_set}


@pytest.mark.parametrize(
    ("seed", "q_set", "messages", "verifications"),
    [(11, (6, 8, 10), 2730, 334), (12, (3, 5, 10), 2751, 330)],
    ids=["seed11", "seed12"],  # stable when a count tightens
)
def test_leader_change_costs_are_pinned(
    monkeypatch, seed, q_set, messages, verifications
) -> None:
    """The lead-ch path does not get worse: with the view-0 leader
    crashed (n=10, t=2, f=1, secp256k1), checking at use decides the
    same Q with the same messages as checking on arrival did.  It made
    555 and 493 signature checks where checking on arrival made 933 and
    934; taking local completion as evidence makes 334 and 330.  No
    certificate that arrives in a lead-ch or a proposal is checked, as
    every node has completed its dealer by then; what is left is 210
    and 206 certificate signatures checked as nodes build their own,
    60 lead-ch votes, and 64 echo votes (63 in a lock, 1 in a carried
    M-type proof for seed 12)."""
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
