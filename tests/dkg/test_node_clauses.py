"""Clause-by-clause unit tests of the DKG node (Figs. 2-3), driven
message-by-message through a stub context."""

from __future__ import annotations

import random

import pytest

from repro.crypto.hashing import commitment_digest
from repro.sim.clock import TimeoutPolicy
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.vss.messages import SendMsg, SessionId
from repro.dkg.config import DkgConfig
from repro.dkg.messages import (
    DkgEchoMsg,
    DkgReadyMsg,
    DkgSendMsg,
    LeadChMsg,
    RTypeProof,
    dkg_echo_bytes,
    dkg_ready_bytes,
    lead_ch_bytes,
)
from repro.dkg.node import DkgNode

from tests.helpers import StubContext, default_test_group

G = default_test_group()
N, T = 7, 2


@pytest.fixture()
def world():
    """A CA, keystores for all nodes, and a DkgNode under test (node 2)."""
    rng = random.Random(77)
    ca = CertificateAuthority(G)
    stores = {i: KeyStore.enroll(i, ca, rng) for i in range(1, N + 1)}
    config = DkgConfig(
        n=N, t=T, group=G, timeout=TimeoutPolicy(initial=30.0)
    )
    node = DkgNode(2, config, stores[2], ca, tau=0, secret=5)
    ctx = StubContext(node_id=2, n_nodes=N)
    return node, ctx, stores, ca, config, rng


def _drive_vss_to_completion(node, ctx, stores, rng, dealers):
    """Run enough extended-VSS traffic through the node for each dealer's
    session to complete, yielding ready certificates in q_hat."""
    from repro.crypto.bivariate import BivariatePolynomial
    from repro.crypto.feldman import FeldmanCommitment
    from repro.vss.messages import ReadyMsg, ready_signing_bytes

    for dealer in dealers:
        f = BivariatePolynomial.random_symmetric(
            T, G.q, random.Random(1000 + dealer), secret=dealer
        )
        c = FeldmanCommitment.commit(f, G)
        sid = SessionId(dealer, 0)
        payload = ready_signing_bytes(sid, commitment_digest(c))
        senders = [m for m in range(1, N + 1) if m != node.node_id][:5]
        for m in senders:  # n - t - f = 5 signed readies
            sig = stores[m].sign(payload, rng)
            node.on_message(
                m, ReadyMsg(sid, c, f.evaluate(m, node.node_id), sig), ctx
            )
        assert node.sessions[dealer].completed is not None


class TestVssCompletionClause:
    def test_t_plus_one_completions_arm_timer_for_non_leader(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        _drive_vss_to_completion(node, ctx, stores, rng, [1, 3])
        assert ctx.timers == []
        _drive_vss_to_completion(node, ctx, stores, rng, [4])  # t+1 = 3rd
        assert len(ctx.timers) == 1
        _, delay, tag = ctx.timers[0]
        assert delay == 30.0 and tag == ("dkg-timeout", 0)

    def test_leader_proposes_instead_of_arming_timer(self, world) -> None:
        _, ctx, stores, ca, config, rng = world
        leader = DkgNode(1, config, stores[1], ca, tau=0, secret=5)
        lctx = StubContext(node_id=1, n_nodes=N)
        _drive_vss_to_completion(leader, lctx, stores, rng, [3, 4, 5])
        sends = lctx.sent_of_kind("dkg.send")
        assert len(sends) == N
        assert lctx.timers == []
        proposal = sends[0][1]
        assert proposal.q_set == (3, 4, 5)
        assert isinstance(proposal.proof, RTypeProof)

    def test_ready_certificates_collected(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        _drive_vss_to_completion(node, ctx, stores, rng, [1])
        cert = node.q_hat[1]
        assert cert.dealer == 1
        assert len(cert.witnesses) == 5


class TestUponDkgSend:
    def _valid_proposal(self, world):
        node, ctx, stores, ca, config, rng = world
        leader = DkgNode(1, config, stores[1], ca, tau=0, secret=5)
        lctx = StubContext(node_id=1, n_nodes=N)
        _drive_vss_to_completion(leader, lctx, stores, rng, [3, 4, 5])
        return lctx.sent_of_kind("dkg.send")[0][1]

    def test_valid_proposal_triggers_signed_echo(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        proposal = self._valid_proposal(world)
        node.on_message(1, proposal, ctx)
        echoes = ctx.sent_of_kind("dkg.echo")
        assert len(echoes) == N
        _, echo = echoes[0]
        assert ca.verify(2, dkg_echo_bytes(0, echo.q), echo.signature)

    def test_proposal_from_non_leader_ignored(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        proposal = self._valid_proposal(world)
        node.on_message(3, proposal, ctx)  # node 3 is not view-0 leader
        assert ctx.sent_of_kind("dkg.echo") == []

    def test_proposal_with_tampered_certs_ignored(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        proposal = self._valid_proposal(world)
        from repro.dkg.messages import DkgSendMsg, ReadyCert

        bad_certs = tuple(
            ReadyCert(c.dealer, b"\x00" * 32, c.witnesses)
            for c in proposal.proof.certs
        )
        forged = DkgSendMsg(0, 0, RTypeProof(bad_certs), ())
        node.on_message(1, forged, ctx)
        assert ctx.sent_of_kind("dkg.echo") == []

    def test_locked_node_refuses_conflicting_proposal(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        node.locked_q = (1, 2, 3)
        proposal = self._valid_proposal(world)  # proposes (3, 4, 5)
        node.on_message(1, proposal, ctx)
        assert ctx.sent_of_kind("dkg.echo") == []


class TestUponDkgEchoReady:
    def _signed_echo(self, stores, rng, voter, q):
        sig = stores[voter].sign(dkg_echo_bytes(0, q), rng)
        return DkgEchoMsg(0, 0, q, sig)

    def _signed_ready(self, stores, rng, voter, q):
        sig = stores[voter].sign(dkg_ready_bytes(0, q), rng)
        return DkgReadyMsg(0, 0, q, sig)

    def test_echo_quorum_locks_and_sends_ready(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        q = (3, 4, 5)
        for voter in (1, 3, 4, 5):  # quorum = ceil(10/2) = 5
            node.on_message(voter, self._signed_echo(stores, rng, voter, q), ctx)
        assert node.locked_q is None
        node.on_message(6, self._signed_echo(stores, rng, 6, q), ctx)
        assert node.locked_q == q
        assert len(ctx.sent_of_kind("dkg.ready")) == N

    def test_bad_signature_echo_not_counted(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        q = (3, 4, 5)
        good = [self._signed_echo(stores, rng, v, q) for v in (1, 3, 4, 5)]
        for voter, msg in zip((1, 3, 4, 5), good):
            node.on_message(voter, msg, ctx)
        # echo signed by the wrong key (claims sender 6, signed by 7)
        forged = self._signed_echo(stores, rng, 7, q)
        node.on_message(6, forged, ctx)
        assert node.locked_q is None

    def test_t_plus_one_readies_amplify(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        q = (3, 4, 5)
        for voter in (1, 3):
            node.on_message(voter, self._signed_ready(stores, rng, voter, q), ctx)
        assert ctx.sent_of_kind("dkg.ready") == []
        node.on_message(4, self._signed_ready(stores, rng, 4, q), ctx)
        assert len(ctx.sent_of_kind("dkg.ready")) == N
        assert node.locked_q == q

    def test_output_threshold_decides_q(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        q = (3, 4, 5)
        for voter in (1, 3, 4, 5, 6):  # n - t - f = 5
            node.on_message(voter, self._signed_ready(stores, rng, voter, q), ctx)
        assert node.decided_q == q
        # completion waits for the VSS sessions of Q to finish
        assert node.completed is None
        _drive_vss_to_completion(node, ctx, stores, rng, [3, 4, 5])
        assert node.completed is not None
        assert node.completed.q_set == q
        # share = sum of the three VSS shares
        expected = sum(node.sessions[d].completed.share for d in q) % G.q
        assert node.completed.share == expected


class TestLeaderChange:
    def test_timeout_broadcasts_lead_ch(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        _drive_vss_to_completion(node, ctx, stores, rng, [1, 3, 4])
        ctx.clear()
        node.on_timer(("dkg-timeout", 0), ctx)
        msgs = ctx.sent_of_kind("dkg.lead-ch")
        assert len(msgs) == N
        _, lead_ch = msgs[0]
        assert lead_ch.view == 1
        assert ca.verify(2, lead_ch_bytes(0, 1), lead_ch.signature)
        assert node.lcflag

    def test_stale_timeout_ignored(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        node.view = 1
        node.on_timer(("dkg-timeout", 0), ctx)
        assert ctx.sent == []

    def test_t_plus_one_lead_ch_joins_smallest(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        # votes for views 2 and 1 from two other nodes
        sig3 = stores[3].sign(lead_ch_bytes(0, 2), rng)
        node.on_message(3, LeadChMsg(0, 2, None, sig3), ctx)
        assert ctx.sent_of_kind("dkg.lead-ch") == []
        sig4 = stores[4].sign(lead_ch_bytes(0, 1), rng)
        node.on_message(4, LeadChMsg(0, 1, None, sig4), ctx)
        # t+1 = 3 voters total? node's own vote counts after it sends.
        # With 2 distinct voters the rule hasn't fired yet:
        sig5 = stores[5].sign(lead_ch_bytes(0, 1), rng)
        node.on_message(5, LeadChMsg(0, 1, None, sig5), ctx)
        sent = ctx.sent_of_kind("dkg.lead-ch")
        assert len(sent) == N
        assert sent[0][1].view == 1  # the smallest requested view

    def test_quorum_of_lead_ch_enters_view(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        for voter in (1, 3, 4, 5, 6):  # n - t - f = 5 votes for view 1
            sig = stores[voter].sign(lead_ch_bytes(0, 1), rng)
            node.on_message(voter, LeadChMsg(0, 1, None, sig), ctx)
        assert node.view == 1
        assert not node.lcflag
        assert ctx.leader_changes == 1
        # node 2 is the leader of view 1 (initial leader 1 + 1)
        assert node._is_leader()

    def test_new_leader_proposes_adopted_evidence(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        _drive_vss_to_completion(node, ctx, stores, rng, [1, 3, 4])
        ctx.clear()
        for voter in (1, 3, 4, 5, 6):
            sig = stores[voter].sign(lead_ch_bytes(0, 1), rng)
            node.on_message(voter, LeadChMsg(0, 1, None, sig), ctx)
        # as the view-1 leader with t+1 certs it proposes immediately
        sends = ctx.sent_of_kind("dkg.send")
        assert len(sends) == N
        assert sends[0][1].view == 1
        assert len(sends[0][1].election) >= 5

    def test_lead_ch_for_current_or_past_view_ignored(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        node.view = 2
        sig = stores[3].sign(lead_ch_bytes(0, 1), rng)
        node.on_message(3, LeadChMsg(0, 1, None, sig), ctx)
        assert node.lc_votes.get(1) is None or 3 not in node.lc_votes[1]

    def test_proposal_with_election_proof_fast_forwards_view(self, world) -> None:
        node, ctx, stores, ca, config, rng = world
        # Build a valid view-1 proposal from node 2's perspective...
        # leader of view 1 is node 2 itself, so use a node-3 instance
        # (leader of view 1 from initial leader 1 is node 2; craft for
        # a third node's perspective instead).
        node3 = DkgNode(3, config, stores[3], ca, tau=0, secret=5)
        ctx3 = StubContext(node_id=3, n_nodes=N)
        _drive_vss_to_completion(node3, ctx3, stores, rng, [4, 5, 6])
        # election proof: 5 signed lead-ch votes for view 1
        from repro.dkg.messages import LeadChWitness

        witnesses = tuple(
            LeadChWitness(v, 1, stores[v].sign(lead_ch_bytes(0, 1), rng))
            for v in (1, 4, 5, 6, 7)
        )
        proof = RTypeProof(tuple(node3.q_hat[d] for d in (4, 5, 6)))
        proposal = DkgSendMsg(0, 1, proof, witnesses)
        node3.on_message(2, proposal, ctx3)  # node 2 leads view 1
        assert node3.view == 1
        assert len(ctx3.sent_of_kind("dkg.echo")) == N
