"""The DKG protocol node: optimistic phase (Fig. 2) + leader change (Fig. 3).

Each node runs ``n`` extended-HybridVSS sessions (one per dealer,
itself included) and the leader-based agreement that reliably
broadcasts a set ``Q`` of ``t + 1`` completed sharings.  On deciding
``Q`` and finishing every sharing in it, the node outputs
``(L-bar, tau, DKG-completed, C, s_i)`` with ``s_i = sum_{d in Q} s_{i,d}``
and ``C = prod_{d in Q} C_d``.

View discipline: views are numbered 0, 1, 2, ... with leader
``config.leader_of_view(view)``.  A node enters view ``v > 0`` either by
collecting ``n - t - f`` signed lead-ch votes for ``v`` (Fig. 3) or by
receiving the view-``v`` leader's proposal carrying those votes as an
election proof — the paper's provision for nodes "who have not received
enough lead-ch messages".

Signatures are checked where they become evidence.  The §2.3 channels
already authenticate every sender, so a signed VSS ready, DKG echo or
DKG ready is recorded unchecked; its signature is verified only when it
goes into a certificate or lock proof this node builds (an R_d it ships,
an M it locks on) or when it arrives inside another node's proof.  An
arriving R_d for a sharing this node has completed with the same
commitment is not checked: the local completion is the evidence, and
the certificate is neither shipped nor adopted.
"""

from __future__ import annotations

import random
from typing import Any

from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.hashing import commitment_digest
from repro.sim.node import Context, ProtocolNode
from repro.sim.pki import AcceptedSignatures, CertificateAuthority, KeyStore
from repro.vss.messages import (
    EchoMsg,
    HelpMsg,
    ReadyMsg,
    SendMsg,
    SessionId,
    SharedOutput,
    SharePointMsg,
)
from repro.vss.session import VssSession
from repro.dkg.config import DkgConfig
from repro.dkg.messages import (
    DkgCompletedOutput,
    DkgEchoMsg,
    DkgHelpMsg,
    DkgReadyMsg,
    DkgReconstructInput,
    DkgReconstructedOutput,
    DkgRecoverInput,
    DkgSendMsg,
    DkgSharePointMsg,
    DkgStartInput,
    LeadChMsg,
    LeadChWitness,
    MTypeProof,
    Proof,
    ReadyCert,
    RTypeProof,
    SetVote,
    dkg_echo_bytes,
    dkg_ready_bytes,
    lead_ch_bytes,
)
from repro.dkg.proofs import verify_election, verify_proof

_VSS_MESSAGE_TYPES = (SendMsg, EchoMsg, ReadyMsg, HelpMsg, SharePointMsg)


def _share_verifier_for(commitment):
    """A FeldmanVector validating shares of the combined secret, from
    either commitment shape (matrix for DKG, vector for renewal)."""
    from repro.crypto.feldman import share_verifier

    return share_verifier(commitment)


class DkgNode(ProtocolNode):
    """One participant of the asynchronous DKG."""

    def __init__(
        self,
        node_id: int,
        config: DkgConfig,
        keystore: KeyStore,
        ca: CertificateAuthority,
        tau: int = 0,
        secret: int | None = None,
    ):
        super().__init__(node_id)
        self.config = config
        self.keystore = keystore
        # Every signature this node makes or checks goes through here,
        # its VSS sessions' included, so none is verified twice.
        self.signatures = AcceptedSignatures(keystore, ca)
        self.tau = tau
        self.vss_config = config.vss()
        self.rng = random.Random(("dkg", tau, node_id).__repr__())
        self.secret = (
            secret if secret is not None else config.group.random_scalar(self.rng)
        )

        # upon initialization (Fig. 2)
        self.sessions: dict[int, VssSession] = {}
        for dealer in self.vss_config.indices:
            self.sessions[dealer] = VssSession(
                self.vss_config,
                node_id,
                SessionId(dealer, tau),
                on_shared=self._on_vss_shared,
                keystore=self.signatures,
                ca=self.signatures,
                sign_ready=True,
            )
        self.q_hat: dict[int, ReadyCert] = {}  # b-Q with b-R certificates
        # Commitment digest of every sharing this node has completed, by
        # dealer: an arriving R_d naming the same digest needs no check.
        self._completed_digests: dict[int, bytes] = {}
        # Dealers whose b-R was adopted from a verified lead-ch proof;
        # the rest name this node's own VSS outputs, whose witnesses are
        # candidates until shipped (see _certificate).
        self._adopted: set[int] = set()
        # The view in which this node, as leader, held t + 1 candidate
        # certificates but too few of them verified: a late VSS ready
        # may complete one, so it retries the proposal.
        self._short_in_view: int | None = None
        self.locked_q: tuple[int, ...] | None = None  # bold Q
        self.locked_proof: MTypeProof | None = None  # M
        self.echo_votes: dict[tuple[int, ...], dict[int, SetVote]] = {}
        self.ready_votes: dict[tuple[int, ...], dict[int, SetVote]] = {}
        self.sent_echo_for: set[tuple[int, tuple[int, ...]]] = set()
        self.sent_ready_for: set[tuple[int, ...]] = set()
        self.view = 0
        self.lc_votes: dict[int, dict[int, LeadChWitness]] = {}
        self.lcflag = False
        self.proposed_in_view: set[int] = set()
        self.timer_started_for_view: set[int] = set()
        self._timer_id: int | None = None
        self.decided_q: tuple[int, ...] | None = None
        self.completed: DkgCompletedOutput | None = None
        self.started = False
        # Rec protocol state (Definition 4.1 consistency)
        self._rec_started = False
        self._rec = None
        self.reconstructed: DkgReconstructedOutput | None = None
        # DKG-level B log + help budgets (VSS sessions keep their own)
        self._b_log: dict[int, list[Any]] = {i: [] for i in self.vss_config.indices}
        self._help_total = 0
        self._help_from: dict[int, int] = {}
        self._ctx: Context | None = None  # current dispatch context

    # -- small helpers --------------------------------------------------------

    def _log_and_send(self, ctx: Context, recipient: int, msg: Any) -> None:
        self._b_log[recipient].append(msg)
        ctx.send(recipient, msg)

    def _log_and_broadcast(self, ctx: Context, msg: Any) -> None:
        for j in self.vss_config.indices:
            self._log_and_send(ctx, j, msg)

    def _leader(self, view: int | None = None) -> int:
        return self.config.leader_of_view(self.view if view is None else view)

    def _is_leader(self) -> bool:
        return self.node_id == self._leader()

    def _current_proof(self) -> Proof | None:
        """The best evidence this node can attach: locked (Q, M) if any,
        else (Q-hat, R-hat) once t + 1 of its certificates verify —
        lowest dealers first, skipping any that come up short."""
        if self.locked_q is not None and self.locked_proof is not None:
            return self.locked_proof
        size = self.config.proposal_size
        if len(self.q_hat) < size:
            return None
        certs = []
        for dealer in sorted(self.q_hat):
            cert = self._certificate(dealer)
            if cert is not None:
                certs.append(cert)
                if len(certs) == size:
                    return RTypeProof(tuple(certs))
        return None

    def _certificate(self, dealer: int) -> ReadyCert | None:
        """b-R_d as it may leave this node: an adopted certificate was
        verified when its lead-ch arrived; one from this node's own VSS
        output is filled with witnesses that verify, or is short."""
        cert = self.q_hat[dealer]
        if dealer in self._adopted:
            return cert
        witnesses = self.sessions[dealer].certificate()
        if witnesses is None:
            return None
        return ReadyCert(dealer, cert.digest, witnesses)

    # -- operator input ----------------------------------------------------------

    def on_operator(self, payload: Any, ctx: Context) -> None:
        if isinstance(payload, DkgStartInput):
            self.start(ctx)
        elif isinstance(payload, DkgReconstructInput):
            self.start_reconstruction(ctx)
        elif isinstance(payload, DkgRecoverInput):
            self._recover(ctx)
        else:
            raise TypeError(f"unexpected operator input {payload!r}")

    def start(self, ctx: Context) -> None:
        """Begin session tau: share our own secret s_d via HybridVSS."""
        if self.started:
            return
        self.started = True
        self.sessions[self.node_id].start_dealing(self.secret, ctx)

    # -- message dispatch -----------------------------------------------------------

    def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
        self._ctx = ctx
        try:
            if isinstance(payload, _VSS_MESSAGE_TYPES):
                session = self.sessions.get(payload.session.dealer)
                if session is not None and payload.session.tau == self.tau:
                    session.handle(sender, payload, ctx)
                    if (
                        self._short_in_view == self.view
                        and isinstance(payload, ReadyMsg)
                        and session.completed is not None
                    ):
                        self._propose(ctx)
            elif isinstance(payload, DkgSendMsg):
                self._on_send(sender, payload, ctx)
            elif isinstance(payload, DkgEchoMsg):
                self._on_echo(sender, payload, ctx)
            elif isinstance(payload, DkgReadyMsg):
                self._on_ready(sender, payload, ctx)
            elif isinstance(payload, LeadChMsg):
                self._on_lead_ch(sender, payload, ctx)
            elif isinstance(payload, DkgSharePointMsg):
                self._on_rec_share(sender, payload, ctx)
            elif isinstance(payload, DkgHelpMsg):
                self._on_help(sender, ctx)
            else:
                raise TypeError(f"unexpected DKG message {payload!r}")
        finally:
            self._ctx = None

    # -- VSS completion (Fig. 2: upon (P_d, tau, out, shared, ...)) ----------------

    def _on_vss_shared(self, output: SharedOutput) -> None:
        dealer = output.session.dealer
        ctx = self._ctx  # None only if completions arrive outside messages
        digest = commitment_digest(output.commitment)
        self._completed_digests[dealer] = digest
        if dealer not in self.q_hat:
            # (q_hat may already hold this dealer's certificate adopted
            # from a lead-ch R-type proof; the local session completing
            # must still drive _try_complete below.)
            self.q_hat[dealer] = ReadyCert(dealer, digest, output.ready_proof)
            # if |b-Q| = t + 1 and Q = empty: propose (leader) or arm timer
            if ctx is not None and (
                len(self.q_hat) >= self.config.proposal_size and self.locked_q is None
            ):
                self._maybe_propose_or_arm(ctx)
        if ctx is not None:
            self._try_complete(ctx)

    def _maybe_propose_or_arm(self, ctx: Context) -> None:
        if self.completed is not None:
            return
        if self._is_leader():
            self._propose(ctx)
        else:
            self._arm_timer(ctx)

    def _propose(self, ctx: Context) -> None:
        if self.view in self.proposed_in_view:
            return
        proof = self._current_proof()
        if proof is None:
            # Retried when more VSS sessions finish, or — when enough
            # finished but a certificate came up short — on a late ready.
            if len(self.q_hat) >= self.config.proposal_size:
                self._short_in_view = self.view
            return
        self.proposed_in_view.add(self.view)
        election = tuple(self.lc_votes.get(self.view, {}).values())
        msg = DkgSendMsg(self.tau, self.view, proof, election)
        self._log_and_broadcast(ctx, msg)

    def _arm_timer(self, ctx: Context) -> None:
        if self.view in self.timer_started_for_view or self.completed is not None:
            return
        self.timer_started_for_view.add(self.view)
        # delay <- delay(t): the weak-synchrony timeout for this view
        delay = self.config.timeout.timeout(self.view)
        self._timer_id = ctx.set_timer(delay, ("dkg-timeout", self.view))

    def _stop_timer(self, ctx: Context) -> None:
        if self._timer_id is not None:
            ctx.cancel_timer(self._timer_id)
            self._timer_id = None

    # -- Fig. 2: upon (L, tau, send, Q, R/M) from L (first time) --------------------

    def _on_send(self, sender: int, msg: DkgSendMsg, ctx: Context) -> None:
        if self.completed is not None or msg.tau != self.tau:
            return
        if msg.view < self.view:
            return  # stale proposal from a deposed leader
        if sender != self._leader(msg.view):
            return
        if msg.view > self.view:
            # Catch up using the election proof embedded in the send.
            if not verify_election(
                self.vss_config, self.signatures, self.tau, msg.view, msg.election
            ):
                return
            self._enter_view(msg.view, ctx)
        q = msg.q_set
        if (self.view, q) in self.sent_echo_for:
            return
        # if verify-signature(Q, R/M) and (Q = empty or Q = Q):
        if not verify_proof(
            self.vss_config,
            self.signatures,
            self.tau,
            msg.proof,
            q_size=self.config.proposal_size,
            completed=self._completed_digests,
        ):
            return
        if self.locked_q is not None and self.locked_q != q:
            return
        self.sent_echo_for.add((self.view, q))
        signature = self.signatures.sign(dkg_echo_bytes(self.tau, q), self.rng)
        echo = DkgEchoMsg(self.tau, self.view, q, signature)
        self._log_and_broadcast(ctx, echo)

    # -- Fig. 2: upon (L, tau, echo, Q)_sign from P_m (first time) -------------------

    def _on_echo(self, sender: int, msg: DkgEchoMsg, ctx: Context) -> None:
        if self.completed is not None or msg.tau != self.tau:
            return
        q = tuple(sorted(msg.q))
        votes = self.echo_votes.setdefault(q, {})
        if sender in votes:
            return
        votes[sender] = SetVote(sender, "echo", msg.signature)
        ready_count = len(self.ready_votes.get(q, {}))
        # if e_Q = ceil((n+t+1)/2) and r_Q < t+1: lock and go ready —
        # on a quorum whose signatures all verify, since it becomes M
        if (
            len(votes) == self.vss_config.echo_threshold
            and ready_count < self.vss_config.ready_threshold
            and self._all_verify(votes, dkg_echo_bytes(self.tau, q))
        ):
            self._lock(q, MTypeProof(q, tuple(votes.values())))
            self._send_ready(q, ctx)

    # -- Fig. 2: upon (L, tau, ready, Q)_sign from P_m (first time) ------------------

    def _on_ready(self, sender: int, msg: DkgReadyMsg, ctx: Context) -> None:
        if self.completed is not None or msg.tau != self.tau:
            return
        q = tuple(sorted(msg.q))
        votes = self.ready_votes.setdefault(q, {})
        if sender in votes:
            return
        votes[sender] = SetVote(sender, "ready", msg.signature)
        echo_count = len(self.echo_votes.get(q, {}))
        if (
            len(votes) == self.vss_config.ready_threshold
            and echo_count < self.vss_config.echo_threshold
        ):
            # if r_Q = t+1 and e_Q < ceil((n+t+1)/2): lock and amplify —
            # the t + 1 votes become M, so their signatures must verify
            if self._all_verify(votes, dkg_ready_bytes(self.tau, q)):
                self._lock(q, MTypeProof(q, tuple(votes.values())))
                self._send_ready(q, ctx)
        elif len(votes) == self.vss_config.output_threshold:
            # else if r_Q = n-t-f: stop timer; decide Q.  This counts
            # authenticated senders; the signatures are never evidence
            # here, and a Byzantine sender could have signed validly.
            self._stop_timer(ctx)
            self.decided_q = q
            self._try_complete(ctx)

    def _all_verify(self, votes: dict[int, SetVote], payload: bytes) -> bool:
        """Check a quorum about to become M.  A vote whose signature
        fails is evicted and its sender forgotten, so the quorum forms
        again, and is checked again, only when one more vote arrives."""
        bad = [
            voter
            for voter, vote in votes.items()
            if not self.signatures.verify(voter, payload, vote.signature)
        ]
        for voter in bad:
            del votes[voter]
        return not bad

    def _lock(self, q: tuple[int, ...], proof: MTypeProof) -> None:
        self.locked_q = q
        self.locked_proof = proof

    def _send_ready(self, q: tuple[int, ...], ctx: Context) -> None:
        if q in self.sent_ready_for:
            return
        self.sent_ready_for.add(q)
        signature = self.signatures.sign(dkg_ready_bytes(self.tau, q), self.rng)
        ready = DkgReadyMsg(self.tau, self.view, q, signature)
        self._log_and_broadcast(ctx, ready)

    # -- completion -------------------------------------------------------------------

    def _try_complete(self, ctx: Context) -> None:
        """wait for shared output-messages for each P_d in Q, then finish."""
        if self.completed is not None or self.decided_q is None:
            return
        outputs = []
        for dealer in self.decided_q:
            session = self.sessions.get(dealer)
            if session is None or session.completed is None:
                return
            outputs.append(session.completed)
        # s_i <- sum s_{i,d};  C_pq <- prod (C_d)_pq
        share = 0
        for out in outputs:
            share = (share + out.share) % self.config.group.q
        commitment = FeldmanCommitment.combine([out.commitment for out in outputs])
        self._stop_timer(ctx)
        self.completed = DkgCompletedOutput(
            tau=self.tau,
            view=self.view,
            q_set=self.decided_q,
            commitment=commitment,
            share=share,
            public_key=commitment.public_key(),
        )
        ctx.output(self.completed)

    # -- Fig. 2/3: timeouts and leader change -------------------------------------------

    def on_timer(self, tag: Any, ctx: Context) -> None:
        if not (isinstance(tag, tuple) and tag and tag[0] == "dkg-timeout"):
            return
        view = tag[1]
        if view != self.view or self.completed is not None or self.lcflag:
            return
        # upon timeout: send signed lead-ch for the next leader with our
        # best evidence (Q, M) or (b-Q, b-R).
        self._send_lead_ch(self.view + 1, ctx)
        self.lcflag = True

    def _send_lead_ch(self, target_view: int, ctx: Context) -> None:
        proof = self._current_proof()
        signature = self.signatures.sign(lead_ch_bytes(self.tau, target_view), self.rng)
        msg = LeadChMsg(self.tau, target_view, proof, signature)
        self._log_and_broadcast(ctx, msg)
        # Record our own vote so we can count it toward the quorum.
        self.lc_votes.setdefault(target_view, {})[self.node_id] = LeadChWitness(
            self.node_id, target_view, signature
        )
        self._check_lead_ch_quorums(ctx)

    # Fig. 3: upon a msg (tau, lead-ch, L-bar, Q, R/M)_sign from P_j (first time)
    def _on_lead_ch(self, sender: int, msg: LeadChMsg, ctx: Context) -> None:
        if self.completed is not None or msg.tau != self.tau:
            return
        if msg.view <= self.view:
            return  # only lead-ch for leaders beyond the current one count
        votes = self.lc_votes.setdefault(msg.view, {})
        if sender in votes:
            return
        if not self.signatures.verify(
            sender, lead_ch_bytes(self.tau, msg.view), msg.signature
        ):
            return
        votes[sender] = LeadChWitness(sender, msg.view, msg.signature)
        # Adopt the carried evidence if it is valid (Fig. 3: if R/M = R
        # then b-Q <- Q, b-R <- R else Q <- Q, M <- M).  A certificate
        # taken on local completion names a dealer already in b-Q, so
        # only fully checked ones are adopted.
        if msg.proof is not None and verify_proof(
            self.vss_config,
            self.signatures,
            self.tau,
            msg.proof,
            q_size=self.config.proposal_size,
            completed=self._completed_digests,
        ):
            if isinstance(msg.proof, RTypeProof):
                for cert in msg.proof.certs:
                    if cert.dealer not in self.q_hat:
                        self.q_hat[cert.dealer] = cert
                        self._adopted.add(cert.dealer)
            elif self.locked_q is None:
                self._lock(msg.proof.q_set, msg.proof)
        self._check_lead_ch_quorums(ctx)

    def _check_lead_ch_quorums(self, ctx: Context) -> None:
        pending = {v: votes for v, votes in self.lc_votes.items() if v > self.view}
        if not pending:
            return
        # if sum lc_L = t+1 and lcflag = false: join the smallest request
        total = len({voter for votes in pending.values() for voter in votes})
        if total >= self.config.t + 1 and not self.lcflag:
            smallest = min(pending)
            self.lcflag = True
            if self.node_id not in self.lc_votes.get(smallest, {}):
                self._send_lead_ch(smallest, ctx)
        # else if lc_L = n-t-f: accept the new leader
        for view in sorted(pending):
            if len(pending[view]) >= self.vss_config.output_threshold:
                self._enter_view(view, ctx)
                break

    def _enter_view(self, view: int, ctx: Context) -> None:
        if view <= self.view or self.completed is not None:
            return
        self._stop_timer(ctx)
        self.view = view
        self.lcflag = False
        ctx.record_leader_change()
        if self._is_leader():
            # The new leader proposes (Q, M) if locked, else (b-Q, b-R).
            self._propose(ctx)
        else:
            self._arm_timer(ctx)

    # -- Rec protocol (unchanged from HybridVSS, run on the combined share) ----

    def start_reconstruction(self, ctx: Context) -> None:
        """Broadcast our combined share; collect t+1 verified points and
        interpolate the group secret at 0."""
        if self.completed is None:
            raise RuntimeError("cannot reconstruct before DKG completes")
        if self._rec_started:
            return
        self._rec_started = True
        from repro.crypto.shares import PointCollector

        self._rec = PointCollector(
            _share_verifier_for(self.completed.commitment), self.config.t + 1
        )
        msg = DkgSharePointMsg(self.tau, self.completed.share)
        self._log_and_broadcast(ctx, msg)

    def _on_rec_share(self, sender: int, msg: DkgSharePointMsg, ctx: Context) -> None:
        if (
            self.reconstructed is not None
            or not self._rec_started
            or msg.tau != self.tau
        ):
            return
        assert self._rec is not None
        # Buffer unverified; one batched check when t+1 points are in.
        if self._rec.seen(sender):
            return
        if self._rec.add(sender, msg.point, rng=self.rng):
            from repro.crypto.shares import reconstruct_raw

            value = reconstruct_raw(self._rec.first_points(), self.config.group.q)
            self.reconstructed = DkgReconstructedOutput(self.tau, value)
            ctx.output(self.reconstructed)

    # -- recovery --------------------------------------------------------------------------

    def on_recover(self, ctx: Context) -> None:
        self._recover(ctx)

    def _recover(self, ctx: Context) -> None:
        """upon (L, tau, in, recover): help me, then replay my B log."""
        for session in self.sessions.values():
            session.start_recovery(ctx)
        for j in self.vss_config.indices:
            ctx.send(j, DkgHelpMsg(self.tau))
        for recipient, messages in self._b_log.items():
            for msg in messages:
                ctx.send(recipient, msg)

    def _on_help(self, sender: int, ctx: Context) -> None:
        count = self._help_from.get(sender, 0)
        if count >= self.vss_config.help_per_node_budget:
            return
        if self._help_total >= self.vss_config.help_total_budget:
            return
        self._help_from[sender] = count + 1
        self._help_total += 1
        for msg in self._b_log[sender]:
            ctx.send(sender, msg)
