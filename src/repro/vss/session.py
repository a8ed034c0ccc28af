"""The HybridVSS state machine: protocol Sh (Fig. 1) and protocol Rec.

:class:`VssSession` is one node's view of one session ``(P_d, tau)``.
It is written as a sub-state-machine (not a full
:class:`~repro.sim.node.ProtocolNode`) so that a DKG node can host
``n`` concurrent sessions; :mod:`repro.vss.node` wraps a single session
for standalone use.

The implementation mirrors Fig. 1 ``upon``-clause by ``upon``-clause;
comments quote the pseudocode lines being implemented.  The *extended*
mode (§4) additionally signs ready messages and keeps the signed readies
it receives; :meth:`VssSession.certificate` turns them into the ``R_d``
proof set of ``n - t - f`` verified witnesses that the DKG leader uses
to justify its proposal.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.hashing import commitment_digest
from repro.crypto.polynomials import Polynomial, interpolate_polynomial
from repro.crypto.shares import PointCollector, reconstruct_raw
from repro.sim.node import Context
from repro.sim.pki import AcceptedSignatures, CertificateAuthority, KeyStore
from repro.vss.config import VssConfig
from repro.vss.messages import (
    EchoMsg,
    HelpMsg,
    ReadyMsg,
    ReadyWitness,
    ReconstructedOutput,
    SendMsg,
    SessionId,
    SharedOutput,
    SharePointMsg,
    ready_signing_bytes,
)


@dataclass
class _PerCommitmentState:
    """Counters and point set A_C for one candidate commitment C.

    Incoming echo/ready points are *buffered* unverified and checked in
    one randomized-linear-combination batch when the buffered total
    would cross a Fig. 1 decision threshold — a whole wave of points
    against one commitment costs one multiexp instead of one O(t)
    verification per message.  ``echo_count``/``ready_count`` only ever
    count *verified* points (as in Fig. 1); bad points are pinpointed
    by the batch fallback and dropped, so a Byzantine sender degrades
    the batch back to per-item checks but cannot stall progress.

    ``verified_row`` is the dealer's row ``a(y) = f(i, y)`` once it has
    passed ``verify-poly`` against a *symmetric* C.  Then the point
    verifier's entries are exactly ``g^{a_l}``, so
    ``verify-point(C, i, m, alpha)`` holds iff ``alpha = a(m) mod q``
    and the wave is checked in the field, with no group operation.

    Extended mode keeps each signed ready as a witness whose signature
    is *not* checked here: ``pending_witness`` while its point waits,
    ``ready_witnesses`` (in promotion order) once the point verified.
    A witness whose point fails is dropped with it.  Signatures are
    checked only when :meth:`VssSession.certificate` builds R_d.
    """

    points: dict[int, int] = field(default_factory=dict)  # m -> alpha = f(m, i)
    pending_echo: dict[int, int] = field(default_factory=dict)
    pending_ready: dict[int, int] = field(default_factory=dict)
    pending_witness: dict[int, ReadyWitness] = field(default_factory=dict)
    echo_count: int = 0
    ready_count: int = 0
    echo_seen: set[int] = field(default_factory=set)
    ready_seen: set[int] = field(default_factory=set)
    row_poly: Polynomial | None = None
    verified_row: Polynomial | None = None
    sent_ready: bool = False
    ready_witnesses: dict[int, ReadyWitness] = field(default_factory=dict)
    point_verifier: FeldmanVector | None = None


class VssSession:
    """One node's instance of HybridVSS for session (P_d, tau)."""

    def __init__(
        self,
        config: VssConfig,
        me: int,
        session: SessionId,
        on_shared: Callable[[SharedOutput], None],
        on_reconstructed: Callable[[ReconstructedOutput], None] | None = None,
        keystore: KeyStore | AcceptedSignatures | None = None,
        ca: CertificateAuthority | AcceptedSignatures | None = None,
        sign_ready: bool = False,
        rng: random.Random | None = None,
        expected_secret_commitment: int | None = None,
    ):
        if me not in config.indices:
            raise ValueError(f"node index {me} is not a deployment member")
        self.config = config
        self.me = me
        self.session = session
        self.on_shared: Callable[[SharedOutput], None] | None = on_shared
        self.on_reconstructed = on_reconstructed or (lambda _out: None)
        self.keystore = keystore
        self.ca = ca
        self.sign_ready = sign_ready
        # Share renewal / node addition (§5.2, §6.2): the dealer is
        # resharing a value whose public commitment g^{s_d} is already
        # known; a send whose C commits to anything else is rejected.
        self.expected_secret_commitment = expected_secret_commitment
        if sign_ready and (keystore is None or ca is None):
            raise ValueError("extended mode requires a keystore and CA")
        self.rng = rng or random.Random(
            ("vss", session.dealer, session.tau, me).__repr__()
        )

        # upon initialization: for all C: A_C <- {}; e_C <- 0; r_C <- 0
        self._per_c: dict[FeldmanCommitment, _PerCommitmentState] = {}
        # c <- 0; c_l <- 0 for all l
        self._help_total = 0
        self._help_from: dict[int, int] = {}
        # B: outgoing message log for crash recovery, keyed by recipient
        self._b_log: dict[int, list[Any]] = {i: [] for i in config.indices}
        self._seen_send = False
        # The send start_dealing addressed to this node: its row holds by
        # construction, so that one object skips verify-poly.
        self._own_send: SendMsg | None = None
        self.completed: SharedOutput | None = None
        self.dealt_secret: int | None = None
        # Rec state
        self._rec_started = False
        self._rec: PointCollector | None = None
        self.reconstructed: ReconstructedOutput | None = None

    # -- helpers -------------------------------------------------------------

    def _state_for(self, commitment: FeldmanCommitment) -> _PerCommitmentState:
        state = self._per_c.get(commitment)
        if state is None:
            state = _PerCommitmentState()
            # The O(t^2) matrix collapse is deferred to the first batch
            # flush: a garbage commitment that never gathers a quorum
            # costs nothing beyond its buffer.
            self._per_c[commitment] = state
        return state

    def _flush_pending(
        self,
        commitment: FeldmanCommitment,
        state: _PerCommitmentState,
        pending: dict[int, int],
        promote_witnesses: bool = False,
    ) -> int:
        """Verify buffered points against C; admit good ones to A_C.

        Against the verified row when this session holds one for C (see
        :class:`_PerCommitmentState`), else in one group batch.
        Returns the number of points accepted.  In a *ready* flush
        (``promote_witnesses``), verified points also promote their
        buffered witnesses into the R_d candidates and failed points
        drop theirs — an echo flush must do neither, since a sender's
        echo says nothing about its (separately buffered) ready point.
        """
        if not pending:
            return 0
        items = list(pending.items())
        pending.clear()
        row = state.verified_row
        if row is not None:
            # The group batch draws one 128-bit weight salt from the
            # session rng for >= 2 claims (none for 1), and the same rng
            # then supplies the ready-signature nonce: consume the draw
            # here too, or every seeded transcript changes.
            if len(items) >= 2:
                self.rng.getrandbits(128)
            q = row.q
            good = [(m, alpha) for m, alpha in items if row(m) == alpha % q]
        else:
            if state.point_verifier is None:
                state.point_verifier = commitment.column_vector(self.me)
            good, _bad = state.point_verifier.batch_verify(items, rng=self.rng)
        for m, alpha in good:
            state.points[m] = alpha
            if promote_witnesses:
                witness = state.pending_witness.pop(m, None)
                if witness is not None:
                    state.ready_witnesses[m] = witness
        if promote_witnesses:
            for m, _alpha in items:
                state.pending_witness.pop(m, None)
        return len(good)

    def _log_and_send(self, ctx: Context, recipient: int, msg: Any) -> None:
        """send + record in B for later help-driven retransmission."""
        self._b_log[recipient].append(msg)
        ctx.send(recipient, msg)

    # -- operator inputs --------------------------------------------------------

    def start_dealing(self, secret: int, ctx: Context) -> BivariatePolynomial:
        """upon a message (P_d, tau, in, share, s)  — dealer only.

        Chooses the random symmetric bivariate polynomial with
        f_00 = s, commits, and sends each P_j its row polynomial.
        Returns the polynomial (the proactive layer needs it so it can
        erase it; see §5.2).
        """
        if self.me != self.session.dealer:
            raise RuntimeError("only the session dealer may start sharing")
        cfg = self.config
        poly = BivariatePolynomial.random_symmetric(
            cfg.t, cfg.group.q, self.rng, secret=secret
        )
        commitment = FeldmanCommitment.commit(poly, cfg.group)
        self.dealt_secret = secret % cfg.group.q
        for j in cfg.indices:
            msg = SendMsg(self.session, commitment, poly.row_polynomial(j))
            if j == self.me:
                self._own_send = msg
            self._log_and_send(ctx, j, msg)
        return poly

    def start_reconstruction(self, ctx: Context) -> None:
        """upon a message (P_d, tau, in, reconstruct) — protocol Rec.

        Broadcast our verified share; collect t+1 verified shares and
        interpolate at 0.
        """
        if self.completed is None:
            raise RuntimeError("cannot reconstruct before Sh completes")
        if self._rec_started:
            return
        self._rec_started = True
        self._rec = PointCollector(
            self.completed.commitment.column_vector(0), self.config.t + 1
        )
        msg = SharePointMsg(self.session, self.completed.share)
        for j in self.config.indices:
            self._log_and_send(ctx, j, msg)

    def erase_dealt_polynomials(self) -> None:
        """§5.2 erasure: strip row polynomials from logged send messages.

        After resharing, a dealer must forget the univariate polynomials
        so that a later compromise cannot expose its previous-phase
        share; recovery retransmissions then carry commitments only.
        """
        self._own_send = None
        for recipient, messages in self._b_log.items():
            self._b_log[recipient] = [
                SendMsg(m.session, m.commitment, None) if isinstance(m, SendMsg) else m
                for m in messages
            ]

    def start_recovery(self, ctx: Context) -> None:
        """upon (P_d, tau, in, recover):
        send (help) to all the nodes; send all messages in B."""
        for j in self.config.indices:
            ctx.send(j, HelpMsg(self.session))
        for recipient, messages in self._b_log.items():
            for msg in messages:
                ctx.send(recipient, msg)

    # -- network message dispatch --------------------------------------------------

    def handle(self, sender: int, msg: Any, ctx: Context) -> None:
        if isinstance(msg, SendMsg):
            self._on_send(sender, msg, ctx)
        elif isinstance(msg, EchoMsg):
            self._on_echo(sender, msg, ctx)
        elif isinstance(msg, ReadyMsg):
            self._on_ready(sender, msg, ctx)
        elif isinstance(msg, HelpMsg):
            self._on_help(sender, ctx)
        elif isinstance(msg, SharePointMsg):
            self._on_rec_share(sender, msg, ctx)
        else:
            raise TypeError(f"unexpected VSS message {msg!r}")

    # upon a message (P_d, tau, send, C, a) from P_d (first time):
    def _on_send(self, sender: int, msg: SendMsg, ctx: Context) -> None:
        if sender != self.session.dealer or self._seen_send:
            return
        if msg.poly is None:
            # Renewal-mode retransmission carries no polynomial; it only
            # re-publishes C and cannot trigger echoes.
            return
        self._seen_send = True
        # Identity, not equality: only the very object start_dealing
        # built skips the check; a copy of it is checked.
        own = msg is self._own_send
        self._own_send = None
        commitment = msg.commitment
        if (
            self.expected_secret_commitment is not None
            and commitment.public_key() != self.expected_secret_commitment
        ):
            return  # dealer is not resharing its certified previous share
        # if verify-poly(C, i, a) then send echo(C, a(j)) to each P_j
        if not own and not commitment.verify_poly(self.me, msg.poly):
            return
        if commitment._is_symmetric():
            self._state_for(commitment).verified_row = msg.poly
        for j in self.config.indices:
            echo = EchoMsg(self.session, commitment, msg.poly(j))
            self._log_and_send(ctx, j, echo)

    # upon a message (P_d, tau, echo, C, alpha) from P_m (first time):
    def _on_echo(self, sender: int, msg: EchoMsg, ctx: Context) -> None:
        state = self._state_for(msg.commitment)
        if sender in state.echo_seen:
            return
        state.echo_seen.add(sender)
        # Buffer the point; verification happens in batch at the
        # threshold (if verify-point(C, i, m, alpha) then A_C += ...).
        state.pending_echo[sender] = msg.point
        cfg = self.config
        # The echo branch of Fig. 1 only drives the ready send (guarded
        # by r_C < t+1, which the amplify path makes equivalent to "not
        # sent yet"); once that happened, buffered echoes can rest.
        if state.sent_ready or state.ready_count >= cfg.ready_threshold:
            return
        # if e_C = ceil((n+t+1)/2) and r_C < t+1: interpolate; send ready
        if state.echo_count + len(state.pending_echo) < cfg.echo_threshold:
            return
        state.echo_count += self._flush_pending(
            msg.commitment, state, state.pending_echo
        )
        if state.echo_count >= cfg.echo_threshold:
            self._interpolate_and_send_ready(msg.commitment, state, ctx)

    # upon a message (P_d, tau, ready, C, alpha) from P_m (first time):
    def _on_ready(self, sender: int, msg: ReadyMsg, ctx: Context) -> None:
        state = self._state_for(msg.commitment)
        if sender in state.ready_seen:
            return
        state.ready_seen.add(sender)
        if self.sign_ready:
            # Extended mode: a ready must be signed, but the channel has
            # already authenticated its sender — the signature is only
            # evidence for third parties, checked when certificate()
            # puts it into R_d.  The point check still gates r_C.  Late
            # readies (after `shared`) are kept as well: they can fill
            # a certificate whose first n - t - f witnesses fell short.
            if msg.signature is None:
                return
            state.pending_witness[sender] = ReadyWitness(sender, msg.signature)
        state.pending_ready[sender] = msg.point
        cfg = self.config
        buffered = state.ready_count + len(state.pending_ready)
        amplify_due = not state.sent_ready and buffered >= cfg.ready_threshold
        complete_due = self.completed is None and buffered >= cfg.output_threshold
        if not (amplify_due or complete_due):
            return
        state.ready_count += self._flush_pending(
            msg.commitment, state, state.pending_ready, promote_witnesses=True
        )
        if (
            state.ready_count >= cfg.ready_threshold
            and state.echo_count < cfg.echo_threshold
        ):
            # if r_C = t+1 and e_C < ceil((n+t+1)/2): interpolate; send ready
            self._interpolate_and_send_ready(msg.commitment, state, ctx)
        if state.ready_count >= cfg.output_threshold:
            # else if r_C = n-t-f: s_i <- a(0); output shared
            self._complete(msg.commitment, state, ctx)

    def _interpolate_and_send_ready(
        self,
        commitment: FeldmanCommitment,
        state: _PerCommitmentState,
        ctx: Context,
    ) -> None:
        """Lagrange-interpolate a from A_C; send ready(C, a(j)) to each P_j."""
        if state.sent_ready:
            return
        state.sent_ready = True
        cfg = self.config
        points = sorted(state.points.items())[: cfg.t + 1]
        state.row_poly = interpolate_polynomial(points, cfg.group.q)
        signature = None
        if self.sign_ready:
            assert self.keystore is not None
            payload = ready_signing_bytes(self.session, commitment_digest(commitment))
            signature = self.keystore.sign(payload, self.rng)
        for j in cfg.indices:
            ready = ReadyMsg(self.session, commitment, state.row_poly(j), signature)
            self._log_and_send(ctx, j, ready)

    def _complete(
        self,
        commitment: FeldmanCommitment,
        state: _PerCommitmentState,
        ctx: Context,
    ) -> None:
        if self.completed is not None:
            return
        if state.row_poly is None:
            # Cannot happen for honest thresholds (ready_count passed t+1
            # first, which interpolates); guard against misuse.
            points = sorted(state.points.items())[: self.config.t + 1]
            state.row_poly = interpolate_polynomial(points, self.config.group.q)
        share = state.row_poly(0)  # s_i = a(0) = f(0, i)
        proof = tuple(
            list(state.ready_witnesses.values())[: self.config.output_threshold]
        )
        self.completed = SharedOutput(self.session, commitment, share, proof)
        ctx.output(self.completed)
        self.on_shared(self.completed)
        # Fired once.  Its owner holds this session, so keeping the bound
        # method would leave every finished DKG in a reference cycle that
        # only a full collection frees — and one DKG is ~1 MB behind so
        # few container objects that the collector's thresholds miss it.
        self.on_shared = None

    def certificate(self) -> tuple[ReadyWitness, ...] | None:
        """R_d for the output C: ``n - t - f`` witnesses whose ready
        signatures verify, or None while there are too few.

        Candidates are tried in promotion order (so an all-valid R_d is
        the output's ``ready_proof``), then the late readies.  Each
        check goes through ``ca``, which the DKG node shares with this
        session, so no signature is verified twice; a witness that
        fails is evicted, and asking again costs only new arrivals.
        """
        if self.completed is None:
            return None
        commitment = self.completed.commitment
        state = self._per_c[commitment]
        payload = ready_signing_bytes(self.session, commitment_digest(commitment))
        need = self.config.output_threshold
        chosen: list[ReadyWitness] = []
        for pool in (state.ready_witnesses, state.pending_witness):
            for m, witness in list(pool.items()):
                if len(chosen) == need:
                    break
                if self.ca.verify(m, payload, witness.signature):
                    chosen.append(witness)
                else:
                    del pool[m]
        return tuple(chosen) if len(chosen) == need else None

    # upon a message (P_d, tau, help) from P_l:
    def _on_help(self, sender: int, ctx: Context) -> None:
        cfg = self.config
        count = self._help_from.get(sender, 0)
        # if c_l <= d(kappa) and c <= (t+1) d(kappa):
        if count >= cfg.help_per_node_budget:
            return
        if self._help_total >= cfg.help_total_budget:
            return
        self._help_from[sender] = count + 1
        self._help_total += 1
        # send all messages of B_l
        for msg in self._b_log[sender]:
            ctx.send(sender, msg)

    # Rec protocol: collect share points, batch-verify at the t+1
    # threshold, and interpolate the survivors.
    def _on_rec_share(self, sender: int, msg: SharePointMsg, ctx: Context) -> None:
        if self.reconstructed is not None or not self._rec_started:
            return
        if self._rec is None or self._rec.seen(sender):
            return
        if self._rec.add(sender, msg.point, rng=self.rng):
            value = reconstruct_raw(self._rec.first_points(), self.config.group.q)
            self.reconstructed = ReconstructedOutput(self.session, value)
            ctx.output(self.reconstructed)
            self.on_reconstructed(self.reconstructed)
