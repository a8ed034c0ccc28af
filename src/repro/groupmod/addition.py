"""Node addition without share renewal (§6.2).

The paper's three modifications to the DKG:

1. On a Node-Add request, node ``P_i`` reshares its *current* share
   ``s_{i, tau}`` (not a random value) and broadcasts the request; it
   proceeds only after seeing ``t + 1`` identical requests.
2. On deciding ``Q`` (of size ``t + 1``) it Lagrange-interpolates the
   received subshares *for index new* — ``s_{i,new} =
   sum_d lambda_d^(Q,new) s_{i,d}`` — and hands ``P_new`` the subshare
   together with the vector commitment
   ``V_l = prod_d ((C_d)_{l0})^(lambda_d^(Q,new))``.
3. ``P_new`` collects ``t + 1`` subshares under the same ``V``,
   verifies each against ``V``, and interpolates them at 0 to obtain
   its share ``s_new``.

The subshares lie on a fresh degree-t polynomial ``h`` with
``h(0) = s_new``; existing nodes' shares and the system commitment are
untouched, so additions compose with (or substitute for) renewal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.polynomials import lagrange_coefficients
from repro.crypto.shares import reconstruct_raw
from repro.sim.adversary import Adversary
from repro.sim.metrics import Metrics
from repro.sim.network import DelayModel
from repro.sim.node import Context, ProtocolNode
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.sim.runner import Simulation
from repro.deployment import addition_machines, addition_pki, simulate
from repro.dkg.config import DkgConfig
from repro.dkg.node import DkgNode
from repro.proactive.renewal import share_commitment_at
from repro.groupmod.messages import (
    JoinedOutput,
    NodeAddInput,
    NodeAddRequestMsg,
    SubshareMsg,
)


class AdditionNode(DkgNode):
    """An existing member participating in node addition.

    Supports adding several nodes simultaneously (§6.2: run the
    interpolate-and-deliver modifications "separately for each node"):
    ``new_nodes`` lists every joining index; one subshare + commitment
    vector is produced per joiner from the same decided set Q.
    """

    def __init__(
        self,
        node_id: int,
        config: DkgConfig,
        keystore: KeyStore,
        ca: CertificateAuthority,
        new_node: int | list[int],
        current_share: int,
        current_commitment: FeldmanCommitment | FeldmanVector | None = None,
        tau: int = 0,
    ):
        super().__init__(
            node_id, config, keystore, ca, tau=tau, secret=current_share
        )
        self.new_nodes = (
            [new_node] if isinstance(new_node, int) else list(new_node)
        )
        self.new_node = self.new_nodes[0]
        if current_commitment is not None:
            for dealer, session in self.sessions.items():
                session.expected_secret_commitment = share_commitment_at(
                    current_commitment, dealer
                )
        self.add_requests: set[int] = set()
        self._buffer: list[tuple[int, Any]] = []
        self.sent_subshare = False

    @property
    def _gate_open(self) -> bool:
        """t + 1 identical Node-Add requests seen (own included)."""
        return len(self.add_requests) >= self.config.t + 1

    def on_operator(self, payload: Any, ctx: Context) -> None:
        if isinstance(payload, NodeAddInput):
            self._on_add_request_local(payload, ctx)
        else:
            super().on_operator(payload, ctx)

    def _on_add_request_local(self, payload: NodeAddInput, ctx: Context) -> None:
        """Modification 1: reshare s_{i, tau}; broadcast the request."""
        if self.started or payload.new_node not in self.new_nodes:
            return
        self.started = True
        self.sessions[self.node_id].start_dealing(self.secret, ctx)
        self.sessions[self.node_id].erase_dealt_polynomials()
        self.add_requests.add(self.node_id)
        # Logged for help-driven retransmission (crash recovery).
        self._log_and_broadcast(ctx, NodeAddRequestMsg(self.new_node, self.tau))
        self._drain_buffer(ctx)

    def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
        if isinstance(payload, NodeAddRequestMsg):
            if payload.new_node in self.new_nodes and payload.tau == self.tau:
                self.add_requests.add(sender)
                self._drain_buffer(ctx)
            return
        if not self._gate_open:
            self._buffer.append((sender, payload))
            return
        super().on_message(sender, payload, ctx)

    def _drain_buffer(self, ctx: Context) -> None:
        if not self._gate_open or not self._buffer:
            return
        pending, self._buffer = self._buffer, []
        for sender, payload in pending:
            super().on_message(sender, payload, ctx)

    # Modification 2: interpolate *for each new index*; deliver results.
    def _try_complete(self, ctx: Context) -> None:
        if self.sent_subshare or self.decided_q is None:
            return
        outputs = []
        for dealer in self.decided_q:
            session = self.sessions.get(dealer)
            if session is None or session.completed is None:
                return
            outputs.append((dealer, session.completed))
        group = self.config.group
        dealers = [d for d, _ in outputs]
        self._stop_timer(ctx)
        self.sent_subshare = True
        for new in self.new_nodes:
            lambdas = lagrange_coefficients(dealers, new, group.q)
            subshare = (
                sum(lam * out.share for lam, (_, out) in zip(lambdas, outputs))
                % group.q
            )
            entries = [
                group.multiexp(
                    (out.commitment.matrix[ell][0], lam)
                    for lam, (_, out) in zip(lambdas, outputs)
                )
                for ell in range(self.config.t + 1)
            ]
            vector = FeldmanVector(tuple(entries), group)
            ctx.send(new, SubshareMsg(self.tau, vector, subshare))


@dataclass
class JoiningNode(ProtocolNode):
    """The new node P_new: collect, verify and interpolate subshares."""

    t: int = 0
    group_q: int = 0
    expected_share_pk: int | None = None
    joined: JoinedOutput | None = None

    def __post_init__(self) -> None:
        self._by_vector: dict[FeldmanVector, dict[int, int]] = {}

    def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
        if not isinstance(payload, SubshareMsg) or self.joined is not None:
            return
        vector = payload.vector
        # Modification 3: only accept subshares verifying against V.
        if not vector.verify_share(sender, payload.subshare):
            return
        # Cross-check against the system commitment: V must commit to a
        # polynomial whose value at 0 is *our* share of the old secret.
        if (
            self.expected_share_pk is not None
            and vector.public_key() != self.expected_share_pk
        ):
            return
        bucket = self._by_vector.setdefault(vector, {})
        if sender in bucket:
            return
        bucket[sender] = payload.subshare
        if len(bucket) == self.t + 1:
            share = reconstruct_raw(bucket.items(), self.group_q)
            self.joined = JoinedOutput(payload.tau, share, vector)
            ctx.output(self.joined)


@dataclass
class AdditionResult:
    """Outcome of one node-addition run."""

    new_node: int
    share: int | None
    vector: FeldmanVector | None
    metrics: Metrics
    simulation: Simulation


def run_node_additions(
    config: DkgConfig,
    shares: dict[int, int],
    commitment: FeldmanCommitment | FeldmanVector,
    new_nodes: list[int],
    seed: int = 0,
    tau: int = 1,
    delay_model: DelayModel | None = None,
    adversary: Adversary | None = None,
    until: float | None = None,
) -> dict[int, AdditionResult]:
    """Simulate §6.2 for one or more joiners simultaneously.

    ``shares``/``commitment`` come from a prior DKG or renewal phase.
    Each returned share verifies against the *existing* commitment at
    the joiner's index — the sharing polynomial is unchanged.
    """
    members = config.vss().indices
    for new_node in new_nodes:
        if new_node in members:
            raise ValueError(f"node {new_node} is already a member")
    if len(set(new_nodes)) != len(new_nodes):
        raise ValueError("duplicate joiner indices")
    machines = addition_machines(
        config,
        addition_pki(config, seed),
        [*members, *new_nodes],
        new_nodes,
        shares=shares,
        commitment=commitment,
        tau=tau,
    )
    sim = simulate(
        machines,
        [(i, NodeAddInput(new_nodes[0], tau), 0.0) for i in members],
        until=until,
        delay_model=delay_model,
        adversary=adversary or Adversary.passive(config.t, config.f),
        seed=seed,
        group=config.group,
    )
    joined = {new_node: machines[new_node].joined for new_node in new_nodes}
    return {
        new_node: AdditionResult(
            new_node=new_node,
            share=out.share if out else None,
            vector=out.vector if out else None,
            metrics=sim.metrics,
            simulation=sim,
        )
        for new_node, out in joined.items()
    }


def run_node_addition(
    config: DkgConfig,
    shares: dict[int, int],
    commitment: FeldmanCommitment | FeldmanVector,
    new_node: int,
    seed: int = 0,
    tau: int = 1,
    delay_model: DelayModel | None = None,
    adversary: Adversary | None = None,
    until: float | None = None,
) -> AdditionResult:
    """Single-joiner convenience wrapper over :func:`run_node_additions`."""
    return run_node_additions(
        config, shares, commitment, [new_node],
        seed=seed, tau=tau, delay_model=delay_model,
        adversary=adversary, until=until,
    )[new_node]
