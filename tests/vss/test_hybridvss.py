"""Integration tests for HybridVSS: the Definition 3.1 properties
(liveness, agreement, consistency, privacy, efficiency) under honest,
crashed and Byzantine conditions."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import Share, reconstruct_secret
from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.net import wire
from repro.sim.adversary import Adversary
from repro.sim.network import ConstantDelay, ExponentialDelay, UniformDelay
from repro.sim.node import Context, ProtocolNode
from repro.vss.config import VssConfig
from repro.vss.messages import SendMsg, SessionId
from repro.vss.node import VssNode, run_vss

from tests.helpers import default_test_group, sent_frame

G = default_test_group()


def _config(n: int = 7, t: int = 2, f: int = 0, **kw: Any) -> VssConfig:
    return VssConfig(n=n, t=t, f=f, group=G, **kw)


class TestLiveness:
    """Honest finally-up dealer => all honest finally-up nodes complete Sh."""

    @pytest.mark.parametrize("n,t,f", [(4, 1, 0), (7, 2, 0), (9, 2, 1), (10, 3, 0)])
    def test_all_nodes_complete_fault_free(self, n: int, t: int, f: int) -> None:
        res = run_vss(_config(n, t, f), secret=42, seed=1)
        assert res.completed_nodes == list(range(1, n + 1))

    def test_completes_under_heavy_tailed_delays(self) -> None:
        res = run_vss(
            _config(), secret=7, seed=3, delay_model=ExponentialDelay(mean=5.0)
        )
        assert len(res.completed_nodes) == 7

    def test_completes_with_f_crashed_nodes_forever(self) -> None:
        # f nodes crash permanently before the run; everyone else must
        # still finish (they are not "finally up", the rest are).
        cfg = _config(n=9, t=2, f=1)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(0.0, 9, None)])
        res = run_vss(cfg, secret=5, seed=4, adversary=adv)
        assert res.completed_nodes == list(range(1, 9))

    def test_crashed_then_recovered_node_completes_via_help(self) -> None:
        cfg = _config(n=9, t=2, f=1)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(0.1, 4, 50.0)])
        res = run_vss(cfg, secret=5, seed=5, adversary=adv)
        assert 4 in res.completed_nodes
        assert res.metrics.recoveries == 1
        # help traffic actually flowed
        assert res.metrics.messages_by_kind["vss.help"] > 0


class TestConsistency:
    """All completing nodes agree on C, and shares interpolate to s."""

    @given(st.integers(0, G.q - 1), st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_shares_interpolate_to_dealt_secret(self, secret: int, seed: int) -> None:
        res = run_vss(_config(), secret=secret, seed=seed)
        commitment = res.agreed_commitment()
        shares = [Share(i, out.share, commitment) for i, out in res.shares.items()]
        assert reconstruct_secret(shares, 2, G.q) == secret

    def test_every_share_verifies_against_commitment(self) -> None:
        res = run_vss(_config(), secret=99, seed=6)
        commitment = res.agreed_commitment()
        for i, out in res.shares.items():
            assert commitment.verify_share(i, out.share)

    def test_any_t_plus_one_subset_reconstructs_same_value(self) -> None:
        res = run_vss(_config(n=7, t=2), secret=1234, seed=7)
        commitment = res.agreed_commitment()
        items = sorted(res.shares.items())
        import itertools

        values = set()
        for combo in itertools.combinations(items, 3):
            shares = [Share(i, o.share, commitment) for i, o in combo]
            values.add(reconstruct_secret(shares, 2, G.q))
        assert values == {1234}

    def test_rec_protocol_agrees_everywhere(self) -> None:
        res = run_vss(_config(), secret=555, seed=8, reconstruct=True)
        assert set(res.reconstructions.values()) == {555}
        assert len(res.reconstructions) == 7


class TestEfficiency:
    """§3 Efficiency Discussion: O(n^2) messages, O(kappa n^4) bits."""

    def test_crash_free_message_count_is_quadratic(self) -> None:
        # send: n, echo: n^2, ready: n^2  => exactly n + 2n^2
        cfg = _config(n=7, t=2)
        res = run_vss(cfg, secret=1, seed=9)
        m = res.metrics
        assert m.messages_by_kind["vss.send"] == 7
        assert m.messages_by_kind["vss.echo"] == 49
        assert m.messages_by_kind["vss.ready"] == 49
        assert m.messages_total == 7 + 2 * 49

    def test_hashed_codec_reduces_bytes(self, metered) -> None:
        # Echo and ready carry the matrix's digest (Cachin et al.), so
        # only the n sends pay for the matrix.
        res = run_vss(_config(n=7, t=2), secret=1, seed=10)
        payloads = [payload for payload, _ in metered]
        sent = sum(len(sent_frame(p, G)) for p in payloads)
        inline = sum(len(wire.encode(p, group=G)) for p in payloads)
        assert res.metrics.messages_total == len(payloads) == 7 + 2 * 49
        assert res.metrics.bytes_total == sent < inline

    def test_recovery_cost_bounded(self) -> None:
        # A single crash/recovery adds O(n) help messages and O(n^2)
        # retransmissions, not more.
        cfg = _config(n=9, t=2, f=1)
        baseline = run_vss(cfg, secret=1, seed=11)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(0.1, 4, 30.0)])
        crashed = run_vss(cfg, secret=1, seed=11, adversary=adv)
        extra = crashed.metrics.messages_total - baseline.metrics.messages_total
        n = cfg.n
        # help broadcast (n) + B retransmissions bounded by a few n^2
        assert 0 < extra <= 4 * n * n


class TestPrivacy:
    """t shares reveal nothing: any t shares are consistent with any secret."""

    def test_t_shares_insufficient_to_reconstruct(self) -> None:
        from repro.crypto.shares import ReconstructionError

        res = run_vss(_config(n=7, t=2), secret=31337, seed=12)
        commitment = res.agreed_commitment()
        shares = [
            Share(i, res.shares[i].share, commitment) for i in (1, 2)
        ]  # only t = 2 shares
        with pytest.raises(ReconstructionError):
            reconstruct_secret(shares, 2, G.q)

    def test_t_shares_interpolate_to_wrong_value(self) -> None:
        # Naive interpolation from t points produces a value different
        # from the secret (generic case).
        from repro.crypto.polynomials import interpolate_at

        res = run_vss(_config(n=7, t=2), secret=31337, seed=13)
        pts = [(i, res.shares[i].share) for i in (1, 2)]
        assert interpolate_at(pts, 0, G.q) != 31337


@dataclass
class EquivocatingDealer(ProtocolNode):
    """A Byzantine dealer sending shares of *different* secrets to
    different halves of the network (the classic consistency attack)."""

    config: VssConfig = None  # type: ignore[assignment]
    session_id: SessionId = None  # type: ignore[assignment]

    def on_operator(self, payload: Any, ctx: Context) -> None:
        cfg = self.config
        rng = random.Random(1)
        f1 = BivariatePolynomial.random_symmetric(cfg.t, cfg.group.q, rng, secret=111)
        f2 = BivariatePolynomial.random_symmetric(cfg.t, cfg.group.q, rng, secret=222)
        c1 = FeldmanCommitment.commit(f1, cfg.group)
        c2 = FeldmanCommitment.commit(f2, cfg.group)
        for j in cfg.indices:
            poly, com = (f1, c1) if j <= cfg.n // 2 else (f2, c2)
            ctx.send(j, SendMsg(self.session_id, com, poly.row_polynomial(j)))


@dataclass
class BadShareDealer(ProtocolNode):
    """A Byzantine dealer whose row polynomials do not match C."""

    config: VssConfig = None  # type: ignore[assignment]
    session_id: SessionId = None  # type: ignore[assignment]

    def on_operator(self, payload: Any, ctx: Context) -> None:
        cfg = self.config
        rng = random.Random(2)
        f = BivariatePolynomial.random_symmetric(cfg.t, cfg.group.q, rng, secret=9)
        commitment = FeldmanCommitment.commit(f, cfg.group)
        wrong = BivariatePolynomial.random_symmetric(cfg.t, cfg.group.q, rng)
        for j in cfg.indices:
            ctx.send(
                j, SendMsg(self.session_id, commitment, wrong.row_polynomial(j))
            )


class TestByzantineDealer:
    def test_equivocating_dealer_cannot_split_the_network(self) -> None:
        # With two commitments each supported by only half the nodes,
        # neither reaches the echo quorum ceil((n+t+1)/2): nobody
        # completes with inconsistent values.
        cfg = _config(n=7, t=2)
        adv = Adversary.corrupting(t=2, f=0, byzantine={1})
        res = run_vss(
            cfg,
            secret=0,
            seed=14,
            adversary=adv,
            node_factory={1: EquivocatingDealer(1, cfg, SessionId(1, 0))},
        )
        commitments = {out.commitment for out in res.shares.values()}
        assert len(commitments) <= 1  # consistency never violated

    def test_invalid_row_polynomials_are_rejected(self) -> None:
        cfg = _config(n=7, t=2)
        adv = Adversary.corrupting(t=2, f=0, byzantine={1})
        res = run_vss(
            cfg,
            secret=0,
            seed=15,
            adversary=adv,
            node_factory={1: BadShareDealer(1, cfg, SessionId(1, 0))},
        )
        # verify-poly fails everywhere: no echoes, no completion.
        assert res.completed_nodes == []
        assert res.metrics.messages_by_kind["vss.echo"] == 0


@dataclass
class LyingEchoNode(VssNode):
    """An otherwise-honest node that corrupts the points in its echoes."""

    def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
        if isinstance(payload, SendMsg) and payload.poly is not None:
            from repro.vss.messages import EchoMsg

            commitment = payload.commitment
            for j in self.config.indices:
                bad_point = (payload.poly(j) + 1) % self.config.group.q
                ctx.send(j, EchoMsg(self.session_id, commitment, bad_point))
            return
        super().on_message(sender, payload, ctx)


class TestByzantineParticipant:
    def test_bad_echo_points_filtered_by_verify_point(self) -> None:
        cfg = _config(n=7, t=2)
        adv = Adversary.corrupting(t=2, f=0, byzantine={3})
        res = run_vss(
            cfg,
            secret=808,
            seed=16,
            adversary=adv,
            node_factory={3: LyingEchoNode(3, cfg, SessionId(1, 0))},
        )
        # Everyone else still completes with the correct secret.
        completed = [i for i in res.completed_nodes if i != 3]
        assert len(completed) >= cfg.n - 1
        commitment = res.agreed_commitment()
        shares = [Share(i, res.shares[i].share, commitment) for i in completed]
        assert reconstruct_secret(shares, 2, G.q) == 808

    def test_silent_byzantine_minority_does_not_block(self) -> None:
        @dataclass
        class SilentNode(ProtocolNode):
            def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
                pass

        cfg = _config(n=7, t=2)
        adv = Adversary.corrupting(t=2, f=0, byzantine={6, 7})
        res = run_vss(
            cfg,
            secret=21,
            seed=17,
            adversary=adv,
            node_factory={6: SilentNode(6), 7: SilentNode(7)},
        )
        assert set(res.completed_nodes) >= {1, 2, 3, 4, 5}


class TestDeterminism:
    def test_same_seed_reproduces_metrics_exactly(self) -> None:
        a = run_vss(_config(), secret=1, seed=99)
        b = run_vss(_config(), secret=1, seed=99)
        assert a.metrics.summary() == b.metrics.summary()
        assert {i: o.share for i, o in a.shares.items()} == {
            i: o.share for i, o in b.shares.items()
        }

    def test_different_delay_models_same_shares(self) -> None:
        # Scheduling affects timing/coordination, never the secret: the
        # dealt polynomial depends only on the dealer's RNG.
        a = run_vss(_config(), secret=1, seed=50, delay_model=ConstantDelay(1.0))
        b = run_vss(_config(), secret=1, seed=50, delay_model=UniformDelay(0.1, 9.0))
        assert a.agreed_commitment() == b.agreed_commitment()
