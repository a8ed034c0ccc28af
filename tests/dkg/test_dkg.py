"""Integration tests for the DKG protocol: Definition 4.1 properties
under honest runs, crash faults, and Byzantine leaders/participants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest

from repro.sim.adversary import Adversary
from repro.sim.clock import TimeoutPolicy
from repro.sim.network import ExponentialDelay
from repro.sim.node import Context, ProtocolNode
from repro.dkg import (
    DkgConfig,
    DkgNode,
    DkgSendMsg,
    MTypeProof,
    RTypeProof,
    run_dkg,
)

from tests.helpers import default_test_group

G = default_test_group()


def _config(n: int = 7, t: int = 2, f: int = 0, **kw: Any) -> DkgConfig:
    kw.setdefault("group", G)
    kw.setdefault("timeout", TimeoutPolicy(initial=25.0, multiplier=2.0))
    return DkgConfig(n=n, t=t, f=f, **kw)


class TestOptimisticPath:
    @pytest.mark.parametrize("n,t,f", [(4, 1, 0), (7, 2, 0), (9, 2, 1), (10, 3, 0)])
    def test_honest_run_completes_in_view_zero(self, n: int, t: int, f: int) -> None:
        res = run_dkg(_config(n, t, f), seed=1)
        assert res.succeeded
        assert all(out.view == 0 for out in res.completions.values())
        assert len(res.q_set) == t + 1

    def test_all_nodes_agree_on_everything(self) -> None:
        res = run_dkg(_config(), seed=2)
        # Single Q, single commitment, single public key across nodes.
        assert res.q_set
        assert res.commitment
        assert res.public_key

    def test_shares_reconstruct_group_secret(self) -> None:
        res = run_dkg(_config(), seed=3)
        assert res.reconstruct() == res.expected_secret()

    def test_public_key_matches_group_secret(self) -> None:
        res = run_dkg(_config(), seed=4)
        assert res.public_key == G.commit(res.expected_secret())

    def test_shares_verify_against_combined_commitment(self) -> None:
        res = run_dkg(_config(), seed=5)
        commitment = res.commitment
        for i, share in res.shares.items():
            assert commitment.verify_share(i, share)

    def test_fixed_secrets_are_respected(self) -> None:
        secrets = {i: 1000 + i for i in range(1, 8)}
        res = run_dkg(_config(), seed=6, secrets=secrets)
        expected = sum(secrets[d] for d in res.q_set) % G.q
        assert res.reconstruct() == expected

    def test_nobody_knows_the_secret(self) -> None:
        # No single node's share equals the group secret (privacy smoke
        # test; the real privacy argument is information-theoretic
        # until t+1 shares combine).
        res = run_dkg(_config(), seed=7)
        secret = res.expected_secret()
        assert all(share != secret for share in res.shares.values())

    def test_heavy_tailed_network_still_completes_optimistically(self) -> None:
        res = run_dkg(
            _config(timeout=TimeoutPolicy(initial=200.0)),
            seed=8,
            delay_model=ExponentialDelay(mean=3.0),
        )
        assert res.succeeded
        assert res.metrics.leader_changes == 0


class TestCrashFaults:
    def test_completes_with_f_crashed_non_leader(self) -> None:
        cfg = _config(n=9, t=2, f=1)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(0.0, 5, None)])
        res = run_dkg(cfg, seed=9, adversary=adv)
        assert res.succeeded  # crashed node excluded from "finally up"
        assert 5 not in res.completed_nodes

    def test_crashed_and_recovered_node_completes(self) -> None:
        cfg = _config(n=9, t=2, f=1)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(1.0, 5, 60.0)])
        res = run_dkg(cfg, seed=10, adversary=adv)
        assert 5 in res.completed_nodes
        assert res.metrics.recoveries == 1

    def test_crashed_leader_triggers_leader_change(self) -> None:
        cfg = _config(n=9, t=2, f=1)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(0.5, 1, None)])
        res = run_dkg(cfg, seed=11, adversary=adv)
        completions = {i: o.view for i, o in res.completions.items()}
        assert set(completions) == set(range(2, 10))
        assert all(view >= 1 for view in completions.values())
        assert res.metrics.leader_changes > 0

    def test_leader_crash_after_proposal_is_harmless(self) -> None:
        # Leader crashes *after* its send messages are out: broadcast
        # still completes through echoes/readies, no leader change.
        cfg = _config(n=9, t=2, f=1)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(8.0, 1, None)])
        res = run_dkg(cfg, seed=12, adversary=adv)
        assert set(res.completed_nodes) >= set(range(2, 10))


@dataclass
class SilentNode(ProtocolNode):
    """Byzantine: never sends anything."""

    def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
        pass

    def on_operator(self, payload: Any, ctx: Context) -> None:
        pass


class _SilentFactory:
    def __init__(self, silent: set[int]):
        self.silent = silent

    def __call__(self, i, config, keystore, ca):
        return SilentNode(i) if i in self.silent else None


class TestByzantineLeader:
    def test_silent_leader_replaced_and_dkg_completes(self) -> None:
        cfg = _config()
        adv = Adversary.corrupting(t=2, f=0, byzantine={1})
        res = run_dkg(cfg, seed=13, adversary=adv, node_factory=_SilentFactory({1}))
        assert res.succeeded
        assert all(out.view >= 1 for out in res.completions.values())
        assert res.reconstruct() == res.expected_secret()

    def test_two_silent_leaders_in_a_row(self) -> None:
        cfg = _config()
        adv = Adversary.corrupting(t=2, f=0, byzantine={1, 2})
        res = run_dkg(
            cfg, seed=14, adversary=adv, node_factory=_SilentFactory({1, 2})
        )
        assert res.succeeded
        assert all(out.view >= 2 for out in res.completions.values())
        # pessimistic phase bookkeeping
        assert res.metrics.messages_by_kind["dkg.lead-ch"] > 0

    def test_equivocating_leader_cannot_split_agreement(self) -> None:
        """A Byzantine leader sends different (valid!) proposals to the
        two halves of the network.  The echo quorum forces a single Q."""

        class EquivocatingLeader(DkgNode):
            def _propose(self, ctx: Context) -> None:
                if self.view in self.proposed_in_view:
                    return
                proof = self._current_proof()
                if proof is None or not isinstance(proof, RTypeProof):
                    return
                if len(self.q_hat) < self.config.t + 2:
                    return  # wait until we can build two distinct sets
                self.proposed_in_view.add(self.view)
                dealers = sorted(self.q_hat)
                set_a = tuple(dealers[: self.config.t + 1])
                set_b = tuple(dealers[1 : self.config.t + 2])
                proof_a = RTypeProof(tuple(self.q_hat[d] for d in set_a))
                proof_b = RTypeProof(tuple(self.q_hat[d] for d in set_b))
                for j in self.vss_config.indices:
                    proof_x = proof_a if j <= self.config.n // 2 else proof_b
                    ctx.send(j, DkgSendMsg(self.tau, self.view, proof_x, ()))

        def factory(i, config, keystore, ca):
            if i == 1:
                return EquivocatingLeader(i, config, keystore, ca)
            return None

        cfg = _config()
        adv = Adversary.corrupting(t=2, f=0, byzantine={1})
        res = run_dkg(cfg, seed=15, adversary=adv, node_factory=factory)
        # Safety: all completing nodes agree (q_set raises on divergence).
        completed = res.completions
        if completed:
            _ = res.q_set
            _ = res.public_key

    def test_leader_with_forged_proof_is_ignored(self) -> None:
        """A leader proposing without valid ready certificates gets no
        echoes; the protocol falls through to leader change."""

        class ForgingLeader(DkgNode):
            def _propose(self, ctx: Context) -> None:
                if self.view in self.proposed_in_view:
                    return
                if len(self.q_hat) < self.config.t + 1:
                    return
                self.proposed_in_view.add(self.view)
                # Tamper every digest: signatures no longer verify.
                from repro.dkg.messages import ReadyCert

                certs = tuple(
                    ReadyCert(c.dealer, b"\x11" * 32, c.witnesses)
                    for c in list(self.q_hat.values())[: self.config.t + 1]
                )
                proof = RTypeProof(certs)
                msg = DkgSendMsg(self.tau, self.view, proof, ())
                for j in self.vss_config.indices:
                    ctx.send(j, msg)

        def factory(i, config, keystore, ca):
            if i == 1:
                return ForgingLeader(i, config, keystore, ca)
            return None

        cfg = _config()
        adv = Adversary.corrupting(t=2, f=0, byzantine={1})
        res = run_dkg(cfg, seed=16, adversary=adv, node_factory=factory)
        honest = [i for i in range(2, 8)]
        assert all(res.nodes[i].completed is not None for i in honest)
        assert all(res.nodes[i].completed.view >= 1 for i in honest)


class TestByzantineParticipants:
    def test_t_silent_participants_do_not_block(self) -> None:
        cfg = _config()
        adv = Adversary.corrupting(t=2, f=0, byzantine={6, 7})
        res = run_dkg(
            cfg, seed=17, adversary=adv, node_factory=_SilentFactory({6, 7})
        )
        assert res.succeeded
        assert res.reconstruct() == res.expected_secret()

    def test_silent_nodes_excluded_from_q(self) -> None:
        # Silent nodes never deal, so they cannot appear in Q.
        cfg = _config()
        adv = Adversary.corrupting(t=2, f=0, byzantine={6, 7})
        res = run_dkg(
            cfg, seed=18, adversary=adv, node_factory=_SilentFactory({6, 7})
        )
        assert not (set(res.q_set) & {6, 7})

    def test_mixed_byzantine_and_crash(self) -> None:
        cfg = _config(n=10, t=2, f=1)
        adv = Adversary(
            t=2,
            f=1,
            byzantine=frozenset({4}),
            crash_plan=[(2.0, 8, 40.0)],
            d_budget=5,
        )
        res = run_dkg(cfg, seed=19, adversary=adv, node_factory=_SilentFactory({4}))
        assert res.succeeded
        assert res.reconstruct() == res.expected_secret()


class TestDeterminismAndMetrics:
    def test_same_seed_reproduces_run(self) -> None:
        a = run_dkg(_config(), seed=77)
        b = run_dkg(_config(), seed=77)
        assert a.public_key == b.public_key
        assert a.metrics.summary() == b.metrics.summary()

    def test_different_seeds_give_different_keys(self) -> None:
        a = run_dkg(_config(), seed=1)
        b = run_dkg(_config(), seed=2)
        assert a.public_key != b.public_key

    def test_message_kind_inventory(self) -> None:
        res = run_dkg(_config(), seed=20)
        kinds = set(res.metrics.messages_by_kind)
        assert {"vss.send", "vss.echo", "vss.ready", "dkg.send", "dkg.echo",
                "dkg.ready"} <= kinds
        # n VSS instances: n sends of n rows, n^2 echoes per dealer...
        n = 7
        assert res.metrics.messages_by_kind["vss.send"] == n * n
        assert res.metrics.messages_by_kind["vss.echo"] == n * n * n
        assert res.metrics.messages_by_kind["dkg.send"] == n

    def test_last_completion_time_reflects_dkg_output(self) -> None:
        res = run_dkg(_config(), seed=21)
        assert res.last_completion_time is not None
        assert res.last_completion_time > 0


class TestResilienceBoundary:
    def test_config_rejects_sub_resilient_parameters(self) -> None:
        with pytest.raises(Exception):
            DkgConfig(n=6, t=2, f=0, group=G)

    def test_sub_resilient_run_with_t_plus_one_silent_stalls(self) -> None:
        # With enforcement off and t+1 actually-faulty nodes (more than
        # the adversary bound), the DKG cannot complete: agreement on Q
        # needs n - t - f readies, which the faulty majority denies.
        cfg = _config(
            n=7, t=2, f=0, enforce_resilience=False,
            timeout=TimeoutPolicy(initial=10.0, multiplier=1.0, cap=10.0),
        )
        adv = Adversary(t=3, f=0, byzantine=frozenset({5, 6, 7}))
        res = run_dkg(
            cfg,
            seed=22,
            adversary=adv,
            node_factory=_SilentFactory({5, 6, 7}),
            until=2_000.0,
            max_events=None,
        )
        assert not res.completions  # nobody can finish


class TestViewRotation:
    def test_leader_of_view_cycles(self) -> None:
        cfg = _config(n=7, initial_leader=6)
        assert [cfg.leader_of_view(v) for v in range(4)] == [6, 7, 1, 2]

    def test_invalid_initial_leader_rejected(self) -> None:
        with pytest.raises(ValueError):
            DkgConfig(n=7, t=2, initial_leader=8, group=G)

    def test_nonstandard_initial_leader_runs(self) -> None:
        res = run_dkg(_config(initial_leader=4), seed=23)
        assert res.succeeded
