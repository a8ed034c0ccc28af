"""Clause-level tests for node addition: gates, subshare algebra,
multi-joiner behaviour, and JoiningNode filtering."""

from __future__ import annotations

import random

import pytest

from repro.crypto.feldman import FeldmanVector
from repro.crypto.polynomials import Polynomial
from repro.dkg import DkgConfig
from repro.groupmod import run_node_additions
from repro.groupmod.addition import JoiningNode
from repro.groupmod.messages import SubshareMsg

from tests.helpers import StubContext, default_test_group

G = default_test_group()


def _sharing(t: int = 2, secret: int = 99, seed: int = 0):
    rng = random.Random(seed)
    poly = Polynomial.random(t, G.q, rng, constant_term=secret)
    vector = FeldmanVector.commit(poly, G)
    return poly, vector


class TestJoiningNode:
    def _msgs(self, poly, vector, senders):
        return [
            (m, SubshareMsg(1, vector, poly(m))) for m in senders
        ]

    def test_joins_after_t_plus_one_consistent_subshares(self) -> None:
        poly, vector = _sharing()
        node = JoiningNode(8, t=2, group_q=G.q)
        ctx = StubContext(node_id=8)
        for sender, msg in self._msgs(poly, vector, [1, 2, 3]):
            node.on_message(sender, msg, ctx)
        assert node.joined is not None
        assert node.joined.share == poly(0) == 99
        assert len(ctx.outputs) == 1

    def test_rejects_subshares_failing_vector_check(self) -> None:
        poly, vector = _sharing()
        node = JoiningNode(8, t=2, group_q=G.q)
        ctx = StubContext(node_id=8)
        node.on_message(1, SubshareMsg(1, vector, 12345), ctx)
        for sender, msg in self._msgs(poly, vector, [2, 3]):
            node.on_message(sender, msg, ctx)
        assert node.joined is None  # only 2 valid
        node.on_message(4, SubshareMsg(1, vector, poly(4)), ctx)
        assert node.joined is not None

    def test_rejects_vector_with_wrong_public_value(self) -> None:
        poly, vector = _sharing(secret=99)
        wrong_poly, wrong_vector = _sharing(secret=55, seed=1)
        node = JoiningNode(
            8, t=2, group_q=G.q, expected_share_pk=G.commit(99)
        )
        ctx = StubContext(node_id=8)
        # subshares of the wrong sharing verify against their own vector
        # but the vector's public value does not match expectations
        for sender, msg in [
            (m, SubshareMsg(1, wrong_vector, wrong_poly(m)))
            for m in (1, 2, 3)
        ]:
            node.on_message(sender, msg, ctx)
        assert node.joined is None

    def test_mixed_vectors_bucketed_separately(self) -> None:
        p1, v1 = _sharing(seed=2)
        p2, v2 = _sharing(seed=3)
        node = JoiningNode(8, t=2, group_q=G.q)
        ctx = StubContext(node_id=8)
        node.on_message(1, SubshareMsg(1, v1, p1(1)), ctx)
        node.on_message(2, SubshareMsg(1, v2, p2(2)), ctx)
        node.on_message(3, SubshareMsg(1, v1, p1(3)), ctx)
        assert node.joined is None  # neither bucket has t+1
        node.on_message(4, SubshareMsg(1, v1, p1(4)), ctx)
        assert node.joined is not None
        assert node.joined.vector == v1

    def test_duplicate_sender_ignored(self) -> None:
        poly, vector = _sharing()
        node = JoiningNode(8, t=2, group_q=G.q)
        ctx = StubContext(node_id=8)
        msg = SubshareMsg(1, vector, poly(1))
        node.on_message(1, msg, ctx)
        node.on_message(1, msg, ctx)
        node.on_message(2, SubshareMsg(1, vector, poly(2)), ctx)
        assert node.joined is None


class TestMultiJoin:
    def test_duplicate_joiners_rejected(self) -> None:
        from repro.dkg import run_dkg

        res = run_dkg(DkgConfig(n=7, t=2, group=G), seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_node_additions(
                res.config, res.shares, res.commitment, [8, 8], seed=1
            )

    def test_three_simultaneous_joiners(self) -> None:
        from repro.crypto.polynomials import interpolate_at
        from repro.dkg import run_dkg

        res = run_dkg(DkgConfig(n=7, t=2, group=G), seed=2)
        secret = res.reconstruct()
        results = run_node_additions(
            res.config, res.shares, res.commitment, [8, 9, 10], seed=2
        )
        assert all(r.share is not None for r in results.values())
        for new, r in results.items():
            assert res.commitment.verify_share(new, r.share)
        # the three new shares alone reconstruct (t+1 = 3 points)
        pts = [(new, r.share) for new, r in sorted(results.items())]
        assert interpolate_at(pts, 0, G.q) == secret

    def test_single_wrapper_matches_plural(self) -> None:
        from repro.dkg import run_dkg
        from repro.groupmod import run_node_addition

        res = run_dkg(DkgConfig(n=7, t=2, group=G), seed=3)
        single = run_node_addition(
            res.config, res.shares, res.commitment, 8, seed=3
        )
        plural = run_node_additions(
            res.config, res.shares, res.commitment, [8], seed=3
        )[8]
        assert single.share == plural.share
