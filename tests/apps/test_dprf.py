"""Tests for the DDH distributed PRF / common coin."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.apps import dprf
from repro.dkg import DkgConfig, run_dkg

from tests.helpers import default_test_group, record_calls

G = default_test_group()


@pytest.fixture(scope="module")
def dkg():
    return run_dkg(DkgConfig(n=7, t=2, f=0, group=G), seed=55)


class TestDprf:
    def test_evaluation_matches_oracle(self, dkg) -> None:
        # The combined value equals H1(x)^s computed with the oracle
        # secret available to the test.
        rng = random.Random(1)
        secret = dkg.reconstruct()
        tag = b"epoch-7"
        partials = [
            dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (1, 4, 6)
        ]
        value = dprf.combine(G, tag, dkg.commitment, partials, t=2)
        assert value == G.power(dprf.input_point(G, tag), secret)

    def test_uniqueness_across_subsets(self, dkg) -> None:
        rng = random.Random(2)
        tag = b"round-1"
        values = set()
        for subset in [(1, 2, 3), (4, 5, 6), (2, 5, 7)]:
            partials = [
                dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in subset
            ]
            values.add(dprf.combine(G, tag, dkg.commitment, partials, t=2))
        assert len(values) == 1  # no subset can bias the output

    def test_different_tags_different_outputs(self, dkg) -> None:
        rng = random.Random(3)
        outs = []
        for tag in (b"a", b"b"):
            partials = [
                dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (1, 2, 3)
            ]
            outs.append(dprf.combine(G, tag, dkg.commitment, partials, t=2))
        assert outs[0] != outs[1]

    def test_bad_partials_rejected(self, dkg) -> None:
        rng = random.Random(4)
        tag = b"x"
        bad = dprf.partial_eval(G, tag, 1, dkg.shares[1] + 1, rng)
        assert not dprf.verify_partial(G, tag, dkg.commitment, bad)
        good = [
            dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (2, 3, 4)
        ]
        value = dprf.combine(G, tag, dkg.commitment, [bad] + good, t=2)
        oracle = G.power(dprf.input_point(G, tag), dkg.reconstruct())
        assert value == oracle

    def test_too_few_partials_raises(self, dkg) -> None:
        with pytest.raises(dprf.EvaluationError):
            dprf.combine(G, b"t", dkg.commitment, [], t=2)

    def test_aliased_index_is_one_signer(self, dkg) -> None:
        # The commitment evaluates at index mod q: signer 1's partial
        # relabelled 1 + q verifies but is still signer 1, and q itself
        # (the secret's own index) is no signer.
        rng = random.Random(7)
        tag = b"alias"
        p1, p2, p3 = (
            dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (1, 2, 3)
        )
        alias = dataclasses.replace(p1, index=1 + G.q)
        zero = dataclasses.replace(p1, index=G.q)
        assert dprf.verify_partial(G, tag, dkg.commitment, alias)
        with pytest.raises(dprf.EvaluationError):
            dprf.combine(G, tag, dkg.commitment, [p1, alias, zero, p2], t=2)
        value = dprf.combine(G, tag, dkg.commitment, [alias, zero, p2, p3], t=2)
        assert value == G.power(dprf.input_point(G, tag), dkg.reconstruct())

    def test_verifies_only_the_partials_it_interpolates(
        self, dkg, monkeypatch
    ) -> None:
        rng = random.Random(8)
        tag = b"count"
        partials = [
            dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in range(1, 8)
        ]
        rng.shuffle(partials)
        calls = record_calls(monkeypatch, dprf, "verify_partial")
        oracle = G.power(dprf.input_point(G, tag), dkg.reconstruct())
        assert dprf.combine(G, tag, dkg.commitment, partials, t=2) == oracle
        assert [args[3].index for args in calls] == [1, 2, 3]
        # A bad partial at the lowest index costs exactly one more.
        del calls[:]
        bad = dprf.partial_eval(G, tag, 1, dkg.shares[1] + 1, rng)
        partials = [bad] + [p for p in partials if p.index != 1]
        assert dprf.combine(G, tag, dkg.commitment, partials, t=2) == oracle
        assert [args[3].index for args in calls] == [1, 2, 3, 4]

    def test_prf_bytes_deterministic_and_sized(self, dkg) -> None:
        value = G.commit(5)
        assert dprf.prf_bytes(G, value, 48) == dprf.prf_bytes(G, value, 48)
        assert len(dprf.prf_bytes(G, value, 48)) == 48

    def test_coin_flip_unbiased_empirically(self, dkg) -> None:
        rng = random.Random(5)
        flips = []
        for round_no in range(60):
            tag = f"coin-{round_no}".encode()
            partials = [
                dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (1, 2, 3)
            ]
            flips.append(dprf.coin_flip(G, tag, dkg.commitment, partials, t=2))
        ones = sum(flips)
        assert 12 <= ones <= 48  # loose binomial bounds, deterministic seed

    def test_coin_agreement_between_observers(self, dkg) -> None:
        # Two combiners using different partial subsets see the same coin.
        rng = random.Random(6)
        tag = b"agree"
        a = dprf.coin_flip(
            G, tag, dkg.commitment,
            [dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (1, 2, 3)],
            t=2,
        )
        b = dprf.coin_flip(
            G, tag, dkg.commitment,
            [dprf.partial_eval(G, tag, i, dkg.shares[i], rng) for i in (5, 6, 7)],
            t=2,
        )
        assert a == b
