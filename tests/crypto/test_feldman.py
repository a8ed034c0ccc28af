"""Tests for Feldman commitments and the Fig. 1 verification predicates.

Parameterized over both group backends via the ``bgroup`` fixture:
every property here is backend-generic (the predicates only touch the
group through the :mod:`repro.crypto.backend` interface).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.polynomials import Polynomial

degrees = st.integers(min_value=0, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32)
# Valid in both scalar fields (toy q is 64-bit, secp256k1 n is 256-bit).
secrets = st.integers(min_value=0, max_value=2**63)


def _commit(group, t: int, seed: int, secret: int | None = None):
    f = BivariatePolynomial.random_symmetric(
        t, group.q, random.Random(seed), secret=secret
    )
    return f, FeldmanCommitment.commit(f, group)


class TestVerifyPoly:
    @given(degrees, seeds, st.integers(min_value=1, max_value=30))
    @settings(max_examples=40)
    def test_accepts_correct_row_polynomial(
        self, bgroup, t: int, seed: int, i: int
    ) -> None:
        f, c = _commit(bgroup, t, seed)
        assert c.verify_poly(i, f.row_polynomial(i))

    @given(degrees, seeds)
    @settings(max_examples=30)
    def test_rejects_tampered_polynomial(self, bgroup, t: int, seed: int) -> None:
        f, c = _commit(bgroup, t, seed)
        a = f.row_polynomial(2)
        tampered = Polynomial((a.coeffs[0] + 1,) + a.coeffs[1:], bgroup.q)
        assert not c.verify_poly(2, tampered)

    def test_rejects_wrong_degree(self, bgroup) -> None:
        f, c = _commit(bgroup, 2, 0)
        a = f.row_polynomial(1)
        short = Polynomial(a.coeffs[:-1], bgroup.q)
        assert not c.verify_poly(1, short)

    def test_rejects_polynomial_for_other_node(self, bgroup) -> None:
        f, c = _commit(bgroup, 2, 1)
        assert not c.verify_poly(3, f.row_polynomial(4))


class TestVerifyPoint:
    @given(
        degrees,
        seeds,
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40)
    def test_accepts_correct_point(
        self, bgroup, t: int, seed: int, i: int, m: int
    ) -> None:
        f, c = _commit(bgroup, t, seed)
        assert c.verify_point(i, m, f.evaluate(m, i))

    @given(degrees, seeds)
    @settings(max_examples=30)
    def test_rejects_wrong_point(self, bgroup, t: int, seed: int) -> None:
        f, c = _commit(bgroup, t, seed)
        assert not c.verify_point(1, 2, (f.evaluate(2, 1) + 1) % bgroup.q)

    @given(degrees, seeds, st.integers(min_value=1, max_value=20))
    @settings(max_examples=30)
    def test_share_is_point_at_zero(self, bgroup, t: int, seed: int, i: int) -> None:
        f, c = _commit(bgroup, t, seed)
        assert c.verify_share(i, f.evaluate(i, 0))

    @given(degrees, seeds, st.integers(min_value=1, max_value=20))
    @settings(max_examples=30)
    def test_column_vector_matches_verify_point(
        self, bgroup, t: int, seed: int, m: int
    ) -> None:
        # The cached per-receiver verifier must agree with the naive
        # predicate — the session layer depends on this equivalence.
        f, c = _commit(bgroup, t, seed)
        i = 5
        vec = c.column_vector(i)
        alpha = f.evaluate(m, i)
        assert vec.verify_share(m, alpha) == c.verify_point(i, m, alpha)
        assert not vec.verify_share(m, (alpha + 1) % bgroup.q)


class TestCommitmentAlgebra:
    @given(degrees, seeds, seeds)
    @settings(max_examples=30)
    def test_combine_commits_to_sum(self, bgroup, t: int, s1: int, s2: int) -> None:
        f1, c1 = _commit(bgroup, t, s1)
        f2, c2 = _commit(bgroup, t, s2 + 10_000)
        combined = c1.combine(c2)
        # the combined commitment verifies points of f1 + f2
        i, m = 2, 3
        total = (f1.evaluate(m, i) + f2.evaluate(m, i)) % bgroup.q
        assert combined.verify_point(i, m, total)

    @pytest.mark.parametrize(
        "shapes",
        [("sym", "sym"), ("sym", "asym"), ("asym", "sym"), ("asym", "asym")],
    )
    def test_combine_matches_entrywise_product(self, bgroup, shapes) -> None:
        # Two symmetric operands take the upper-triangle path; any
        # asymmetric one (a Byzantine dealer's) takes every entry.
        rng = random.Random(7)
        c1, c2 = (
            FeldmanCommitment.commit(
                BivariatePolynomial.random_symmetric(3, bgroup.q, rng)
                if shape == "sym"
                else BivariatePolynomial.random_general(3, bgroup.q, rng),
                bgroup,
            )
            for shape in shapes
        )
        assert [c._is_symmetric() for c in (c1, c2)] == [s == "sym" for s in shapes]
        expected = tuple(
            tuple(bgroup.mul(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(c1.matrix, c2.matrix)
        )
        assert c1.combine(c2).matrix == expected

    def test_combine_rejects_mismatched_degree(self, bgroup) -> None:
        _, c1 = _commit(bgroup, 1, 0)
        _, c2 = _commit(bgroup, 2, 0)
        with pytest.raises(ValueError):
            c1.combine(c2)

    @given(degrees, seeds)
    @settings(max_examples=30)
    def test_public_key_is_g_to_secret(self, bgroup, t: int, seed: int) -> None:
        f, c = _commit(bgroup, t, seed, secret=4321)
        assert c.public_key() == bgroup.commit(4321)

    @given(degrees, seeds, st.integers(min_value=1, max_value=20))
    @settings(max_examples=30)
    def test_share_commitment(self, bgroup, t: int, seed: int, i: int) -> None:
        f, c = _commit(bgroup, t, seed)
        assert c.share_commitment(i) == bgroup.commit(f.evaluate(i, 0))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_commit_exponentiates_each_distinct_coefficient_once(
        self, bgroup, monkeypatch, symmetric: bool
    ) -> None:
        t = 3
        make = (
            BivariatePolynomial.random_symmetric
            if symmetric
            else BivariatePolynomial.random_general
        )
        f = make(t, bgroup.q, random.Random(9))
        expected = tuple(tuple(bgroup.commit(c) for c in row) for row in f.coeffs)
        exponentiated = []
        commit = type(bgroup).commit

        def counting(self, scalar):
            exponentiated.append(scalar)
            return commit(self, scalar)

        monkeypatch.setattr(type(bgroup), "commit", counting)
        assert FeldmanCommitment.commit(f, bgroup).matrix == expected
        # The triangle of a symmetric f (10 of 16 at t = 3), else all.
        wanted = (t + 1) * (t + 2) // 2 if symmetric else (t + 1) ** 2
        assert len(exponentiated) == wanted

    def test_num_entries(self, bgroup) -> None:
        _, c = _commit(bgroup, 3, 0)
        assert c.num_entries == 16

    def test_rejects_non_square(self, bgroup) -> None:
        g = bgroup.identity
        with pytest.raises(ValueError):
            FeldmanCommitment(((g, g), (g,)), bgroup)


class TestFeldmanVector:
    @given(degrees, seeds, st.integers(min_value=1, max_value=30))
    @settings(max_examples=40)
    def test_verify_share(self, bgroup, t: int, seed: int, i: int) -> None:
        poly = Polynomial.random(t, bgroup.q, random.Random(seed))
        vec = FeldmanVector.commit(poly, bgroup)
        assert vec.verify_share(i, poly(i))
        assert not vec.verify_share(i, (poly(i) + 1) % bgroup.q)

    @given(degrees, seeds, st.integers(min_value=0, max_value=30))
    @settings(max_examples=30)
    def test_evaluate_in_exponent(self, bgroup, t: int, seed: int, i: int) -> None:
        poly = Polynomial.random(t, bgroup.q, random.Random(seed))
        vec = FeldmanVector.commit(poly, bgroup)
        assert vec.evaluate_in_exponent(i) == bgroup.commit(poly(i))

    @given(degrees, seeds, seeds)
    @settings(max_examples=30)
    def test_combine(self, bgroup, t: int, s1: int, s2: int) -> None:
        p1 = Polynomial.random(t, bgroup.q, random.Random(s1))
        p2 = Polynomial.random(t, bgroup.q, random.Random(s2 + 1))
        v = FeldmanVector.commit(p1, bgroup).combine(
            FeldmanVector.commit(p2, bgroup)
        )
        assert v.verify_share(4, p1.add(p2)(4))

    def test_mismatched_field_rejected(self, bgroup) -> None:
        with pytest.raises(ValueError):
            FeldmanVector.commit(Polynomial((1,), bgroup.q - 2), bgroup)
