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

from repro.crypto import metering
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


def _collapsed_verify_poly(c: FeldmanCommitment, i: int, a: Polynomial) -> bool:
    """verify-poly as the cached collapse computes it: each ``g^{a_l}``
    against the multiexp fold ``W_l(i)`` of :meth:`row_verifier`."""
    g = c.group
    table = g.fixed_base(g.g)
    entries = c.row_verifier(i).entries
    return a.degree == c.degree and all(
        table.pow(x) == w for x, w in zip(a.coeffs, entries)
    )


def _matrix_commitment(group, coeffs) -> FeldmanCommitment:
    """Commit to ``coeffs`` entry by entry: a zero coefficient gives an
    identity entry, an asymmetric one an asymmetric matrix."""
    return FeldmanCommitment(
        tuple(tuple(group.commit(x) for x in row) for row in coeffs), group
    )


class TestRowCheck:
    """verify-poly folds each column by Horner and compares projectively
    (secp256k1) or by plain multiexps (modp); either way its verdict is
    the cached collapse's, which it no longer computes."""

    @given(degrees, seeds, st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_valid_tampered_and_misaddressed_rows(
        self, bgroup, t: int, seed: int, i: int
    ) -> None:
        f, c = _commit(bgroup, t, seed)
        a = f.row_polynomial(i)
        assert c.verify_poly(i, a) and _collapsed_verify_poly(c, i, a)
        for ell in range(t + 1):
            coeffs = list(a.coeffs)
            coeffs[ell] += 1
            tampered = Polynomial(tuple(coeffs), bgroup.q)
            assert not c.verify_poly(i, tampered)
            assert not _collapsed_verify_poly(c, i, tampered)
        # A constant row (t = 0) is every node's row.
        assert c.verify_poly(i + 1, a) == _collapsed_verify_poly(c, i + 1, a)
        assert c.verify_poly(i + 1, a) == (t == 0)

    @given(degrees, seeds, st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_asymmetric_matrices(self, bgroup, t: int, seed: int, i: int) -> None:
        f = BivariatePolynomial.random_general(t, bgroup.q, random.Random(seed))
        c = FeldmanCommitment.commit(f, bgroup)
        for a in (f.row_polynomial(i), f.column_polynomial(i)):
            assert c.verify_poly(i, a) == _collapsed_verify_poly(c, i, a)
        assert c.verify_poly(i, f.row_polynomial(i))

    def test_identity_entries(self, bgroup) -> None:
        """Zero coefficients commit to the identity: a column of them, a
        fold that cancels to the identity at the checked index, and a
        right-hand side that is the identity while ``g^{a_l}`` is not."""
        q, i = bgroup.q, 3
        s = 11
        # Column 0 folds to g^(s - s) at index 3; column 2 is all zero.
        coeffs = [
            [s, 5, 0],
            [-s * pow(i, -1, q) % q, 0, 0],
            [0, 7, 0],
        ]
        c = _matrix_commitment(bgroup, coeffs)
        assert not c._is_symmetric()
        row = BivariatePolynomial(tuple(map(tuple, coeffs)), q).row_polynomial(i)
        assert row.coeffs[0] == 0 and row.coeffs[2] == 0
        cases = [row, Polynomial((1,) + row.coeffs[1:], q)]
        cases.append(Polynomial(row.coeffs[:2] + (1,), q))
        cases.append(Polynomial((0, 0, 0), q))
        verdicts = [c.verify_poly(i, a) for a in cases]
        assert verdicts == [True, False, False, False]
        assert verdicts == [_collapsed_verify_poly(c, i, a) for a in cases]
        zero = _matrix_commitment(bgroup, [[0] * 3] * 3)
        assert zero.verify_poly(i, Polynomial((0, 0, 0), q))
        assert not zero.verify_poly(i, Polynomial((0, 1, 0), q))

    def test_metered_as_one_multiexp_per_column(self, bgroup) -> None:
        ops = metering.EC if bgroup.name == "secp256k1" else metering.MODP
        f, c = _commit(bgroup, 3, 4)
        before = (ops.commit, ops.multiexp)
        assert c.verify_poly(2, f.row_polynomial(2))
        assert (ops.commit - before[0], ops.multiexp - before[1]) == (0, 4)


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
        commit_many = type(bgroup).commit_many

        def counting(self, scalars):
            scalars = list(scalars)
            exponentiated.extend(scalars)
            return commit_many(self, scalars)

        monkeypatch.setattr(type(bgroup), "commit_many", counting)
        assert FeldmanCommitment.commit(f, bgroup).matrix == expected
        # The triangle of a symmetric f (10 of 16 at t = 3), else all.
        wanted = (t + 1) * (t + 2) // 2 if symmetric else (t + 1) ** 2
        assert len(exponentiated) == wanted

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_index_zero_vector_is_column_zero(self, bgroup, symmetric: bool) -> None:
        """At index 0 the fold's exponents are (1, 0, ..., 0): the
        vector is column 0 (row 0 along the other axis), taken with no
        group operation."""
        make = (
            BivariatePolynomial.random_symmetric
            if symmetric
            else BivariatePolynomial.random_general
        )
        c = FeldmanCommitment.commit(make(3, bgroup.q, random.Random(5)), bgroup)
        ops = metering.EC if bgroup.name == "secp256k1" else metering.MODP
        before = ops.multiexp
        assert c.column_vector(0).entries == tuple(row[0] for row in c.matrix)
        assert c.row_verifier(0).entries == c.matrix[0]
        assert ops.multiexp == before

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
