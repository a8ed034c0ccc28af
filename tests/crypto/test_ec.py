"""Unit tests for the secp256k1 backend's arithmetic core.

Backend-generic behavior is covered by the ``bgroup``-parameterized
crypto tests and the protocol suites; this module cross-checks the EC
engine itself — wNAF against textbook double-and-add, the multiexp
engines against per-point evaluation, the signed-window fixed-base
table against double-and-add at its recoding boundaries, the point
codec, and the identity/negation edge cases the affine group law must
get right.
"""

from __future__ import annotations

import gc
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec, metering, schnorr
from repro.crypto.backend import AbstractGroup
from repro.crypto.ec import (
    FIXED_BASE_WINDOW,
    GENERATOR,
    GENERATOR_WINDOW,
    GLV_BETA,
    GLV_BITS,
    GLV_LAMBDA,
    HOT_KEY_VERIFICATIONS,
    INFINITY,
    N,
    P,
    EcCombPair,
    EcFixedBaseTable,
    EcHotKeyTable,
    EcPoint,
    EcSharedBases,
    _straus_window,
    ec_fixed_base,
    ec_multiexp,
    glv_split,
    is_on_curve,
    point_add,
    point_neg,
    scalar_mul,
    scalar_mul_naive,
    secp256k1_group,
)
from repro.crypto.groups import toy_group
from repro.crypto.schnorr import Signature, SigningKey
from repro.dkg import DkgConfig, run_dkg

G = secp256k1_group()

scalars = st.integers(min_value=0, max_value=N + 2**64)  # exercises mod-n wrap
seeds = st.integers(min_value=0, max_value=2**32)


def _rand_point(seed: int) -> EcPoint:
    return scalar_mul(GENERATOR, random.Random(seed).randrange(1, N))


class TestScalarMul:
    @given(scalars)
    @settings(max_examples=60)
    def test_wnaf_matches_naive(self, k: int) -> None:
        assert scalar_mul(GENERATOR, k) == scalar_mul_naive(GENERATOR, k)

    @given(seeds, scalars)
    @settings(max_examples=30)
    def test_wnaf_matches_naive_on_random_points(self, seed: int, k: int) -> None:
        point = _rand_point(seed)
        assert scalar_mul(point, k) == scalar_mul_naive(point, k)

    @given(scalars)
    @settings(max_examples=30)
    def test_fixed_base_matches_variable_base(self, k: int) -> None:
        assert ec_fixed_base(GENERATOR).pow(k) == scalar_mul(GENERATOR, k)

    def test_order_annihilates(self) -> None:
        assert scalar_mul(GENERATOR, N) == INFINITY
        assert scalar_mul(GENERATOR, 0) == INFINITY
        assert scalar_mul(INFINITY, 12345) == INFINITY

    def test_n_minus_one_is_negation(self) -> None:
        assert scalar_mul(GENERATOR, N - 1) == point_neg(GENERATOR)


class TestSignedFixedBaseTable:
    """The signed-window table against textbook double-and-add, on the
    generator (window 8) and on another base (window 5)."""

    BASES = pytest.mark.parametrize(
        "base", [GENERATOR, _rand_point(11)], ids=["generator", "other"]
    )

    @BASES
    @pytest.mark.parametrize("k", [0, 1, N - 1, N, N + 1, 2**256 - 1])
    def test_edge_scalars(self, base: EcPoint, k: int) -> None:
        assert ec_fixed_base(base).pow(k) == scalar_mul_naive(base, k)

    @BASES
    def test_recoding_boundary_in_every_row(self, base: EcPoint) -> None:
        # 2^(w-1) is the largest positive digit; 2^(w-1) + 1 recodes to
        # -(2^(w-1) - 1) with a carry into the next row.
        table = ec_fixed_base(base)
        w = table.window
        half = 1 << (w - 1)
        for k in range(len(table._rows)):
            for d in (half, half + 1):
                e = d << (w * k)
                assert table.pow(e) == scalar_mul_naive(base, e), (k, d)

    @BASES
    def test_carry_into_the_top_row(self, base: EcPoint) -> None:
        table = ec_fixed_base(base)
        w, rows = table.window, len(table._rows)
        e = ((1 << (w - 1)) + 1) << (w * (rows - 2))
        # e has no bit in the top row's window: only the carry reaches it.
        assert e < N and e < 1 << (w * (rows - 1))
        assert table.pow(e) == scalar_mul_naive(base, e)

    @BASES
    @given(k=scalars)
    @settings(max_examples=25, deadline=None)
    def test_matches_naive(self, base: EcPoint, k: int) -> None:
        assert ec_fixed_base(base).pow(k) == scalar_mul_naive(base, k)

    def test_identity_base(self) -> None:
        assert EcFixedBaseTable(INFINITY, FIXED_BASE_WINDOW).pow(5) == INFINITY


# Scalars the recoding treats specially: the ends of the range, a
# single top digit, zero windows between nonzero ones, and the largest
# kept digit next to the smallest carried one.
EDGE_SCALARS = [0, 1, N - 1, N, N + 1, 1 << 255, 0x80 << 64, (0xFF << 128) | 0xFF, 129]
edge_or_random = st.one_of(st.sampled_from(EDGE_SCALARS), scalars)


class TestPowMany:
    """``EcFixedBaseTable.pow_many`` sums every lane as a tree of affine
    additions with one shared inversion per level: bit-identical to
    separate ``pow`` calls, on the window-8 generator table and a
    window-5 one."""

    BASES = pytest.mark.parametrize(
        "base", [GENERATOR, _rand_point(13)], ids=["generator", "other"]
    )

    @BASES
    @pytest.mark.parametrize("k", [0, 1, 2, 4, 10])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_pow(self, base: EcPoint, k: int, data) -> None:
        exponents = data.draw(st.lists(edge_or_random, min_size=k, max_size=k))
        table = ec_fixed_base(base)
        assert table.pow_many(exponents) == [table.pow(e) for e in exponents]

    @BASES
    def test_edge_scalars_in_one_call(self, base: EcPoint) -> None:
        got = ec_fixed_base(base).pow_many(EDGE_SCALARS)
        assert got == [scalar_mul_naive(base, e) for e in EDGE_SCALARS]

    def test_commit_many_is_commit(self) -> None:
        before = metering.EC.commit
        assert G.commit_many(EDGE_SCALARS) == [G.commit(e) for e in EDGE_SCALARS]
        assert metering.EC.commit - before == 2 * len(EDGE_SCALARS)

    def test_zero_denominator_falls_back_to_pow(self, monkeypatch) -> None:
        """A table whose row 1 repeats row 0, so that two addends of a
        lane can be equal (digits 5, 5: a doubling) or opposite (5, -5:
        an inverse pair).  The affine tree cannot add either; the whole
        call is recomputed with ``pow``, whose mixed addition can."""
        real = ec_fixed_base(GENERATOR)
        table = EcFixedBaseTable(INFINITY, GENERATOR_WINDOW)
        table._rows = [real._rows[0]] + real._rows[:-1]
        calls = []
        pow_ = EcFixedBaseTable.pow

        def spy(self, exponent):
            calls.append(exponent)
            return pow_(self, exponent)

        monkeypatch.setattr(EcFixedBaseTable, "pow", spy)
        doubling = 5 + (5 << 8)
        inverse = 5 + (251 << 8)  # 251 recodes to -5, carrying into row 2
        for e, expected in ((doubling, 10), (inverse, 1 << 8)):
            calls.clear()
            assert table.pow_many([e, 7]) == [
                scalar_mul_naive(GENERATOR, expected),
                scalar_mul_naive(GENERATOR, 7),
            ]
            assert calls == [e, 7]


class TestGeneratorTablePin:
    """The generator's table is one process-wide object sized against
    the benchmark's ``peak_rss_mb`` bound, like the comb pinned in
    ``tests/sim/test_pki.py``; the group-operation counts are the
    benchmark's ``crypto.group_ops``."""

    def test_generator_table_is_shared_and_pinned(self, monkeypatch) -> None:
        table = G.fixed_base(GENERATOR)
        assert table is ec_fixed_base(GENERATOR)
        used = []
        pow_ = EcFixedBaseTable.pow

        def spy(self, exponent):
            used.append(self)
            return pow_(self, exponent)

        monkeypatch.setattr(EcFixedBaseTable, "pow", spy)
        assert G.commit(5) == scalar_mul_naive(GENERATOR, 5)
        assert used == [table]
        assert table.window == GENERATOR_WINDOW == 8
        assert len(table._rows) == 33
        assert all(len(row) == 128 for row in table._rows)

    def test_other_bases_get_window_five(self) -> None:
        table = G.fixed_base(_rand_point(12))
        assert table.window == FIXED_BASE_WINDOW == 5
        assert len(table._rows) == 52
        assert all(len(row) == 16 for row in table._rows)

    def test_dkg_n10_group_ops_are_pinned(self) -> None:
        """n=10, t=3, seed 7: 100 dealing commitments (10 dealers x the
        10-entry upper triangle, batched by ``commit_many`` and metered
        one each), 120 signing nonces and 10 enrolled public keys are
        ``commit``; each row check folds t+1 = 4 columns, metered as
        one ``multiexp`` each, and runs once per node and other dealer
        (a dealer's own row is not checked): 10 x 9 x 4 = 360.  The
        row check's ``g^{a_l}`` are not metered, as before."""
        ops = ("power", "commit", "multiexp")
        before = [getattr(metering.EC, op) for op in ops]
        assert run_dkg(DkgConfig(n=10, t=3, group=G), seed=7).succeeded
        after = [getattr(metering.EC, op) for op in ops]
        assert [b - a for a, b in zip(before, after)] == [0, 230, 360]


@lru_cache(maxsize=None)
def _pair_and_hot(seed: int) -> tuple[EcCombPair, EcHotKeyTable]:
    base = _rand_point(seed)
    return EcCombPair(base), EcHotKeyTable(base)


def _oracle(base: EcPoint, a: int, b: int) -> EcPoint:
    """``a * G + b * base`` by textbook double-and-add, independent of
    both verifier tiers."""
    return point_add(scalar_mul_naive(GENERATOR, a), scalar_mul_naive(base, b))


class TestCombPair:
    """The first verifier tier: :class:`EcCombPair`'s comb over the two
    halves of ``b``'s endomorphism split, against textbook
    double-and-add."""

    def test_comb_matches_the_oracle(self) -> None:
        pair, _ = _pair_and_hot(24)
        base = _rand_point(24)
        rng = random.Random(24)
        # A b for each sign pattern of its split, and a short one whose
        # second half is 0.
        by_signs = {}
        while len(by_signs) < 4:
            b = rng.randrange(N)
            k1, k2 = glv_split(b)
            by_signs.setdefault((k1 < 0, k2 < 0), b)
        short = 2**64 - 1
        assert glv_split(short) == (short, 0)
        for b in (0, 1, N - 1, GLV_LAMBDA, N - GLV_LAMBDA, short, *by_signs.values()):
            for a in (0, 1, N - 1, rng.randrange(N)):
                assert pair._comb(a, b) == _oracle(base, a, b), (a, b)

    def test_comb_reads_a_half_near_the_bound(self, monkeypatch) -> None:
        """glv_split's halves stay below 2^128, but the comb's 22
        columns serve its whole bound: a half of 2^129 - 1, either
        sign, sets 19 of the top tooth's 22 columns."""
        pair, _ = _pair_and_hot(25)
        base = _rand_point(25)
        top = 2**GLV_BITS - 1
        for k1, k2 in ((top, 0), (-top, 0), (0, top), (0, -top), (top, -top)):
            b = (k1 + k2 * GLV_LAMBDA) % N
            monkeypatch.setattr(ec, "glv_split", lambda k, split=(k1, k2): split)
            assert pair._comb(3, b) == _oracle(base, 3, b), (k1, k2)


class TestHotKeyTier:
    """The second verifier tier: a key's :class:`EcCombPair` counts its
    calls and, at :data:`HOT_KEY_VERIFICATIONS`, answers from an
    :class:`EcHotKeyTable` (endomorphism split, no doubling) instead
    of the comb — with bit-identical points and verdicts."""

    def test_endomorphism_constants(self) -> None:
        assert pow(GLV_BETA, 3, P) == 1 != GLV_BETA
        assert pow(GLV_LAMBDA, 3, N) == 1 != GLV_LAMBDA
        point = _rand_point(20)
        phi = EcPoint(point.x * GLV_BETA % P, point.y)
        assert scalar_mul_naive(point, GLV_LAMBDA) == phi
        for a, b in ((ec._GLV_A1, ec._GLV_B1), (ec._GLV_A2, ec._GLV_B2)):
            assert (a + b * GLV_LAMBDA) % N == 0

    @given(scalars)
    @settings(max_examples=200)
    def test_split_recombines_and_is_short(self, k: int) -> None:
        k1, k2 = glv_split(k % N)
        assert (k1 + k2 * GLV_LAMBDA - k) % N == 0
        assert max(abs(k1), abs(k2)).bit_length() <= GLV_BITS

    def test_split_at_the_ends_of_the_range(self) -> None:
        for k in (0, 1, N - 1, N // 2, GLV_LAMBDA, N - GLV_LAMBDA):
            k1, k2 = glv_split(k)
            assert (k1 + k2 * GLV_LAMBDA - k) % N == 0
            assert max(abs(k1), abs(k2)).bit_length() <= GLV_BITS

    @given(scalars, scalars)
    @settings(max_examples=40, deadline=None)
    def test_hot_matches_comb(self, a: int, b: int) -> None:
        pair, hot = _pair_and_hot(21)
        assert hot.multiexp(a, b) == pair._comb(a, b)

    def test_recoding_boundaries(self) -> None:
        """Digits of 128 (kept) and 129 (carried) in every row of both
        tables, and each half of the split negative, through both
        tiers."""
        pair, hot = _pair_and_hot(22)
        base = _rand_point(22)
        for k in range(33):
            for d in (128, 129, 255):
                e = (d << (8 * k)) % N
                assert hot.multiexp(e, 0) == scalar_mul_naive(GENERATOR, e)
                expected = scalar_mul_naive(base, e)
                assert hot.multiexp(0, e) == pair._comb(0, e) == expected, (k, d)
        for b in (GLV_LAMBDA, N - GLV_LAMBDA, N - 1, 1):
            assert hot.multiexp(7, b) == pair._comb(7, b) == _oracle(base, 7, b)

    def test_doubling_and_identity_inside_the_sum(self) -> None:
        """With ``X = G`` an addend of ``X``'s table can equal or cancel
        the accumulator: the doubling and the identity branch."""
        tiers = (EcHotKeyTable(GENERATOR).multiexp, EcCombPair(GENERATOR)._comb)
        for a, b in ((1, 1), (1, N - 1), (5, N - 5), (2, 3), (0, 0), (N - 1, 2)):
            for tier in tiers:
                assert tier(a, b) == scalar_mul_naive(GENERATOR, a + b), tier

    @given(st.integers(0, 2**32), st.binary(max_size=32))
    @settings(max_examples=4, deadline=None)
    def test_verdicts_are_the_same_across_the_threshold(
        self, seed: int, message: bytes
    ) -> None:
        # A fresh verifier for every example: the count starts at 0.
        schnorr._key_verifier.cache_clear()
        rng = random.Random(seed)
        key, other = SigningKey.generate(G, rng), SigningKey.generate(G, rng)
        sig, other_sig = key.sign(message, rng), other.sign(message, rng)
        c, z = sig.challenge, sig.response
        X = key.public_key
        cases = [
            (X, message, sig),  # valid
            (X, message + b"!", sig),  # other message
            (X, message, other_sig),  # other key's signature
            (other.public_key, message, sig),  # other key
            (X, message, Signature(c + N, z)),  # c >= q
            (X, message, Signature(c, z + N)),  # z >= q
            (X, message, Signature(N, N)),
            (X, message, Signature(z, c)),
            (EcPoint(1, 1), message, sig),  # no group element
        ]
        before = [schnorr.verify(G, *case) for case in cases]
        assert before == [True] + [False] * (len(cases) - 1)
        pair = schnorr._key_verifier(G, X)
        assert pair._hot is None
        for _ in range(HOT_KEY_VERIFICATIONS):
            assert schnorr.verify(G, X, message, sig)
        assert pair._hot is not None
        assert [schnorr.verify(G, *case) for case in cases] == before
        schnorr._key_verifier.cache_clear()

    def test_promotion_waits_for_a_token_and_returns_it(self, monkeypatch) -> None:
        tokens: list[None] = []
        monkeypatch.setattr(ec, "_hot_tokens", tokens)
        base = _rand_point(23)
        pair = EcCombPair(base)
        expected = scalar_mul_naive(base, 3)
        for _ in range(HOT_KEY_VERIFICATIONS):
            assert pair.multiexp(0, 3) == expected
        # No token: the comb answers and the count starts over.
        assert pair._hot is None and pair._calls == 0
        tokens.append(None)
        for _ in range(HOT_KEY_VERIFICATIONS):
            assert pair.multiexp(0, 3) == expected
        assert pair._hot is not None and tokens == []
        assert pair.multiexp(0, 3) == expected
        del pair
        gc.collect()
        assert tokens == [None]

    def test_the_identity_is_never_promoted(self, monkeypatch) -> None:
        tokens = [None]
        monkeypatch.setattr(ec, "_hot_tokens", tokens)
        pair = EcCombPair(INFINITY)
        for _ in range(HOT_KEY_VERIFICATIONS + 1):
            assert pair.multiexp(2, 9) == scalar_mul_naive(GENERATOR, 2)
        assert pair._hot is None and tokens == [None]
        for a, b in ((0, 0), (N - 1, N - 1), (5, GLV_LAMBDA)):
            assert pair.multiexp(a, b) == scalar_mul_naive(GENERATOR, a)


class TestGroupLaw:
    def test_identity_edges(self) -> None:
        point = _rand_point(1)
        assert point_add(point, INFINITY) == point
        assert point_add(INFINITY, point) == point
        assert point_add(INFINITY, INFINITY) == INFINITY
        assert point_neg(INFINITY) == INFINITY
        assert G.mul(point, G.identity) == point
        assert G.inv(G.identity) == G.identity

    def test_negation_cancels(self) -> None:
        point = _rand_point(2)
        assert point_add(point, point_neg(point)) == INFINITY
        assert is_on_curve(point_neg(point))

    def test_doubling_via_affine_add(self) -> None:
        point = _rand_point(3)
        assert point_add(point, point) == scalar_mul(point, 2)

    @given(seeds, seeds)
    @settings(max_examples=20)
    def test_commutative(self, s1: int, s2: int) -> None:
        a, b = _rand_point(s1), _rand_point(s2 + 2**33)
        assert point_add(a, b) == point_add(b, a)


class TestPointCodec:
    @given(seeds)
    @settings(max_examples=40)
    def test_roundtrip(self, seed: int) -> None:
        point = _rand_point(seed)
        raw = G.element_to_bytes(point)
        assert len(raw) == G.element_bytes == 33
        assert raw[0] in (2, 3)
        assert G.element_from_bytes(raw) == point

    def test_infinity_roundtrip(self) -> None:
        raw = G.element_to_bytes(INFINITY)
        assert raw == bytes(33)
        assert G.element_from_bytes(raw) == INFINITY

    def test_rejects_bad_length(self) -> None:
        with pytest.raises(ValueError):
            G.element_from_bytes(b"\x02" + bytes(30))

    def test_rejects_bad_prefix(self) -> None:
        raw = G.element_to_bytes(GENERATOR)
        with pytest.raises(ValueError):
            G.element_from_bytes(b"\x05" + raw[1:])

    def test_rejects_off_curve_x(self) -> None:
        # x = 5 has no square root of x^3 + 7 on secp256k1.
        with pytest.raises(ValueError):
            G.element_from_bytes(b"\x02" + (5).to_bytes(32, "big"))

    def test_rejects_oversized_x(self) -> None:
        with pytest.raises(ValueError):
            G.element_from_bytes(b"\x02" + (P + 1).to_bytes(32, "big"))

    def test_parity_prefix_selects_y(self) -> None:
        point = _rand_point(9)
        raw = bytearray(G.element_to_bytes(point))
        raw[0] = 2 if raw[0] == 3 else 3  # flip the parity bit
        assert G.element_from_bytes(bytes(raw)) == point_neg(point)


class TestChainedSquareRoot:
    """Point decompression's root is an addition chain, not ``pow``."""

    @staticmethod
    def _reference(a: int) -> int | None:
        root = pow(a, (P + 1) // 4, P)
        return root if root * root % P == a % P else None

    @given(st.integers(0, P - 1))
    @settings(max_examples=200)
    def test_equals_pow_on_every_input(self, a: int) -> None:
        assert ec._sqrt_mod_p(a) == self._reference(a)

    def test_residues_and_edges(self) -> None:
        rng = random.Random(17)
        for _ in range(50):
            a = pow(rng.randrange(1, P), 2, P)
            root = ec._sqrt_mod_p(a)
            assert root == pow(a, (P + 1) // 4, P) and root * root % P == a
        assert ec._sqrt_mod_p(0) == 0
        assert ec._sqrt_mod_p(1) == 1

    def test_non_residues_have_none(self) -> None:
        # P = 3 mod 4, so -1 and -(any square) are non-residues.
        assert ec._sqrt_mod_p(P - 1) is None
        rng = random.Random(18)
        for _ in range(50):
            assert ec._sqrt_mod_p(P - pow(rng.randrange(1, P), 2, P)) is None


class TestMultiexp:
    @given(seeds, st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_point_evaluation(self, seed: int, count: int) -> None:
        rng = random.Random(seed)
        points = [_rand_point(rng.randrange(2**32)) for _ in range(count)]
        exps = [rng.randrange(N) for _ in range(count)]
        expected = INFINITY
        for point, e in zip(points, exps):
            expected = point_add(expected, scalar_mul_naive(point, e))
        assert ec_multiexp(zip(points, exps)) == expected

    def test_empty_and_degenerate(self) -> None:
        assert ec_multiexp([]) == INFINITY
        assert ec_multiexp([(GENERATOR, 0)]) == INFINITY
        assert ec_multiexp([(INFINITY, 7)]) == INFINITY
        assert ec_multiexp([(GENERATOR, 3)]) == scalar_mul(GENERATOR, 3)

    def test_shared_bases_match_multiexp(self) -> None:
        rng = random.Random(4)
        points = [_rand_point(i) for i in range(5)]
        shared = EcSharedBases(points)
        for _ in range(3):
            exps = [rng.randrange(N) for _ in points]
            assert shared.multiexp(exps) == ec_multiexp(zip(points, exps))
        x = rng.randrange(1, 50)
        assert shared.power_row(x) == ec_multiexp(
            (pt, pow(x, i, N)) for i, pt in enumerate(points)
        )

    def test_shared_bases_tolerate_identity_base(self) -> None:
        points = [GENERATOR, INFINITY, _rand_point(5)]
        shared = EcSharedBases(points)
        exps = [3, 9, 11]
        assert shared.multiexp(exps) == ec_multiexp(zip(points, exps))


class TestTableFreeStraus:
    """The python Straus engine across its cost-model switch: window 1
    (the affine inputs are the table) for short exponents, tables
    above, against the per-point double-and-add sum."""

    COUNTS = (2, 5, 9)
    BITS = (1, 2, 3, 8, 10, 16, 24, 31, 32, 33, 40)

    def test_the_switch_is_covered(self) -> None:
        windows = {_straus_window(b, c) for b in self.BITS for c in self.COUNTS}
        assert {1, 2} <= windows
        # The Feldman collapse at n=10, t=3: 4 points, exponents <= 10^3.
        assert _straus_window(10, 4) == 1

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("bits", BITS)
    def test_matches_per_point_sum(self, monkeypatch, bits: int, count: int) -> None:
        monkeypatch.setattr(ec, "_ec_multiexp_impl", ec._ec_multiexp_python)
        rng = random.Random(bits * 100 + count)
        pairs = [
            (_rand_point(rng.randrange(2**32)), rng.getrandbits(bits))
            for _ in range(count)
        ]
        # An identity base and a zero exponent ride along.
        pairs += [(INFINITY, rng.getrandbits(bits) | 1), (_rand_point(bits), 0)]
        rng.shuffle(pairs)
        expected = INFINITY
        for point, e in pairs:
            expected = point_add(expected, scalar_mul_naive(point, e))
        assert ec_multiexp(pairs) == expected


class TestEcGroupSurface:
    def test_satisfies_backend_protocol(self) -> None:
        assert isinstance(G, AbstractGroup)
        assert isinstance(toy_group(), AbstractGroup)

    def test_validate(self) -> None:
        G.validate()

    def test_is_element(self) -> None:
        assert G.is_element(GENERATOR)
        assert G.is_element(G.identity)
        assert not G.is_element(EcPoint(1, 2))
        assert not G.is_element(12345)  # modp residues are not points

    def test_sizes_at_matched_security(self) -> None:
        assert G.security_bits == 256
        assert G.scalar_bytes == 32
        # 8x smaller than a 2048-bit modp residue (256 bytes), within
        # the one-byte compression prefix.
        assert G.element_bytes * 8 == 264
