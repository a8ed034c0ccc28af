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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec, metering
from repro.crypto.backend import AbstractGroup
from repro.crypto.ec import (
    FIXED_BASE_WINDOW,
    GENERATOR,
    GENERATOR_WINDOW,
    INFINITY,
    N,
    P,
    EcFixedBaseTable,
    EcPoint,
    EcSharedBases,
    _straus_window,
    ec_fixed_base,
    ec_multiexp,
    is_on_curve,
    point_add,
    point_neg,
    scalar_mul,
    scalar_mul_naive,
    secp256k1_group,
)
from repro.crypto.groups import toy_group
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
        for base in (G.hash_to_element(b"fixed base"), _rand_point(12)):
            table = G.fixed_base(base)
            assert table.window == FIXED_BASE_WINDOW == 5
            assert len(table._rows) == 52
            assert all(len(row) == 16 for row in table._rows)

    def test_dkg_n10_group_ops_are_pinned(self) -> None:
        """n=10, t=3, seed 7: 100 dealing commitments (10 dealers x the
        10-entry upper triangle), 120 signing nonces and 10 enrolled
        public keys are ``commit``; the 400 matrix collapses (10 nodes x
        10 dealers x t+1 entries) are ``multiexp``."""
        ops = ("power", "commit", "multiexp")
        before = [getattr(metering.EC, op) for op in ops]
        assert run_dkg(DkgConfig(n=10, t=3, group=G), seed=7).succeeded
        after = [getattr(metering.EC, op) for op in ops]
        assert [b - a for a, b in zip(before, after)] == [0, 230, 400]


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

    def test_hash_to_element_lands_on_curve(self) -> None:
        for tag in (b"", b"a", b"dprf-input"):
            point = G.hash_to_element(tag)
            assert G.is_element(point) and point != INFINITY
        assert G.hash_to_element(b"x") != G.hash_to_element(b"y")
