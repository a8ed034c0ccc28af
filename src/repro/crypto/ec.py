"""secp256k1: the elliptic-curve group backend.

The protocols of the paper are defined over any prime-order group in
which discrete log is hard; :mod:`repro.crypto.groups` realizes that
setting with Schnorr subgroups of Z_p^*, where 128-bit security costs
2048-bit field arithmetic.  This module realizes the *same* abstract
interface (:mod:`repro.crypto.backend`) over secp256k1, where 128-bit
security costs 256-bit field arithmetic — roughly an order of magnitude
cheaper per group operation and 8x smaller wire elements (33-byte
compressed points against 256-byte residues).

The arithmetic core mirrors :mod:`repro.crypto.multiexp` term for term:

* Jacobian-coordinate point addition/doubling (no per-step inversions;
  the ``a = 0`` short-Weierstrass doubling shortcut applies);
* width-5 wNAF scalar multiplication with a batch-normalized affine
  table of odd multiples (:func:`scalar_mul`);
* Straus interleaved-window / Pippenger bucket multi-scalar
  multiplication (:func:`ec_multiexp`), reusing the window cost models
  of the int engine;
* windowed fixed-base tables (:class:`EcFixedBaseTable`) and reusable
  Straus tables for a fixed base vector (:class:`EcSharedBases`),
  cached process-wide exactly like their modp counterparts;
* the fixed-base comb for ``a * G + b * X`` (:class:`EcCombPair`) behind
  Schnorr verification.

Group elements are immutable :class:`EcPoint` values (affine, with a
single :data:`INFINITY` identity), so they hash and compare exactly
like the plain ints of the modp backend and flow through commitments,
wire frames and caches unchanged.

Like :mod:`repro.crypto.intops` (the gmpy2 seam), this module probes
for an optional native backend at import time: when ``coincurve``
(libsecp256k1 bindings) is importable, :func:`scalar_mul` and
:func:`ec_multiexp` dispatch to it through module-level indirections
(``_scalar_mul_impl`` / ``_ec_multiexp_impl``).  The group math is
exact on both sides, so results are bit-identical — asserted by
``tests/crypto/test_ec_probe.py`` whenever the native library is
present — and the pure-python path remains fully supported.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto import metering
from repro.crypto.multiexp import (
    COMB_TEETH,
    PIPPENGER_CUTOFF,
    comb_digits,
    comb_span,
    _pippenger_window,
    _straus_window,
)

try:  # soft probe: libsecp256k1 bindings, exercised in the accelerated CI lane
    from coincurve import PublicKey as _NativeKey

    HAVE_COINCURVE = True
except ImportError:
    _NativeKey = None
    HAVE_COINCURVE = False

# secp256k1 domain parameters (SEC 2 v2, section 2.4.1).
P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

POINT_BYTES = 33  # compressed SEC1: parity prefix + 32-byte x
SCALAR_BYTES = 32

_INF_BYTES = bytes(POINT_BYTES)  # all-zero encoding for the identity


class EcPoint:
    """An immutable affine secp256k1 point; ``INFINITY`` is the identity.

    Hashable and comparable by coordinates, so points serve as dict
    keys, commitment-matrix entries and ``lru_cache`` keys exactly like
    the plain ints of the modp backend.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: int | None, y: int | None):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EcPoint is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EcPoint)
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def is_infinity(self) -> bool:
        return self.x is None

    def __reduce__(self):
        # Coordinate-preserving pickling: __slots__ plus the frozen
        # __setattr__ defeat the default protocol, and the process-pool
        # executor ships points between workers.
        return (EcPoint, (self.x, self.y))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.x is None:
            return "EcPoint(infinity)"
        return f"EcPoint(x={self.x:#x})"


INFINITY = EcPoint(None, None)
GENERATOR = EcPoint(GX, GY)

_JAC_INF = (1, 1, 0)  # Z = 0 marks the point at infinity in Jacobian form


# -- Jacobian-coordinate arithmetic (no inversions in the hot loops) -----------


def _jac_double(X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
    """dbl-2009-l for a = 0: 2M + 5S per doubling."""
    if not Z1 or not Y1:
        return _JAC_INF
    A = X1 * X1 % P
    Bv = Y1 * Y1 % P
    C = Bv * Bv % P
    s = X1 + Bv
    D = 2 * (s * s - A - C) % P
    E = 3 * A % P
    F = E * E % P
    X3 = (F - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y1 * Z1 % P
    return (X3, Y3, Z3)


def _jac_add(
    p1: tuple[int, int, int], p2: tuple[int, int, int]
) -> tuple[int, int, int]:
    """add-2007-bl general Jacobian addition."""
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    if not Z1:
        return p2
    if not Z2:
        return p1
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    if U1 == U2:
        if S1 != S2:
            return _JAC_INF
        return _jac_double(X1, Y1, Z1)
    H = (U2 - U1) % P
    I = 4 * H * H % P
    J = H * I % P
    r = 2 * (S2 - S1) % P
    V = U1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * S1 * J) % P
    zs = Z1 + Z2
    Z3 = (zs * zs - Z1Z1 - Z2Z2) * H % P
    return (X3, Y3, Z3)


def _jac_add_affine(
    p1: tuple[int, int, int], x2: int, y2: int
) -> tuple[int, int, int]:
    """madd-2007-bl mixed addition (second operand affine, Z2 = 1)."""
    X1, Y1, Z1 = p1
    if not Z1:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % P
    U2 = x2 * Z1Z1 % P
    S2 = y2 * Z1 * Z1Z1 % P
    if U2 == X1:
        if S2 != Y1:
            return _JAC_INF
        return _jac_double(X1, Y1, Z1)
    H = (U2 - X1) % P
    HH = H * H % P
    I = 4 * HH % P
    J = H * I % P
    r = 2 * (S2 - Y1) % P
    V = X1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * Y1 * J) % P
    zh = Z1 + H
    Z3 = (zh * zh - Z1Z1 - HH) % P
    return (X3, Y3, Z3)


def _batch_to_affine(
    points: list[tuple[int, int, int]],
) -> list[tuple[int, int] | None]:
    """Normalize many Jacobian points with ONE field inversion
    (Montgomery's trick); infinity entries come back as ``None``."""
    zs = [pt[2] for pt in points]
    prefix = []
    acc = 1
    for z in zs:
        prefix.append(acc)
        if z:
            acc = acc * z % P
    inv_acc = pow(acc, -1, P)
    out: list[tuple[int, int] | None] = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        z = zs[i]
        if not z:
            continue
        z_inv = prefix[i] * inv_acc % P
        inv_acc = inv_acc * z % P
        X, Y, _ = points[i]
        zi2 = z_inv * z_inv % P
        out[i] = (X * zi2 % P, Y * zi2 * z_inv % P)
    return out


def _from_jacobian(pt: tuple[int, int, int]) -> EcPoint:
    X, Y, Z = pt
    if not Z:
        return INFINITY
    z_inv = pow(Z, -1, P)
    zi2 = z_inv * z_inv % P
    return EcPoint(X * zi2 % P, Y * zi2 * z_inv % P)


# -- scalar multiplication -----------------------------------------------------


def _wnaf(k: int, width: int) -> list[int]:
    """Width-``width`` non-adjacent form, little-endian digit list."""
    digits = []
    while k:
        if k & 1:
            d = k & ((1 << (width + 1)) - 1)
            if d >= 1 << width:
                d -= 1 << (width + 1)
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _odd_multiples(point: EcPoint, count: int) -> list[tuple[int, int]]:
    """Affine [1P, 3P, 5P, ...] (``count`` entries), batch-normalized."""
    base = (point.x, point.y, 1)
    twice = _jac_double(*base)
    rows = [base]
    for _ in range(count - 1):
        rows.append(_jac_add(rows[-1], twice))
    affine = _batch_to_affine(rows)
    # Odd multiples of a non-identity point in a prime-order group can
    # never hit infinity, so every entry is a concrete pair.
    return [entry for entry in affine if entry is not None]


def _scalar_mul_python(point: EcPoint, k: int) -> EcPoint:
    """``k * point`` via width-5 wNAF over a batch-normalized odd-multiple
    table: ~256 doublings plus ~43 mixed additions per call."""
    k %= N
    if k == 0 or point.is_infinity():
        return INFINITY
    table = _odd_multiples(point, 16)  # 1P, 3P, ..., 31P
    p = P
    X1, Y1, Z1 = _JAC_INF
    for d in reversed(_wnaf(k, 5)):
        if Z1:  # inlined _jac_double — the per-bit hot path
            A = X1 * X1 % p
            Bv = Y1 * Y1 % p
            C = Bv * Bv % p
            sm = X1 + Bv
            D = 2 * (sm * sm - A - C) % p
            E = 3 * A % p
            X3 = (E * E - 2 * D) % p
            Z1 = 2 * Y1 * Z1 % p
            Y1 = (E * (D - X3) - 8 * C) % p
            X1 = X3
        if d:
            x, y = table[abs(d) >> 1]
            X1, Y1, Z1 = _jac_add_affine(
                (X1, Y1, Z1), x, y if d > 0 else p - y
            )
    return _from_jacobian((X1, Y1, Z1))


def _uncompressed_sec1(point: EcPoint) -> bytes:
    """65-byte uncompressed SEC1 (native-library input; no sqrt needed)."""
    return b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")


def _scalar_mul_coincurve(point: EcPoint, k: int) -> EcPoint:
    """``k * point`` through libsecp256k1.  The group law is exact on
    both sides of the seam, so this is bit-identical to the wNAF path
    (asserted in ``tests/crypto/test_ec_probe.py``)."""
    k %= N
    if k == 0 or point.is_infinity():
        return INFINITY
    key = _NativeKey(_uncompressed_sec1(point)).multiply(k.to_bytes(32, "big"))
    x, y = key.point()
    return EcPoint(x, y)


# Module-level indirection, exactly like intops._powmod_impl: tests swap
# the implementation to exercise both sides of the probe.
_scalar_mul_impl = _scalar_mul_coincurve if HAVE_COINCURVE else _scalar_mul_python


def scalar_mul(point: EcPoint, k: int) -> EcPoint:
    """``k * point`` via the probed backend (libsecp256k1 when
    importable, pure-python wNAF otherwise)."""
    return _scalar_mul_impl(point, k)


def scalar_mul_naive(point: EcPoint, k: int) -> EcPoint:
    """Textbook double-and-add; the cross-check oracle for the wNAF path."""
    k %= N
    acc = _JAC_INF
    addend = (point.x, point.y, 1) if not point.is_infinity() else _JAC_INF
    while k:
        if k & 1:
            acc = _jac_add(acc, addend)
        addend = _jac_double(*addend)
        k >>= 1
    return _from_jacobian(acc)


def point_add(a: EcPoint, b: EcPoint) -> EcPoint:
    """Affine point addition (the group law; one inversion per call)."""
    if a.is_infinity():
        return b
    if b.is_infinity():
        return a
    if a.x == b.x:
        if (a.y + b.y) % P == 0:
            return INFINITY
        slope = (3 * a.x * a.x) * pow(2 * a.y, P - 2, P) % P
    else:
        slope = (b.y - a.y) * pow(b.x - a.x, P - 2, P) % P
    x3 = (slope * slope - a.x - b.x) % P
    y3 = (slope * (a.x - x3) - a.y) % P
    return EcPoint(x3, y3)


def point_neg(a: EcPoint) -> EcPoint:
    if a.is_infinity():
        return INFINITY
    return EcPoint(a.x, (-a.y) % P)


def is_on_curve(a: EcPoint) -> bool:
    if a.is_infinity():
        return True
    if a.x is None or not (0 <= a.x < P and 0 <= a.y < P):
        return False
    return (a.y * a.y - (a.x * a.x * a.x + B)) % P == 0


# -- multi-scalar multiplication ----------------------------------------------


def _straus_points(
    points: list[EcPoint], exps: list[int]
) -> tuple[int, int, int]:
    """Straus interleaved windows: one shared doubling chain."""
    bits = max(e.bit_length() for e in exps)
    w = _straus_window(bits, len(points))
    mask = (1 << w) - 1
    # tables[i][d - 1] = (d+1) * points[i] affine, one batch inversion
    # across every table entry of every point.
    rows: list[tuple[int, int, int]] = []
    for pt in points:
        base = (pt.x, pt.y, 1)
        cur = base
        rows.append(cur)
        for _ in range(mask - 1):
            cur = _jac_add(cur, base)
            rows.append(cur)
    affine = _batch_to_affine(rows)
    p = P
    X1, Y1, Z1 = _JAC_INF
    for shift in range(((bits + w - 1) // w) * w - w, -1, -w):
        if Z1:  # inlined _jac_double, w times
            for _ in range(w):
                A = X1 * X1 % p
                Bv = Y1 * Y1 % p
                C = Bv * Bv % p
                sm = X1 + Bv
                D = 2 * (sm * sm - A - C) % p
                E = 3 * A % p
                X3 = (E * E - 2 * D) % p
                Z1 = 2 * Y1 * Z1 % p
                Y1 = (E * (D - X3) - 8 * C) % p
                X1 = X3
        for i, e in enumerate(exps):
            d = (e >> shift) & mask
            if d:
                entry = affine[i * mask + d - 1]
                if entry is not None:
                    X1, Y1, Z1 = _jac_add_affine(
                        (X1, Y1, Z1), entry[0], entry[1]
                    )
    return (X1, Y1, Z1)


def _pippenger_points(
    points: list[EcPoint], exps: list[int]
) -> tuple[int, int, int]:
    """Pippenger buckets with the running-sum fold, in Jacobian form."""
    bits = max(e.bit_length() for e in exps)
    w = _pippenger_window(bits, len(points))
    mask = (1 << w) - 1
    acc = _JAC_INF
    for shift in range(((bits + w - 1) // w) * w - w, -1, -w):
        if acc[2]:
            for _ in range(w):
                acc = _jac_double(*acc)
        buckets: dict[int, tuple[int, int, int]] = {}
        for pt, e in zip(points, exps):
            d = (e >> shift) & mask
            if d:
                cur = buckets.get(d)
                jac = (pt.x, pt.y, 1)
                buckets[d] = jac if cur is None else _jac_add(cur, jac)
        running = _JAC_INF
        window_acc = _JAC_INF
        for d in range(mask, 0, -1):
            bucket = buckets.get(d)
            if bucket is not None:
                running = _jac_add(running, bucket)
            if running[2]:
                window_acc = _jac_add(window_acc, running)
        acc = _jac_add(acc, window_acc)
    return acc


def _ec_multiexp_python(points: list[EcPoint], exps: list[int]) -> EcPoint:
    if len(points) >= PIPPENGER_CUTOFF:
        return _from_jacobian(_pippenger_points(points, exps))
    return _from_jacobian(_straus_points(points, exps))


def _ec_multiexp_coincurve(points: list[EcPoint], exps: list[int]) -> EcPoint:
    """``sum_i exps[i] * points[i]`` as native multiplies + one combine.

    libsecp256k1 has no multi-scalar API, but n native multiplications
    beat the shared-doubling python engines at any n.  The only
    unrepresentable value is the identity (``pubkey_combine`` rejects
    it), which maps back to :data:`INFINITY`.
    """
    keys = [
        _NativeKey(_uncompressed_sec1(pt)).multiply(e.to_bytes(32, "big"))
        for pt, e in zip(points, exps)
    ]
    try:
        x, y = _NativeKey.combine_keys(keys).point()
    except ValueError:
        return INFINITY
    return EcPoint(x, y)


_ec_multiexp_impl = (
    _ec_multiexp_coincurve if HAVE_COINCURVE else _ec_multiexp_python
)


def ec_multiexp(pairs) -> EcPoint:
    """``sum_i exps[i] * points[i]``; exponents reduced mod the order."""
    points: list[EcPoint] = []
    exps: list[int] = []
    for point, exp in pairs:
        exp %= N
        if exp == 0 or point.is_infinity():
            continue
        points.append(point)
        exps.append(exp)
    if not points:
        return INFINITY
    if len(points) == 1:
        return scalar_mul(points[0], exps[0])
    return _ec_multiexp_impl(points, exps)


class EcFixedBaseTable:
    """Windowed fixed-base scalar multiplication: after the one-time
    table build, ``pow(e)`` costs ~``|n|/window`` mixed additions and
    zero doublings — the EC mirror of
    :class:`repro.crypto.multiexp.FixedBaseTable`."""

    __slots__ = ("base", "window", "_rows")

    def __init__(self, base: EcPoint, window: int = 5):
        self.base = base
        self.window = window
        self._rows: list[list[tuple[int, int] | None]] = []
        if base.is_infinity():
            return
        windows = -(-N.bit_length() // window)
        flat: list[tuple[int, int, int]] = []
        unit = (base.x, base.y, 1)
        per_row = (1 << window) - 1
        for _ in range(windows):
            cur = unit
            flat.append(cur)
            for _ in range(per_row - 1):
                cur = _jac_add(cur, unit)
                flat.append(cur)
            unit = _jac_add(cur, unit)  # base * 2^(window * (k+1))
        affine = _batch_to_affine(flat)
        for k in range(windows):
            self._rows.append(affine[k * per_row : (k + 1) * per_row])

    def pow(self, exponent: int) -> EcPoint:
        """``exponent * base`` (exponent reduced mod the group order)."""
        e = exponent % N
        acc = _JAC_INF
        mask = (1 << self.window) - 1
        for row in self._rows:
            if e == 0:
                break
            d = e & mask
            if d:
                entry = row[d - 1]
                if entry is not None:
                    acc = _jac_add_affine(acc, entry[0], entry[1])
            e >>= self.window
        return _from_jacobian(acc)


@lru_cache(maxsize=128)
def ec_fixed_base(base: EcPoint, window: int = 5) -> EcFixedBaseTable:
    """Process-wide fixed-base table cache (generator, Pedersen ``h``,
    long-lived public keys), keyed by the point itself."""
    return EcFixedBaseTable(base, window)


_COMB_SPAN = comb_span(N)


def _comb_table(base: EcPoint) -> list[tuple[int, int] | None]:
    """The ``2^COMB_TEETH`` affine comb entries of ``base``:
    ``table[d] = sum_{j in bits(d)} 2^(j * span) * base``, entry 0 (and
    every entry of the identity's table) ``None``.  One batch inversion
    for the whole table."""
    tooth = _JAC_INF if base.is_infinity() else (base.x, base.y, 1)
    table = [_JAC_INF]
    for j in range(COMB_TEETH):
        table += [_jac_add(entry, tooth) for entry in table]
        if j < COMB_TEETH - 1:
            for _ in range(_COMB_SPAN):
                tooth = _jac_double(*tooth)
    return _batch_to_affine(table)


@lru_cache(maxsize=1)
def _generator_comb() -> list[tuple[int, int] | None]:
    return _comb_table(GENERATOR)


class EcCombPair:
    """Lim--Lee fixed-base comb for ``a * G + b * base`` with both
    points fixed — the EC mirror of
    :class:`repro.crypto.multiexp.CombPair`: ``span`` shared doublings
    and at most ``2 * span`` mixed additions.  The generator's table is
    shared process-wide, ``base``'s belongs to this object."""

    __slots__ = ("_table",)

    def __init__(self, base: EcPoint):
        self._table = _comb_table(base)

    def multiexp(self, a: int, b: int) -> EcPoint:
        """``a * G + b * base`` (scalars reduced mod the group order)."""
        g_table, table = _generator_comb(), self._table
        p = P
        X1, Y1, Z1 = _JAC_INF
        for d_g, d_b in zip(
            comb_digits(a % N, _COMB_SPAN), comb_digits(b % N, _COMB_SPAN)
        ):
            if Z1:  # inlined _jac_double
                A = X1 * X1 % p
                Bv = Y1 * Y1 % p
                C = Bv * Bv % p
                sm = X1 + Bv
                D = 2 * (sm * sm - A - C) % p
                E = 3 * A % p
                X3 = (E * E - 2 * D) % p
                Z1 = 2 * Y1 * Z1 % p
                Y1 = (E * (D - X3) - 8 * C) % p
                X1 = X3
            for entry in (g_table[d_g], table[d_b]):
                if entry is not None:
                    X1, Y1, Z1 = _jac_add_affine((X1, Y1, Z1), entry[0], entry[1])
        return _from_jacobian((X1, Y1, Z1))


class EcSharedBases:
    """Straus tables for a fixed base vector reused across many scalar
    vectors — the EC mirror of :class:`repro.crypto.multiexp.SharedBases`."""

    __slots__ = ("window", "count", "_mask", "_tables")

    def __init__(self, bases, window: int = 4):
        bases = list(bases)
        self.window = window
        self.count = len(bases)
        self._mask = (1 << window) - 1
        flat: list[tuple[int, int, int]] = []
        for pt in bases:
            if pt.is_infinity():
                # Degenerate base: every digit entry normalizes to None
                # and contributes nothing.
                flat.extend([_JAC_INF] * self._mask)
                continue
            base = (pt.x, pt.y, 1)
            cur = base
            flat.append(cur)
            for _ in range(self._mask - 1):
                cur = _jac_add(cur, base)
                flat.append(cur)
        affine = _batch_to_affine(flat)
        self._tables = [
            affine[i * self._mask : (i + 1) * self._mask]
            for i in range(self.count)
        ]

    def multiexp(self, exps) -> EcPoint:
        """``sum_i exps[i] * bases[i]`` using the shared tables."""
        exps = [e % N for e in exps]
        if len(exps) != self.count:
            raise ValueError("exponent vector length mismatch")
        bits = max((e.bit_length() for e in exps), default=0)
        if bits == 0:
            return INFINITY
        w, mask = self.window, self._mask
        p = P
        tables = self._tables
        X1, Y1, Z1 = _JAC_INF
        for shift in range(((bits + w - 1) // w) * w - w, -1, -w):
            if Z1:  # inlined _jac_double, w times
                for _ in range(w):
                    A = X1 * X1 % p
                    Bv = Y1 * Y1 % p
                    C = Bv * Bv % p
                    sm = X1 + Bv
                    D = 2 * (sm * sm - A - C) % p
                    E = 3 * A % p
                    X3 = (E * E - 2 * D) % p
                    Z1 = 2 * Y1 * Z1 % p
                    Y1 = (E * (D - X3) - 8 * C) % p
                    X1 = X3
            for table, e in zip(tables, exps):
                d = (e >> shift) & mask
                if d:
                    entry = table[d - 1]
                    if entry is not None:
                        X1, Y1, Z1 = _jac_add_affine(
                            (X1, Y1, Z1), entry[0], entry[1]
                        )
        return _from_jacobian((X1, Y1, Z1))

    def power_row(self, x: int) -> EcPoint:
        """``sum_i x^i * bases[i]``: the committed polynomial evaluated
        in the exponent at ``x``."""
        exps = []
        xp = 1
        for _ in range(self.count):
            exps.append(xp)
            xp = xp * x % N
        return self.multiexp(exps)


# -- the group object ---------------------------------------------------------


def _sqrt_mod_p(a: int) -> int | None:
    """Square root mod P (P = 3 mod 4), or None if ``a`` is a non-residue."""
    root = pow(a, (P + 1) // 4, P)
    if root * root % P != a % P:
        return None
    return root


@dataclass(frozen=True)
class EcGroup:
    """secp256k1 behind the :class:`repro.crypto.backend.AbstractGroup`
    interface.

    The API keeps the multiplicative vocabulary of
    :class:`~repro.crypto.groups.SchnorrGroup` (``power``, ``mul``,
    ``commit``) so protocol code is backend-blind: "exponentiation" is
    scalar multiplication and "multiplication" is point addition.
    """

    name: str = "secp256k1"

    # -- scalar field (Z_n) ------------------------------------------------

    @property
    def q(self) -> int:
        return N

    def scalar(self, x: int) -> int:
        return x % N

    def scalar_add(self, a: int, b: int) -> int:
        return (a + b) % N

    def scalar_sub(self, a: int, b: int) -> int:
        return (a - b) % N

    def scalar_mul(self, a: int, b: int) -> int:
        return (a * b) % N

    def scalar_neg(self, a: int) -> int:
        return (-a) % N

    def scalar_inv(self, a: int) -> int:
        if a % N == 0:
            raise ZeroDivisionError("0 has no inverse in Z_q")
        return pow(a, -1, N)

    def random_scalar(self, rng: random.Random) -> int:
        return rng.randrange(N)

    def random_nonzero_scalar(self, rng: random.Random) -> int:
        return rng.randrange(1, N)

    # -- group -------------------------------------------------------------

    @property
    def g(self) -> EcPoint:
        return GENERATOR

    @property
    def identity(self) -> EcPoint:
        return INFINITY

    def power(self, base: EcPoint, exponent: int) -> EcPoint:
        metering.EC.power += 1
        return scalar_mul(base, exponent)

    def commit(self, exponent: int) -> EcPoint:
        metering.EC.commit += 1
        return ec_fixed_base(GENERATOR).pow(exponent)

    def mul(self, a: EcPoint, b: EcPoint) -> EcPoint:
        return point_add(a, b)

    def inv(self, a: EcPoint) -> EcPoint:
        return point_neg(a)

    def is_element(self, a: object) -> bool:
        return isinstance(a, EcPoint) and is_on_curve(a)

    # -- engines -----------------------------------------------------------

    def multiexp(self, pairs) -> EcPoint:
        metering.EC.multiexp += 1
        return ec_multiexp(pairs)

    def fixed_base(self, base: EcPoint) -> EcFixedBaseTable:
        return ec_fixed_base(base)

    def shared_bases(self, bases) -> EcSharedBases:
        return EcSharedBases(bases)

    def comb_pair(self, base: EcPoint) -> EcCombPair:
        return EcCombPair(base)

    def batch_verifier(self, entries, base: EcPoint | None = None):
        from repro.crypto.backend import BatchedClaimVerifier

        return BatchedClaimVerifier(self, entries, base)

    # -- sizes -------------------------------------------------------------

    @property
    def element_bytes(self) -> int:
        return POINT_BYTES

    @property
    def scalar_bytes(self) -> int:
        return SCALAR_BYTES

    @property
    def security_bits(self) -> int:
        return N.bit_length()

    # -- serialization -----------------------------------------------------

    def element_to_bytes(self, a: EcPoint) -> bytes:
        if a.is_infinity():
            return _INF_BYTES
        return bytes([2 + (a.y & 1)]) + a.x.to_bytes(32, "big")

    def element_from_bytes(self, raw: bytes) -> EcPoint:
        if len(raw) != POINT_BYTES:
            raise ValueError(f"expected {POINT_BYTES} bytes, got {len(raw)}")
        if raw == _INF_BYTES:
            return INFINITY
        prefix = raw[0]
        if prefix not in (2, 3):
            raise ValueError(f"bad point prefix {prefix:#x}")
        x = int.from_bytes(raw[1:], "big")
        if x >= P:
            raise ValueError("x coordinate out of range")
        y = _sqrt_mod_p((x * x * x + B) % P)
        if y is None:
            raise ValueError("x is not on the curve")
        if (y & 1) != (prefix & 1):
            y = P - y
        return EcPoint(x, y)

    def element_decode(self, raw: bytes) -> EcPoint:
        # Decompression is inherently validating (the x must be on the
        # curve), so the wire-grade decode is the strict parse.
        return self.element_from_bytes(raw)

    def scalar_to_bytes(self, x: int) -> bytes:
        return (x % N).to_bytes(SCALAR_BYTES, "big")

    def scalar_from_bytes(self, raw: bytes) -> int:
        return int.from_bytes(raw, "big") % N

    # -- hashing into the group --------------------------------------------

    def hash_to_scalar(self, *parts: bytes) -> int:
        h = hashlib.sha256()
        for part in parts:
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
        return int.from_bytes(h.digest(), "big") % N

    def hash_to_element(self, *parts: bytes) -> EcPoint:
        """Try-and-increment hash-to-curve with canonical even-y choice
        (no known discrete log relative to the generator)."""
        counter = 0
        while True:
            h = hashlib.sha256()
            h.update(b"hash-to-curve|" + str(counter).encode() + b"|")
            for part in parts:
                h.update(len(part).to_bytes(4, "big"))
                h.update(part)
            x = int.from_bytes(h.digest(), "big") % P
            y = _sqrt_mod_p((x * x * x + B) % P)
            if y is not None and (x or y):
                return EcPoint(x, y if y % 2 == 0 else P - y)
            counter += 1

    def second_generator(self, label: bytes = b"pedersen-h") -> EcPoint:
        return _second_generator_cached(label)

    def validate(self) -> None:
        if not is_on_curve(GENERATOR):
            raise ValueError("generator is not on the curve")
        if not scalar_mul(GENERATOR, N).is_infinity():
            raise ValueError("generator order is not n")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EcGroup({self.name}, |q|={N.bit_length()} bits)"


@lru_cache(maxsize=16)
def _second_generator_cached(label: bytes) -> EcPoint:
    group = secp256k1_group()
    counter = 0
    while True:
        h = group.hash_to_element(
            b"second-generator", label, counter.to_bytes(4, "big")
        )
        if not h.is_infinity() and h != GENERATOR:
            return h
        counter += 1


@lru_cache(maxsize=1)
def secp256k1_group() -> EcGroup:
    """The process-wide secp256k1 backend instance."""
    return EcGroup()
