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
  the ``a = 0`` short-Weierstrass doubling shortcut applies), and an
  affine :func:`point_add` for the group law that inverts by Euclid
  (``pow(x, -1, P)``), several times cheaper than a Fermat inversion;
* width-5 wNAF scalar multiplication with a batch-normalized affine
  table of odd multiples (:func:`scalar_mul`);
* Straus interleaved-window / Pippenger bucket multi-scalar
  multiplication (:func:`ec_multiexp`).  Pippenger reuses the int
  engine's window model; Straus picks its window from an EC cost model
  (:func:`_straus_window`) that charges each table its point additions
  and its batch inversion, so short exponents (the Feldman matrix
  collapse) run at window 1, where the affine inputs are the table;
* signed-window fixed-base tables (:class:`EcFixedBaseTable`): digits
  in ``[-2^(w-1), 2^(w-1)]``, a negative digit negating ``y``, so a row
  holds ``2^(w-1)`` multiples.  The generator gets window 8
  (:data:`GENERATOR_WINDOW`), every other base window 5.  A caller
  holding several scalars uses ``pow_many``, which sums every scalar's
  addends as trees of affine additions with one shared inversion per
  tree level, and verify-poly uses ``verify_row``, which adds a Horner
  fold of the matrix in Jacobian form, compared without inverting;
* reusable Straus tables for a fixed base vector (:class:`EcSharedBases`),
  cached process-wide exactly like their modp counterparts;
* ``a * G + b * X`` for Schnorr verification in two tiers, chosen by
  how often the key has been verified.  Every key starts with the
  fixed-base comb of :class:`EcCombPair` (a 64-entry table, 2.6 ms to
  build).  A key's pair counts its calls, and at
  :data:`HOT_KEY_VERIFICATIONS` it builds an :class:`EcHotKeyTable`:
  the GLV endomorphism splits ``b`` into two 128-bit halves that share
  one signed window-8 table of ``X`` (17 rows of 128 points, flat
  coordinates, ~0.3 MB), so the whole sum is ~66 mixed additions with
  the generator's window-8 table and no doubling — about 0.6 ms
  against the comb's 1.1 ms.  The threshold is the build cost over the
  saving per verification (35 ms / 0.5 ms = 70): the comb has then
  cost the key what the table costs, so it never pays more than twice
  the best choice made knowing the key's future.  At most
  :data:`HOT_KEYS` tables live in a process.  Long-lived keys cross
  the threshold — a gateway's group key, checked twice per signature,
  and a signing service's forge identities, checked on every nonce
  DKG — while the keys a DKG enrolls are checked at most 5, 12 and 21
  times at n = 4, 10 and 16 and never do.

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
import weakref
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto import metering
from repro.crypto.multiexp import (
    COMB_TEETH,
    PIPPENGER_CUTOFF,
    comb_digits,
    comb_span,
    _pippenger_window,
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


def _jac_mul_small(pt: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    """``k * pt`` by left-to-right double-and-add, all in Jacobian
    form: the step of a Horner fold by a node index, a few bits long."""
    acc = _JAC_INF
    for bit in bin(k)[2:]:
        if acc[2]:
            acc = _jac_double(*acc)
        if bit == "1":
            acc = _jac_add(acc, pt)
    return acc


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
        slope = (3 * a.x * a.x) * pow(2 * a.y, -1, P) % P
    else:
        slope = (b.y - a.y) * pow(b.x - a.x, -1, P) % P
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


# Straus cost model weights, in 256-bit field multiplications as CPython
# pays for them (interpreter overhead included, fitted on timed
# _straus_points runs): a mixed addition, a general Jacobian addition,
# one table entry's share of the batch normalization, the one inversion
# that normalization costs, and the loop's visit to one digit.
_COST_MADD = 13
_COST_ADD = 20
_COST_NORM = 7
_COST_INV = 53
_COST_DIGIT = 1


def _straus_window(bits: int, count: int) -> int:
    """Straus window width for ``count`` points and ``bits``-bit
    exponents, minimizing table build plus main loop.

    At ``w > 1`` each point's table costs ``2^w - 2`` Jacobian additions
    and ``2^w - 1`` normalized entries, and the tables share one
    inversion; at ``w = 1`` the affine inputs are the table and cost
    nothing.  The loop visits ``ceil(bits / w)`` digits per point and
    pays a mixed addition for each nonzero one (``1 - 2^-w`` of them).
    The doubling chain is ~``bits`` long at every width, so it does not
    enter the choice.  The modp engine keeps its own model
    (:func:`repro.crypto.multiexp._straus_window`).
    """
    best_w, best_cost = 1, None
    for w in range(1, 9):
        nonzero = 1 - 1 / (1 << w)
        cost = count * -(-bits // w) * (_COST_MADD * nonzero + _COST_DIGIT)
        if w > 1:
            cost += _COST_INV + count * (
                ((1 << w) - 2) * _COST_ADD + ((1 << w) - 1) * _COST_NORM
            )
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _straus_points(
    points: list[EcPoint], exps: list[int]
) -> tuple[int, int, int]:
    """Straus interleaved windows: one shared doubling chain."""
    bits = max(e.bit_length() for e in exps)
    w = _straus_window(bits, len(points))
    mask = (1 << w) - 1
    # affine[i * mask + d - 1] = d * points[i] for d in 1..mask: the
    # points themselves at w = 1, else one batch inversion across every
    # table entry of every point.
    if w == 1:
        affine = [(pt.x, pt.y) for pt in points]
    else:
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
                # d * point with d < 2^8 is never the identity: the
                # inputs are finite points of a prime-order group.
                x, y = affine[i * mask + d - 1]
                X1, Y1, Z1 = _jac_add_affine((X1, Y1, Z1), x, y)
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


# Fixed-base window widths.  The generator's table (33 rows of 128
# entries, ~1 MB) is built once per process and serves every commit,
# verify-poly and batch-verifier left-hand side; other bases are many
# and short-lived, so theirs stay small.  Both are sized against the
# benchmark's peak_rss_mb bound and pinned by tests/crypto/test_ec.py.
GENERATOR_WINDOW = 8
FIXED_BASE_WINDOW = 5


class EcFixedBaseTable:
    """Signed-window fixed-base scalar multiplication: after the one-time
    table build, ``pow(e)`` costs ~``|n|/window`` mixed additions and
    zero doublings — the EC mirror of
    :class:`repro.crypto.multiexp.FixedBaseTable`.

    The scalar is recoded into digits ``d_k`` in ``[-2^(w-1), 2^(w-1)]``
    with ``e = sum_k d_k 2^(wk)``; a digit above ``2^(w-1)`` becomes
    ``d - 2^w`` and carries one into the next window.  Negating a point
    only negates ``y``, so row ``k`` holds just ``d * 2^(wk) * base`` for
    ``d = 1 .. 2^(w-1)``, and the carry out of the top window of a
    256-bit scalar needs ``ceil(257 / w)`` rows.
    """

    __slots__ = ("base", "window", "_rows")

    def __init__(self, base: EcPoint, window: int):
        self.base = base
        self.window = window
        self._rows: list[list[tuple[int, int]]] = []
        if base.is_infinity():
            return
        rows = -(-(N.bit_length() + 1) // window)
        half = 1 << (window - 1)
        flat: list[tuple[int, int, int]] = []
        unit = (base.x, base.y, 1)
        for _ in range(rows):
            cur = unit
            flat.append(cur)
            for _ in range(half - 1):
                cur = _jac_add(cur, unit)
                flat.append(cur)
            unit = _jac_double(*cur)  # base * 2^(window * (k+1))
        # No entry is the identity: |d| * 2^(wk) is never a multiple of
        # the prime order N.
        affine = _batch_to_affine(flat)
        self._rows = [affine[k * half : (k + 1) * half] for k in range(rows)]

    def _addends(self, exponent: int) -> list[tuple[int, int]]:
        """The affine table entries whose sum is ``exponent * base``:
        one per nonzero signed digit, ``y`` negated for a negative one."""
        e = exponent % N
        w = self.window
        full = 1 << w
        half = full >> 1
        mask = full - 1
        addends = []
        for row in self._rows:
            if not e:
                break
            d = e & mask
            e >>= w
            if not d:
                continue
            if d > half:
                e += 1
                x, y = row[full - d - 1]
                addends.append((x, P - y))
            else:
                addends.append(row[d - 1])
        return addends

    def pow(self, exponent: int) -> EcPoint:
        """``exponent * base`` (exponent reduced mod the group order)."""
        addends = self._addends(exponent)
        if not addends:
            return INFINITY
        p = P
        (X1, Y1), Z1 = addends[0], 1
        for x, y in addends[1:]:
            if not Z1:
                X1, Y1, Z1 = x, y, 1
                continue
            # inlined _jac_add_affine (madd-2007-bl)
            Z1Z1 = Z1 * Z1 % p
            U2 = x * Z1Z1 % p
            S2 = y * Z1 * Z1Z1 % p
            if U2 == X1:
                if S2 != Y1:
                    X1, Y1, Z1 = _JAC_INF
                else:
                    X1, Y1, Z1 = _jac_double(X1, Y1, Z1)
                continue
            H = (U2 - X1) % p
            HH = H * H % p
            I = 4 * HH % p
            J = H * I % p
            r = 2 * (S2 - Y1) % p
            V = X1 * I % p
            X3 = (r * r - J - 2 * V) % p
            Y1 = (r * (V - X3) - 2 * Y1 * J) % p
            zh = Z1 + H
            Z1 = (zh * zh - Z1Z1 - HH) % p
            X1 = X3
        return _from_jacobian((X1, Y1, Z1))

    def _affine_many(self, exponents) -> list[tuple[int, int] | None]:
        """``exponents[k] * base`` for every ``k``, affine (``None`` for
        the identity): summed by :meth:`_tree_sums` when there are two
        or more, else, or if the tree meets a zero denominator, by
        :meth:`pow`."""
        exponents = list(exponents)
        if len(exponents) > 1:
            sums = self._tree_sums([self._addends(e) for e in exponents])
            if sums is not None:
                return sums
        return [
            None if pt.is_infinity() else (pt.x, pt.y)
            for pt in map(self.pow, exponents)
        ]

    @staticmethod
    def _tree_sums(lanes: list[list[tuple[int, int]]]) -> list | None:
        """The sum of each lane of affine addends, or ``None`` if an
        addition meets a zero denominator (two equal addends, or an
        inverse pair), where the affine formula is undefined.

        Each lane is summed as a tree of affine additions, level by
        level across all lanes, and each level's denominators share one
        inversion (Montgomery's trick): ~6 inversions in all and ~6
        multiplications per addition, against one inversion and ~33
        mixed additions of ~11 multiplications each per :meth:`pow`.
        """
        p = P
        while True:
            dens = [
                lane[k][0] - lane[k - 1][0]
                for lane in lanes
                for k in range(1, len(lane), 2)
            ]
            if not dens:
                return [lane[0] if lane else None for lane in lanes]
            prefix = []
            acc = 1
            for d in dens:
                prefix.append(acc)
                acc = acc * d % p
            if not acc:
                return None
            inv = pow(acc, -1, p)
            invs = [0] * len(dens)
            for k in range(len(dens) - 1, -1, -1):
                invs[k] = prefix[k] * inv % p
                inv = inv * dens[k] % p
            k = 0
            for lane_at, lane in enumerate(lanes):
                summed = []
                for at in range(1, len(lane), 2):
                    x1, y1 = lane[at - 1]
                    x2, y2 = lane[at]
                    s = (y2 - y1) * invs[k] % p
                    k += 1
                    x3 = (s * s - x1 - x2) % p
                    summed.append((x3, (s * (x1 - x3) - y1) % p))
                if len(lane) & 1:
                    summed.append(lane[-1])
                lanes[lane_at] = summed

    def pow_many(self, exponents) -> list[EcPoint]:
        """``[self.pow(e) for e in exponents]``, the exponentiations'
        field inversions shared (:meth:`_affine_many`)."""
        # The points outlive the call, but their coordinates were made
        # among its temporaries.  Fresh copies (``x + 0`` is a new int),
        # made once those are freed, pack into few allocator pools: kept
        # as they were, they held many pools half empty and raised the
        # dkg_sim_ec_n10 benchmark's peak RSS by ~0.4 MB.
        return [
            INFINITY if xy is None else EcPoint(xy[0] + 0, xy[1] + 0)
            for xy in self._affine_many(exponents)
        ]

    def verify_row(self, exponents, matrix, x: int) -> bool:
        """True iff ``exponents[l] * base == sum_j x^j * matrix[j][l]``
        for every column ``l`` of ``matrix``: Fig. 1's verify-poly.

        The left-hand sides come from :meth:`_affine_many`.  Each
        right-hand side is folded by Horner in Jacobian coordinates and
        compared projectively (``X == x * Z^2``, ``Y == y * Z^3``), so
        the check inverts nothing beyond the left-hand sides' shared
        inversions.  Metered as one multiexp per column folded, the
        matrix fold it replaces.
        """
        x %= N
        p = P
        for ell, lhs in enumerate(self._affine_many(exponents)):
            metering.EC.multiexp += 1
            X1, Y1, Z1 = _JAC_INF
            for row in reversed(matrix):
                if Z1:
                    X1, Y1, Z1 = _jac_mul_small((X1, Y1, Z1), x)
                entry = row[ell]
                if not entry.is_infinity():
                    X1, Y1, Z1 = _jac_add_affine((X1, Y1, Z1), entry.x, entry.y)
            if lhs is None or not Z1:
                if lhs is not None or Z1:
                    return False
                continue
            ZZ = Z1 * Z1 % p
            if X1 != lhs[0] * ZZ % p or Y1 != lhs[1] * ZZ * Z1 % p:
                return False
        return True


@lru_cache(maxsize=128)
def ec_fixed_base(base: EcPoint) -> EcFixedBaseTable:
    """Process-wide fixed-base table cache (generator, long-lived public
    keys), keyed by the point itself; the generator gets
    :data:`GENERATOR_WINDOW`, every other base :data:`FIXED_BASE_WINDOW`."""
    window = GENERATOR_WINDOW if base == GENERATOR else FIXED_BASE_WINDOW
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


# -- the hot-key tier: an endomorphism-split window table -------------------

# secp256k1 has an endomorphism that costs one field multiplication
# (Gallant, Lambert and Vanstone, CRYPTO 2001): phi(x, y) = (BETA * x, y)
# = LAMBDA * (x, y), BETA a cube root of unity mod P and LAMBDA one mod N.
GLV_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
GLV_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# A reduced basis (a1, b1), (a2, b2) of the lattice of pairs (a, b) with
# a + b * LAMBDA = 0 mod N.  Rounding to the nearest lattice vector
# leaves at most half of each basis vector, so both halves of a split
# are below 2^129 (in practice 2^128).
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1
GLV_BITS = 129  # bound on |k1| and |k2| from glv_split


def glv_split(k: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 * LAMBDA = k (mod N)`` and both
    shorter than :data:`GLV_BITS` bits (either may be negative):
    ``(k, 0)`` minus the lattice vector nearest to it."""
    c1 = (_GLV_B2 * k + N // 2) // N
    c2 = (-_GLV_B1 * k + N // 2) // N
    return k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


def _signed_bytes(e: int, rows: int) -> list[tuple[int, int]]:
    """``(row, digit)`` for the nonzero signed window-8 digits of
    ``0 <= e < 2^(8 * rows - 1)``: digits in ``[-128, 128]`` with
    ``e = sum digit * 256^row`` (the recoding of
    :class:`EcFixedBaseTable` at window 8, read off the bytes of ``e``)."""
    digits = []
    carry = 0
    for row, d in enumerate(e.to_bytes(rows, "little")):
        d += carry
        carry = d > 128
        if carry:
            d -= 256
        if d:
            digits.append((row, d))
    return digits


# The hot table's window is the generator table's, one byte, so both
# recode from the scalars' bytes (:func:`_signed_bytes`): 128 multiples
# per row and ceil((GLV_BITS + 1) / 8) = 17 rows serve both halves of a
# split scalar, so X's share of a verification is ~34 mixed additions.
HOT_WINDOW = GENERATOR_WINDOW
HOT_ROWS = -(-(GLV_BITS + 1) // HOT_WINDOW)
_HOT_HALF = 1 << (HOT_WINDOW - 1)
_G_ROWS = -(-(N.bit_length() + 1) // GENERATOR_WINDOW)


class EcHotKeyTable:
    """``a * G + b * X`` with no doubling, for a key ``X`` verified often.

    ``b`` is split as ``k1 + k2 * LAMBDA`` (:func:`glv_split`), so
    ``b * X = k1 * X + k2 * phi(X)``; one signed window-8 table of ``X``
    serves both halves, an entry of ``phi(X)``'s table being the same
    entry with ``x`` times :data:`GLV_BETA`.  ``a * G`` reads the
    generator's :class:`EcFixedBaseTable`.  All ~66 addends are affine
    and go into one Jacobian accumulator.  The table is
    ``HOT_ROWS x 2^(w-1)`` points kept as one flat list of coordinates
    (``x, y, x, y, ...``), about a third of a megabyte.
    """

    __slots__ = ("_coords", "_g_rows", "__weakref__")

    def __init__(self, base: EcPoint):
        half = _HOT_HALF
        coords: list[int] = []
        ux, uy = base.x, base.y  # 2^(w * row) * base, affine
        for _ in range(HOT_ROWS):
            cur = (ux, uy, 1)
            row = [cur]
            for _ in range(half - 1):
                cur = _jac_add_affine(cur, ux, uy)
                row.append(cur)
            row.append(_jac_double(*cur))  # the next row's unit
            # One inversion per row keeps the build's transient memory
            # to a row.  No entry is the identity: |d| * 2^(wk) < N.
            affine = _batch_to_affine(row)
            for x, y in affine[:half]:
                coords += (x, y)
            ux, uy = affine[half]
        self._coords = coords
        self._g_rows = ec_fixed_base(GENERATOR)._rows

    def multiexp(self, a: int, b: int) -> EcPoint:
        """``a * G + b * base`` (scalars reduced mod the group order)."""
        p = P
        g_rows = self._g_rows
        addends = []
        for row, d in _signed_bytes(a % N, _G_ROWS):
            x, y = g_rows[row][abs(d) - 1]
            addends.append((x, y if d > 0 else p - y))
        coords, half = self._coords, _HOT_HALF
        for k, beta in zip(glv_split(b % N), (1, GLV_BETA)):
            negative = k < 0
            for row, d in _signed_bytes(abs(k), HOT_ROWS):
                i = 2 * (row * half + abs(d) - 1)
                y = coords[i + 1]
                if (d < 0) != negative:
                    y = p - y
                addends.append((coords[i] * beta % p, y))
        if not addends:
            return INFINITY
        (X1, Y1), Z1 = addends[0], 1
        for x, y in addends[1:]:
            if not Z1:
                X1, Y1, Z1 = x, y, 1
                continue
            # Mixed addition with as few reductions as CPython allows:
            # H and R stay unreduced, H^3 too.
            Z1Z1 = Z1 * Z1 % p
            H = x * Z1Z1 % p - X1
            R = y * Z1 * Z1Z1 % p - Y1
            if not H:
                if R:
                    X1, Y1, Z1 = _JAC_INF
                else:
                    X1, Y1, Z1 = _jac_double(X1, Y1, Z1)
                continue
            HH = H * H % p
            HHH = H * HH
            V = X1 * HH % p
            X1 = (R * R - HHH - 2 * V) % p
            Y1 = (R * (V - X1) - Y1 * HHH) % p
            Z1 = Z1 * H % p
        return _from_jacobian((X1, Y1, Z1))


# When a key earns a hot table, and how many a process may hold.  A
# build costs about HOT_BUILD_MS and each verification it serves saves
# about HOT_SAVING_MS against the comb (medians on a 2-core Intel Xeon
# VM, pure python), so a key is promoted once the comb has cost it what
# the build costs: the ski-rental rule, never more than twice the work
# of knowing in advance how often the key will be verified.  HOT_KEYS
# tables are ~2.4 MB at most; a signing service holds five hot keys
# (its group key and its forge's four identities).
HOT_BUILD_MS = 35.0
HOT_SAVING_MS = 0.5
HOT_KEY_VERIFICATIONS = round(HOT_BUILD_MS / HOT_SAVING_MS)
HOT_KEYS = 8

# One token per hot table this process may still build; a table's
# finalizer gives its token back.  list.pop/append need no lock, and
# there is none for a fork to copy in a held state.
_hot_tokens: list[None] = [None] * HOT_KEYS


class EcCombPair:
    """Lim--Lee fixed-base comb for ``a * G + b * base`` with both
    points fixed — the EC mirror of
    :class:`repro.crypto.multiexp.CombPair`: ``span`` shared doublings
    and at most ``2 * span`` mixed additions.  The generator's table is
    shared process-wide, ``base``'s belongs to this object.

    The pair counts its calls; at :data:`HOT_KEY_VERIFICATIONS` it
    builds an :class:`EcHotKeyTable` for ``base``, if fewer than
    :data:`HOT_KEYS` are alive, and answers every later call from it.
    The table is assigned only once complete, so a call from another
    thread sees either no table or a whole one."""

    __slots__ = ("_base", "_table", "_calls", "_hot")

    def __init__(self, base: EcPoint):
        self._base = base
        self._table = _comb_table(base)
        self._calls = 0
        self._hot: EcHotKeyTable | None = None

    def multiexp(self, a: int, b: int) -> EcPoint:
        """``a * G + b * base`` (scalars reduced mod the group order)."""
        hot = self._hot
        if hot is None:
            self._calls += 1
            if self._calls < HOT_KEY_VERIFICATIONS:
                return self._comb(a, b)
            hot = self._promote()
            if hot is None:
                return self._comb(a, b)
        return hot.multiexp(a, b)

    def _promote(self) -> EcHotKeyTable | None:
        """Build and publish the hot table; for the identity, or when
        the process holds :data:`HOT_KEYS` tables already, restart the
        count instead."""
        if self._base.is_infinity():
            self._calls = 0
            return None
        try:
            _hot_tokens.pop()
        except IndexError:
            self._calls = 0
            return None
        hot = EcHotKeyTable(self._base)
        weakref.finalize(hot, _hot_tokens.append, None)
        self._hot = hot
        return hot

    def _comb(self, a: int, b: int) -> EcPoint:
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

    def commit_many(self, exponents) -> list[EcPoint]:
        """``[self.commit(e) for e in exponents]``, metered alike, with
        the exponentiations' inversions shared
        (:meth:`EcFixedBaseTable.pow_many`)."""
        exponents = list(exponents)
        metering.EC.commit += len(exponents)
        return ec_fixed_base(GENERATOR).pow_many(exponents)

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

    # -- hashing into the scalar field -------------------------------------

    def hash_to_scalar(self, *parts: bytes) -> int:
        h = hashlib.sha256()
        for part in parts:
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
        return int.from_bytes(h.digest(), "big") % N

    def validate(self) -> None:
        if not is_on_curve(GENERATOR):
            raise ValueError("generator is not on the curve")
        if not scalar_mul(GENERATOR, N).is_infinity():
            raise ValueError("generator order is not n")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EcGroup({self.name}, |q|={N.bit_length()} bits)"


@lru_cache(maxsize=1)
def secp256k1_group() -> EcGroup:
    """The process-wide secp256k1 backend instance."""
    return EcGroup()
