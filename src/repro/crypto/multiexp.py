"""Simultaneous multi-exponentiation: the crypto hot-path engine.

Every Fig. 1 predicate (verify-poly, verify-point, verify-share) and
every proof check in this package reduces to products of powers
``prod_i b_i^{e_i} mod p``.  Evaluated naively that is one ``pow`` per
term — each paying its own ~|q| squarings.  This module shares that
work three ways:

* :func:`multiexp` — Straus' interleaved-window algorithm (all terms
  share one squaring chain) for small products, switching to
  Pippenger's bucket method above :data:`PIPPENGER_CUTOFF` terms,
  where grouping terms by window digit amortizes the multiplications
  too;
* :class:`FixedBaseTable` — windowed precomputation for a base that is
  exponentiated over and over (the group generator ``g``, the Pedersen
  ``h``, long-lived public keys): after a one-time table build, an
  exponentiation costs ~|q|/w multiplications and *zero* squarings;
* :class:`SharedBases` — Straus tables for a fixed base *vector*
  exponentiated with many different scalar vectors (one collapsed
  commitment row checked against many senders);
* :class:`CombPair` — a fixed-base comb for ``g^a * X^b``: a sixth of
  the squarings from a table small enough to keep per verifier key
  (Schnorr verification against a certified public key).
The randomized-linear-combination batch verifier that used to live
here is now the backend-generic
:class:`repro.crypto.backend.BatchedClaimVerifier`, reached through
``group.batch_verifier(entries)``; over a
:class:`~repro.crypto.groups.SchnorrGroup` it produces bit-identical
Fiat--Shamir weights and verdicts.

Everything here is plain-int arithmetic — no dependency on the group
or protocol layers — so :mod:`repro.crypto.groups` can build on it.
Since the backend refactor this module is the *modp engine*: protocol
code reaches it through ``group.multiexp`` / ``group.fixed_base`` /
``group.shared_bases`` / ``group.comb_pair`` / ``group.batch_verifier``
on :class:`~repro.crypto.groups.SchnorrGroup` (the secp256k1 mirror lives
in :mod:`repro.crypto.ec`, the backend-generic batch verifier in
:mod:`repro.crypto.backend`), but the int-typed entry points below stay
public and byte-for-byte compatible.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from repro.crypto.intops import powmod

# Below this many terms Straus wins (its precomputation is linear in
# the term count); above it Pippenger's digit buckets amortize better.
# With |q| ~ 160-256 bits the crossover sits in the hundreds of terms.
PIPPENGER_CUTOFF = 300


def _straus_window(bits: int, count: int) -> int:
    """Window width minimizing count*(2^w - 2) + count*ceil(bits/w)."""
    best_w, best_cost = 1, None
    for w in range(1, 9):
        cost = count * ((1 << w) - 2) + count * -(-bits // w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _pippenger_window(bits: int, count: int) -> int:
    """Window width minimizing ceil(bits/w) * (count + 2^(w+1))."""
    best_w, best_cost = 1, None
    for w in range(1, 17):
        cost = -(-bits // w) * (count + (2 << w))
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _straus(bases: Sequence[int], exps: Sequence[int], p: int) -> int:
    """Interleaved windows: one shared squaring chain for all terms."""
    bits = max(e.bit_length() for e in exps)
    w = _straus_window(bits, len(bases))
    mask = (1 << w) - 1
    # tables[i][d] = bases[i]^d for d in 0..2^w-1
    tables = []
    for b in bases:
        row = [1, b % p]
        for _ in range(mask - 1):
            row.append(row[-1] * b % p)
        tables.append(row)
    acc = 1
    for shift in range(((bits + w - 1) // w) * w - w, -1, -w):
        if acc != 1:
            for _ in range(w):
                acc = acc * acc % p
        for table, e in zip(tables, exps):
            d = (e >> shift) & mask
            if d:
                acc = acc * table[d] % p
    return acc


def _pippenger(bases: Sequence[int], exps: Sequence[int], p: int) -> int:
    """Bucket method: per window, group bases by digit, then fold the
    buckets with the running-product trick (sum_d d*B_d in two passes)."""
    bits = max(e.bit_length() for e in exps)
    w = _pippenger_window(bits, len(bases))
    mask = (1 << w) - 1
    acc = 1
    for shift in range(((bits + w - 1) // w) * w - w, -1, -w):
        if acc != 1:
            for _ in range(w):
                acc = acc * acc % p
        buckets: dict[int, int] = {}
        for b, e in zip(bases, exps):
            d = (e >> shift) & mask
            if d:
                cur = buckets.get(d)
                buckets[d] = b if cur is None else cur * b % p
        # sum_d d * B_d via the running-product trick: walking digits
        # from the top, `running` accumulates B_mask..B_d and is folded
        # into the window product once per digit.
        running, window_acc = 1, 1
        for d in range(mask, 0, -1):
            bucket = buckets.get(d)
            if bucket is not None:
                running = running * bucket % p
            if running != 1:
                window_acc = window_acc * running % p
        acc = acc * window_acc % p
    return acc


def multiexp(pairs: Iterable[tuple[int, int]], p: int, q: int | None = None) -> int:
    """``prod_i base_i^{exp_i} mod p``; exponents reduced mod ``q``.

    Dispatches by term count: 0/1 terms short-circuit to ``pow``, small
    products run Straus, large ones Pippenger.
    """
    bases: list[int] = []
    exps: list[int] = []
    for base, exp in pairs:
        if q is not None:
            exp %= q
        if exp < 0:
            raise ValueError("negative exponent (pass q to reduce)")
        if exp == 0 or base == 1:
            continue
        bases.append(base)
        exps.append(exp)
    if not bases:
        return 1
    if len(bases) == 1:
        return powmod(bases[0], exps[0], p)
    if len(bases) >= PIPPENGER_CUTOFF:
        return _pippenger(bases, exps, p)
    return _straus(bases, exps, p)


class FixedBaseTable:
    """Windowed fixed-base exponentiation: ``base^e mod p`` in
    ~``|q|/window`` multiplications and no squarings.

    ``table[k][d] = base^(d << (window*k))`` for every window position
    ``k`` and digit ``d``; an exponentiation is one table lookup and
    multiply per nonzero digit.  Build cost is one multiplication per
    table entry, repaid after a handful of uses.
    """

    __slots__ = ("p", "q", "base", "window", "_table")

    def __init__(self, p: int, q: int, base: int, window: int = 5):
        self.p = p
        self.q = q
        self.base = base % p
        self.window = window
        windows = -(-q.bit_length() // window)
        table = []
        unit = self.base
        for _ in range(windows):
            row = [1, unit]
            for _ in range((1 << window) - 2):
                row.append(row[-1] * unit % p)
            table.append(row)
            unit = row[-1] * unit % p  # base^(2^(w*(k+1)))
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base^exponent mod p`` (exponent reduced mod q)."""
        e = exponent % self.q
        acc = 1
        mask = (1 << self.window) - 1
        for row in self._table:
            if e == 0:
                break
            d = e & mask
            if d:
                acc = acc * row[d] % self.p
            e >>= self.window
        return acc


@lru_cache(maxsize=256)
def fixed_base_table(p: int, q: int, base: int, window: int = 5) -> FixedBaseTable:
    """Process-wide table cache keyed by the raw parameters, so every
    group object with the same ``(p, q)`` shares tables for ``g``,
    ``h`` and recurring public keys."""
    return FixedBaseTable(p, q, base, window)


# Teeth of the fixed-base comb.  A table has 2^teeth entries and every
# verifier key keeps one (:func:`repro.crypto.schnorr._key_verifier`),
# so this constant is what the signature layer costs in resident
# memory; tests/sim/test_pki.py pins the resulting table length.
COMB_TEETH = 6


def comb_span(q: int) -> int:
    """Columns of a :data:`COMB_TEETH`-tooth comb over scalars below ``q``."""
    return -(-q.bit_length() // COMB_TEETH)


def comb_digits(e: int, span: int) -> list[int]:
    """The comb columns of ``e``, most significant first: bit ``j`` of
    column ``i`` is bit ``j * span + i`` of ``e``.  Slicing the binary
    string into teeth and transposing is several times cheaper than
    ``teeth * span`` shift-and-mask steps."""
    width = COMB_TEETH * span
    bits = format(e, f"0{width}b")
    teeth = [bits[k : k + span] for k in range(0, width, span)]
    return [int("".join(column), 2) for column in zip(*teeth)]


def _comb_table(p: int, q: int, base: int) -> list[int]:
    """The ``2^COMB_TEETH`` comb entries of ``base`` (entry 0 is 1)."""
    span = comb_span(q)
    table = [1]
    tooth = base % p
    for j in range(COMB_TEETH):
        table += [entry * tooth % p for entry in table]
        if j < COMB_TEETH - 1:
            for _ in range(span):
                tooth = tooth * tooth % p
    return table


@lru_cache(maxsize=16)
def _generator_comb(p: int, q: int, g: int) -> list[int]:
    return _comb_table(p, q, g)


class CombPair:
    """Lim--Lee fixed-base comb for ``g^a * base^b mod p`` with both
    bases fixed: ``span`` shared squarings and at most ``2 * span``
    multiplications, against ``|q|`` squarings for Straus.

    ``table[d] = prod_{j in bits(d)} base^(2^(j * span))``; the comb
    walks the scalar's columns from the top, squaring once per column
    for both bases together.  The generator's table is shared
    process-wide, ``base``'s belongs to this object.
    """

    __slots__ = ("p", "q", "span", "_g_table", "_table")

    def __init__(self, p: int, q: int, g: int, base: int):
        self.p = p
        self.q = q
        self.span = comb_span(q)
        self._g_table = _generator_comb(p, q, g)
        self._table = _comb_table(p, q, base)

    def multiexp(self, a: int, b: int) -> int:
        """``g^a * base^b mod p`` (exponents reduced mod q)."""
        p, span = self.p, self.span
        g_table, table = self._g_table, self._table
        acc = 1
        for d_g, d_b in zip(
            comb_digits(a % self.q, span), comb_digits(b % self.q, span)
        ):
            if acc != 1:
                acc = acc * acc % p
            if d_g:
                acc = acc * g_table[d_g] % p
            if d_b:
                acc = acc * table[d_b] % p
        return acc


class SharedBases:
    """Straus with the per-base digit tables built once and reused for
    many exponent vectors — a collapsed commitment row evaluated
    against every sender, or share commitments for every node index."""

    __slots__ = ("p", "q", "window", "_tables", "_mask", "count")

    def __init__(self, bases: Sequence[int], p: int, q: int, window: int = 4):
        self.p = p
        self.q = q
        self.window = window
        self._mask = (1 << window) - 1
        self.count = len(bases)
        tables = []
        for b in bases:
            b %= p
            row = [1, b]
            for _ in range(self._mask - 1):
                row.append(row[-1] * b % p)
            tables.append(row)
        self._tables = tables

    def multiexp(self, exps: Sequence[int]) -> int:
        """``prod_i bases[i]^{exps[i]} mod p`` using the shared tables."""
        if len(exps) != self.count:
            raise ValueError("exponent vector length mismatch")
        p, w, mask = self.p, self.window, self._mask
        exps = [e % self.q for e in exps]
        bits = max((e.bit_length() for e in exps), default=0)
        if bits == 0:
            return 1
        acc = 1
        for shift in range(((bits + w - 1) // w) * w - w, -1, -w):
            if acc != 1:
                for _ in range(w):
                    acc = acc * acc % p
            for table, e in zip(self._tables, exps):
                d = (e >> shift) & mask
                if d:
                    acc = acc * table[d] % p
        return acc

    def power_row(self, x: int) -> int:
        """``prod_i bases[i]^{x^i}``: evaluate the committed polynomial
        in the exponent at ``x`` (the verify-share right-hand side)."""
        q = self.q
        exps = []
        xp = 1
        for _ in range(self.count):
            exps.append(xp)
            xp = xp * x % q
        return self.multiexp(exps)
