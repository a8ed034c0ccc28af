"""Feldman commitments and the HybridVSS verification predicates (§3).

The dealer commits to the symmetric bivariate polynomial ``f`` by
publishing the matrix ``C`` with ``C_jl = g^{f_jl}``.  Two predicates
from Fig. 1 are implemented verbatim:

* ``verify-poly(C, i, a)`` — the row polynomial ``a`` handed to node
  ``P_i`` is consistent with ``C``:
  ``g^{a_l} == prod_j (C_jl)^{i^j}`` for all ``l in [0, t]``.
* ``verify-point(C, i, m, alpha)`` — a point ``alpha`` relayed by node
  ``P_m`` equals ``f(m, i)``:
  ``g^alpha == prod_{j,l} (C_jl)^{m^j i^l}``.

Both predicates are O(t^2) exponentiations when evaluated from the raw
matrix, and they run on every echo/ready/send of every session — the
protocol's verification hot path.

verify-poly runs once per (node, dealer) pair and is answered by the
generator's fixed-base table (``verify_row``): the ``t+1`` values
``g^{a_l}`` come from one batched call whose exponentiations share
their field inversions, and each ``W_l(i) = prod_j (C_jl)^{i^j}`` is
folded by Horner and compared without inverting (on secp256k1; modp
has no inversion to share and runs the plain multiexps).  It keeps
nothing.

Everything else collapses the matrix *once per node index* (the cached
vector ``W_l(i)``, shared between ``verify_point``, ``share_commitment``
and ``column_vector`` because the dealt matrices are symmetric; at
index 0 it is column 0 itself) and evaluates downstream of the
collapse with :mod:`repro.crypto.multiexp` — so repeated
``verify_point(m, i, alpha)`` calls cost O(t) multiplications, and
many buffered points against one commitment batch into a single
randomized-linear-combination check via :meth:`FeldmanVector.batch_verify`.
A node reaches ``verify_point`` only on the fallback path, where it
holds no verified row.

A univariate variant (:class:`FeldmanVector`) commits to a degree-t
polynomial by its coefficient exponentiations; it is used by the Rec
protocol to validate shares, by share renewal (the ``V_l`` values of
§5.2) and by node addition (§6.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.backend import AbstractGroup
from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.polynomials import Polynomial


@dataclass(frozen=True)
class FeldmanCommitment:
    """Commitment matrix C with C[j][l] = g^{f_jl} for a bivariate f."""

    matrix: tuple[tuple, ...]
    group: AbstractGroup
    # Per-instance memo for collapsed rows, share commitments, symmetry
    # and the hash; excluded from equality so two commitments to the
    # same matrix stay interchangeable as dict keys.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise ValueError("commitment matrix must be square")

    def __hash__(self) -> int:
        # Every echo and ready looks its session state up by commitment,
        # and hashing the matrix hashes (t+1)^2 points.
        cached = self._cache.get("hash")
        if cached is None:
            cached = self._cache["hash"] = hash((self.matrix, self.group))
        return cached

    @property
    def degree(self) -> int:
        return len(self.matrix) - 1

    @classmethod
    def commit(
        cls, poly: BivariatePolynomial, group: AbstractGroup
    ) -> "FeldmanCommitment":
        """Compute C_jl = g^{f_jl} for every coefficient of ``poly``.

        A coefficient equal to its transpose is exponentiated once: the
        symmetric polynomials HybridVSS deals cost (t+1)(t+2)/2
        exponentiations instead of (t+1)^2, in one batched call.
        """
        if poly.q != group.q:
            raise ValueError("polynomial field does not match group order")
        coeffs = poly.coeffs
        side = len(coeffs)
        cells = [
            (j, ell)
            for j in range(side)
            for ell in range(side)
            if ell >= j or coeffs[ell][j] != coeffs[j][ell]
        ]
        rows: list[list] = [[None] * side for _ in range(side)]
        for (j, ell), point in zip(
            cells, group.commit_many(coeffs[j][ell] for j, ell in cells)
        ):
            rows[j][ell] = point
            if ell > j:
                rows[ell][j] = point  # replaced later if f_lj != f_jl
        return cls(tuple(tuple(row) for row in rows), group)

    # -- the per-node collapse cache -----------------------------------------

    def _is_symmetric(self) -> bool:
        sym = self._cache.get("sym")
        if sym is None:
            m = self.matrix
            n = len(m)
            sym = all(
                m[j][ell] == m[ell][j] for j in range(n) for ell in range(j + 1, n)
            )
            self._cache["sym"] = sym
        return sym

    def _collapse(self, index: int, axis: int) -> "FeldmanVector":
        """Fold the matrix with powers of ``index`` along ``axis``.

        ``axis=0`` gives the *row verifier* ``W_l = prod_j C_jl^{i^j}``
        (verify-poly right-hand sides; ``W_0`` is the share
        commitment); ``axis=1`` gives ``V_j = prod_l C_jl^{i^l}`` (the
        point verifier for receiver ``i``).  For the symmetric matrices
        HybridVSS deals the two coincide and share one cache slot, so a
        node pays for the O(t^2) collapse exactly once per commitment.
        At index 0 the fold is row 0 (``axis=0``) or column 0, taken
        as it stands.
        """
        g = self.group
        i = index % g.q
        key = ("collapse", i, 0 if self._is_symmetric() else axis)
        cached = self._cache.get(key)
        if cached is None and i == 0:
            m = self.matrix
            column = m[0] if axis == 0 else tuple(row[0] for row in m)
            cached = self._cache[key] = FeldmanVector(column, g)
        elif cached is None:
            n = len(self.matrix)
            i_pows = []
            ip = 1
            for _ in range(n):
                i_pows.append(ip)
                ip = ip * i % g.q
            entries = []
            for ell in range(n):
                if axis == 0:
                    pairs = [(self.matrix[j][ell], i_pows[j]) for j in range(n)]
                else:
                    pairs = [(self.matrix[ell][j], i_pows[j]) for j in range(n)]
                entries.append(g.multiexp(pairs))
            cached = FeldmanVector(tuple(entries), g)
            self._cache[key] = cached
        return cached

    def row_verifier(self, i: int) -> "FeldmanVector":
        """The matrix collapsed once for node ``i``: entries
        ``W_l = prod_j C_jl^{i^j}``, against which a row polynomial and
        a share commitment check in O(t) (:meth:`verify_poly` folds
        without it)."""
        return self._collapse(i, axis=0)

    # -- Fig. 1 predicates ----------------------------------------------------

    def verify_poly(self, i: int, a: Polynomial) -> bool:
        """Fig. 1 predicate verify-poly(C, i, a).

        True iff ``a`` is the correct row polynomial f(i, .) under C:
        each ``g^{a_l}`` must equal ``W_l(i)``.  The generator's table
        computes both sides at once (``verify_row``) and caches
        nothing: a node checks one row per commitment.
        """
        t = self.degree
        if a.degree != t or a.q != self.group.q:
            return False
        g = self.group
        return g.fixed_base(g.g).verify_row(a.coeffs, self.matrix, i)

    def verify_point(self, i: int, m: int, alpha: int) -> bool:
        """Fig. 1 predicate verify-point(C, i, m, alpha).

        True iff alpha = f(m, i) under the committed f.  The receiver-
        side collapse is cached, so repeated calls for one ``i`` cost
        O(t) multiplications each.
        """
        return self._collapse(i, axis=1).verify_share(m, alpha)

    def verify_share(self, i: int, share: int) -> bool:
        """True iff ``share`` = f(i, 0): the final VSS share of node i.

        Used by Rec to filter bad shares before interpolation.
        """
        return self.column_vector(0).verify_share(i, share)

    def public_key(self) -> int:
        """g^{f_00} = g^s: the public counterpart of the shared secret."""
        return self.matrix[0][0]

    def share_commitment(self, i: int) -> int:
        """g^{f(i,0)}: the public verification value for node i's share.

        Evaluated through the column-0 vector's shared Straus tables
        (one table build serves every node index) and memoized per
        index — the threshold-signature partial-verification hot path.
        """
        key = ("sharec", i % self.group.q)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self.column_vector(0).evaluate_in_exponent(i)
        return cached

    @staticmethod
    def combine(commitments: list["FeldmanCommitment"]) -> "FeldmanCommitment":
        """Entry-wise product: commitment to the sum of the committed
        polynomials (DKG Fig. 2: ``C_pq <- prod_d (C_d)_pq``), every
        entry from one ``products`` call — one inversion on a curve.

        The product of symmetric matrices is symmetric, so only its
        upper triangle is multiplied and then mirrored: (t+1)(t+2)/2
        entries instead of (t+1)^2.  An asymmetric operand, which a
        Byzantine dealer may send, takes every entry.
        """
        first = commitments[0]
        g, side = first.group, len(first.matrix)
        if any(c.degree != first.degree or c.group != g for c in commitments):
            raise ValueError("incompatible commitments")
        if len(commitments) == 1:
            return first
        symmetric = all(c._is_symmetric() for c in commitments)
        cells = [
            (j, ell) for j in range(side) for ell in range(j if symmetric else 0, side)
        ]
        entries = g.products(
            [c.matrix[j][ell] for c in commitments] for j, ell in cells
        )
        rows: list[list] = [[None] * side for _ in range(side)]
        for (j, ell), entry in zip(cells, entries):
            rows[j][ell] = entry
            if symmetric:
                rows[ell][j] = entry
        return FeldmanCommitment(tuple(tuple(row) for row in rows), g)

    def column_vector(self, index: int = 0) -> "FeldmanVector":
        """The univariate commitment to f(., index); ``index=0`` commits to
        the polynomial whose evaluations are the nodes' final shares."""
        return self._collapse(index, axis=1)

    def batch_verify_points(
        self,
        i: int,
        items: list[tuple[int, int]],
        rng: random.Random | None = None,
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Batch verify-point: many ``(m, alpha)`` claims for receiver
        ``i`` in one randomized-linear-combination multiexp, with
        per-item fallback identifying the bad senders."""
        return self._collapse(i, axis=1).batch_verify(items, rng=rng)

    @property
    def num_entries(self) -> int:
        return len(self.matrix) ** 2


@dataclass(frozen=True)
class FeldmanVector:
    """Univariate Feldman commitment: entries[l] = g^{a_l}."""

    entries: tuple
    group: AbstractGroup
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return len(self.entries) - 1

    @classmethod
    def commit(cls, poly: Polynomial, group: AbstractGroup) -> "FeldmanVector":
        if poly.q != group.q:
            raise ValueError("polynomial field does not match group order")
        return cls(tuple(group.commit_many(poly.coeffs)), group)

    def _batcher(self):
        """The cached batch verifier; its shared Straus tables also back
        every single-share check against this vector."""
        batcher = self._cache.get("batch")
        if batcher is None:
            batcher = self.group.batch_verifier(self.entries)
            self._cache["batch"] = batcher
        return batcher

    def _shared_bases(self):
        return self._batcher()._shared_bases()

    def verify_share(self, i: int, share: int) -> bool:
        """True iff g^share == prod_l entries[l]^{i^l}."""
        return self._batcher().check_one(i, share)

    def batch_verify(
        self,
        items: list[tuple[int, int]],
        rng: random.Random | None = None,
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Verify many ``(i, share)`` claims in one randomized-linear-
        combination check; returns ``(good, bad_indices)`` with the bad
        senders pinpointed by per-item fallback on mismatch."""
        return self._batcher().verify(items, rng=rng)

    def evaluate_in_exponent(self, i: int) -> int:
        """g^{a(i)} computed from the commitment alone (memoized; the
        service layer evaluates the same key commitment at the same
        signer indices for every request)."""
        key = ("eval", i % self.group.q)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._shared_bases().power_row(i)
        return cached

    def public_key(self) -> int:
        """g^{a_0}."""
        return self.entries[0]


def share_verifier(
    commitment: FeldmanCommitment | FeldmanVector,
) -> FeldmanVector:
    """The univariate vector validating final shares, from either
    commitment shape (matrix for VSS/DKG, vector for renewal)."""
    if isinstance(commitment, FeldmanCommitment):
        return commitment.column_vector(0)
    return commitment
