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
protocol's verification hot path.  This implementation therefore
collapses the matrix *once per node index* (the cached row verifier
``W_l(i) = prod_j (C_jl)^{i^j}``, shared between ``verify_poly``,
``verify_point``, ``share_commitment`` and ``column_vector`` because
the dealt matrices are symmetric) and evaluates everything downstream
of the collapse with :mod:`repro.crypto.multiexp` — so repeated
``verify_point(m, i, alpha)`` calls cost O(t) multiplications, and
many buffered points against one commitment batch into a single
randomized-linear-combination check via :meth:`FeldmanVector.batch_verify`.

A univariate variant (:class:`FeldmanVector`) commits to a degree-t
polynomial by its coefficient exponentiations; it is used by the Rec
protocol to validate shares, by share renewal (the ``V_l`` values of
§5.2), and by the synchronous baselines.
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
    # Per-instance memo for collapsed rows, share commitments and
    # symmetry; excluded from equality/hashing so two commitments to the
    # same matrix stay interchangeable as dict keys.
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if any(len(row) != len(self.matrix) for row in self.matrix):
            raise ValueError("commitment matrix must be square")

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
        exponentiations instead of (t+1)^2.
        """
        if poly.q != group.q:
            raise ValueError("polynomial field does not match group order")
        coeffs = poly.coeffs
        side = len(coeffs)
        rows: list[list] = [[None] * side for _ in range(side)]
        for j in range(side):
            for ell in range(j, side):
                rows[j][ell] = group.commit(coeffs[j][ell])
                if coeffs[ell][j] == coeffs[j][ell]:
                    rows[ell][j] = rows[j][ell]
                else:
                    rows[ell][j] = group.commit(coeffs[ell][j])
        return cls(tuple(tuple(row) for row in rows), group)

    # -- the per-node collapse cache -----------------------------------------

    def _is_symmetric(self) -> bool:
        sym = self._cache.get("sym")
        if sym is None:
            m = self.matrix
            n = len(m)
            sym = all(
                m[j][ell] == m[ell][j]
                for j in range(n)
                for ell in range(j + 1, n)
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
        """
        g = self.group
        i = index % g.q
        key = ("collapse", i, 0 if self._is_symmetric() else axis)
        cached = self._cache.get(key)
        if cached is None:
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
        ``W_l = prod_j C_jl^{i^j}``, against which both the node's row
        polynomial and its share commitment check in O(t)."""
        return self._collapse(i, axis=0)

    # -- Fig. 1 predicates ----------------------------------------------------

    def verify_poly(self, i: int, a: Polynomial) -> bool:
        """Fig. 1 predicate verify-poly(C, i, a).

        True iff ``a`` is the correct row polynomial f(i, .) under C:
        each coefficient commitment ``g^{a_l}`` (fixed-base table) must
        equal the cached collapsed entry ``W_l(i)``.
        """
        t = self.degree
        if a.degree != t or a.q != self.group.q:
            return False
        g = self.group
        table = g.fixed_base(g.g)
        return all(
            table.pow(c) == w
            for c, w in zip(a.coeffs, self.row_verifier(i).entries)
        )

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
            cached = self._cache[key] = self.column_vector(
                0
            ).evaluate_in_exponent(i)
        return cached

    def combine(self, other: "FeldmanCommitment") -> "FeldmanCommitment":
        """Entry-wise product: commitment to the sum of the two committed
        polynomials (DKG Fig. 2: ``C_pq <- prod_d (C_d)_pq``)."""
        if self.degree != other.degree or self.group != other.group:
            raise ValueError("incompatible commitments")
        g = self.group
        matrix = tuple(
            tuple(g.mul(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.matrix, other.matrix)
        )
        return FeldmanCommitment(matrix, g)

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

    def byte_size(self) -> int:
        """Serialized size: (t+1)^2 group elements."""
        return self.num_entries * self.group.element_bytes


@dataclass(frozen=True)
class FeldmanVector:
    """Univariate Feldman commitment: entries[l] = g^{a_l}."""

    entries: tuple
    group: AbstractGroup
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def degree(self) -> int:
        return len(self.entries) - 1

    @classmethod
    def commit(cls, poly: Polynomial, group: AbstractGroup) -> "FeldmanVector":
        if poly.q != group.q:
            raise ValueError("polynomial field does not match group order")
        return cls(tuple(group.commit(c) for c in poly.coeffs), group)

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

    def combine(self, other: "FeldmanVector") -> "FeldmanVector":
        if self.degree != other.degree or self.group != other.group:
            raise ValueError("incompatible commitments")
        g = self.group
        return FeldmanVector(
            tuple(g.mul(a, b) for a, b in zip(self.entries, other.entries)), g
        )

    def byte_size(self) -> int:
        return len(self.entries) * self.group.element_bytes


def share_verifier(
    commitment: FeldmanCommitment | FeldmanVector,
) -> FeldmanVector:
    """The univariate vector validating final shares, from either
    commitment shape (matrix for VSS/DKG, vector for renewal)."""
    if isinstance(commitment, FeldmanCommitment):
        return commitment.column_vector(0)
    return commitment
