"""Symmetric bivariate polynomials over Z_q (HybridVSS, §3).

The dealer in HybridVSS chooses a random *symmetric* bivariate
polynomial ``f(x, y) = sum_{j,l} f_jl x^j y^l`` with ``f_00 = s`` and
``f_jl = f_lj``.  Node ``P_i``'s row polynomial is ``a_i(y) = f(i, y)``;
symmetry gives ``f(i, m) = f(m, i)``, which is exactly what lets node
``i`` cross-check the point ``alpha = f(m, i)`` received in an ``echo``
from node ``m`` against the public commitment.

The paper notes that using a symmetric rather than a general bivariate
polynomial yields a constant-factor complexity reduction.  General
polynomials are here too: they are what a dealer that breaks symmetry
deals, so the checks that must not assume it can be tested.

Like :mod:`repro.crypto.polynomials`, everything here lives in the
scalar field Z_q and is therefore shared verbatim by every group
backend; only the *commitments* to these polynomials
(:mod:`repro.crypto.feldman`) touch group elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.polynomials import Polynomial


@dataclass(frozen=True)
class BivariatePolynomial:
    """A bivariate polynomial f(x,y) = sum_{j,l} coeffs[j][l] x^j y^l over Z_q.

    ``coeffs`` is a (t+1) x (t+1) tuple-of-tuples.  Instances may be
    symmetric (``coeffs[j][l] == coeffs[l][j]``) or general; HybridVSS
    uses the symmetric case.
    """

    coeffs: tuple[tuple[int, ...], ...]
    q: int

    def __post_init__(self) -> None:
        reduced = tuple(
            tuple(c % self.q for c in row) for row in self.coeffs
        )
        if any(len(row) != len(reduced) for row in reduced):
            raise ValueError("coefficient matrix must be square")
        object.__setattr__(self, "coeffs", reduced)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def secret(self) -> int:
        """f(0, 0) = f_00 — the shared secret."""
        return self.coeffs[0][0]

    def is_symmetric(self) -> bool:
        t = self.degree
        return all(
            self.coeffs[j][l] == self.coeffs[l][j]
            for j in range(t + 1)
            for l in range(j + 1, t + 1)
        )

    def evaluate(self, x: int, y: int) -> int:
        """f(x, y) mod q via nested Horner evaluation."""
        acc = 0
        for row in reversed(self.coeffs):
            inner = 0
            for c in reversed(row):
                inner = (inner * y + c) % self.q
            acc = (acc * x + inner) % self.q
        return acc

    def row_polynomial(self, x: int) -> Polynomial:
        """a_x(y) = f(x, y) as a univariate polynomial in y.

        This is the polynomial the dealer sends to node ``P_x``.
        """
        t = self.degree
        xs = [pow(x, j, self.q) for j in range(t + 1)]
        coeffs = []
        for l in range(t + 1):
            coeffs.append(
                sum(self.coeffs[j][l] * xs[j] for j in range(t + 1)) % self.q
            )
        return Polynomial(tuple(coeffs), self.q)

    def column_polynomial(self, y: int) -> Polynomial:
        """f(x, y) as a univariate polynomial in x (equals row for symmetric f)."""
        t = self.degree
        ys = [pow(y, l, self.q) for l in range(t + 1)]
        coeffs = []
        for j in range(t + 1):
            coeffs.append(
                sum(self.coeffs[j][l] * ys[l] for l in range(t + 1)) % self.q
            )
        return Polynomial(tuple(coeffs), self.q)

    @classmethod
    def random_symmetric(
        cls,
        degree: int,
        q: int,
        rng: random.Random,
        secret: int | None = None,
    ) -> "BivariatePolynomial":
        """Uniformly random symmetric bivariate polynomial of the given
        degree, optionally with fixed f_00 = secret (Fig. 1, dealer step)."""
        t = degree
        coeffs = [[0] * (t + 1) for _ in range(t + 1)]
        for j in range(t + 1):
            for l in range(j, t + 1):
                c = rng.randrange(q)
                coeffs[j][l] = c
                coeffs[l][j] = c
        if secret is not None:
            coeffs[0][0] = secret % q
        return cls(tuple(tuple(row) for row in coeffs), q)

    @classmethod
    def random_general(
        cls,
        degree: int,
        q: int,
        rng: random.Random,
        secret: int | None = None,
    ) -> "BivariatePolynomial":
        """Uniformly random (not necessarily symmetric) bivariate
        polynomial — a dealing that breaks HybridVSS's symmetry."""
        t = degree
        coeffs = [[rng.randrange(q) for _ in range(t + 1)] for _ in range(t + 1)]
        if secret is not None:
            coeffs[0][0] = secret % q
        return cls(tuple(tuple(row) for row in coeffs), q)
