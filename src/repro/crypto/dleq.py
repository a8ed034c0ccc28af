"""Chaum--Pedersen discrete-log-equality (DLEQ) proofs.

Needed by the threshold applications layer (``repro.apps``): a node
producing a partial ElGamal decryption ``u^{s_i}`` or a partial DPRF
evaluation ``x^{s_i}`` must prove that the exponent equals the one in
its public verification value ``g^{s_i}`` — i.e. that
``log_g(g^{s_i}) == log_u(u^{s_i})`` — without revealing ``s_i``.

The proof is the standard Fiat--Shamir transform of the Chaum--Pedersen
sigma protocol: commit ``(g^k, u^k)``, derive challenge ``c`` by
hashing, respond ``z = k + c*s``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.crypto.backend import AbstractGroup


def _challenge(
    group: AbstractGroup,
    g1, h1, g2, h2,
    commit1, commit2,
) -> int:
    h = hashlib.sha256()
    h.update(b"dleq|")
    for element in (g1, h1, g2, h2, commit1, commit2):
        h.update(group.element_to_bytes(element))
    return int.from_bytes(h.digest(), "big") % group.q


@dataclass(frozen=True)
class DleqProof:
    """Proof that log_{g1}(h1) == log_{g2}(h2)."""

    challenge: int
    response: int


def prove(
    group: AbstractGroup,
    secret: int,
    g1,
    g2,
    rng: random.Random,
) -> tuple:
    """Produce (h1, h2, proof) with h1 = g1^secret, h2 = g2^secret."""
    h1 = group.power(g1, secret)
    h2 = group.power(g2, secret)
    k = group.random_nonzero_scalar(rng)
    commit1 = group.power(g1, k)
    commit2 = group.power(g2, k)
    c = _challenge(group, g1, h1, g2, h2, commit1, commit2)
    z = group.scalar_add(k, group.scalar_mul(c, secret))
    return h1, h2, DleqProof(c, z)


def verify(
    group: AbstractGroup,
    g1,
    h1,
    g2,
    h2,
    proof: DleqProof,
) -> bool:
    """Check a DLEQ proof: recompute commitments and the challenge."""
    if not all(group.is_element(e) for e in (g1, h1, g2, h2)):
        return False
    # commit1 = g1^z * h1^{-c};  commit2 = g2^z * h2^{-c}.  Each is a
    # two-term multiexp sharing one squaring chain; h^{-c} = h^{q-c}
    # because membership in the order-q subgroup was just checked.
    neg_c = (-proof.challenge) % group.q
    commit1 = group.multiexp(((g1, proof.response), (h1, neg_c)))
    commit2 = group.multiexp(((g2, proof.response), (h2, neg_c)))
    return _challenge(group, g1, h1, g2, h2, commit1, commit2) == proof.challenge
