"""Schnorr signatures over the same discrete-log group (§2.3).

The paper requires "message authentication with any digital signature
scheme secure against adaptive chosen-message attack"; signed ``echo``,
``ready`` and ``lead-ch`` messages carry these signatures so the leader
can prove the validity of its proposal (sets R and M in Figs. 2–3).

We implement standard Fiat--Shamir Schnorr signatures: for key
``x`` with public key ``X = g^x``, a signature on message ``m`` is
``(c, z)`` with ``c = H(X || g^k || m)`` and ``z = k + c*x mod q``.
Verification recomputes ``R = g^z X^{-c}`` and checks
``c == H(X || R || m)``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.crypto.backend import AbstractGroup


def _challenge(group: AbstractGroup, public_key, nonce_point, message: bytes) -> int:
    digest = hashlib.sha256(
        b"schnorr-sig|"
        + group.element_to_bytes(public_key)
        + group.element_to_bytes(nonce_point)
        + message
    ).digest()
    return int.from_bytes(digest, "big") % group.q


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature (challenge, response)."""

    challenge: int
    response: int


@dataclass(frozen=True)
class SigningKey:
    """A Schnorr signing key; ``public_key`` is g^x."""

    secret: int
    group: AbstractGroup

    @cached_property
    def public_key(self):
        return self.group.commit(self.secret)

    @classmethod
    def generate(cls, group: AbstractGroup, rng: random.Random) -> "SigningKey":
        return cls(group.random_nonzero_scalar(rng), group)

    def sign(self, message: bytes, rng: random.Random) -> Signature:
        """Sign with a random nonce drawn from ``rng``.

        Determinism of simulations is preserved by seeding ``rng`` from
        the simulation seed; we do not use RFC 6979 derandomization to
        keep the code close to the textbook scheme.
        """
        g = self.group
        k = g.random_nonzero_scalar(rng)
        nonce_point = g.commit(k)
        c = _challenge(g, self.public_key, nonce_point, message)
        z = g.scalar_add(k, g.scalar_mul(c, self.secret))
        return Signature(c, z)


# Keys whose verifier is kept.  Each holds one comb table
# (``2^COMB_TEETH`` elements), and benchmark operations enroll fresh
# keys by the dozen, so this bound — not the lifetime of whoever issued
# the certificate — is what frees a table.
_VERIFIER_KEYS = 64


@lru_cache(maxsize=_VERIFIER_KEYS)
def _key_verifier(group: AbstractGroup, public_key):
    """Everything a verification needs that depends on the key alone:
    the group-membership verdict (``None`` for a key that is no group
    element) and the comb tables for ``g^a * X^b``.  A long-lived signer
    (every CA-certified protocol node) is verified thousands of times
    against the same key."""
    if not group.is_element(public_key):
        return None
    return group.comb_pair(public_key)


def verify(group: AbstractGroup, public_key, message: bytes, sig: Signature) -> bool:
    """Verify a Schnorr signature against ``public_key``."""
    try:
        verifier = _key_verifier(group, public_key)
    except TypeError:  # unhashable: not an element of either backend
        return False
    if verifier is None:
        return False
    if not (0 <= sig.challenge < group.q and 0 <= sig.response < group.q):
        return False
    # R = g^z * X^{-c}; X^{-c} = X^{q-c} since X is in the order-q
    # subgroup (checked when the verifier was built).
    r = verifier.multiexp(sig.response, (-sig.challenge) % group.q)
    return _challenge(group, public_key, r, message) == sig.challenge
