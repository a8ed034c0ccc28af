"""Commitment digests and hash utilities.

Cachin et al. [17, §3.4] observe that the O(kappa n^4) communication of
AVSS-style sharing is dominated by every ``echo``/``ready`` message
carrying the full (t+1) x (t+1) commitment matrix, and that replacing
the matrix with a collision-resistant hash in those messages reduces
communication to O(kappa n^3).  The paper states the trick "remains
applicable in our HybridVSS"; the E1 benchmark measures both codecs.

This module provides the digest, hash-to-scalar helpers used by the
Fiat--Shamir constructions, and the two commitment *codecs* that the
metrics layer uses to price messages:

* :class:`FullMatrixCodec` — every message carries the full matrix;
* :class:`HashedMatrixCodec` — ``send`` carries the matrix, while
  ``echo``/``ready`` carry only its 32-byte digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.feldman import FeldmanCommitment

DIGEST_BYTES = 32


def commitment_digest(commitment: FeldmanCommitment) -> bytes:
    """Collision-resistant digest of a commitment matrix.

    Entries are hashed in the group's canonical serialization, so the
    digest is well defined for every backend (fixed-width residues for
    modp, compressed points for secp256k1) and unchanged for modp.
    Computed once per commitment object: the matrix is immutable."""
    digest = commitment._cache.get("digest")
    if digest is None:
        to_bytes = commitment.group.element_to_bytes
        digest = encoded_matrix_digest(
            b"".join(to_bytes(entry) for row in commitment.matrix for entry in row)
        )
        commitment._cache["digest"] = digest
    return digest


def encoded_matrix_digest(raw: bytes) -> bytes:
    """:func:`commitment_digest` of the matrix whose entries, row by
    row in canonical serialization, are ``raw`` — what a wire frame
    carries, hashed without decoding it."""
    return hashlib.sha256(b"feldman-matrix|" + raw).digest()


def hash_to_scalar(q: int, *parts: bytes) -> int:
    """Hash arbitrary byte strings into Z_q (Fiat-Shamir challenges)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % q


def hash_to_element(group_p: int, group_q: int, *parts: bytes) -> int:
    """Hash into the order-q subgroup of Z_p^* (for DPRF inputs).

    Hashes to Z_p then raises to the cofactor, retrying on the identity.
    """
    cofactor = (group_p - 1) // group_q
    counter = 0
    while True:
        h = hashlib.sha256()
        h.update(b"hash-to-element|" + str(counter).encode() + b"|")
        for part in parts:
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
        candidate = int.from_bytes(h.digest(), "big") % group_p
        element = pow(candidate, cofactor, group_p)
        if element != 1:
            return element
        counter += 1


@dataclass(frozen=True)
class FullMatrixCodec:
    """Price every protocol message as carrying the full commitment matrix."""

    name: str = "full-matrix"

    def send_overhead(self, commitment: FeldmanCommitment) -> int:
        return commitment.byte_size()

    def echo_overhead(self, commitment: FeldmanCommitment) -> int:
        return commitment.byte_size()

    def ready_overhead(self, commitment: FeldmanCommitment) -> int:
        return commitment.byte_size()


@dataclass(frozen=True)
class HashedMatrixCodec:
    """Cachin et al. compression: echo/ready carry only a digest.

    The dealer's ``send`` must still carry the matrix (nodes need it to
    run verify-poly / verify-point), so only the quadratic number of
    echo/ready messages are compressed — exactly the dominant term.
    """

    name: str = "hashed-matrix"

    def send_overhead(self, commitment: FeldmanCommitment) -> int:
        return commitment.byte_size()

    def echo_overhead(self, commitment: FeldmanCommitment) -> int:
        return DIGEST_BYTES

    def ready_overhead(self, commitment: FeldmanCommitment) -> int:
        return DIGEST_BYTES
