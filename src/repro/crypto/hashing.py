"""Commitment digests and hash utilities.

Cachin et al. [17, §3.4] observe that the O(kappa n^4) communication of
AVSS-style sharing is dominated by every ``echo``/``ready`` message
carrying the full (t+1) x (t+1) commitment matrix, and that replacing
the matrix with a collision-resistant hash in those messages reduces
communication to O(kappa n^3).  The paper states the trick "remains
applicable in our HybridVSS", and it is how every endpoint sends
``echo``/``ready`` (see :func:`repro.net.wire.commitment_mode`).

This module provides that digest and the hash-to-scalar helpers used by
the Fiat--Shamir constructions.
"""

from __future__ import annotations

import hashlib

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

