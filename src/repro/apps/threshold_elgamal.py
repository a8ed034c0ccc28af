"""Threshold ElGamal encryption on top of DKG output (§1 motivation:
"dealerless threshold public-key encryption").

Encryption is standard ElGamal to the group public key ``g^s``.
Decryption is distributed: each node publishes a *partial decryption*
``c1^{s_i}`` with a Chaum--Pedersen DLEQ proof that the exponent
matches its public share commitment ``g^{s_i}``; any ``t + 1`` verified
partials combine by Lagrange interpolation in the exponent to recover
``c1^s`` and hence the plaintext — no node ever reconstructs ``s``.

Messages are group elements; hashed-ElGamal (:func:`encrypt_bytes` /
:func:`decrypt_bytes_combine`) wraps arbitrary byte strings.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.crypto import dleq
from repro.crypto.backend import AbstractGroup
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.polynomials import lagrange_coefficients
from repro.crypto.shares import lowest_valid


@dataclass(frozen=True)
class Ciphertext:
    """An ElGamal ciphertext (c1, c2) = (g^k, m * pk^k)."""

    c1: object  # g^k
    c2: object  # m * pk^k


@dataclass(frozen=True)
class PartialDecryption:
    """One node's decryption share with its correctness proof."""

    index: int
    value: object  # c1^{s_i}
    proof: dleq.DleqProof


class DecryptionError(Exception):
    """Too few valid partial decryptions."""


def encrypt(
    group: AbstractGroup, public_key, message, rng: random.Random
) -> Ciphertext:
    """Encrypt a group element to the DKG public key."""
    if not group.is_element(message):
        raise ValueError("message must be a group element (use encrypt_bytes)")
    k = group.random_nonzero_scalar(rng)
    return Ciphertext(group.commit(k), group.mul(message, group.power(public_key, k)))


def partial_decrypt(
    group: AbstractGroup,
    ciphertext: Ciphertext,
    index: int,
    share: int,
    rng: random.Random,
) -> PartialDecryption:
    """Produce this node's decryption share c1^{s_i} with a DLEQ proof
    that log_g(g^{s_i}) == log_{c1}(c1^{s_i})."""
    _, value, proof = dleq.prove(group, share, group.g, ciphertext.c1, rng)
    return PartialDecryption(index, value, proof)


def verify_partial(
    group: AbstractGroup,
    ciphertext: Ciphertext,
    commitment: FeldmanCommitment | FeldmanVector,
    partial: PartialDecryption,
) -> bool:
    """Check a decryption share against the node's public share commitment."""
    if isinstance(commitment, FeldmanCommitment):
        share_pk = commitment.share_commitment(partial.index)
    else:
        share_pk = commitment.evaluate_in_exponent(partial.index)
    return dleq.verify(
        group, group.g, share_pk, ciphertext.c1, partial.value, partial.proof
    )


def _shared_point(
    group: AbstractGroup,
    c1,
    commitment: FeldmanCommitment | FeldmanVector,
    partials: list[PartialDecryption],
    t: int,
):
    """c1^s from the t+1 lowest-index valid partials; the rest are never
    verified (see :func:`lowest_valid`)."""
    ciphertext = Ciphertext(c1, group.identity)
    valid = lowest_valid(
        partials,
        group.q,
        t + 1,
        lambda partial: verify_partial(group, ciphertext, commitment, partial),
    )
    if len(valid) < t + 1:
        raise DecryptionError(
            f"need {t + 1} valid partial decryptions, have {len(valid)}"
        )
    lambdas = lagrange_coefficients(list(valid), 0, group.q)
    # c1^s = prod c1^{s_i * lambda_i}  (interpolation in the exponent)
    return group.multiexp(
        (partial.value, lam) for partial, lam in zip(valid.values(), lambdas)
    )


def combine(
    group: AbstractGroup,
    ciphertext: Ciphertext,
    commitment: FeldmanCommitment | FeldmanVector,
    partials: list[PartialDecryption],
    t: int,
) -> int:
    """Combine >= t+1 valid partials into the plaintext group element.

    Invalid partials (bad proofs — Byzantine contributions) are
    discarded; raises :class:`DecryptionError` if fewer than ``t + 1``
    valid ones remain.
    """
    c1_s = _shared_point(group, ciphertext.c1, commitment, partials, t)
    return group.mul(ciphertext.c2, group.inv(c1_s))


# -- hashed ElGamal for byte strings ------------------------------------------------


@dataclass(frozen=True)
class HybridCiphertext:
    """Hashed-ElGamal: ephemeral point + XOR-padded payload."""

    c1: object  # the ephemeral point g^k
    pad: bytes


def _kdf(group: AbstractGroup, shared_point, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            b"eg-kdf|" + group.element_to_bytes(shared_point) + counter.to_bytes(4, "big")
        ).digest()
        counter += 1
    return out[:length]


def encrypt_bytes(
    group: AbstractGroup, public_key, plaintext: bytes, rng: random.Random
) -> HybridCiphertext:
    k = group.random_nonzero_scalar(rng)
    shared = group.power(public_key, k)
    pad = bytes(
        a ^ b for a, b in zip(plaintext, _kdf(group, shared, len(plaintext)))
    )
    return HybridCiphertext(group.commit(k), pad)


def partial_decrypt_hybrid(
    group: AbstractGroup,
    ciphertext: HybridCiphertext,
    index: int,
    share: int,
    rng: random.Random,
) -> PartialDecryption:
    _, value, proof = dleq.prove(group, share, group.g, ciphertext.c1, rng)
    return PartialDecryption(index, value, proof)


def decrypt_bytes_combine(
    group: AbstractGroup,
    ciphertext: HybridCiphertext,
    commitment: FeldmanCommitment | FeldmanVector,
    partials: list[PartialDecryption],
    t: int,
) -> bytes:
    """Combine partials and strip the KDF pad."""
    shared = _shared_point(group, ciphertext.c1, commitment, partials, t)
    return bytes(
        a ^ b
        for a, b in zip(ciphertext.pad, _kdf(group, shared, len(ciphertext.pad)))
    )
