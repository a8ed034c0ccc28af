"""Threshold Schnorr signatures from DKG output (§1: "dealerless
threshold ... signature schemes").

Signing a message requires a *fresh shared nonce* — exactly another
DKG instance (this is why the paper calls DKG the fundamental building
block): the group runs an ephemeral DKG for ``k`` with public nonce
point ``R = g^k``, each signer publishes the partial response
``z_i = k_i + c * s_i mod q`` where ``c = H(X || R || m)`` and ``k_i``,
``s_i`` are its nonce and key shares, and any ``t + 1`` honest
partials Lagrange-interpolate to the full response ``z`` with
``(c, z)`` an ordinary Schnorr signature under the group key ``X``.

Partial responses are publicly verifiable against the Feldman
commitments of both sharings: ``g^{z_i} == R_i * X_i^c`` where
``R_i = g^{k_i}`` and ``X_i = g^{s_i}`` are the per-node commitment
evaluations.  :func:`combine` does not start there: ``c`` depends on no
partial and ``z`` is the one degree-``t`` interpolation at 0, so it
interpolates first, verifies the *signature* once, and looks at the
partials one by one only when that fails -- to find which to leave out.
:func:`batch_verify` audits a whole set of partials for callers that
want that; it is not on the signing path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import schnorr
from repro.crypto.backend import AbstractGroup
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.polynomials import lagrange_coefficients
from repro.crypto.shares import lowest_valid


@dataclass(frozen=True)
class PartialSignature:
    """One signer's response share z_i = k_i + c * s_i."""

    index: int
    response: int


class SigningError(Exception):
    """Too few valid partial signatures."""


def _share_pk(commitment: FeldmanCommitment | FeldmanVector, index: int):
    if isinstance(commitment, FeldmanCommitment):
        return commitment.share_commitment(index)
    return commitment.evaluate_in_exponent(index)


def challenge(
    group: AbstractGroup, public_key, nonce_point, message: bytes
) -> int:
    """The Fiat-Shamir challenge c = H(X || R || m) — identical to the
    single-signer scheme, so threshold signatures verify with the plain
    :func:`repro.crypto.schnorr.verify`."""
    return schnorr._challenge(group, public_key, nonce_point, message)


def partial_sign(
    group: AbstractGroup,
    message: bytes,
    key_share: int,
    nonce_share: int,
    public_key,
    nonce_point,
) -> int:
    """z_i = k_i + c * s_i mod q."""
    c = challenge(group, public_key, nonce_point, message)
    return group.scalar_add(nonce_share, group.scalar_mul(c, key_share))


def verify_partial(
    group: AbstractGroup,
    message: bytes,
    partial: PartialSignature,
    key_commitment: FeldmanCommitment | FeldmanVector,
    nonce_commitment: FeldmanCommitment | FeldmanVector,
) -> bool:
    """g^{z_i} == R_i * X_i^c, with R_i, X_i from the commitments."""
    public_key = key_commitment.public_key()
    nonce_point = nonce_commitment.public_key()
    c = challenge(group, public_key, nonce_point, message)
    lhs = group.commit(partial.response)
    rhs = group.mul(
        _share_pk(nonce_commitment, partial.index),
        group.power(_share_pk(key_commitment, partial.index), c),
    )
    return lhs == rhs


def _coeff_entries(
    commitment: FeldmanCommitment | FeldmanVector,
) -> tuple:
    """The univariate coefficient commitments g^{a_j} for f(., 0)."""
    if isinstance(commitment, FeldmanCommitment):
        return tuple(row[0] for row in commitment.matrix)
    return commitment.entries


def batch_verify(
    group: AbstractGroup,
    message: bytes,
    partials: list[PartialSignature],
    key_commitment: FeldmanCommitment | FeldmanVector,
    nonce_commitment: FeldmanCommitment | FeldmanVector,
    rng: random.Random,
) -> tuple[list[PartialSignature], list[int]]:
    """Verify many partials at once; returns ``(valid, bad_indices)``.

    The batch check is a random linear combination of the per-partial
    equations ``g^{z_i} == R_i * X_i^c``: with fresh random weights
    gamma_i,

        g^{sum gamma_i z_i} == prod_i (R_i * X_i^c)^{gamma_i}

    which a cheating partial survives with probability 1/q.  Because
    ``R_i`` and ``X_i`` are themselves commitment-polynomial
    evaluations ``prod_j C_j^{i^j}``, the right side collapses through
    the coefficient commitments:

        prod_i (R_i * X_i^c)^{gamma_i}
            = prod_j N_j^{a_j} * (prod_j K_j^{a_j})^c,
        a_j = sum_i gamma_i * i^j  (scalar arithmetic only),

    so the whole batch costs O(t) exponentiations instead of the
    O(n*t) of one-by-one verification.  On mismatch it falls back to
    per-partial :func:`verify_partial` to *identify* the bad signers
    rather than just reject the batch.  Duplicate indices keep only the first
    occurrence (a duplicate with a different response would otherwise
    let one signer spoil the combination).
    """
    unique: dict[int, PartialSignature] = {}
    for partial in partials:
        unique.setdefault(partial.index, partial)
    batch = list(unique.values())
    if not batch:
        return [], []
    c = challenge(
        group, key_commitment.public_key(), nonce_commitment.public_key(), message
    )
    weights = [group.random_nonzero_scalar(rng) for _ in batch]
    nonce_entries = _coeff_entries(nonce_commitment)
    key_entries = _coeff_entries(key_commitment)
    degree = max(len(nonce_entries), len(key_entries))
    lhs_exponent = 0
    aggregated = [0] * degree  # a_j = sum_i gamma_i * i^j
    for gamma, partial in zip(weights, batch):
        lhs_exponent = group.scalar_add(
            lhs_exponent, group.scalar_mul(gamma, partial.response)
        )
        i_pow = 1
        for j in range(degree):
            aggregated[j] = group.scalar_add(
                aggregated[j], group.scalar_mul(gamma, i_pow)
            )
            i_pow = group.scalar_mul(i_pow, partial.index)
    # prod_j N_j^{a_j} * (prod_j K_j^{a_j})^c folded into ONE interleaved
    # multiexp by scaling the key-side exponents by c in the scalar field.
    pairs = [
        (entry, a_j) for entry, a_j in zip(nonce_entries, aggregated)
    ] + [
        (entry, group.scalar_mul(c, a_j))
        for entry, a_j in zip(key_entries, aggregated)
    ]
    rhs = group.multiexp(pairs)
    if group.commit(lhs_exponent) == rhs:
        return batch, []
    valid: list[PartialSignature] = []
    bad: list[int] = []
    for partial in batch:
        if verify_partial(group, message, partial, key_commitment, nonce_commitment):
            valid.append(partial)
        else:
            bad.append(partial.index)
    return valid, bad


def _interpolate(
    group: AbstractGroup, c: int, points: list[tuple[int, PartialSignature]]
) -> schnorr.Signature:
    """(c, z) with z the interpolation at 0 of ``(x_i, z_i)`` points."""
    lambdas = lagrange_coefficients([x for x, _ in points], 0, group.q)
    z = sum(lam * p.response for lam, (_, p) in zip(lambdas, points)) % group.q
    return schnorr.Signature(c, z)


def combine(
    group: AbstractGroup,
    message: bytes,
    partials: list[PartialSignature],
    key_commitment: FeldmanCommitment | FeldmanVector,
    nonce_commitment: FeldmanCommitment | FeldmanVector,
    t: int,
    *,
    rejected: list[int] | None = None,
) -> schnorr.Signature:
    """Interpolate ``t + 1`` partials into a signature that verifies
    under the group key, or raise :class:`SigningError`.

    The result is checked, not the parts: the ``t + 1`` lowest-index
    partials are interpolated and the signature verified once.  Only
    when that fails is every partial put through :func:`verify_partial`;
    the signers that fail it are appended to ``rejected`` (when given)
    and the ``t + 1`` lowest-index survivors are interpolated and
    verified again.  A partial outside the lowest ``t + 1`` is therefore
    never looked at unless one inside them is bad.

    Signers are told apart, and named in ``rejected``, by ``index mod q``
    -- where the commitments evaluate -- keeping each signer's first
    partial; an index that is 0 mod q names no signer (that "share" is
    the secret) and is dropped (:func:`repro.crypto.shares.lowest_valid`).
    """
    # Every partial "valid": lowest_valid is the one holder of the
    # signer-identity rule, and here it only deduplicates.
    points = list(
        lowest_valid(partials, group.q, len(partials), lambda p: True).items()
    )
    if len(points) < t + 1:
        raise SigningError(
            f"need {t + 1} partial signatures, have {len(points)}"
        )
    public_key = key_commitment.public_key()
    c = challenge(group, public_key, nonce_commitment.public_key(), message)
    signature = _interpolate(group, c, points[: t + 1])
    if schnorr.verify(group, public_key, message, signature):
        return signature
    valid = []
    for x, partial in points:
        if verify_partial(group, message, partial, key_commitment, nonce_commitment):
            valid.append((x, partial))
        elif rejected is not None:
            rejected.append(x)
    if len(valid) < t + 1:
        raise SigningError(
            f"need {t + 1} valid partial signatures, have {len(valid)}"
        )
    signature = _interpolate(group, c, valid[: t + 1])
    if not schnorr.verify(group, public_key, message, signature):
        raise SigningError("combined signature failed verification")
    return signature
