"""DDH-based distributed pseudo-random function and coin tossing.

The paper motivates DKG with distributed PRFs [4], coin tossing [7]
and distributed random oracles [8].  The classic DDH construction
(Naor--Pinkas--Reingold) fits our discrete-log setting directly:

    f_s(x) = H1(x)^s

where ``s`` is the DKG secret.  Each node publishes the partial
evaluation ``H1(x)^{s_i}`` with a DLEQ proof against its share
commitment ``g^{s_i}``; ``t + 1`` verified partials interpolate in the
exponent to ``H1(x)^s``, which hashes to a pseudo-random string (or a
single coin bit).  The output is *unique* for a given input — no
Byzantine minority can bias it — which is exactly what makes it usable
as the common coin for randomized agreement, closing the circle the
paper describes (coin tossing needs a DKG; with our DKG deployed, the
system can then run randomized protocols).
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
class PartialEval:
    """One node's PRF evaluation share H1(x)^{s_i} with DLEQ proof."""

    index: int
    value: object  # a group element
    proof: dleq.DleqProof


class EvaluationError(Exception):
    """Too few valid partial evaluations."""


def input_point(group: AbstractGroup, tag: bytes):
    """H1: hash the PRF input into the group (backend hash-to-element)."""
    return group.hash_to_element(b"dprf-input", tag)


def partial_eval(
    group: AbstractGroup,
    tag: bytes,
    index: int,
    share: int,
    rng: random.Random,
) -> PartialEval:
    """Produce H1(tag)^{s_i} plus the proof that the exponent is s_i."""
    x = input_point(group, tag)
    _, value, proof = dleq.prove(group, share, group.g, x, rng)
    return PartialEval(index, value, proof)


def verify_partial(
    group: AbstractGroup,
    tag: bytes,
    commitment: FeldmanCommitment | FeldmanVector,
    partial: PartialEval,
) -> bool:
    if isinstance(commitment, FeldmanCommitment):
        share_pk = commitment.share_commitment(partial.index)
    else:
        share_pk = commitment.evaluate_in_exponent(partial.index)
    x = input_point(group, tag)
    return dleq.verify(group, group.g, share_pk, x, partial.value, partial.proof)


def combine(
    group: AbstractGroup,
    tag: bytes,
    commitment: FeldmanCommitment | FeldmanVector,
    partials: list[PartialEval],
    t: int,
):
    """Interpolate the t+1 lowest-index valid partials to the PRF value
    H1(tag)^s; the rest are never verified (see :func:`lowest_valid`)."""
    valid = lowest_valid(
        partials,
        group.q,
        t + 1,
        lambda partial: verify_partial(group, tag, commitment, partial),
    )
    if len(valid) < t + 1:
        raise EvaluationError(
            f"need {t + 1} valid partial evaluations, have {len(valid)}"
        )
    lambdas = lagrange_coefficients(list(valid), 0, group.q)
    return group.multiexp(
        (partial.value, lam) for partial, lam in zip(valid.values(), lambdas)
    )


def prf_bytes(group: AbstractGroup, value, length: int = 32) -> bytes:
    """H2: hash the group element to the PRF output string."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            b"dprf-out|" + group.element_to_bytes(value) + counter.to_bytes(4, "big")
        ).digest()
        counter += 1
    return out[:length]


def coin_flip(
    group: AbstractGroup,
    tag: bytes,
    commitment: FeldmanCommitment | FeldmanVector,
    partials: list[PartialEval],
    t: int,
) -> int:
    """A common coin: the low bit of the PRF output for ``tag``."""
    value = combine(group, tag, commitment, partials, t)
    return prf_bytes(group, value, 1)[0] & 1
