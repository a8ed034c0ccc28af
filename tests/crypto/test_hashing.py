"""Tests for commitment digests and hash-to-field helpers."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import toy_group
from repro.crypto.hashing import (
    DIGEST_BYTES,
    commitment_digest,
    hash_to_scalar,
)

G = toy_group()


def _commitment(seed: int, t: int = 2) -> FeldmanCommitment:
    f = BivariatePolynomial.random_symmetric(t, G.q, random.Random(seed))
    return FeldmanCommitment.commit(f, G)


class TestCommitmentDigest:
    def test_deterministic(self) -> None:
        c = _commitment(0)
        assert commitment_digest(c) == commitment_digest(c)

    def test_distinct_commitments_distinct_digests(self) -> None:
        assert commitment_digest(_commitment(1)) != commitment_digest(_commitment(2))

    def test_digest_length(self) -> None:
        assert len(commitment_digest(_commitment(3))) == DIGEST_BYTES


class TestHashToScalar:
    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=40)
    def test_in_range_and_deterministic(self, a: bytes, b: bytes) -> None:
        x = hash_to_scalar(G.q, a, b)
        assert 0 <= x < G.q
        assert x == hash_to_scalar(G.q, a, b)

    def test_length_prefixing_prevents_concatenation_ambiguity(self) -> None:
        assert hash_to_scalar(G.q, b"ab", b"c") != hash_to_scalar(G.q, b"a", b"bc")

