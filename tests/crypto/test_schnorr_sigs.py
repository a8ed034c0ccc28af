"""Tests for Schnorr signatures (message authentication, §2.3).

Parameterized over both group backends via the ``bgroup`` fixture.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ec import INFINITY, EcGroup, EcPoint
from repro.crypto.multiexp import COMB_TEETH, comb_span
from repro.crypto.schnorr import Signature, SigningKey, verify


def comb_edge_scalars(q: int) -> list[int]:
    """Scalars that stress the comb: the ends of the range, and columns
    whose digit is all-ones (every tooth set) beside all-zero ones."""
    span = comb_span(q)
    column = sum(1 << (j * span) for j in range(COMB_TEETH))  # column 0 full
    return [0, 1, 2, q - 1, q - 2, column, column << 1, column | (column << 2)]


def textbook_pair(group, base, a: int, b: int):
    return group.mul(group.power(group.g, a), group.power(base, b))


def non_elements(group) -> list:
    """Keys of the right type that the membership test must refuse."""
    if isinstance(group, EcGroup):
        return [EcPoint(1, 1), EcPoint(group.g.x, group.g.y + 1)]
    return [group.p - 1, 0, group.p, -1]


class TestSignVerify:
    @given(st.binary(max_size=64), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_roundtrip(self, bgroup, message: bytes, seed: int) -> None:
        rng = random.Random(seed)
        key = SigningKey.generate(bgroup, rng)
        sig = key.sign(message, rng)
        assert verify(bgroup, key.public_key, message, sig)

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_rejects_modified_message(self, bgroup, message: bytes, seed: int) -> None:
        rng = random.Random(seed)
        key = SigningKey.generate(bgroup, rng)
        sig = key.sign(message, rng)
        tampered = bytes([message[0] ^ 1]) + message[1:]
        assert not verify(bgroup, key.public_key, tampered, sig)

    def test_rejects_wrong_key(self, bgroup) -> None:
        rng = random.Random(1)
        k1 = SigningKey.generate(bgroup, rng)
        k2 = SigningKey.generate(bgroup, rng)
        sig = k1.sign(b"msg", rng)
        assert not verify(bgroup, k2.public_key, b"msg", sig)

    def test_rejects_tampered_signature_fields(self, bgroup) -> None:
        rng = random.Random(2)
        q = bgroup.q
        key = SigningKey.generate(bgroup, rng)
        sig = key.sign(b"msg", rng)
        assert not verify(
            bgroup,
            key.public_key,
            b"msg",
            Signature((sig.challenge + 1) % q, sig.response),
        )
        assert not verify(
            bgroup,
            key.public_key,
            b"msg",
            Signature(sig.challenge, (sig.response + 1) % q),
        )

    def test_rejects_out_of_range_values(self, bgroup) -> None:
        rng = random.Random(3)
        key = SigningKey.generate(bgroup, rng)
        sig = key.sign(b"msg", rng)
        assert not verify(
            bgroup, key.public_key, b"msg", Signature(sig.challenge, bgroup.q)
        )
        assert not verify(bgroup, key.public_key, b"msg", Signature(-1, sig.response))

    def test_rejects_invalid_public_key(self, bgroup) -> None:
        rng = random.Random(4)
        key = SigningKey.generate(bgroup, rng)
        sig = key.sign(b"msg", rng)
        # 0 and -1 are elements of neither backend.
        assert not verify(bgroup, 0, b"msg", sig)
        assert not verify(bgroup, -1, b"msg", sig)

    def test_signature_size(self, bgroup) -> None:
        rng = random.Random(5)
        sig = SigningKey.generate(bgroup, rng).sign(b"x", rng)
        assert sig.byte_size(bgroup) == 2 * bgroup.scalar_bytes

    def test_distinct_nonces_give_distinct_signatures(self, bgroup) -> None:
        rng = random.Random(6)
        key = SigningKey.generate(bgroup, rng)
        s1 = key.sign(b"m", rng)
        s2 = key.sign(b"m", rng)
        assert s1 != s2  # randomized signing
        assert verify(bgroup, key.public_key, b"m", s1)
        assert verify(bgroup, key.public_key, b"m", s2)


class TestCombVerifier:
    """The per-key comb (``group.comb_pair``) against the textbook
    ``g^a * X^b``, and the cached membership verdict."""

    @given(st.integers(1, 2**63 - 1), st.integers(0, 2**256), st.integers(0, 2**256))
    @settings(max_examples=25, deadline=None)
    def test_comb_matches_textbook(self, bgroup, secret: int, a: int, b: int) -> None:
        q = bgroup.q
        base = bgroup.commit(secret)
        pair = bgroup.comb_pair(base)
        assert pair.multiexp(a, b) == textbook_pair(bgroup, base, a % q, b % q)

    def test_comb_edge_scalars(self, bgroup) -> None:
        base = bgroup.commit(0xFACE)
        pair = bgroup.comb_pair(base)
        edges = comb_edge_scalars(bgroup.q)
        for a in edges:
            for b in edges:
                assert pair.multiexp(a, b) == textbook_pair(bgroup, base, a, b)

    def test_comb_of_the_identity_and_the_generator(self, bgroup) -> None:
        for base in (bgroup.identity, bgroup.g):
            pair = bgroup.comb_pair(base)
            for a, b in ((0, 0), (5, 7), (bgroup.q - 1, 1), (1, bgroup.q - 1)):
                assert pair.multiexp(a, b) == textbook_pair(bgroup, base, a, b)

    def test_non_element_is_rejected_on_every_call(self, bgroup) -> None:
        rng = random.Random(8)
        key = SigningKey.generate(bgroup, rng)
        sig = key.sign(b"msg", rng)
        for bad in non_elements(bgroup):
            assert not bgroup.is_element(bad)
            # Twice: the second answer comes from the cached verdict.
            assert verify(bgroup, bad, b"msg", sig) is False
            assert verify(bgroup, bad, b"msg", sig) is False
        assert verify(bgroup, key.public_key, b"msg", sig)

    def test_identity_key_does_not_take_over_a_signature(self, bgroup) -> None:
        rng = random.Random(9)
        sig = SigningKey.generate(bgroup, rng).sign(b"msg", rng)
        assert verify(bgroup, bgroup.identity, b"msg", sig) is False
        assert verify(bgroup, bgroup.identity, b"msg", sig) is False

    def test_wrong_typed_and_unhashable_keys_return_false(self, bgroup) -> None:
        rng = random.Random(10)
        sig = SigningKey.generate(bgroup, rng).sign(b"msg", rng)
        foreign = INFINITY if not isinstance(bgroup, EcGroup) else 4
        for bad in (None, "key", b"key", 1.5, (1, 2), [1], {"x": 1}, {1}, foreign):
            assert verify(bgroup, bad, b"msg", sig) is False
            assert verify(bgroup, bad, b"msg", sig) is False

    def test_public_key_is_computed_once_and_signing_is_unchanged(self, bgroup) -> None:
        key = SigningKey(12345, bgroup)
        assert key.public_key is key.public_key
        assert key.public_key == bgroup.commit(12345)
        # Same rng stream, same signature as the textbook computation.
        sig = key.sign(b"msg", random.Random(11))
        k = bgroup.random_nonzero_scalar(random.Random(11))
        assert sig.response == (k + sig.challenge * 12345) % bgroup.q
        assert verify(bgroup, key.public_key, b"msg", sig)
