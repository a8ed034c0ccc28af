"""Tests for threshold ElGamal over real DKG output."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.apps import threshold_elgamal as eg
from repro.dkg import DkgConfig, run_dkg

from tests.helpers import default_test_group, record_calls

G = default_test_group()


@pytest.fixture(scope="module")
def dkg():
    return run_dkg(DkgConfig(n=7, t=2, f=0, group=G), seed=42)


class TestElementEncryption:
    def test_roundtrip_with_t_plus_one_partials(self, dkg) -> None:
        rng = random.Random(1)
        message = G.commit(123456)  # a group element
        ct = eg.encrypt(G, dkg.public_key, message, rng)
        partials = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in (1, 3, 5)
        ]
        assert eg.combine(G, ct, dkg.commitment, partials, t=2) == message

    def test_any_subset_works(self, dkg) -> None:
        rng = random.Random(2)
        message = G.commit(999)
        ct = eg.encrypt(G, dkg.public_key, message, rng)
        for subset in [(1, 2, 3), (2, 4, 6), (5, 6, 7), (1, 4, 7)]:
            partials = [
                eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in subset
            ]
            assert eg.combine(G, ct, dkg.commitment, partials, t=2) == message

    def test_surplus_partials_fine(self, dkg) -> None:
        rng = random.Random(3)
        message = G.commit(31337)
        ct = eg.encrypt(G, dkg.public_key, message, rng)
        partials = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in range(1, 8)
        ]
        assert eg.combine(G, ct, dkg.commitment, partials, t=2) == message

    def test_too_few_partials_raises(self, dkg) -> None:
        rng = random.Random(4)
        ct = eg.encrypt(G, dkg.public_key, G.commit(5), rng)
        partials = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in (1, 2)
        ]
        with pytest.raises(eg.DecryptionError):
            eg.combine(G, ct, dkg.commitment, partials, t=2)

    def test_byzantine_partials_filtered(self, dkg) -> None:
        rng = random.Random(5)
        message = G.commit(777)
        ct = eg.encrypt(G, dkg.public_key, message, rng)
        good = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in (1, 2, 3)
        ]
        # A forged partial: right index, wrong share.
        bad = eg.partial_decrypt(G, ct, 4, dkg.shares[4] + 1, rng)
        assert not eg.verify_partial(G, ct, dkg.commitment, bad)
        assert eg.combine(G, ct, dkg.commitment, [bad] + good, t=2) == message

    def test_byzantine_majority_of_submission_fails_loudly(self, dkg) -> None:
        rng = random.Random(6)
        ct = eg.encrypt(G, dkg.public_key, G.commit(8), rng)
        bad = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i] + 1, rng) for i in (1, 2, 3)
        ]
        with pytest.raises(eg.DecryptionError):
            eg.combine(G, ct, dkg.commitment, bad, t=2)

    def test_aliased_index_is_one_signer(self, dkg) -> None:
        # The commitment evaluates at index mod q: signer 1's partial
        # relabelled 1 + q verifies but is still signer 1, and q itself
        # (the secret's own index) is no signer.
        rng = random.Random(12)
        message = G.commit(4242)
        ct = eg.encrypt(G, dkg.public_key, message, rng)
        p1, p2, p3 = (
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in (1, 2, 3)
        )
        alias = dataclasses.replace(p1, index=1 + G.q)
        zero = dataclasses.replace(p1, index=G.q)
        assert eg.verify_partial(G, ct, dkg.commitment, alias)
        with pytest.raises(eg.DecryptionError):
            eg.combine(G, ct, dkg.commitment, [p1, alias, zero, p2], t=2)
        assert eg.combine(G, ct, dkg.commitment, [alias, zero, p2, p3], t=2) == message

    def test_verifies_only_the_partials_it_interpolates(
        self, dkg, monkeypatch
    ) -> None:
        rng = random.Random(13)
        message = G.commit(2024)
        ct = eg.encrypt(G, dkg.public_key, message, rng)
        partials = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in range(1, 8)
        ]
        rng.shuffle(partials)
        calls = record_calls(monkeypatch, eg, "verify_partial")
        assert eg.combine(G, ct, dkg.commitment, partials, t=2) == message
        assert [args[3].index for args in calls] == [1, 2, 3]
        # A bad partial at the lowest index costs exactly one more.
        del calls[:]
        bad = eg.partial_decrypt(G, ct, 1, dkg.shares[1] + 1, rng)
        partials = [bad] + [p for p in partials if p.index != 1]
        assert eg.combine(G, ct, dkg.commitment, partials, t=2) == message
        assert [args[3].index for args in calls] == [1, 2, 3, 4]

    def test_non_element_message_rejected(self, dkg) -> None:
        with pytest.raises(ValueError):
            eg.encrypt(G, dkg.public_key, 0, random.Random(7))

    def test_wrong_key_garbles(self, dkg) -> None:
        rng = random.Random(8)
        message = G.commit(55)
        wrong_pk = G.commit(1)
        ct = eg.encrypt(G, wrong_pk, message, rng)
        partials = [
            eg.partial_decrypt(G, ct, i, dkg.shares[i], rng) for i in (1, 2, 3)
        ]
        assert eg.combine(G, ct, dkg.commitment, partials, t=2) != message


class TestHybridEncryption:
    def test_bytes_roundtrip(self, dkg) -> None:
        rng = random.Random(9)
        plaintext = b"attack at dawn -- threshold edition"
        ct = eg.encrypt_bytes(G, dkg.public_key, plaintext, rng)
        partials = [
            eg.partial_decrypt_hybrid(G, ct, i, dkg.shares[i], rng)
            for i in (2, 5, 7)
        ]
        assert (
            eg.decrypt_bytes_combine(G, ct, dkg.commitment, partials, t=2)
            == plaintext
        )

    def test_empty_plaintext(self, dkg) -> None:
        rng = random.Random(10)
        ct = eg.encrypt_bytes(G, dkg.public_key, b"", rng)
        partials = [
            eg.partial_decrypt_hybrid(G, ct, i, dkg.shares[i], rng)
            for i in (1, 2, 3)
        ]
        assert eg.decrypt_bytes_combine(G, ct, dkg.commitment, partials, t=2) == b""

    def test_too_few_partials(self, dkg) -> None:
        rng = random.Random(11)
        ct = eg.encrypt_bytes(G, dkg.public_key, b"x", rng)
        with pytest.raises(eg.DecryptionError):
            eg.decrypt_bytes_combine(G, ct, dkg.commitment, [], t=2)
