"""Tests for threshold Schnorr signing over two DKG instances
(key DKG + per-message nonce DKG)."""

from __future__ import annotations

import random

import pytest

from repro.apps import threshold_schnorr as ts
from repro.crypto import schnorr
from repro.dkg import DkgConfig, run_dkg

from tests.helpers import default_test_group, record_calls

G = default_test_group()


@pytest.fixture(scope="module")
def key_dkg():
    return run_dkg(DkgConfig(n=7, t=2, f=0, group=G), seed=100)


@pytest.fixture(scope="module")
def nonce_dkg():
    return run_dkg(DkgConfig(n=7, t=2, f=0, group=G), seed=200)


def _partials(key_dkg, nonce_dkg, message: bytes, signers) -> list[ts.PartialSignature]:
    return [
        ts.PartialSignature(
            i,
            ts.partial_sign(
                G,
                message,
                key_dkg.shares[i],
                nonce_dkg.shares[i],
                key_dkg.public_key,
                nonce_dkg.public_key,
            ),
        )
        for i in signers
    ]


class TestThresholdSchnorr:
    def test_signature_verifies_under_plain_schnorr(self, key_dkg, nonce_dkg) -> None:
        message = b"threshold signing works"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 3, 6))
        sig = ts.combine(
            G, message, partials, key_dkg.commitment, nonce_dkg.commitment, t=2
        )
        assert schnorr.verify(G, key_dkg.public_key, message, sig)

    def test_any_quorum_gives_identical_signature(self, key_dkg, nonce_dkg) -> None:
        # Same nonce + same message => the interpolated z is unique.
        message = b"determinism"
        sigs = set()
        for subset in [(1, 2, 3), (3, 5, 7), (2, 4, 6)]:
            partials = _partials(key_dkg, nonce_dkg, message, subset)
            sigs.add(
                ts.combine(
                    G, message, partials, key_dkg.commitment,
                    nonce_dkg.commitment, t=2,
                )
            )
        assert len(sigs) == 1

    def test_partial_verification_catches_bad_share(self, key_dkg, nonce_dkg) -> None:
        message = b"audit"
        good = _partials(key_dkg, nonce_dkg, message, (1, 2))
        bad = ts.PartialSignature(3, (good[0].response + 1) % G.q)
        assert not ts.verify_partial(
            G, message, bad, key_dkg.commitment, nonce_dkg.commitment
        )
        # Combine succeeds once a third honest partial joins.
        more = _partials(key_dkg, nonce_dkg, message, (4,))
        sig = ts.combine(
            G, message, good + [bad] + more,
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        assert schnorr.verify(G, key_dkg.public_key, message, sig)

    def test_too_few_partials_raises(self, key_dkg, nonce_dkg) -> None:
        with pytest.raises(ts.SigningError):
            ts.combine(
                G, b"m", _partials(key_dkg, nonce_dkg, b"m", (1, 2)),
                key_dkg.commitment, nonce_dkg.commitment, t=2,
            )

    def test_signature_bound_to_message(self, key_dkg, nonce_dkg) -> None:
        message = b"original"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 2, 3))
        sig = ts.combine(
            G, message, partials, key_dkg.commitment, nonce_dkg.commitment, t=2
        )
        assert not schnorr.verify(G, key_dkg.public_key, b"forged", sig)

    def test_nonce_reuse_across_messages_is_caught_by_uniqueness(
        self, key_dkg, nonce_dkg
    ) -> None:
        # Two different messages under the same nonce yield signatures
        # whose responses leak the key: the classic Schnorr pitfall.
        # We verify the algebra (the library deliberately exposes the
        # raw primitives; per-message nonce DKGs are the caller's job).
        m1, m2 = b"first", b"second"
        s1 = ts.combine(
            G, m1, _partials(key_dkg, nonce_dkg, m1, (1, 2, 3)),
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        s2 = ts.combine(
            G, m2, _partials(key_dkg, nonce_dkg, m2, (1, 2, 3)),
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        dc = (s1.challenge - s2.challenge) % G.q
        dz = (s1.response - s2.response) % G.q
        recovered = (dz * pow(dc, -1, G.q)) % G.q
        assert G.commit(recovered) == key_dkg.public_key  # key recovered!

    def test_batch_verify_accepts_all_honest(self, key_dkg, nonce_dkg) -> None:
        message = b"batch"
        partials = _partials(key_dkg, nonce_dkg, message, range(1, 8))
        valid, bad = ts.batch_verify(
            G, message, partials, key_dkg.commitment, nonce_dkg.commitment,
            random.Random(1),
        )
        assert bad == []
        assert valid == partials

    def test_batch_verify_identifies_bad_signers(self, key_dkg, nonce_dkg) -> None:
        message = b"batch-audit"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 2, 4, 5))
        forged = ts.PartialSignature(3, (partials[0].response + 7) % G.q)
        also_forged = ts.PartialSignature(6, 12345)
        valid, bad = ts.batch_verify(
            G, message, partials + [forged, also_forged],
            key_dkg.commitment, nonce_dkg.commitment, random.Random(2),
        )
        assert sorted(bad) == [3, 6]
        assert valid == partials

    def test_batch_verify_keeps_first_duplicate(self, key_dkg, nonce_dkg) -> None:
        # A second submission for an index must not be able to spoil
        # (or sneak past) the batch: only the first one counts.
        message = b"dup"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 2, 3))
        spoiler = ts.PartialSignature(1, (partials[0].response + 1) % G.q)
        valid, bad = ts.batch_verify(
            G, message, partials + [spoiler],
            key_dkg.commitment, nonce_dkg.commitment, random.Random(3),
        )
        assert bad == []
        assert valid == partials

    def test_batch_verify_empty(self, key_dkg, nonce_dkg) -> None:
        assert ts.batch_verify(
            G, b"m", [], key_dkg.commitment, nonce_dkg.commitment,
            random.Random(4),
        ) == ([], [])

    def test_forged_partial_inside_quorum_filtered(
        self, key_dkg, nonce_dkg
    ) -> None:
        # Index 2 is among the t+1 lowest, so the first interpolation
        # fails and the per-partial filter has to leave it out.
        message = b"same signature either way"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 4, 6, 7))
        forged = ts.PartialSignature(2, 99)
        rejected: list[int] = []
        sig = ts.combine(
            G, message, partials + [forged],
            key_dkg.commitment, nonce_dkg.commitment, t=2, rejected=rejected,
        )
        honest = ts.combine(
            G, message, partials[:3],
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        assert sig == honest
        assert rejected == [2]
        assert schnorr.verify(G, key_dkg.public_key, message, sig)

    def test_forged_partial_outside_lowest_quorum_is_never_looked_at(
        self, key_dkg, nonce_dkg, monkeypatch
    ) -> None:
        message = b"verify the result, not the parts"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 2, 3, 6))
        forged = ts.PartialSignature(5, 99)
        calls = record_calls(monkeypatch, ts, "verify_partial")
        rejected: list[int] = []
        sig = ts.combine(
            G, message, partials + [forged],
            key_dkg.commitment, nonce_dkg.commitment, t=2, rejected=rejected,
        )
        assert calls == [] and rejected == []
        assert sig == ts.combine(
            G, message, partials[:3],
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )

    def test_t_byzantine_partials_are_absorbed_t_plus_one_are_not(
        self, key_dkg, nonce_dkg
    ) -> None:
        message = b"resilience"
        honest = _partials(key_dkg, nonce_dkg, message, (3, 4, 5))
        liars = [ts.PartialSignature(i, 7 + i) for i in (1, 2)]
        sig = ts.combine(
            G, message, liars + honest,
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        assert schnorr.verify(G, key_dkg.public_key, message, sig)
        rejected: list[int] = []
        with pytest.raises(ts.SigningError):
            ts.combine(
                G, message, liars + [ts.PartialSignature(3, 11)] + honest[1:],
                key_dkg.commitment, nonce_dkg.commitment, t=2, rejected=rejected,
            )
        assert rejected == [1, 2, 3]

    def test_duplicate_index_keeps_first_occurrence(
        self, key_dkg, nonce_dkg, monkeypatch
    ) -> None:
        message = b"dup"
        partials = _partials(key_dkg, nonce_dkg, message, (1, 2, 3, 4))
        spoiler = ts.PartialSignature(1, (partials[0].response + 1) % G.q)
        honest = ts.combine(
            G, message, partials, key_dkg.commitment, nonce_dkg.commitment, t=2
        )
        # Honest first: the spoiler is shadowed and nothing is filtered.
        calls = record_calls(monkeypatch, ts, "verify_partial")
        assert honest == ts.combine(
            G, message, partials + [spoiler],
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        assert calls == []
        # Spoiler first: it shadows signer 1's honest partial, so the
        # fallback runs and rejects signer 1 without consulting the copy.
        rejected: list[int] = []
        assert honest == ts.combine(
            G, message, [spoiler] + partials,
            key_dkg.commitment, nonce_dkg.commitment, t=2, rejected=rejected,
        )
        assert rejected == [1]
        assert [args[2].index for args in calls] == [1, 2, 3, 4]

    def test_aliased_index_is_one_signer(self, key_dkg, nonce_dkg) -> None:
        # The commitments evaluate at index mod q, so signer 1's partial
        # relabelled 1 + q verifies -- it must not count as a second
        # signer, and q itself (the secret's own index) as none at all.
        message = b"alias"
        p1, p2 = _partials(key_dkg, nonce_dkg, message, (1, 2))
        alias = ts.PartialSignature(1 + G.q, p1.response)
        zero = ts.PartialSignature(G.q, 5)
        with pytest.raises(ts.SigningError):
            ts.combine(
                G, message, [p1, alias, zero, p2],
                key_dkg.commitment, nonce_dkg.commitment, t=2,
            )
        p3, p4 = _partials(key_dkg, nonce_dkg, message, (3, 4))
        sig = ts.combine(
            G, message, [alias, zero, p1, p2, p3],
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        assert schnorr.verify(G, key_dkg.public_key, message, sig)
        # A forged partial under an alias is charged to the signer it is.
        forged = ts.PartialSignature(1 + G.q, (p1.response + 1) % G.q)
        rejected: list[int] = []
        assert sig == ts.combine(
            G, message, [forged, p2, p3, p4],
            key_dkg.commitment, nonce_dkg.commitment, t=2, rejected=rejected,
        )
        assert rejected == [1]

    def test_fresh_nonce_prevents_key_recovery(self, key_dkg, nonce_dkg) -> None:
        nonce2 = run_dkg(DkgConfig(n=7, t=2, f=0, group=G), seed=300)
        m1, m2 = b"first", b"second"
        s1 = ts.combine(
            G, m1, _partials(key_dkg, nonce_dkg, m1, (1, 2, 3)),
            key_dkg.commitment, nonce_dkg.commitment, t=2,
        )
        s2 = ts.combine(
            G, m2, _partials(key_dkg, nonce2, m2, (1, 2, 3)),
            key_dkg.commitment, nonce2.commitment, t=2,
        )
        dc = (s1.challenge - s2.challenge) % G.q
        dz = (s1.response - s2.response) % G.q
        if dc != 0:
            recovered = (dz * pow(dc, -1, G.q)) % G.q
            assert G.commit(recovered) != key_dkg.public_key
