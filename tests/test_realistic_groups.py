"""End-to-end runs on realistic-size group parameters.

Most tests use the 64-bit toy group so protocol logic dominates; these
confirm nothing about the stack silently depends on small parameters.
Kept small (n=4) because 1024-bit exponentiations are ~100x slower.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import Share, reconstruct_secret
from repro.crypto.groups import (
    RFC5114_1024_160,
    RFC5114_2048_256,
    group_by_name,
    medium_group,
)
from repro.crypto.schnorr import SigningKey, verify
from repro.dkg import DkgConfig, run_dkg
from repro.vss import VssConfig, run_vss

from tests.crypto.test_schnorr_sigs import (
    comb_edge_scalars,
    non_elements,
    textbook_pair,
)


class TestRfcGroupVss:
    def test_vss_roundtrip_on_rfc5114(self) -> None:
        group = RFC5114_1024_160
        cfg = VssConfig(n=4, t=1, group=group)
        secret = 0xDEADBEEFCAFE % group.q
        res = run_vss(cfg, secret=secret, seed=1)
        assert res.completed_nodes == [1, 2, 3, 4]
        commitment = res.agreed_commitment()
        shares = [Share(i, out.share, commitment) for i, out in res.shares.items()]
        assert reconstruct_secret(shares, 1, group.q) == secret


class TestMediumGroupDkg:
    def test_dkg_on_256_bit_q(self) -> None:
        group = medium_group()
        cfg = DkgConfig(n=4, t=1, group=group)
        res = run_dkg(cfg, seed=2)
        assert res.succeeded
        assert res.public_key == group.commit(res.expected_secret())

    def test_threshold_app_on_medium_group(self) -> None:
        from repro.apps import threshold_schnorr as ts

        group = medium_group()
        key = run_dkg(DkgConfig(n=4, t=1, group=group), seed=3)
        nonce = run_dkg(DkgConfig(n=4, t=1, group=group), seed=4)
        message = b"signed over a 256-bit q"
        partials = [
            ts.PartialSignature(
                i,
                ts.partial_sign(
                    group,
                    message,
                    key.shares[i],
                    nonce.shares[i],
                    key.public_key,
                    nonce.public_key,
                ),
            )
            for i in (1, 3)
        ]
        signature = ts.combine(
            group, message, partials, key.commitment, nonce.commitment, t=1
        )
        assert verify(group, key.public_key, message, signature)


@pytest.mark.parametrize(
    "group",
    [RFC5114_2048_256, group_by_name("secp256k1")],
    ids=["rfc5114-2048-256", "secp256k1"],
)
class TestSignatureVerifierOnBenchmarkGroups:
    """The two groups the benchmark signs over: 256-bit scalars fill the
    modp comb's top tooth, and split into 128-bit halves on secp256k1,
    which the 64-bit toy group never reaches."""

    def test_comb_matches_textbook(self, group) -> None:
        rng = random.Random(17)
        base = SigningKey.generate(group, rng).public_key
        pair = group.comb_pair(base)
        scalars = comb_edge_scalars(group.q) + [
            group.random_scalar(rng) for _ in range(4)
        ]
        for a, b in zip(scalars, reversed(scalars)):
            assert pair.multiexp(a, b) == textbook_pair(group, base, a, b)

    def test_sign_verify_and_rejections(self, group) -> None:
        rng = random.Random(18)
        key = SigningKey.generate(group, rng)
        sig = key.sign(b"msg", rng)
        for _ in range(2):
            assert verify(group, key.public_key, b"msg", sig)
            assert not verify(group, key.public_key, b"other", sig)
            for bad in non_elements(group) + [group.identity, None, [1]]:
                assert verify(group, bad, b"msg", sig) is False
