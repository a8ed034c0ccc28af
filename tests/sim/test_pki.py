"""Tests for the simulated CA and node key stores."""

from __future__ import annotations

import random

from repro.crypto import schnorr
from repro.dkg import DkgConfig, run_dkg
from repro.sim.pki import CertificateAuthority, KeyStore

from tests.helpers import default_test_group


def _setup() -> tuple[CertificateAuthority, KeyStore, random.Random]:
    rng = random.Random(5)
    ca = CertificateAuthority(default_test_group())
    ks = KeyStore.enroll(1, ca, rng)
    return ca, ks, rng


class TestCertificateAuthority:
    def test_enroll_and_verify(self) -> None:
        ca, ks, rng = _setup()
        sig = ks.sign(b"hello", rng)
        assert ca.verify(1, b"hello", sig)
        assert not ca.verify(1, b"bye", sig)

    def test_unknown_node_fails_verification(self) -> None:
        ca, ks, rng = _setup()
        sig = ks.sign(b"hello", rng)
        assert not ca.verify(2, b"hello", sig)

    def test_revocation(self) -> None:
        ca, ks, rng = _setup()
        sig = ks.sign(b"hello", rng)
        ca.revoke(1)
        assert not ca.verify(1, b"hello", sig)
        assert len(ca.revocation_list) == 1
        assert ca.revocation_list[0].revoked

    def test_reissue_bumps_serial_and_revokes_old(self) -> None:
        ca, ks, rng = _setup()
        first = ca._certs[1].serial
        ca.issue(1, default_test_group().commit(123))
        assert ca._certs[1].serial == first + 1
        assert len(ca.revocation_list) == 1


class TestKeyStore:
    def test_rotate_invalidates_old_signatures(self) -> None:
        ca, ks, rng = _setup()
        old_sig = ks.sign(b"msg", rng)
        assert ca.verify(1, b"msg", old_sig)  # the old key's verifier is cached
        ks.rotate(rng)
        assert not ca.verify(1, b"msg", old_sig)
        new_sig = ks.sign(b"msg", rng)
        assert ca.verify(1, b"msg", new_sig)

    def test_rotation_appears_on_revocation_list(self) -> None:
        ca, ks, rng = _setup()
        ks.rotate(rng)
        assert len(ca.revocation_list) == 1


class TestVerifierCache:
    """The per-key verifier behind ``CertificateAuthority.verify``: its
    LRU bound and table size are what the signature layer costs in
    resident memory (the benchmark's ``peak_rss_mb`` bound)."""

    def test_more_keys_than_the_cache_holds(self) -> None:
        rng = random.Random(6)
        ca = CertificateAuthority(default_test_group())
        nodes = range(1, schnorr._VERIFIER_KEYS + 9)
        stores = {node: KeyStore.enroll(node, ca, rng) for node in nodes}
        sigs = {node: stores[node].sign(b"msg", rng) for node in nodes}
        # Two passes in the same order: every verifier of the first pass
        # has been evicted by the time the second needs it again.
        for _ in range(2):
            for node in nodes:
                assert ca.verify(node, b"msg", sigs[node])
                assert not ca.verify(node, b"other", sigs[node])
                assert not ca.verify(node, b"msg", sigs[node % len(nodes) + 1])
        info = schnorr._key_verifier.cache_info()
        assert info.currsize <= info.maxsize == schnorr._VERIFIER_KEYS

    def test_table_size_and_cache_bound_are_pinned(self) -> None:
        # 64 keys x 64 entries keeps peak RSS within 10 % of the
        # table-free verifier on every benchmark workload; 256 entries
        # or tables that live as long as their certificate do not.
        group = default_test_group()
        assert len(group.comb_pair(group.commit(99))._table) == 64
        assert schnorr._VERIFIER_KEYS == 64


def test_dkg_makes_exactly_the_pinned_number_of_verifications(monkeypatch) -> None:
    """A count that needs no clock: n=4, t=1, every node verifies for
    itself (no verdict shared across nodes through the CA), and readies
    arriving after a VSS session completed are not verified."""
    calls = []
    verify = CertificateAuthority.verify

    def counting(self, node, message, sig):
        calls.append(node)
        return verify(self, node, message, sig)

    monkeypatch.setattr(CertificateAuthority, "verify", counting)
    res = run_dkg(DkgConfig(n=4, t=1, group=default_test_group()), seed=7)
    assert res.succeeded
    assert len(calls) == 100
