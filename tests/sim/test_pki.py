"""Tests for the simulated CA and node key stores."""

from __future__ import annotations

import random

from repro.crypto import schnorr
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.dkg import DkgConfig, DkgNode, run_dkg
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.vss.messages import SendMsg

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


def _verifications(monkeypatch, n: int, t: int) -> int:
    """``CertificateAuthority.verify`` calls in one seeded DKG."""
    calls = []
    verify = CertificateAuthority.verify

    def counting(self, node, message, sig):
        calls.append(node)
        return verify(self, node, message, sig)

    monkeypatch.setattr(CertificateAuthority, "verify", counting)
    res = run_dkg(DkgConfig(n=n, t=t, group=default_test_group()), seed=7)
    assert res.succeeded
    return len(calls)


def test_dkg_makes_exactly_the_pinned_number_of_verifications(monkeypatch) -> None:
    """A count that needs no clock: n=4, t=1, seed 7, every node
    verifies for itself (no verdict shared across nodes through the
    CA), and a signature is checked only where it becomes evidence.

    Checking every signed message on arrival cost 100: 48 VSS readies
    (4 nodes x 4 sessions x n-t-f = 3), 24 certificate signatures
    (4 nodes x t+1 = 2 certificates x 3), 16 DKG echoes and 12 DKG
    readies.  Remembering accepted signatures made it 59.  Checking at
    use made it 27, and taking local completion as evidence makes it 13:
    - no VSS ready is checked on arrival.  The leader checks the 6
      certificate signatures of the proposal it builds, 2 its own: 4.
      The other three nodes have completed both dealers of the
      proposal with the same commitment when it arrives, so they take
      its certificates without a check (they checked 14 before), and
      the leader's check of its own proposal is all hits.  That is 4;
    - each node checks the 3 echo votes of the quorum it locks on,
      its own among them in 3 of the 4 quorums: 12 - 3 = 9;
    - no DKG ready: no node takes the t+1 amplify path, and the n-t-f
      decision counts authenticated senders.
    """
    assert _verifications(monkeypatch, 4, 1) == 13


def test_dkg_n10_makes_exactly_the_pinned_number_of_verifications(
    monkeypatch,
) -> None:
    """The same count at n=10, t=3, seed 7, where checking on arrival
    cost 850 even with accepted signatures remembered (698 VSS
    readies, 90 DKG echoes, 62 DKG readies).  At use it was 315, with
    every node checking the proposal's 4 x 7 certificate signatures.
    Taking local completion as evidence makes it 89:
    - 26 certificate signatures: the leader builds 4 certificates of
      n-t-f = 7, 2 of the 28 signatures its own.  The other 9 nodes
      have completed all 4 dealers with the same commitments when the
      proposal arrives and check none of its signatures (226 before),
      and the leader's own check is all hits;
    - 63 echo votes: 10 quorums of 7, less the 7 that hold the
      checker's own echo.
    """
    count = _verifications(monkeypatch, 10, 3)
    assert count <= 90
    assert count == 89


def test_dkg_checks_points_in_the_field_unless_a_send_is_missing(monkeypatch) -> None:
    """The twin count for commitments: the same seeded DKG runs
    ``verify-poly`` once per (node, dealer) and never batches points in
    the group; deny one node one dealer's ``send`` and exactly that
    session verifies its points in the group instead."""
    counts = {"verify_poly": 0, "batch_verify": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(FeldmanCommitment, "verify_poly")
    counted(FeldmanVector, "batch_verify")
    config = DkgConfig(n=4, t=1, group=default_test_group())

    assert run_dkg(config, seed=7).succeeded
    assert counts == {"verify_poly": 16, "batch_verify": 0}

    class MissesOneSend(DkgNode):
        def on_message(self, sender, payload, ctx):
            if isinstance(payload, SendMsg) and payload.session.dealer == 3:
                return
            super().on_message(sender, payload, ctx)

    def factory(i, config, keystore, ca):
        return MissesOneSend(i, config, keystore, ca) if i == 2 else None

    counts.update(verify_poly=0, batch_verify=0)
    res = run_dkg(config, seed=7, node_factory=factory)
    assert res.succeeded
    assert counts == {"verify_poly": 15, "batch_verify": 2}
    fell_back = {
        (node.node_id, dealer)
        for node in res.nodes.values()
        for dealer, session in node.sessions.items()
        for state in session._per_c.values()
        if state.point_verifier is not None
    }
    assert fell_back == {(2, 3)}
