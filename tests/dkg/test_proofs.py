"""Unit tests for DKG proof verification (verify-signature of Fig. 2
and the election checks of Fig. 3)."""

from __future__ import annotations

import random

import pytest

from repro.crypto.hashing import commitment_digest
from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.vss.config import VssConfig
from repro.vss.messages import ReadyWitness, SessionId, ready_signing_bytes
from repro.dkg.messages import (
    LeadChWitness,
    MTypeProof,
    ReadyCert,
    RTypeProof,
    SetVote,
    dkg_echo_bytes,
    dkg_ready_bytes,
    lead_ch_bytes,
    q_encoding,
)
from repro.dkg.proofs import (
    verify_election,
    verify_m_proof,
    verify_r_proof,
    verify_ready_cert,
)

from tests.helpers import default_test_group

G = default_test_group()
TAU = 0


@pytest.fixture(scope="module")
def pki():
    rng = random.Random(11)
    ca = CertificateAuthority(G)
    stores = {i: KeyStore.enroll(i, ca, rng) for i in range(1, 8)}
    return ca, stores, rng


@pytest.fixture(scope="module")
def config() -> VssConfig:
    return VssConfig(n=7, t=2, f=0, group=G)


def _ready_cert(config, ca, stores, rng, dealer=1, signers=None):
    f = BivariatePolynomial.random_symmetric(config.t, G.q, rng)
    commitment = FeldmanCommitment.commit(f, G)
    digest = commitment_digest(commitment)
    payload = ready_signing_bytes(SessionId(dealer, TAU), digest)
    signers = signers if signers is not None else list(range(1, 6))
    witnesses = tuple(
        ReadyWitness(i, stores[i].sign(payload, rng)) for i in signers
    )
    return ReadyCert(dealer, digest, witnesses)


class TestReadyCert:
    def test_valid_cert_accepted(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng)
        assert verify_ready_cert(config, ca, TAU, cert)

    def test_too_few_witnesses_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng, signers=[1, 2, 3, 4])
        assert not verify_ready_cert(config, ca, TAU, cert)

    def test_duplicate_signers_do_not_count_twice(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng, signers=[1, 1, 1, 2, 3, 4])
        assert not verify_ready_cert(config, ca, TAU, cert)

    def test_wrong_digest_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng)
        forged = ReadyCert(cert.dealer, b"\x00" * 32, cert.witnesses)
        assert not verify_ready_cert(config, ca, TAU, forged)

    def test_wrong_tau_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng)
        assert not verify_ready_cert(config, ca, TAU + 1, cert)

    def test_out_of_range_signer_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng)
        bad = ReadyCert(
            cert.dealer,
            cert.digest,
            cert.witnesses[:-1] + (ReadyWitness(99, cert.witnesses[0].signature),),
        )
        assert not verify_ready_cert(config, ca, TAU, bad)


class TestRTypeProof:
    def test_valid_proof(self, pki, config) -> None:
        ca, stores, rng = pki
        certs = tuple(
            _ready_cert(config, ca, stores, rng, dealer=d) for d in (1, 2, 3)
        )
        assert verify_r_proof(config, ca, TAU, RTypeProof(certs))

    def test_too_few_dealers_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        certs = tuple(
            _ready_cert(config, ca, stores, rng, dealer=d) for d in (1, 2)
        )
        assert not verify_r_proof(config, ca, TAU, RTypeProof(certs))

    def test_duplicate_dealers_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        cert = _ready_cert(config, ca, stores, rng, dealer=1)
        assert not verify_r_proof(config, ca, TAU, RTypeProof((cert, cert, cert)))

    def test_one_bad_cert_poisons_proof(self, pki, config) -> None:
        ca, stores, rng = pki
        good = [_ready_cert(config, ca, stores, rng, dealer=d) for d in (1, 2)]
        bad = _ready_cert(config, ca, stores, rng, dealer=3, signers=[1, 2])
        assert not verify_r_proof(config, ca, TAU, RTypeProof(tuple(good) + (bad,)))

    def test_completed_sharing_stands_in_for_its_certificate(
        self, pki, config
    ) -> None:
        ca, stores, rng = pki
        good = [_ready_cert(config, ca, stores, rng, dealer=d) for d in (1, 2)]
        short = _ready_cert(config, ca, stores, rng, dealer=3, signers=[1, 2])
        proof = RTypeProof(tuple(good) + (short,))
        assert verify_r_proof(config, ca, TAU, proof, completed={3: short.digest})
        # Only an equal digest stands in; another sharing's does not.
        other = {3: good[0].digest}
        assert not verify_r_proof(config, ca, TAU, proof, completed=other)

    def test_completed_sharings_do_not_lift_the_size_checks(
        self, pki, config
    ) -> None:
        ca, stores, rng = pki
        certs = tuple(
            _ready_cert(config, ca, stores, rng, dealer=d) for d in (1, 2)
        )
        completed = {c.dealer: c.digest for c in certs}
        proof = RTypeProof(certs)
        assert not verify_r_proof(config, ca, TAU, proof, completed=completed)
        twice = RTypeProof((certs[0], certs[0], certs[1]))
        assert not verify_r_proof(config, ca, TAU, twice, completed=completed)


class TestMTypeProof:
    def _votes(self, stores, rng, q, kind, voters):
        payload = (
            dkg_echo_bytes(TAU, q) if kind == "echo" else dkg_ready_bytes(TAU, q)
        )
        return tuple(
            SetVote(i, kind, stores[i].sign(payload, rng)) for i in voters
        )

    def test_echo_quorum_accepted(self, pki, config) -> None:
        ca, stores, rng = pki
        q = (1, 2, 3)
        votes = self._votes(stores, rng, q, "echo", range(1, 6))  # 5 = ceil(10/2)
        assert verify_m_proof(config, ca, TAU, MTypeProof(q, votes))

    def test_ready_quorum_accepted(self, pki, config) -> None:
        ca, stores, rng = pki
        q = (2, 4, 6)
        votes = self._votes(stores, rng, q, "ready", range(1, 4))  # t+1 = 3
        assert verify_m_proof(config, ca, TAU, MTypeProof(q, votes))

    def test_insufficient_echoes_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        q = (1, 2, 3)
        votes = self._votes(stores, rng, q, "echo", range(1, 5))  # only 4
        assert not verify_m_proof(config, ca, TAU, MTypeProof(q, votes))

    def test_small_q_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        q = (1, 2)  # < t+1 dealers
        votes = self._votes(stores, rng, q, "echo", range(1, 6))
        assert not verify_m_proof(config, ca, TAU, MTypeProof(q, votes))

    def test_votes_for_other_set_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        votes = self._votes(stores, rng, (1, 2, 3), "echo", range(1, 6))
        assert not verify_m_proof(config, ca, TAU, MTypeProof((1, 2, 4), votes))

    def test_echo_and_ready_quorums_not_mixed(self, pki, config) -> None:
        # 4 echoes + 2 readies: neither quorum alone suffices and they
        # must not be pooled.
        ca, stores, rng = pki
        q = (1, 2, 3)
        votes = self._votes(stores, rng, q, "echo", range(1, 5)) + self._votes(
            stores, rng, q, "ready", range(5, 7)
        )
        assert not verify_m_proof(config, ca, TAU, MTypeProof(q, votes))


class TestElection:
    def test_view_zero_needs_no_proof(self, pki, config) -> None:
        ca, _, _ = pki
        assert verify_election(config, ca, TAU, 0, ())

    def test_valid_election(self, pki, config) -> None:
        ca, stores, rng = pki
        view = 2
        payload = lead_ch_bytes(TAU, view)
        witnesses = tuple(
            LeadChWitness(i, view, stores[i].sign(payload, rng))
            for i in range(1, 6)
        )
        assert verify_election(config, ca, TAU, view, witnesses)

    def test_insufficient_votes_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        view = 1
        payload = lead_ch_bytes(TAU, view)
        witnesses = tuple(
            LeadChWitness(i, view, stores[i].sign(payload, rng))
            for i in range(1, 5)
        )
        assert not verify_election(config, ca, TAU, view, witnesses)

    def test_votes_for_other_view_rejected(self, pki, config) -> None:
        ca, stores, rng = pki
        payload = lead_ch_bytes(TAU, 1)
        witnesses = tuple(
            LeadChWitness(i, 1, stores[i].sign(payload, rng)) for i in range(1, 6)
        )
        assert not verify_election(config, ca, TAU, 2, witnesses)


class TestEncodings:
    def test_q_encoding_canonical(self) -> None:
        assert q_encoding((3, 1, 2)) == q_encoding((1, 2, 3))

    def test_echo_and_ready_domains_are_separated(self) -> None:
        assert dkg_echo_bytes(0, (1, 2)) != dkg_ready_bytes(0, (1, 2))

    def test_tau_bound(self) -> None:
        assert dkg_echo_bytes(0, (1,)) != dkg_echo_bytes(1, (1,))
        assert lead_ch_bytes(0, 1) != lead_ch_bytes(1, 1)
