"""The signing path verifies the signature, not the partials.

A pool-hit SIGN interpolates the t+1 lowest-index partials and checks
the result once; partials are examined one by one only when that check
fails.  These tests drive a ``ThresholdService`` with Byzantine workers
through that fallback, and pin -- without a clock -- what the honest
path costs and which bytes it produces.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.apps import threshold_schnorr
from repro.crypto import schnorr
from repro.crypto.groups import group_by_name, toy_group
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import protocol
from repro.service.workers import ServiceConfig, ThresholdService

from tests.helpers import default_test_group, make_worker_lie, record_calls

G = default_test_group()
SIGNS = 8


def _config(group=G, seed: int = 22) -> ServiceConfig:
    # The whole run is pool hits and nothing refills behind it: a refill
    # is a nonce DKG on another thread, verifying signatures of its own.
    return ServiceConfig(
        n=4, t=1, seed=seed, group=group, pool_target=SIGNS, pool_low_watermark=0
    )


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def _bad_partials(registry: MetricsRegistry) -> dict[str, float]:
    family = registry.snapshot(collect=False).get(
        "repro_service_bad_partials_total", {"samples": []}
    )
    return {s["labels"]["node"]: s["value"] for s in family["samples"]}


def _serve(config: ServiceConfig, liars: tuple[int, ...], prepare=None) -> tuple:
    """SIGNS sequential SIGN requests against a fresh service in which
    ``liars`` return bad partials; ``prepare`` runs once the pool is
    full.  Returns (service, STATUS response, SIGN responses)."""

    async def scenario():
        service = ThresholdService(config)
        await service.start()
        try:
            for index in liars:
                make_worker_lie(service.workers[index])
            if prepare is not None:
                prepare(service)
            responses = [
                await service.handle(protocol.SignRequest(k, b"message %d" % k))
                for k in range(SIGNS)
            ]
            return service, service.status(), responses
        finally:
            await service.stop()

    return asyncio.run(scenario())


def test_one_lying_signer_costs_the_fallback_and_nothing_else(registry) -> None:
    service, status, responses = _serve(_config(), liars=(1,))
    for k, response in enumerate(responses):
        assert isinstance(response, protocol.SignResponse), response
        assert response.presig_used
        signature = schnorr.Signature(response.challenge, response.response)
        assert schnorr.verify(G, status.public_key, b"message %d" % k, signature)
    assert _bad_partials(registry) == {"1": SIGNS}
    # Charged, not armed: no pooled presignature was discarded for it.
    assert service.pool.invalidated == 0
    assert (status.served, status.failed) == (SIGNS, 0)


def test_a_liar_outside_the_lowest_quorum_is_not_noticed(registry) -> None:
    _service, status, responses = _serve(_config(), liars=(4,))
    for k, response in enumerate(responses):
        signature = schnorr.Signature(response.challenge, response.response)
        assert schnorr.verify(G, status.public_key, b"message %d" % k, signature)
    assert _bad_partials(registry) == {}


def test_a_partial_under_another_index_is_charged_to_its_sender(registry) -> None:
    def impersonate(service) -> None:
        # Worker 2 answers as signer 1 + q -- signer 1 to the commitments --
        # with garbage: it must not shadow signer 1's partial or get
        # signer 1 charged, whichever of the two answers first.
        async def forged(presig_id, nonce_point, message):
            return threshold_schnorr.PartialSignature(1 + G.q, 5)

        service.workers[2].partial_sign = forged

    _service, status, responses = _serve(_config(), liars=(), prepare=impersonate)
    for k, response in enumerate(responses):
        assert isinstance(response, protocol.SignResponse), response
        signature = schnorr.Signature(response.challenge, response.response)
        assert schnorr.verify(G, status.public_key, b"message %d" % k, signature)
    assert _bad_partials(registry) == {"2": SIGNS}


def test_too_few_honest_signers_is_unavailable_not_failed(registry) -> None:
    service, status, responses = _serve(_config(), liars=(1, 2, 3))
    for response in responses:
        assert isinstance(response, protocol.ErrorResponse), response
        assert response.code == protocol.ERR_UNAVAILABLE
    assert _bad_partials(registry) == {"1": SIGNS, "2": SIGNS, "3": SIGNS}
    assert service.pool.invalidated == 0
    assert (status.served, status.failed) == (0, SIGNS)


@pytest.mark.parametrize(
    ("liars", "verifies", "partial_checks"), [((), 8, 0), ((1,), 16, 32)]
)
def test_pool_hit_sign_verifies_the_signature_once(
    monkeypatch, liars, verifies, partial_checks
) -> None:
    """Count guard: one ``schnorr.verify`` per honest signature and no
    other group arithmetic; a Byzantine signer among the lowest t+1
    costs one more verify and n ``verify_partial`` calls, per request."""
    counts: dict[str, list] = {}

    def install(service) -> None:
        counts["verify"] = record_calls(monkeypatch, schnorr, "verify")
        for name in ("verify_partial", "batch_verify"):
            counts[name] = record_calls(monkeypatch, threshold_schnorr, name)
        counts["multiexp"] = record_calls(monkeypatch, type(service.group), "multiexp")

    _service, _status, responses = _serve(_config(), liars, prepare=install)
    assert all(isinstance(r, protocol.SignResponse) for r in responses)
    assert len(counts["verify"]) == verifies
    assert len(counts["verify_partial"]) == partial_checks
    assert counts["batch_verify"] == []
    if not liars:
        assert counts["multiexp"] == []


PINNED_DIGESTS = {
    # Computed on the parent of the change that made combine optimistic
    # (commit 14166ee, batch-verify-then-verify): the bytes did not move.
    "toy": "9dbf46f1871495d00b2d1d901d9909f04fa12de6d410e6a79f8cce25c2aca1ba",
    "secp256k1": "48ca0a06d2eb2083af1edfc0da0b764a71ff5343cd1859bbb327f0196073ff4c",
}


@pytest.mark.parametrize("backend", sorted(PINNED_DIGESTS))
def test_seeded_signature_digest_is_pinned(backend: str) -> None:
    """Behaviour guard: the (challenge, response) pairs of 8 seeded
    messages through a seeded service, on both backends."""
    group = toy_group() if backend == "toy" else group_by_name("secp256k1")

    async def scenario() -> str:
        service = ThresholdService(_config(group))
        await service.start()
        digest = hashlib.sha256()
        try:
            for k in range(SIGNS):
                signature, from_pool = await service.sign(b"pinned message %d" % k)
                assert from_pool
                digest.update(
                    f"{signature.challenge:x}:{signature.response:x};".encode()
                )
        finally:
            await service.stop()
        return digest.hexdigest()

    assert asyncio.run(scenario()) == PINNED_DIGESTS[backend]
