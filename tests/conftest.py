"""Shared fixtures: the protocol-default group, deterministic RNGs and
a tap on every metered message.

``REPRO_TEST_BACKEND`` selects the group backend the suite-wide
``group`` fixture hands to protocol tests:

* ``modp`` (default) — the 64-bit-q toy Schnorr group, where protocol
  logic rather than bignum arithmetic dominates the runtime;
* ``secp256k1`` — the elliptic-curve backend, running every
  fixture-driven protocol test over real curve arithmetic (the CI
  backend-matrix lane).
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.groups import SchnorrGroup, small_group
from repro.net.transport import AsyncioTransport
from repro.sim.runner import Simulation

from tests.helpers import TEST_BACKEND, default_test_group


@pytest.fixture(scope="session")
def backend() -> str:
    """The backend name the suite is running under."""
    return TEST_BACKEND


@pytest.fixture(scope="session")
def group():
    """The protocol-default group for the selected backend."""
    return default_test_group()


@pytest.fixture(scope="session")
def group160() -> SchnorrGroup:
    """A DSA-shaped 160-bit-q modp group for modp-specific crypto tests."""
    return small_group()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def metered(monkeypatch) -> list[tuple[object, int]]:
    """Every message either transport meters, with the bytes it metered."""
    seen: list[tuple[object, int]] = []

    def tap(cls) -> None:
        original = cls.enqueue_message

        def enqueue_message(self, sender, recipient, payload) -> None:
            messages, sent = self.metrics.messages_total, self.metrics.bytes_total
            original(self, sender, recipient, payload)
            if self.metrics.messages_total > messages:
                seen.append((payload, self.metrics.bytes_total - sent))

        monkeypatch.setattr(cls, "enqueue_message", enqueue_message)

    tap(Simulation)
    tap(AsyncioTransport)
    return seen
