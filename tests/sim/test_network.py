"""Tests for delay models and payload protocol conformance."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import (
    AsymmetricDelay,
    ConstantDelay,
    ExponentialDelay,
    Payload,
    RawPayload,
    UniformDelay,
)

seeds = st.integers(min_value=0, max_value=2**32)


class TestDelayModels:
    @given(seeds)
    def test_constant(self, seed: int) -> None:
        rng = random.Random(seed)
        assert ConstantDelay(2.5).sample(rng, 1, 2) == 2.5

    @given(seeds)
    @settings(max_examples=30)
    def test_uniform_within_bounds(self, seed: int) -> None:
        rng = random.Random(seed)
        model = UniformDelay(0.5, 1.5)
        for _ in range(50):
            d = model.sample(rng, 1, 2)
            assert 0.5 <= d <= 1.5

    @given(seeds)
    @settings(max_examples=30)
    def test_exponential_floor(self, seed: int) -> None:
        rng = random.Random(seed)
        model = ExponentialDelay(mean=2.0, min_delay=0.3)
        for _ in range(50):
            assert model.sample(rng, 1, 2) >= 0.3

    def test_exponential_mean_roughly_correct(self) -> None:
        rng = random.Random(1)
        model = ExponentialDelay(mean=2.0, min_delay=0.0)
        samples = [model.sample(rng, 1, 2) for _ in range(3000)]
        mean = sum(samples) / len(samples)
        assert 1.8 <= mean <= 2.2

    def test_asymmetric_uses_link_table(self) -> None:
        rng = random.Random(2)
        model = AsymmetricDelay(
            base={(1, 2): 5.0, (2, 1): 0.5}, jitter=0.0, default=1.0
        )
        assert model.sample(rng, 1, 2) == 5.0
        assert model.sample(rng, 2, 1) == 0.5
        assert model.sample(rng, 3, 4) == 1.0

    def test_asymmetric_jitter_bounded(self) -> None:
        rng = random.Random(3)
        model = AsymmetricDelay(base={}, jitter=0.4, default=2.0)
        for _ in range(50):
            d = model.sample(rng, 1, 2)
            assert 2.0 <= d <= 2.4


class TestPayloadProtocol:
    def test_raw_payload_conforms(self) -> None:
        payload = RawPayload("demo", 128)
        assert isinstance(payload, Payload)
        assert payload.byte_size() == 128
        assert payload.kind == "demo"

    def test_protocol_messages_conform(self) -> None:
        # every protocol message class satisfies the Payload protocol,
        # and the simulator meters it at its frame length
        from repro.net import wire
        from repro.sim.runner import Simulation
        from repro.vss.messages import HelpMsg, SessionId
        from repro.dkg.messages import DkgHelpMsg
        from repro.proactive.messages import ClockTickMsg
        from repro.groupmod.messages import NodeAddRequestMsg

        price = Simulation().price
        for msg in (
            HelpMsg(SessionId(1, 0)),
            DkgHelpMsg(0),
            ClockTickMsg(1),
            NodeAddRequestMsg(8, 0),
        ):
            assert isinstance(msg, Payload)
            assert price(msg) == len(wire.encode(msg)) > 0
            assert msg.kind
