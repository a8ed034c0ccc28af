"""Each transport prices a message at the length of its frame.

:class:`~repro.net.transport.AsyncioTransport` meters the frame it
encodes; the simulator prices through :func:`repro.net.wire.encoded_size`.
Nothing in the protocol core states a size, so the two can only
disagree if the simulator's memo does — and both are checked here
against the frame an endpoint sends (echo and ready with the
commitment digest, everything else inline), message by message, on
the lifecycles with the rarest frames: node additions (subshares) and
renewal recovery (an erased dealer ``send`` carries no polynomial).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.dkg import DkgConfig, run_dkg
from repro.groupmod import run_node_additions
from repro.net import wire
from repro.net.cluster import run_local_cluster
from repro.net.groupmod import run_groupmod_cluster
from repro.net.transport import AsyncioTransport
from repro.proactive import ProactiveSystem
from repro.runtime.envelope import SessionEnvelope
from repro.sim.clock import TimeoutPolicy
from repro.sim.runner import Simulation

from tests.helpers import default_test_group, sent_frame

G = default_test_group()
SEED = 3


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


def _mispriced(metered) -> list[tuple[str, int, int]]:
    wrong = []
    for payload, size in metered:
        inner = payload.payload if isinstance(payload, SessionEnvelope) else payload
        frame = len(sent_frame(inner, G))
        if size != frame:
            wrong.append((inner.kind, size, frame))
    return wrong


class TestEveryMessageMeteredAtItsFrame:
    def test_node_additions(self, metered) -> None:
        config = DkgConfig(n=4, t=1, group=G)
        dkg = run_dkg(config, seed=SEED)
        run_node_additions(config, dkg.shares, dkg.commitment, [5, 6], seed=SEED)
        kinds = {payload.kind for payload, _ in metered}
        assert "groupmod.subshare" in kinds
        assert _mispriced(metered) == []

    def test_renewal_with_a_recovering_node(self, metered) -> None:
        # After a renewal the dealers erase their row polynomials, so
        # the sends a recovering node is re-sent carry commitments only.
        system = ProactiveSystem(DkgConfig(n=6, t=1, f=1, group=G), seed=SEED)
        system.bootstrap()
        system.renew()
        system.renew(
            crash_plan=[(0.5, 4, 40.0)],
            clock_skews={1: 0.0, 2: 0.3, 3: 1.1, 5: 0.7},
        )
        erased = [p for p, _ in metered if p.kind == "vss.send" and p.poly is None]
        assert erased
        assert _mispriced(metered) == []

    def test_groupmod_cluster(self, metered) -> None:
        result = run_groupmod_cluster(
            DkgConfig(n=4, t=1, group=G), seed=SEED, time_scale=0.005, timeout=120.0
        )
        assert result.succeeded, result.errors
        assert any(isinstance(p, SessionEnvelope) for p, _ in metered)
        assert _mispriced(metered) == []


@pytest.fixture(scope="module")
def sim_and_tcp():
    # Q is every dealer and no view changes, so the message pattern
    # does not depend on arrival order.
    config = DkgConfig(
        n=4, t=1, group=G, q_size=4, timeout=TimeoutPolicy(initial=1_000_000.0)
    )
    sim = run_dkg(config, seed=SEED)
    tcp = run_local_cluster(config, seed=SEED, time_scale=0.005, timeout=120.0)
    assert sim.succeeded and tcp.succeeded, tcp.errors
    return sim.metrics, tcp.metrics


_PROTOCOL_KINDS = (
    "vss.send",
    "vss.echo",
    "vss.ready",
    "dkg.send",
    "dkg.echo",
    "dkg.ready",
)


class TestSimAndTcpMeterAlike:
    @pytest.mark.parametrize("form", ["inline", "digest"], ids=["full", "hashed"])
    def test_fault_free_dkg(self, sim_and_tcp, form) -> None:
        # One wire form, two commitment shapes inside it: echo and ready
        # cross the sockets with the digest, everything else with its
        # matrix inline.  Each case checks the kinds of one shape, priced
        # alike by the simulator and the sockets, and no endpoint
        # fetches a matrix: the kinds are the protocol's own.
        sim, tcp = sim_and_tcp
        assert set(sim.messages_by_kind) == set(_PROTOCOL_KINDS)
        assert set(tcp.messages_by_kind) == set(_PROTOCOL_KINDS)
        kinds = [
            kind
            for kind in _PROTOCOL_KINDS
            if wire.commitment_mode(SimpleNamespace(kind=kind)) == form
        ]
        assert kinds

        def of_form(by_kind: dict) -> dict:
            return {kind: by_kind[kind] for kind in kinds}

        assert of_form(sim.messages_by_kind) == of_form(tcp.messages_by_kind)
        assert of_form(sim.bytes_by_kind) == of_form(tcp.bytes_by_kind)
