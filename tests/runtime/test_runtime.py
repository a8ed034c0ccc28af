"""ProtocolRuntime: session routing, timers, envelopes, multiplexed DKGs."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.crypto.groups import toy_group
from repro.runtime import (
    Broadcast,
    CancelTimer,
    Env,
    MessageReceived,
    OperatorInput,
    Output,
    ProtocolRuntime,
    Send,
    SessionEnvelope,
    SetTimer,
    TimerFired,
)
from repro.deployment import SimWorld, adopt, enroll
from repro.sim.node import ProtocolNode, RecordingNode
from repro.dkg import DkgConfig
from repro.dkg.messages import DkgCompletedOutput

from tests.helpers import dkg_stage


def env(node_id: int = 1) -> Env:
    return Env(now=0.0, rng=random.Random(0), node_id=node_id, members=(1, 2))


@dataclass
class Chatty(ProtocolNode):
    """Sends, outputs, arms a timer — everything a session can do."""

    heard: list = field(default_factory=list)

    def on_message(self, sender: int, payload: Any, ctx) -> None:
        self.heard.append(payload)
        ctx.send(sender, ("ack", payload))

    def on_operator(self, payload: Any, ctx) -> None:
        self._timer = ctx.set_timer(3.0, "poll")
        ctx.broadcast(("announce", payload))
        ctx.output(("started", payload))

    def on_timer(self, tag: Any, ctx) -> None:
        self.heard.append(("timer", tag))
        ctx.cancel_timer(self._timer)


class TestRouting:
    def test_enveloped_message_routes_to_session(self) -> None:
        runtime = ProtocolRuntime(1)
        a, b = Chatty(1), Chatty(1)
        runtime.open_session("a", a)
        runtime.open_session("b", b)
        effects = runtime.step(
            MessageReceived(2, SessionEnvelope("b", "ping")), env()
        )
        assert b.heard == ["ping"] and a.heard == []
        # The reply leaves wrapped in the same session's envelope.
        assert effects == [Send(2, SessionEnvelope("b", ("ack", "ping")))]

    def test_unenveloped_message_is_dropped(self) -> None:
        runtime = ProtocolRuntime(1)
        a = Chatty(1)
        runtime.open_session("main", a)
        assert runtime.step(MessageReceived(2, "bare"), env()) == []
        assert runtime.step(OperatorInput("bare"), env()) == []
        assert a.heard == [] and runtime.dropped == 2

    def test_unknown_session_dropped_and_counted(self) -> None:
        runtime = ProtocolRuntime(1)
        runtime.open_session("only", Chatty(1))
        out = runtime.step(
            MessageReceived(2, SessionEnvelope("ghost", "x")), env()
        )
        assert out == [] and runtime.dropped == 1

    def test_operator_input_routes_by_envelope(self) -> None:
        runtime = ProtocolRuntime(1)
        a, b = Chatty(1), Chatty(1)
        runtime.open_session("a", a)
        runtime.open_session("b", b)
        effects = runtime.step(
            OperatorInput(SessionEnvelope("b", "go")), env()
        )
        assert Output(("started", "go")) in effects
        assert runtime.outputs_of("b") == [("started", "go")]
        assert runtime.outputs_of("a") == []

    def test_broadcasts_are_enveloped(self) -> None:
        runtime = ProtocolRuntime(1)
        runtime.open_session("s", Chatty(1))
        effects = runtime.step(OperatorInput(SessionEnvelope("s", "x")), env())
        broadcasts = [e for e in effects if isinstance(e, Broadcast)]
        assert broadcasts == [
            Broadcast(SessionEnvelope("s", ("announce", "x")), True)
        ]

    def test_reopened_session_id_starts_clean(self) -> None:
        # Neither the dead instance's outputs nor its pending timers
        # may leak into a session reopened under the same id.
        runtime = ProtocolRuntime(1)
        runtime.open_session("s", Chatty(1))
        effects = runtime.step(OperatorInput(SessionEnvelope("s", "x")), env())
        timer = next(e for e in effects if isinstance(e, SetTimer))
        assert runtime.outputs_of("s") == [("started", "x")]
        runtime.close_session("s")
        fresh = Chatty(1)
        runtime.open_session("s", fresh)
        assert runtime.outputs_of("s") == []
        assert runtime.step(TimerFired(timer.tag, timer.timer_id), env()) == []
        assert fresh.heard == []

    def test_close_session_stops_routing(self) -> None:
        runtime = ProtocolRuntime(1)
        a = Chatty(1)
        runtime.open_session("a", a)
        runtime.close_session("a")
        assert runtime.step(
            MessageReceived(2, SessionEnvelope("a", "late")), env()
        ) == []
        assert a.heard == []


class TestTimers:
    def test_session_timers_are_namespaced(self) -> None:
        runtime = ProtocolRuntime(1)
        a, b = Chatty(1), Chatty(1)
        runtime.open_session("a", a)
        runtime.open_session("b", b)
        fx_a = runtime.step(OperatorInput(SessionEnvelope("a", 1)), env())
        fx_b = runtime.step(OperatorInput(SessionEnvelope("b", 2)), env())
        timer_a = next(e for e in fx_a if isinstance(e, SetTimer))
        timer_b = next(e for e in fx_b if isinstance(e, SetTimer))
        # Both sessions chose machine-local id 1; the runtime's ids differ.
        assert timer_a.timer_id != timer_b.timer_id
        assert timer_a.tag == ("a", "poll")
        # Firing the runtime-level timer reaches only the owning session,
        # and its cancel effect translates back to the runtime id.
        effects = runtime.step(TimerFired(timer_b.tag, timer_b.timer_id), env())
        assert b.heard == [("timer", "poll")] and a.heard == []
        assert effects == []  # cancelling an already-fired timer is dropped

    def test_cancel_translates_to_runtime_id(self) -> None:
        runtime = ProtocolRuntime(1)

        @dataclass
        class Canceller(ProtocolNode):
            def on_operator(self, payload: Any, ctx) -> None:
                timer = ctx.set_timer(9.0, "t")
                ctx.cancel_timer(timer)

        runtime.open_session("c", Canceller(1))
        effects = runtime.step(OperatorInput(SessionEnvelope("c", None)), env())
        set_timer = next(e for e in effects if isinstance(e, SetTimer))
        assert CancelTimer(set_timer.timer_id) in effects

    def test_stale_timer_for_closed_session_is_dropped(self) -> None:
        runtime = ProtocolRuntime(1)
        runtime.open_session("s", Chatty(1))
        effects = runtime.step(OperatorInput(SessionEnvelope("s", "x")), env())
        timer = next(e for e in effects if isinstance(e, SetTimer))
        runtime.close_session("s")
        assert runtime.step(TimerFired(timer.tag, timer.timer_id), env()) == []


class TestSpawn:
    def test_spawn_session_effect_opens_sibling(self) -> None:
        @dataclass
        class Spawner(ProtocolNode):
            def on_operator(self, payload: Any, ctx) -> None:
                ctx.spawn_session("child", RecordingNode(self.node_id))

        runtime = ProtocolRuntime(1)
        runtime.open_session("parent", Spawner(1))
        effects = runtime.step(
            OperatorInput(SessionEnvelope("parent", None)), env()
        )
        assert effects == []  # handled internally, nothing escapes
        assert "child" in runtime.sessions
        runtime.step(MessageReceived(2, SessionEnvelope("child", "hi")), env())
        assert runtime.sessions["child"].received[0][1:] == (2, "hi")


def _run_dkg_stage(
    sessions: dict[str, tuple[DkgConfig, int]], seed: int
) -> tuple[SimWorld, dict]:
    """``sessions`` as one stage of a world over their members' union."""
    group = toy_group()
    members = sorted(
        {i for config, _ in sessions.values() for i in config.vss().indices}
    )
    world = SimWorld(group, members, seed)
    pki = enroll(group, members, ("runtime-test", seed))
    outputs, _ = world.run_stage(dkg_stage(pki, sessions), DkgCompletedOutput.kind)
    return world, outputs


class TestConcurrentDkgSessions:
    def test_four_concurrent_dkgs_over_one_endpoint_set(self) -> None:
        """The acceptance bar: >= 4 concurrent DKG sessions multiplexed
        over one runtime endpoint per node, all completing and
        producing independent keys."""
        config = DkgConfig(n=4, t=1, group=toy_group())
        world, outputs = _run_dkg_stage(
            {f"dkg-{k}": (config, k) for k in range(4)}, seed=3
        )
        assert len(world.runtimes) == 4
        keys = set()
        for session, completions in outputs.items():
            assert sorted(completions) == [1, 2, 3, 4], session
            keys.add(adopt(completions, session)[1].public_key())
        assert len(keys) == 4  # sessions are cryptographically independent

    def test_sessions_with_distinct_member_subsets(self) -> None:
        group = toy_group()
        full = DkgConfig(n=5, t=1, group=group)
        subset = DkgConfig(
            n=4, t=1, group=group, members=(1, 2, 4, 5),
            initial_leader=2, enforce_resilience=False,
        )
        _, outputs = _run_dkg_stage({"all": (full, 0), "subset": (subset, 1)}, seed=9)
        assert sorted(outputs["all"]) == [1, 2, 3, 4, 5]
        assert sorted(outputs["subset"]) == [1, 2, 4, 5]
        for session, completions in outputs.items():
            adopt(completions, session)  # one commitment, one Q

    def test_duplicate_session_ids_rejected(self) -> None:
        config = DkgConfig(n=4, t=1, group=toy_group())
        world, _ = _run_dkg_stage({"x": (config, 0)}, seed=3)
        pki = enroll(config.group, [1, 2, 3, 4], ("runtime-test", 3))
        with pytest.raises(ValueError, match="already open"):
            world.run_stage(dkg_stage(pki, {"x": (config, 1)}), "dkg.out.completed")
