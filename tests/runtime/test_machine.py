"""The sans-I/O machine interface: step(event, env) -> [Effect]."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import pytest

from repro.runtime import (
    Broadcast,
    CancelTimer,
    Crashed,
    Env,
    Machine,
    MessageReceived,
    OperatorInput,
    Output,
    Recovered,
    Send,
    SetTimer,
    TimerFired,
)
from repro.runtime.core import EffectRecorder
from repro.sim.node import ProtocolNode, RecordingNode


def env(node_id: int = 1, now: float = 0.0, members=(1, 2, 3)) -> Env:
    return Env(
        now=now,
        rng=random.Random(0),
        node_id=node_id,
        members=tuple(members),
    )


@dataclass
class EchoNode(ProtocolNode):
    """Replies to every message, arms a timer on operator input."""

    def on_message(self, sender: int, payload: Any, ctx) -> None:
        ctx.send(sender, payload)
        ctx.output(("saw", payload))

    def on_operator(self, payload: Any, ctx) -> None:
        timer = ctx.set_timer(5.0, "tick")
        if payload == "cancel":
            ctx.cancel_timer(timer)

    def on_timer(self, tag: Any, ctx) -> None:
        ctx.broadcast(tag, include_self=False)


class TestProtocolNodeStep:
    def test_protocol_node_is_a_machine(self) -> None:
        assert isinstance(ProtocolNode(1), Machine)
        assert isinstance(RecordingNode(1), Machine)

    def test_every_protocol_family_speaks_step(self) -> None:
        # VSS, DKG, proactive renewal and groupmod agreement/addition
        # are all ported to the uniform interface.
        from repro.groupmod.addition import JoiningNode
        from repro.groupmod.agreement import GroupModAgreementNode
        from repro.proactive.renewal import RenewalNode
        from repro.vss.node import VssNode
        from repro.dkg.node import DkgNode

        for node_type in (
            VssNode,
            DkgNode,
            RenewalNode,
            GroupModAgreementNode,
            JoiningNode,
        ):
            assert issubclass(node_type, ProtocolNode), node_type
            assert node_type.step is ProtocolNode.step, node_type

    def test_message_event_returns_effects(self) -> None:
        effects = EchoNode(1).step(MessageReceived(2, "hello"), env())
        assert effects == [Send(2, "hello"), Output(("saw", "hello"))]

    def test_effects_are_values_not_actions(self) -> None:
        # Stepping records; nothing is delivered anywhere.
        node = EchoNode(1)
        first = node.step(MessageReceived(2, "x"), env())
        second = node.step(MessageReceived(3, "y"), env())
        assert first == [Send(2, "x"), Output(("saw", "x"))]
        assert second == [Send(3, "y"), Output(("saw", "y"))]

    def test_timer_ids_are_machine_local_and_stable(self) -> None:
        node = EchoNode(1)
        [set_timer] = node.step(OperatorInput("start"), env())
        assert set_timer == SetTimer(5.0, "tick", 1)
        effects = node.step(OperatorInput("cancel"), env())
        assert effects == [SetTimer(5.0, "tick", 2), CancelTimer(2)]

    def test_timer_event_dispatches_to_on_timer(self) -> None:
        effects = EchoNode(1).step(TimerFired("tick", 1), env())
        assert effects == [Broadcast("tick", include_self=False)]

    def test_crash_and_recover_events(self) -> None:
        node = RecordingNode(1)
        assert node.step(Crashed(), env()) == []
        assert node.step(Recovered(), env(now=4.0)) == []
        assert node.recovered_at == [4.0]

    def test_unknown_event_rejected(self) -> None:
        with pytest.raises(TypeError):
            ProtocolNode(1).step("not-an-event", env())

    def test_env_is_visible_through_recorder(self) -> None:
        seen = {}

        @dataclass
        class Probe(ProtocolNode):
            def on_operator(self, payload, ctx) -> None:
                seen.update(
                    now=ctx.now, n=ctx.n, all_nodes=ctx.all_nodes,
                    node_id=ctx.node_id,
                )

        Probe(2).step(OperatorInput(None), env(node_id=2, now=7.5))
        assert seen == {
            "now": 7.5, "n": 3, "all_nodes": [1, 2, 3], "node_id": 2,
        }


class TestEffectRecorder:
    def test_broadcast_is_an_effect_value(self) -> None:
        recorder = EffectRecorder(env())
        recorder.broadcast("payload")
        assert recorder.effects == [Broadcast("payload", True)]

    def test_timer_id_continuity_across_recorders(self) -> None:
        recorder = EffectRecorder(env(), next_timer_id=41)
        assert recorder.set_timer(1.0, "a") == 41
        assert recorder.set_timer(1.0, "b") == 42
        assert recorder.next_timer_id == 43
