"""Tests for the deterministic event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue, MessageDelivery, TimerFired


def _msg(i: int) -> MessageDelivery:
    return MessageDelivery(sender=1, recipient=2, payload=i)


class TestEventQueue:
    def test_pops_in_time_order(self) -> None:
        q = EventQueue()
        q.push(3.0, _msg(3))
        q.push(1.0, _msg(1))
        q.push(2.0, _msg(2))
        order = [q.pop()[1].payload for _ in range(3)]
        assert order == [1, 2, 3]

    def test_ties_broken_by_insertion_order(self) -> None:
        q = EventQueue()
        for i in range(5):
            q.push(1.0, _msg(i))
        assert [q.pop()[1].payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_now_advances(self) -> None:
        q = EventQueue()
        q.push(5.5, _msg(0))
        assert q.now == 0.0
        q.pop()
        assert q.now == 5.5

    def test_rejects_scheduling_in_the_past(self) -> None:
        q = EventQueue()
        q.push(2.0, _msg(0))
        q.pop()
        with pytest.raises(ValueError):
            q.push(1.0, _msg(1))

    def test_len_and_bool(self) -> None:
        q = EventQueue()
        assert not q
        q.push(1.0, _msg(0))
        assert q and len(q) == 1

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_always_monotonic(self, times: list[float]) -> None:
        q = EventQueue()
        for i, t in enumerate(times):
            q.push(t, TimerFired(node=1, tag=i, timer_id=i))
        popped = [q.pop()[0] for _ in range(len(times))]
        assert popped == sorted(popped)
