"""Tests for the hybrid-model adversary's constraints and scheduling."""

from __future__ import annotations

import random

import pytest

from repro.sim.adversary import Adversary, CrashBudgetExceeded, check_crash_plan


class TestConstruction:
    def test_byzantine_set_bounded_by_t(self) -> None:
        with pytest.raises(ValueError, match="exceeds t"):
            Adversary(t=1, f=0, byzantine=frozenset({1, 2}))

    def test_byzantine_nodes_cannot_be_crashed(self) -> None:
        with pytest.raises(ValueError, match="non-Byzantine"):
            Adversary(
                t=1,
                f=1,
                byzantine=frozenset({3}),
                crash_plan=[(0.0, 3, None)],
            )

    def test_crash_budget_enforced(self) -> None:
        plan = [(float(i), 1, 0.5) for i in range(5)]
        with pytest.raises(CrashBudgetExceeded):
            Adversary(t=0, f=1, crash_plan=plan, d_budget=3)

    def test_simultaneous_crashes_bounded_by_f(self) -> None:
        # Two overlapping crash intervals with f=1 is illegal.
        with pytest.raises(ValueError, match="simultaneous"):
            Adversary(
                t=0,
                f=1,
                crash_plan=[(0.0, 1, 10.0), (5.0, 2, 10.0)],
                d_budget=5,
            )

    def test_sequential_crashes_within_f_allowed(self) -> None:
        adv = Adversary(
            t=0,
            f=1,
            crash_plan=[(0.0, 1, 2.0), (3.0, 2, 2.0)],
            d_budget=5,
        )
        assert len(adv.crash_plan) == 2

    def test_nodes_already_down_count_against_f(self) -> None:
        # A stage opens with the world's down nodes already spent.
        plan = [(0.0, 2, 5.0)]
        assert check_crash_plan(plan, 1, 5) == plan
        with pytest.raises(ValueError, match="simultaneous"):
            check_crash_plan(plan, 1, 5, down={3})

    def test_permanent_crashes_counted_against_f(self) -> None:
        with pytest.raises(ValueError, match="simultaneous"):
            Adversary(
                t=0,
                f=1,
                crash_plan=[(0.0, 1, None), (1.0, 2, None)],
                d_budget=5,
            )


class TestScheduling:
    def test_rushing_delivers_to_byzantine_immediately(self) -> None:
        adv = Adversary.corrupting(t=1, f=0, byzantine={2}, rushing=True)
        rng = random.Random(0)
        assert adv.delivery_delay(rng, 1, 2, base_delay=5.0) == adv.rush_delay
        assert adv.delivery_delay(rng, 1, 3, base_delay=5.0) == 5.0

    def test_non_rushing_leaves_delays_alone(self) -> None:
        adv = Adversary.corrupting(t=1, f=0, byzantine={2}, rushing=False)
        rng = random.Random(0)
        assert adv.delivery_delay(rng, 1, 2, base_delay=5.0) == 5.0

    def test_passive_factory(self) -> None:
        adv = Adversary.passive(t=2, f=1)
        assert not adv.byzantine
        assert not adv.crash_plan
        assert adv.is_byzantine(1) is False
