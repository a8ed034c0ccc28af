"""Property tests for the schedule mutators.

The three contracts the fuzzer's soundness rests on:

* determinism — the same ``(capture, seed)`` produces a byte-identical
  mutated schedule, across independent runner instances;
* causality — no reordering ever moves a receive before the step that
  emitted it (checked wholesale over many seeds, not just per-swap);
* budgets — crash / taint / drop never exceed what the ``(t, f)``
  parameters allow, so a liveness violation is never self-inflicted.
"""

from __future__ import annotations

from repro.fuzz.mutators import MutationBudget, ScheduleMutator, apply_plan
from repro.fuzz.runner import FuzzRunner
from repro.fuzz.schedule import (
    can_swap,
    emits,
    generate_capture,
    is_message,
    message_kind,
)

SEEDS = range(24)


def test_plan_and_mutant_deterministic_per_seed(base_schedule):
    """Same (capture, seed) => identical plan and byte-identical mutant."""
    first = FuzzRunner(base_schedule.copy(), max_ops=6)
    second = FuzzRunner(base_schedule.copy(), max_ops=6)
    assert first.base_digest == second.base_digest
    for seed in SEEDS:
        plan_a = first.plan_for_seed(seed)
        plan_b = second.plan_for_seed(seed)
        assert plan_a == plan_b
        mutant_a, _ = apply_plan(first.base, plan_a)
        mutant_b, _ = apply_plan(second.base, plan_b)
        assert mutant_a.canonical_bytes() == mutant_b.canonical_bytes()


def test_distinct_seeds_give_distinct_plans(base_schedule):
    runner = FuzzRunner(base_schedule.copy(), max_ops=6)
    plans = {repr(runner.plan_for_seed(seed)) for seed in SEEDS}
    assert len(plans) > len(SEEDS) // 2


def test_capture_generation_is_reproducible(group, base_schedule):
    """The digest the seed RNG keys on must be regenerable anywhere."""
    from repro.fuzz.schedule import Schedule

    again = Schedule.from_capture(
        generate_capture("dkg", n=4, t=1, f=0, seed=0, group=group)
    )
    assert again.digest() == base_schedule.digest()


def _assert_causal_delivery(schedule):
    """Every message receive sits after some emitter of its kind from
    its claimed sender (when the schedule contains such an emitter)."""
    records = schedule.records
    for index, record in enumerate(records):
        if not is_message(record):
            continue
        kind = message_kind(record)
        sender = (record.get("data") or {}).get("sender")
        session = record.get("session")
        if kind is None or sender is None:
            continue
        emitter_indices = [
            i
            for i, r in enumerate(records)
            if r.get("node") == sender
            and r.get("session") == session
            and emits(r, kind)
        ]
        if emitter_indices:
            assert min(emitter_indices) < index, (
                f"receive {record.get('_fid')} of {kind} from {sender} "
                f"at {index} precedes every emitter {emitter_indices}"
            )


def test_reordering_preserves_causal_delivery(base_schedule):
    """Structure-preserving ops (everything except payload mutation,
    which relabels senders) never move a receive before its cause."""
    runner = FuzzRunner(base_schedule.copy(), max_ops=8)
    _assert_causal_delivery(runner.base)
    checked = 0
    for seed in SEEDS:
        plan = [
            op for op in runner.plan_for_seed(seed) if op["op"] != "mutate"
        ]
        mutated, _report = apply_plan(runner.base, plan)
        _assert_causal_delivery(mutated)
        checked += len(plan)
    assert checked > 20


def test_crash_never_orphans_a_receive():
    """A crash window that swallows the step which first emitted a kind
    must not leave other nodes receiving it: on the toy n=4 seed-0
    capture this plan dropped node 4's first echo broadcasts (f8, f11)
    while f21, node 1's receive of one, survived."""
    from repro.crypto.groups import toy_group
    from repro.fuzz.schedule import Schedule

    base = Schedule.from_capture(
        generate_capture("dkg", n=4, t=1, f=0, seed=0, group=toy_group())
    )
    plan = [{"op": "crash", "node": 4, "at": "f5", "gap": 14}]
    mutated, report = apply_plan(base, plan)
    _assert_causal_delivery(mutated)
    assert report.skipped == plan and not report.crashed
    assert mutated.canonical_bytes() == base.canonical_bytes()
    # A window that ends before the node's first echo still applies.
    mutated, report = apply_plan(
        base, [{"op": "crash", "node": 4, "at": "f5", "gap": 2}]
    )
    _assert_causal_delivery(mutated)
    assert report.crashed == {4}


def test_budgets_respected(base_schedule):
    budget = MutationBudget(t=1, f=1)
    mutator = ScheduleMutator(base_schedule, budget)
    runner = FuzzRunner(base_schedule.copy(), max_ops=10, budget=budget)
    for seed in SEEDS:
        plan = mutator.plan(runner.seed_rng(seed), 10)
        _mutated, report = apply_plan(base_schedule, plan, budget)
        assert len(report.crashed) <= budget.crash_nodes
        assert len(report.tainted) <= budget.t
        drops = [op for op in report.applied if op["op"] == "drop"]
        assert len(drops) <= budget.f


def test_drop_planner_disabled_at_f_zero(base_schedule):
    mutator = ScheduleMutator(base_schedule, MutationBudget(t=1, f=0))
    runner = FuzzRunner(base_schedule.copy())
    for seed in SEEDS:
        for op in mutator.plan(runner.seed_rng(seed), 10):
            assert op["op"] != "drop"


def test_can_swap_rules(base_schedule):
    spans = base_schedule.spans
    meta_record = {"record": "open"}
    assert not can_swap(meta_record, spans[0])
    same_node = [s for s in spans if s["node"] == spans[0]["node"]]
    assert not can_swap(same_node[0], same_node[1])
    # A receive must not swap ahead of the step that emitted its kind.
    for index, record in enumerate(base_schedule.records):
        if not is_message(record):
            continue
        kind = message_kind(record)
        sender = (record.get("data") or {}).get("sender")
        for earlier in base_schedule.records[:index]:
            if (
                earlier.get("node") == sender
                and earlier.get("session") == record.get("session")
                and emits(earlier, kind)
            ):
                assert not can_swap(earlier, record)
                return
    raise AssertionError("no emitter/receive pair found in base capture")


def test_applied_ops_are_fully_parameterized(base_schedule):
    """Plans must be self-contained JSON — re-applying them cannot
    consult the RNG, or reproducers would not reproduce."""
    import json

    runner = FuzzRunner(base_schedule.copy(), max_ops=8)
    for seed in SEEDS:
        plan = runner.plan_for_seed(seed)
        assert json.loads(json.dumps(plan)) == plan
        for op in plan:
            assert isinstance(op.get("op"), str)
