"""One crash plan, one §2.2 check, every entry point.

A crash plan is a list of ``(at, node, up_after)`` entries, times from
the start of the run or stage.  Every way to run a deployment — a bare
simulated DKG, a lifecycle in either world, a socket DKG and the CLI
on both transports — refuses the same out-of-model plans before a
message is sent, and the in-model renewal plan crashes and recovers
node 4 once in both worlds under an unchanged public key.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.dkg import DkgConfig, run_dkg
from repro.net.cluster import TcpWorld, run_local_cluster
from repro.groupmod import GroupManager, ModProposal
from repro.proactive import ProactiveSystem
from repro.sim.adversary import Adversary

from tests.helpers import default_test_group

CONFIG = DkgConfig(n=6, t=1, f=1, group=default_test_group())
SEED = 3
SCALE = 0.01

REFUSED = {
    "f+1-overlapping": ([(1.0, 4, 10.0), (2.0, 5, 10.0)], "simultaneous"),
    "d_budget+1-events": (
        [(float(k), 4, 0.5) for k in range(CONFIG.d_budget + 1)],
        r"d\(kappa\)",
    ),
    "unknown-node": ([(1.0, 99, None)], "not a member index"),
    # (node, at, up_after): ``2.0 in members`` holds, the type does not.
    "old-order": ([(6, 2.0, None)], "not a member index"),
}
IN_MODEL = [(0.5, 4, 40.0)]


def _bare_dkg(plan, metered):
    adversary = Adversary.crash_only(
        CONFIG.t, CONFIG.f, plan, d_budget=CONFIG.d_budget
    )
    run_dkg(CONFIG, seed=SEED, adversary=adversary)


def _socket_dkg(plan, metered):
    run_local_cluster(CONFIG, seed=SEED, time_scale=SCALE, crash_plan=plan)


def _renewal(**world):
    def run(plan, metered):
        with ProactiveSystem(CONFIG, seed=SEED, **world) as system:
            system.bootstrap()
            key = system.public_key
            metered.clear()
            report = system.renew(crash_plan=plan)
            assert system.world.collect_errors() == []
        metrics = report.metrics
        stable = report.public_key == key == system.public_key
        return metrics.crashes, metrics.recoveries, sorted(report.shares), stable

    return run


def _cli(transport):
    def run(plan, metered):
        argv = ["renew", "--n", "6", "--t", "1", "--f", "1", "--phases", "1"]
        argv += ["--seed", str(SEED), "--transport", transport, "--json"]
        argv += ["--time-scale", str(SCALE)]
        for at, node, up_after in plan:
            up = "" if up_after is None else f"+{up_after}"
            argv += ["--crash", f"{node}@{at}{up}"]
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        report = json.loads(out.getvalue())
        phase = report["phases"][0]
        stable = phase["public_key_stable"] and report["secret_invariant"]
        return report["crashes"], report["recoveries"], phase["renewed_nodes"], stable

    return run


WORLDS = {"sim": {}, "tcp": {"world": TcpWorld, "time_scale": SCALE, "timeout": 90.0}}
ENTRIES = {
    "run_dkg": (_bare_dkg, False),
    "sim-world": (_renewal(**WORLDS["sim"]), True),
    "tcp-world": (_renewal(**WORLDS["tcp"]), True),
    "run_local_cluster": (_socket_dkg, False),
    "cli-sim": (_cli("sim"), True),
    "cli-tcp": (_cli("tcp"), True),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_one_check_refuses_and_one_plan_runs(entry, metered) -> None:
    run, renews = ENTRIES[entry]
    for name, (plan, match) in REFUSED.items():
        with pytest.raises((ValueError, SystemExit)) as refused:
            run(plan, metered)
        if refused.type is SystemExit:
            # argparse: the §2.2 message, or an entry NODE@AT cannot
            # spell (the old order's float node).
            assert refused.value.code == 2, name
        else:
            refused.match(match)
        assert metered == [], name
    if renews:
        crashes, recoveries, renewed, stable = run(IN_MODEL, metered)
        assert (crashes, recoveries) == (1, 1)
        assert renewed == [1, 2, 3, 4, 5, 6]
        assert stable


@pytest.mark.parametrize("world", list(WORLDS))
def test_a_node_left_down_counts_against_the_next_stage(world) -> None:
    with ProactiveSystem(CONFIG, seed=SEED, **WORLDS[world]) as system:
        system.bootstrap(crash_plan=[(0.5, 4, None)])
        assert 4 not in system.shares
        with pytest.raises(ValueError, match="simultaneous"):
            system.renew(crash_plan=[(0.5, 5, 10.0)])


def _spy(world, calls: list) -> None:
    """Record the sessions ``world`` runs and the nodes it joins."""
    run_stage, join = world.run_stage, world.join

    def spied_run_stage(sessions, *args, **kwargs):
        calls.append(("run", *sessions))
        return run_stage(sessions, *args, **kwargs)

    def spied_join(index):
        calls.append(("join", index))
        return join(index)

    world.run_stage, world.join = spied_run_stage, spied_join


OVERLAPPING = REFUSED["f+1-overlapping"][0]


@pytest.mark.parametrize("world", list(WORLDS))
def test_a_refused_renewal_changes_nothing(world) -> None:
    with ProactiveSystem(CONFIG, seed=SEED, **WORLDS[world]) as system:
        system.bootstrap()
        calls: list = []
        _spy(system.world, calls)
        before = (system.phase, dict(system.adversary_view), system.config)
        with pytest.raises(ValueError, match="simultaneous"):
            system.renew(corrupted={1}, crash_plan=OVERLAPPING)
        assert (system.phase, system.adversary_view, system.config) == before
        assert calls == []
        report = system.renew(corrupted={1})
        assert report.phase == system.phase == 1
        assert list(system.adversary_view) == [1]
        assert calls == [("run", "renew-1")]


@pytest.mark.parametrize("world", list(WORLDS))
def test_a_refused_group_change_changes_nothing(world) -> None:
    with GroupManager(CONFIG, seed=SEED, **WORLDS[world]) as manager:
        manager.bootstrap()
        manager.pending = [ModProposal("add", 8)]
        calls: list = []
        _spy(manager.world, calls)
        before = (manager.phase, list(manager.pending), manager.members)
        config = manager.config
        for refused in (
            lambda: manager.add_node(7, crash_plan=OVERLAPPING),
            lambda: manager.phase_change(crash_plan=OVERLAPPING),
        ):
            with pytest.raises(ValueError, match="simultaneous"):
                refused()
            assert (manager.phase, manager.pending, manager.members) == before
            assert manager.config is manager.sessions.config is config
            assert calls == []
        manager.add_node(7)
        assert manager.phase == 1
        assert manager.members == (1, 2, 3, 4, 5, 6, 7)
        assert calls == [("join", 7), ("run", "add-1")]
