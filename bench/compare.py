"""``python3 -m bench compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric): both medians with their
quartiles over the runs, the bound ``BENCHMARK.json`` fixes, and a
verdict.  ``worse`` is B's median beyond the bound on the wrong side of
A's; a difference is otherwise only believed when neither side's own
run-to-run spread exceeds the bound (``unresolved`` if one does).
Exits non-zero on any ``worse``, and refuses files that were measured
under different conditions.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from bench import stats

# Results are comparable only when these agree: an accelerator probe or
# a core count changes every timing by more than any bound.
SAME_CONDITIONS = ("nproc", "probes", "seconds", "smoke", "trace")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base = statistics.median(a)
    change = (statistics.median(b) - base) / base if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if max(stats.relative_spread(a), stats.relative_spread(b)) > bound:
        return "unresolved"
    if change < -bound:
        return "better"
    return "same"


def _values(report: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in report["workloads"][workload]["runs"]
    ]


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        sys.exit("usage: python3 -m bench compare A.json B.json")
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if a["meta"]["trace"] or b["meta"]["trace"]:
        sys.exit("bench compare: only end-to-end results have bounds to judge by")
    for key in SAME_CONDITIONS:
        if a["meta"][key] != b["meta"][key]:
            sys.exit(
                f"bench compare: {key} differs "
                f"({a['meta'][key]} vs {b['meta'][key]}); not comparable"
            )
    print(
        f"{'workload':<18}{'metric':<14}{'A median [q1, q3]':>36}"
        f"{'B median [q1, q3]':>36}{'bound':>7}  verdict"
    )
    worse = 0
    for workload in a["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [_values(a, workload, name), _values(b, workload, name)]
            outcome = verdict(*sides, metric["better"], metric["bound"])
            worse += outcome == "worse"
            cells = "".join(
                "{:>14.4f} [{:.4f}, {:.4f}]".format(q2, q1, q3).rjust(36)
                for q1, q2, q3 in map(stats.quartiles, sides)
            )
            print(
                f"{workload:<18}{name:<14}{cells}{metric['bound']:>7.2f}  {outcome}"
            )
    return 1 if worse else 0
