"""Command line of the benchmark.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    the result: ``{"correct", "attempted", "failed", "metrics"}`` with
    every end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``).  The lines before it are for people.

``python3 -m bench [--seed N] [--runs R] [--trace 1] [--smoke] [--out F]``
    Every workload, each run in a fresh subprocess; prints a table and
    optionally writes a result file for ``compare``.

``python3 -m bench compare A.json B.json``
    Judges two result files metric by metric; see ``bench/compare.py``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the program is imported: set-up counts it

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import compare, stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
SMOKE_SECONDS = 0.5
RUN_TIMEOUT_S = 180


def _import_program() -> None:
    """Make ``repro`` importable from the checkout this file is in."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"bench: nothing to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))


# -- one workload, in this process ---------------------------------------------


async def _measure(args: argparse.Namespace) -> tuple[dict[str, float], object, object]:
    """Set up, measure, tear down; returns (metric values, the
    recorder, the workload)."""
    from bench import layers
    from bench.workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.workload, args.seed, args.smoke)
    import_s = time.perf_counter() - STARTED
    await workload.setup()
    try:
        if not args.trace:
            rec = Recorder()
            await workload.measure(args.seconds, rec)
            if not rec.op_s:
                sys.exit(f"bench: no operation succeeded: {rec.failures[:3]}")
            return _end_to_end(workload, rec, import_s), rec, workload
        # The same process measures itself with the wrappers off and
        # then on; the difference is what tracing costs.
        untraced = Recorder()
        await workload.measure(args.seconds / 3, untraced)
        with layers.traced() as trace:
            rec = Recorder(counters=trace.counters)
            await workload.measure(2 * args.seconds / 3, rec)
        rec.failures += untraced.failures
        rec.attempted += untraced.attempted
        if not rec.op_s or not untraced.op_s:
            sys.exit(f"bench: no operation succeeded: {rec.failures[:3]}")
        values, budget = layers.metrics(trace, rec, untraced)
        _print_budget(budget, len(rec.op_s), rec.window_s)
        return values, rec, workload
    finally:
        await workload.teardown()


def _end_to_end(workload, rec, import_s: float) -> dict[str, float]:
    ops = len(rec.op_s)
    return {
        # Process start to the first timed operation.  Work done once
        # is timed once; the part a run repeats enters as its median.
        "setup_s": import_s
        + workload.once_s
        + statistics.median(workload.setup_samples),
        "op_p50_ms": statistics.median(rec.op_s) * 1000,
        "ops_per_s": ops / rec.window_s,
        "bytes_per_op": rec.wire_bytes / ops,
        "msgs_per_op": rec.wire_msgs / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _print_budget(budget: dict, ops: int, wall: float) -> None:
    """Layer self times and ``unattributed``, which sum to wall."""
    print(f"self time per operation ({ops} operations, {wall / ops:.4f} s each)")
    print(f"  {'layer':<18}{'event loop s':>14}{'share':>8}{'other threads s':>17}")
    for layer in sorted(set(budget["loop"]) | set(budget["threads"])):
        loop = budget["loop"].get(layer, 0.0)
        threads = budget["threads"].get(layer, 0.0)
        print(
            f"  {layer:<18}{loop / ops:>14.4f}{loop / wall:>8.1%}"
            f"{threads / ops:>17.4f}"
        )
    total = sum(budget["loop"].values())
    print(f"  {'sum':<18}{total / ops:>14.4f}{total / wall:>8.1%}")


def run_one(args: argparse.Namespace) -> int:
    _import_program()
    values, rec, workload = asyncio.run(_measure(args))
    q1, q2, q3 = stats.quartiles(rec.op_s)
    tail = stats.tail(rec.op_s)
    detail = {
        "samples": len(rec.op_s),
        "op_ms": {"q1": q1 * 1000, "median": q2 * 1000, "q3": q3 * 1000},
        "tail": {"percentile": tail[0], "ms": tail[1] * 1000} if tail else None,
        "setup_samples_s": workload.setup_samples,
        "failures": rec.failures,
    }
    print(json.dumps({"detail": detail}))
    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(values) != {metric["name"] for metric in spec}:
        sys.exit("bench: BENCHMARK.json and the harness name different metrics")
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec
        },
    }
    print(json.dumps(result))
    return 0


# -- every workload, each run in a fresh subprocess ----------------------------


def _environment() -> dict:
    """What a result depends on besides the code."""
    _import_program()
    from repro.crypto.parallel import acceleration_status

    status = acceleration_status()
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "probes": {"gmpy2": status["gmpy2"], "coincurve": status["coincurve"]},
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
    }


def _run_child(name: str, seed: int, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, "-m", "bench",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.exit(f"bench: {name} seed {seed} failed:\n{done.stdout}{done.stderr}")
    *notes, detail, result = done.stdout.strip().splitlines()
    if args.trace:
        print("\n".join(notes))
    return {"seed": seed, **json.loads(result), **json.loads(detail)}


def run_all(args: argparse.Namespace) -> int:
    report = {
        "meta": {
            "seed": args.seed,
            "runs": args.runs,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            **_environment(),
        },
        "workloads": {},
    }
    print(json.dumps(report["meta"]))
    correct = True
    for name in WORKLOAD_NAMES:
        print(f"== {name}")
        runs = [_run_child(name, args.seed + k, args) for k in range(args.runs)]
        report["workloads"][name] = {"runs": runs}
        correct &= all(run["correct"] for run in runs)
        for run in runs:
            for failure in run["detail"]["failures"]:
                print(f"   FAILED (seed {run['seed']}): {failure}")
        samples = sum(run["detail"]["samples"] for run in runs)
        print(f"   {len(runs)} runs, {samples} timed operations")
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, q2, q3 = stats.quartiles(values)
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"   {metric:<40}{q2:>14.4f} {unit:<6} [{q1:.4f}, {q3:.4f}]")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], SPEC)
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
