"""BENCHMARK.json against the driver's contract, and the result lines
of real (smoke-sized) runs against BENCHMARK.json."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
    assert len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 for part in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # The driver makes 4 + 22 * workloads runs inside 3420 s; a run
    # also sets up (up to ~6 s here) and finishes its last operation.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) <= 3420


def _bench(*args):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _result_line(done):
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_smoke_pass_over_every_workload_and_compare_with_itself(tmp_path):
    out = tmp_path / "smoke.json"
    done = _bench("--smoke", "--runs", "2", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert set(report["meta"]) == {
        "seed", "runs", "seconds", "trace", "smoke",
        "nproc", "python", "probes", "git_sha",
    }  # fmt: skip
    assert set(report["meta"]["probes"]) == {"gmpy2", "coincurve"}
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for entry in report["workloads"].values():
        assert [run["seed"] for run in entry["runs"]] == [7, 8]
        for run in entry["runs"]:
            assert run["correct"] and run["failed"] == 0
            assert {k: v["unit"] for k, v in run["metrics"].items()} == expected
            # End-to-end metrics are chosen never to be zero.
            assert all(v["value"] > 0 for v in run["metrics"].values())
    # Same code, same file: nothing is worse.
    assert _bench("compare", str(out), str(out)).returncode == 0


def test_traced_smoke_run_reports_every_per_layer_metric_and_a_budget():
    done = _bench(
        "--workload", "sign_sustained", "--smoke", "--seconds", "1.5",
        "--seed", "3", "--trace", "1",
    )  # fmt: skip
    result = _result_line(done)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Forging happens off the event loop, and is seen there.
    assert values["trace.worker_threads_s"] > 0
    assert values["service.presig.forge.busy_s"] > 0
    assert values["crypto.sig_verify.calls"] > 0
    assert 0 < values["service.presig.hit_ratio"] < 1
    assert "unattributed" in done.stdout


def test_the_seed_decides_every_generated_input():
    from bench.workloads import WORKLOADS

    def draws(name, seed):
        workload = WORKLOADS[name](name, seed, True)
        drawn = [workload.rng.getrandbits(32) for _ in range(3)]
        for rng in getattr(workload, "client_rngs", ()):
            drawn.append(rng.randbytes(32))
        return drawn

    for name in WORKLOADS:
        assert draws(name, 5) == draws(name, 5)
        assert draws(name, 5) != draws(name, 6)
    assert draws("dkg_sim_ec_n10", 5) != draws("dkg_tcp_ec_n7", 5)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "sign_burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert "correct" not in done.stdout
