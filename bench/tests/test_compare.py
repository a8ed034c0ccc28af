import json

import pytest

from bench import compare

SPEC = {
    "end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}
META = {
    "nproc": 2,
    "probes": {"gmpy2": False, "coincurve": False},
    "seconds": 12,
    "smoke": False,
    "trace": 0,
}


def test_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [100.5, 101.0, 100.0], "lower", 0.1) == "same"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.1) == "better"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.1) == "worse"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher", 0.1) == "better"
    # A spread wider than the bound decides nothing but "worse".
    noisy = [80.0, 100.0, 125.0]
    assert compare.verdict(noisy, [101.0, 100.0, 99.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(steady, [70.0, 85.0, 100.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [150.0, 151.0, 149.0], "lower", 0.1) == "worse"
    # A bound of zero tolerates no change for the worse, and an exact
    # count repeats exactly.
    assert compare.verdict([840.0] * 3, [840.0] * 3, "lower", 0.0) == "same"
    assert compare.verdict([840.0] * 3, [841.0] * 3, "lower", 0.0) == "worse"


def _report(tmp_path, name, p50, ops, **meta):
    runs = [
        {
            "metrics": {
                "op_p50_ms": {"value": a, "unit": "ms"},
                "ops_per_s": {"value": b, "unit": "1/s"},
            }
        }
        for a, b in zip(p50, ops)
    ]
    path = tmp_path / name
    path.write_text(
        json.dumps({"meta": {**META, **meta}, "workloads": {"w": {"runs": runs}}})
    )
    return str(path)


def test_exit_code_says_whether_anything_got_worse(tmp_path, capsys):
    a = _report(tmp_path, "a.json", [100.0, 101.0, 99.0], [10.0, 10.1, 9.9])
    same = _report(tmp_path, "b.json", [100.0, 102.0, 99.5], [10.0, 10.2, 9.9])
    slow = _report(tmp_path, "c.json", [100.0, 102.0, 99.5], [8.0, 8.1, 7.9])
    assert compare.main([a, same], SPEC) == 0
    assert compare.main([a, slow], SPEC) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split()[:2] == ["w", "ops_per_s"] and rows[-1].endswith("worse")
    assert rows[-2].endswith("same")


def test_runs_under_different_probe_state_are_not_compared(tmp_path):
    a = _report(tmp_path, "a.json", [100.0], [10.0])
    b = _report(
        tmp_path, "b.json", [50.0], [20.0], probes={"gmpy2": True, "coincurve": False}
    )
    with pytest.raises(SystemExit, match="probes differs"):
        compare.main([a, b], SPEC)
