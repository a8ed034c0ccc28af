"""Smoke tests: every example script runs to completion."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

# The examples import repro from the src/ layout; make that work even
# when pytest itself found the package via the pyproject pythonpath
# setting rather than an exported PYTHONPATH.
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(REPO / "src")]
    + ([_ENV["PYTHONPATH"]] if _ENV.get("PYTHONPATH") else [])
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script: pathlib.Path) -> None:
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout  # examples narrate what they do


def test_examples_present() -> None:
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "threshold_wallet", "signing_service",
            "resilient_cluster"} <= names
