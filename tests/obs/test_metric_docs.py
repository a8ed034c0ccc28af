"""Drift gate: every ``repro_*`` metric family the source names is in
the ``docs/operations.md`` "Metric reference" table, and vice versa."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# A family reaches the registry as a string literal; prose mentions in
# docstrings are double-backticked and do not match.
SOURCE_LITERAL = re.compile(r"""["'](repro_[a-z0-9_]+)["']""")
DOC_NAME = re.compile(r"`(repro_[a-z0-9_]+)`")


def _source_families() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in SOURCE_LITERAL.findall(path.read_text())
    }


def _documented_families() -> set[str]:
    text = (ROOT / "docs" / "operations.md").read_text()
    section = text.split("## Metric reference", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `repro_")]
    # The first cell names the row's families.
    return {name for row in rows for name in DOC_NAME.findall(row.split("|")[1])}


def test_metric_reference_lists_exactly_the_families_in_the_source() -> None:
    source, documented = _source_families(), _documented_families()
    assert source - documented == set(), "families missing from docs/operations.md"
    assert documented - source == set(), "documented families no source emits"
    assert len(source) > 40  # the scan found the tree, not an empty directory
