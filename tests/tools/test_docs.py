"""The documentation tree stays true.

Freshness gates, mirrored in the CI ``docs`` job so drift fails
locally before it fails a pull request:

* ``docs/cli.md`` must match what ``repro.tools.gendocs`` renders from
  the live argparse tree — a CLI change without a regeneration is a
  stale reference;
* ``docs/wire.md`` likewise, rendered from ``repro.net.wire.SCHEMA``;
* every repo-relative link and ``#anchor`` in README.md and
  ``docs/*.md`` must resolve.
"""

from __future__ import annotations

import pathlib
import runpy
import sys

import pytest

from repro.tools import gendocs

REPO = pathlib.Path(__file__).parent.parent.parent
CHECK_LINKS = REPO / ".github" / "scripts" / "check_links.py"


class TestGeneratedCliReference:
    def test_cli_md_is_current(self) -> None:
        on_disk = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
        assert on_disk == gendocs.render(), (
            "docs/cli.md is stale — regenerate with "
            "`python -m repro.tools.gendocs`"
        )

    def test_render_covers_every_subcommand(self) -> None:
        rendered = gendocs.render()
        assert rendered.startswith(gendocs.HEADER)
        import argparse

        from repro.cli import build_parser

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name in subparsers.choices:
            assert f"## `repro {name}`" in rendered, name

    def test_check_mode_passes_on_current_tree(self, capsys) -> None:
        assert gendocs.main(["--check"]) == 0

    def test_check_mode_fails_on_stale_copy(self, tmp_path, capsys) -> None:
        stale = tmp_path / "cli.md"
        stale.write_text(gendocs.HEADER + "\n\nnothing else\n")
        assert gendocs.main(["--check", "--out", str(stale)]) == 1
        assert "stale" in capsys.readouterr().err


class TestGeneratedWireReference:
    def test_wire_md_is_current(self) -> None:
        on_disk = (REPO / "docs" / "wire.md").read_text(encoding="utf-8")
        assert on_disk == gendocs.render_wire(), (
            "docs/wire.md is stale — regenerate with "
            "`python -m repro.tools.gendocs`"
        )

    def test_render_covers_every_kind_and_field_type(self) -> None:
        from repro.net import wire

        rendered = gendocs.render_wire()
        assert rendered.startswith(gendocs.HEADER)
        for kind, (typ, since, fields) in wire.SCHEMA.items():
            row = next(
                line
                for line in rendered.splitlines()
                if line.startswith(f"| `0x{kind:02X}` |")
            )
            assert f"`{typ.__name__}`" in row and f"| {since} |" in row
            for attr, field in fields:
                assert f"`{attr}`: {field.doc}" in row
        glossary = rendered[rendered.index("## Field types") :]
        for name, _ in gendocs._field_types():
            assert f"| {name} |" in glossary

    def test_check_mode_fails_on_stale_wire_md(self, tmp_path, capsys) -> None:
        (tmp_path / "cli.md").write_text(gendocs.render())
        (tmp_path / "wire.md").write_text(gendocs.HEADER + "\n")
        assert gendocs.main(["--check", "--out", str(tmp_path / "cli.md")]) == 1
        err = capsys.readouterr().err
        assert "wire.md is stale" in err and "cli.md is stale" not in err


class TestDocLinks:
    def _run_checker(self, root: pathlib.Path) -> int:
        argv = sys.argv
        sys.argv = [str(CHECK_LINKS), str(root)]
        try:
            runpy.run_path(str(CHECK_LINKS), run_name="__main__")
        except SystemExit as exit_:
            return int(exit_.code or 0)
        finally:
            sys.argv = argv
        raise AssertionError("checker did not exit")

    def test_repo_docs_have_no_broken_links(self, capsys) -> None:
        assert self._run_checker(REPO) == 0, capsys.readouterr().err

    def test_checker_catches_breakage(self, tmp_path, capsys) -> None:
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.md").write_text("# Only heading\n")
        (tmp_path / "README.md").write_text(
            "[gone](docs/missing.md) [bad](docs/a.md#nope) "
            "[ok](docs/a.md#only-heading)\n"
        )
        assert self._run_checker(tmp_path) == 1
        err = capsys.readouterr().err
        assert "missing file" in err and "missing anchor" in err
        assert "only-heading" not in err

    def test_every_docs_page_is_linked_from_readme(self) -> None:
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for page in sorted((REPO / "docs").glob("*.md")):
            assert f"docs/{page.name}" in readme, (
                f"docs/{page.name} is orphaned — link it from README.md"
            )


@pytest.mark.parametrize(
    "claim, anchor",
    [
        ("tests/runtime/test_driver_equivalence.py", "driver equivalence"),
        ("tests/obs/test_replay.py", "capture = execution"),
    ],
)
def test_protocol_doc_anchors_exist(claim: str, anchor: str) -> None:
    """protocols.md cites test files as anchors; they must exist."""
    assert (REPO / claim).exists(), f"{anchor} anchor moved: {claim}"
