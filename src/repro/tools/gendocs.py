"""Generate ``docs/cli.md`` and ``docs/wire.md`` from the live code.

Both references are derived, never hand-written.  The CLI reference
walks :func:`repro.cli.build_parser`'s subcommands and emits one
section per command with its usage line, description and an option
table; the wire-format reference walks :data:`repro.net.wire.SCHEMA`
and emits one row per frame kind plus a glossary of the field types
the layouts are written in.  CI runs ``python -m repro.tools.gendocs
--check`` to assert the checked-in files match a fresh render, so the
docs can't drift from the code.

Run::

    PYTHONPATH=src python -m repro.tools.gendocs            # rewrite both
    PYTHONPATH=src python -m repro.tools.gendocs --check    # CI diff gate
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

from repro.cli import build_parser
from repro.net import wire

HEADER = (
    "<!-- Generated by `python -m repro.tools.gendocs`. Do not edit by "
    "hand: CI regenerates this file and fails on any diff. -->"
)

_SKIPPED_DESTS = {"help"}


def _flag_cell(action: argparse.Action) -> str:
    if action.option_strings:
        name = ", ".join(action.option_strings)
        if action.metavar:
            name += f" {action.metavar}"
        elif action.nargs != 0 and not isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            name += f" {action.dest.upper()}"
        return f"`{name}`"
    return f"`{action.metavar or action.dest}`"


def _default_cell(action: argparse.Action) -> str:
    if not action.option_strings:  # positional
        if action.choices:
            return "one of " + ", ".join(f"`{c}`" for c in action.choices)
        return ""
    if isinstance(
        action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
    ):
        return "off" if isinstance(action, argparse._StoreTrueAction) else "on"
    if action.default is None or action.default is argparse.SUPPRESS:
        return ""
    if action.choices:
        return f"`{action.default}` (of " + ", ".join(
            f"`{c}`" for c in action.choices
        ) + ")"
    return f"`{action.default}`"


def _escape(text: str) -> str:
    return " ".join(text.split()).replace("|", "\\|")


def _command_section(name: str, parser: argparse.ArgumentParser) -> list[str]:
    lines = [f"## `repro {name}`", ""]
    if parser.description:
        lines += [_escape(parser.description), ""]
    usage = " ".join(parser.format_usage().split())
    if usage.startswith("usage: "):
        usage = usage[len("usage: "):]
    lines += ["```", usage, "```", ""]
    rows = [
        action
        for action in parser._actions
        if action.dest not in _SKIPPED_DESTS
        and not isinstance(action, argparse._SubParsersAction)
    ]
    if rows:
        lines += ["| option | default | description |", "|---|---|---|"]
        for action in rows:
            lines.append(
                f"| {_flag_cell(action)} | {_default_cell(action)} "
                f"| {_escape(action.help or '')} |"
            )
        lines.append("")
    return lines


def render() -> str:
    parser = build_parser()
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    lines = [
        HEADER,
        "",
        "# CLI reference",
        "",
        _escape(parser.description or ""),
        "",
        "Every command is available as `repro <command>` (installed "
        "console script) or `PYTHONPATH=src python -m repro <command>`.",
        "",
    ]
    seen: set[int] = set()
    for name, command in sub.choices.items():
        if id(command) in seen:  # alias of an already-rendered command
            continue
        seen.add(id(command))
        lines += _command_section(name, command)
    return "\n".join(lines).rstrip() + "\n"


_WIRE_INTRO = """\
# Wire format

Every frame `repro.net.wire` writes or accepts, rendered from its
`SCHEMA` table: the one place a layout is stated.  A frame is

    [u32 length] [b"KG"] [u8 version] [u8 kind] [body]

where `length` counts everything after itself and `body` is the kind's
fields back to back, in the order listed.  Integers are big-endian; a
*uvarint* is unsigned LEB128.  `since` is the codec version that
introduced the kind: the version byte `encode` stamps (3 instead, when
that is higher and a non-modp group shaped the frame) and the lowest
one `decode` accepts for it — the version history is in
[protocols.md](protocols.md#protocol-bearing-wire-codec).  The bytes
themselves are pinned by `tests/net/golden_frames.json`.
"""

_RETIRED_INTRO = """\
Kinds that once had a layout.  `decode` rejects them as unknown kinds,
and no new message may take one; their last golden frames are kept as
hostile inputs in `tests/net/test_wire_golden.py`."""

_COMBINATORS = [
    ("u8 / u16 / u32 / u64 *x*", "fixed-width unsigned int"),
    ("optional *X*", "u8 flag (0 or 1), then *X* if 1"),
    ("required *X*", "as *X*, but decode rejects the absent form"),
    ("list of *X*", "uvarint count, then that many *X*"),
]


def _field_types() -> list[tuple[str, str]]:
    """``(name, layout)`` for every field type SCHEMA reaches that has a
    layout to spell out, in first-use order."""
    seen: dict[str, str] = {}

    def walk(field) -> None:
        if field.detail:
            seen.setdefault(field.doc, field.detail)
        for part in field.inner:
            walk(part)

    for _, _, fields in wire.SCHEMA.values():
        for _, field in fields:
            walk(field)
    return list(seen.items())


def render_wire() -> str:
    lines = [HEADER, "", _WIRE_INTRO]
    lines += ["## Frames", "", "| kind | message | since | body |", "|---|---|---|---|"]
    for kind, (typ, since, fields) in wire.SCHEMA.items():
        body = ", ".join(f"`{attr}`: {field.doc}" for attr, field in fields)
        lines.append(
            f"| `0x{kind:02X}` | `{typ.__name__}` (`{typ.kind}`) | {since} "
            f"| {_escape(body)} |"
        )
    lines += ["", "## Retired kinds", "", _RETIRED_INTRO, ""]
    lines += ["| kinds | since | what they carried |", "|---|---|---|"]
    for first, last, since, what in wire.RETIRED_KINDS:
        lines.append(f"| `0x{first:02X}`–`0x{last:02X}` | {since} | {what} |")
    lines += ["", "## Field types", "", "| field type | layout |", "|---|---|"]
    for name, layout in _COMBINATORS + _field_types():
        lines.append(f"| {name} | {_escape(layout)} |")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[3] / "docs" / "cli.md",
        help="target file for the CLI reference (default: docs/cli.md at "
        "the repo root); wire.md is written beside it",
    )
    cli.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 if a file differs from a fresh render",
    )
    args = cli.parse_args(argv)
    targets = {args.out: render(), args.out.with_name("wire.md"): render_wire()}
    if args.check:
        stale = 0
        for path, rendered in targets.items():
            current = path.read_text() if path.exists() else ""
            if current == rendered:
                print(f"{path} is current")
                continue
            stale = 1
            sys.stderr.writelines(
                difflib.unified_diff(
                    current.splitlines(keepends=True),
                    rendered.splitlines(keepends=True),
                    fromfile=str(path),
                    tofile="freshly generated",
                )
            )
            print(
                f"{path} is stale — regenerate with "
                "`PYTHONPATH=src python -m repro.tools.gendocs`",
                file=sys.stderr,
            )
        return stale
    for path, rendered in targets.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
