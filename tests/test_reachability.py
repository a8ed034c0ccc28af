"""Every module under ``src/repro`` is reached from something that runs.

The roots are what a user or the benchmark executes: the CLI
(``repro.cli``, ``repro.__main__``), the benchmark harness
(``bench/*.py``) and the examples (``examples/*.py``).  The walk is
static — it parses each module's ``import`` statements, including the
lazy ones inside functions, and imports nothing.  A module it cannot
reach is code nothing runs: delete it, or give it a caller.

``repro.tools.gendocs`` is run on its own (``python -m
repro.tools.gendocs``, the docs gate), so it is the one allowlisted
entry.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCH = (ROOT / "src", ROOT)  # repro.* lives under src/, bench.* at the root
ALLOWLIST = {"repro.tools", "repro.tools.gendocs"}


def _path_of(module: str) -> Path | None:
    parts = module.split(".")
    for base in SEARCH:
        package = base.joinpath(*parts, "__init__.py")
        if package.is_file():
            return package
        plain = base.joinpath(*parts[:-1], parts[-1] + ".py")
        if plain.is_file():
            return plain
    return None


def _imports(module: str, path: Path) -> set[str]:
    """Every module an ``import`` in ``path`` names, with its packages."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: anchor at the importing package
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            # ``from pkg import name`` may name a submodule.
            found.update(f"{base}.{alias.name}" for alias in node.names)
    with_parents = set()
    for name in found:
        parts = name.split(".")
        with_parents.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return {name for name in with_parents if _path_of(name) is not None}


def _roots() -> set[str]:
    roots = {"repro.cli", "repro.__main__"}
    roots.update(f"bench.{p.stem}" for p in (ROOT / "bench").glob("[!_]*.py"))
    roots.add("bench.__main__")
    roots.update(f"examples.{p.stem}" for p in (ROOT / "examples").glob("*.py"))
    return roots


def _reached() -> set[str]:
    seen: set[str] = set()
    stack = list(_roots())
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        stack.extend(_imports(module, _path_of(module)) - seen)
    return seen


def _all_repro_modules() -> set[str]:
    src = ROOT / "src"
    modules = set()
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.add(".".join(parts))
    return modules


def test_every_repro_module_is_reached_from_a_root() -> None:
    unreached = _all_repro_modules() - _reached() - ALLOWLIST
    assert unreached == set(), sorted(unreached)
