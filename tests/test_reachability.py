"""Every ``src/repro`` module has a caller outside the tests.

The walk starts at the programs people run — ``repro.cli``, ``repro.api``,
every ``examples/*.py`` and every ``benchmarks/**/*.py`` — and follows
their import statements (those inside functions included) transitively
through ``src/repro``.  ``from pkg import Name`` reaches the module that
defines ``Name``: a package ``__init__`` is read only as a re-export
table (its plain imports and the ``_LAZY`` map of
:mod:`repro.reliability`), so a re-export alone reaches nothing.
Importing a module also runs its packages' ``__init__`` files, so those
count as reached whenever anything below them is.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no program imports that stay anyway, with the reason.
EXEMPT = {
    "repro.core.validation":
        "the invariant oracle seven test files and the crash matrices "
        "check every configuration against",
}


def _module_files() -> "dict[str, Path]":
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


def _source(node: ast.ImportFrom, path: Path) -> str:
    """The module an ``ImportFrom`` names (the code base imports
    absolutely; a relative import would need resolving here)."""
    assert not node.level, f"{path}:{node.lineno}: relative import"
    return node.module or ""


def _exports(package: str) -> "dict[str, str]":
    """Name -> defining module, from a package ``__init__``'s imports
    and its ``_LAZY`` map."""
    path = MODULES[package]
    exports = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            source = _source(node, path)
            for alias in node.names:
                exports[alias.asname or alias.name] = source
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "_LAZY"
                      for t in node.targets)
              and isinstance(node.value, ast.Dict)):
            for key, value in zip(node.value.keys, node.value.values):
                exports[ast.literal_eval(key)] = ast.literal_eval(value)
    return exports


def _resolve(source: str, name: str) -> "str | None":
    """The module ``from source import name`` reaches."""
    submodule = f"{source}.{name}"
    if submodule in MODULES:
        return submodule
    if _is_package(source):
        origin = _exports(source).get(name)
        if origin is not None and origin != source:
            return _resolve(origin, name)
    return source if source in MODULES else None


def _imports(path: Path) -> "set[str]":
    """The ``src/repro`` modules a file's import statements reach."""
    reached = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            reached.update(alias.name for alias in node.names
                           if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, path)
            for alias in node.names:
                module = _resolve(source, alias.name)
                if module is not None:
                    reached.add(module)
    return reached


def reachable() -> "set[str]":
    """Every module the programs reach, with its packages."""
    frontier = {"repro.cli", "repro.api"}
    programs = [*(ROOT / "examples").glob("*.py"),
                *(ROOT / "benchmarks").rglob("*.py")]
    for path in programs:
        frontier |= _imports(path)
    seen: "set[str]" = set()
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        if not _is_package(module):
            frontier |= _imports(MODULES[module]) - seen
    packages = {".".join(module.split(".")[:depth])
                for module in seen
                for depth in range(1, module.count(".") + 1)}
    return seen | packages


def test_every_module_is_reached_from_a_program():
    unreached = sorted(set(MODULES) - reachable() - set(EXEMPT))
    assert not unreached, (
        "src/repro modules no program imports (delete them, or exempt "
        f"one with a reason): {unreached}")


def test_exemptions_are_still_needed():
    assert set(EXEMPT) <= set(MODULES)
    assert not set(EXEMPT) & reachable()
