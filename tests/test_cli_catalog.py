"""Every CLI command has a reader, and every declared flag is read.

The CLI analogue of ``tests/obs/test_metric_catalog.py``.  The test
walks :func:`repro.cli.build_parser` and checks two rules:

1. **Every runnable command has a reader.**  A reader is an invocation
   — ``repro <cmd>`` or ``python -m repro.cli <cmd>``, or a ``run:``
   entry of the CI determinism matrix (the workflow prefixes those with
   ``python -m repro.cli``) — in the CI workflow, a benchmark, an
   example, ``docs/*.md``, ``README.md`` or ``EXPERIMENTS.md``.  Tests,
   DESIGN.md, CHANGES.md and ROADMAP.md are not readers: a command
   nobody runs is deleted, not documented.
2. **Every declared flag is read by its command.**  Each argument's
   ``dest`` appears as ``args.<dest>`` in the command's ``func`` or in
   a ``cli.py`` function the command passes ``args`` to (transitively).
   A ``getattr(args, …)`` read does not count: it reads a flag whether
   or not the command declares it.

``python -c "from tests.test_cli_catalog import parser_counts;
print(parser_counts())"`` prints the parser and option-flag counts
(CI's tracked indicator).
"""

from __future__ import annotations

import argparse
import ast
import functools
import re
from pathlib import Path

from repro import cli

REPO = Path(__file__).resolve().parents[1]
CI = REPO / ".github" / "workflows" / "ci.yml"


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


def _parsers(parser: argparse.ArgumentParser, prefix: "tuple[str, ...]" = ()):
    """``(command path, parser)`` of every parser below ``parser``."""
    for name, sub in _subparsers(parser):
        path = (*prefix, name)
        yield " ".join(path), sub
        yield from _parsers(sub, path)


def commands() -> "list[tuple[str, argparse.ArgumentParser]]":
    """``(command path, parser)`` of every runnable command."""
    return [(path, parser) for path, parser in _parsers(cli.build_parser())
            if parser.get_default("func") is not None]


def parser_counts() -> "dict[str, int]":
    """Sub-parsers below ``repro`` and the option flags they declare
    (``-o/--output`` is one flag; ``--help`` is not counted)."""
    parsers = [parser for _, parser in _parsers(cli.build_parser())]
    return {"parsers": len(parsers),
            "option flags": sum(1 for parser in parsers
                                for action in parser._actions
                                if action.option_strings
                                and not isinstance(action,
                                                   argparse._HelpAction))}


@functools.lru_cache(maxsize=1)
def _reader_texts() -> "tuple[tuple[str, str], ...]":
    """``(path, text)`` of every file whose invocations count."""
    paths = [CI, REPO / "README.md", REPO / "EXPERIMENTS.md"]
    paths += sorted((REPO / "docs").glob("*.md"))
    paths += sorted((REPO / "examples").glob("*.py"))
    paths += sorted(path for path in (REPO / "benchmarks").rglob("*")
                    if path.suffix in (".py", ".md"))
    return tuple((str(path.relative_to(REPO)),
                  path.read_text(encoding="utf-8")) for path in paths)


def readers(command: str) -> "list[str]":
    """Files that invoke ``command``, by rule 1 of the module docstring."""
    words = r"\s+".join(map(re.escape, command.split()))
    invocation = re.compile(
        rf"(?:\brepro|python -m repro\.cli)\s+{words}(?![\w-])")
    matrix = re.compile(rf"^\s*run:\s+{words}(?![\w-])", re.MULTILINE)
    return [path for path, text in _reader_texts()
            if invocation.search(text)
            or (path == str(CI.relative_to(REPO)) and matrix.search(text))]


@functools.lru_cache(maxsize=1)
def _functions() -> "dict[str, ast.FunctionDef]":
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _is_args(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "args"


def args_reads(function: str, seen: "set[str] | None" = None) -> "set[str]":
    """Names read as ``args.<name>`` by ``function`` and every ``cli.py``
    function it passes ``args`` to."""
    seen = set() if seen is None else seen
    if function in seen:
        return set()
    seen.add(function)
    reads: "set[str]" = set()
    for node in ast.walk(_functions()[function]):
        if isinstance(node, ast.Attribute) and _is_args(node.value):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _functions()
              and any(map(_is_args, [*node.args, *(keyword.value for keyword
                                                   in node.keywords)]))):
            reads |= args_reads(node.func.id, seen)
    return reads


def unread_flags() -> "list[str]":
    """``"<command> <dest>"`` for every argument its command never reads."""
    unread = []
    for path, parser in commands():
        reads = args_reads(parser.get_default("func").__name__)
        unread += [f"{path} {action.dest}" for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.dest not in reads]
    return unread


class TestCliCatalog:
    def test_every_command_has_a_reader(self):
        orphans = [path for path, _ in commands() if not readers(path)]
        assert not orphans, f"commands nobody runs: {orphans}"

    def test_every_declared_flag_is_read(self):
        unread = unread_flags()
        assert not unread, f"declared but never read as args.<dest>: {unread}"

    def test_the_walk_reaches_commands_and_helpers(self):
        # Both rules pass vacuously if the walk finds no command or
        # stops at the command's own function.
        assert {"search", "doctor", "top", "anatomy"} <= {
            path for path, _ in commands()}
        # top reads --seed and --sample only through its replay helpers.
        assert {"dataset", "seed", "sample"} <= args_reads("cmd_top")
