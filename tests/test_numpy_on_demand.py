"""numpy is imported only by a call that uses it.

:mod:`repro.core.lazy_numpy` is the one place ``src/repro`` imports
numpy, and only when called: by a slab gather above
``SMALL_GATHER_CUTOFF`` (and the vectorised Eq. 1 it feeds) and by the
construction of a :class:`~repro.core.dedup.MinHasher`.

The process checks run in a fresh interpreter whose ``sitecustomize``
puts a recording finder at the head of ``sys.meta_path`` before
anything else is imported.  The finder appends one line per attempt to
import numpy to a log file (optionally failing the attempt, to act out
a machine without numpy).  Forked workers inherit the finder and
spawned ones run the same ``sitecustomize``, so the log covers every
process of a stack.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LOADER = "repro.core.lazy_numpy"

RECORDER = textwrap.dedent('''
    import os
    import sys


    class _NumpyRecorder:
        """Logs (and, when asked, fails) every attempt to import numpy."""

        def find_spec(self, name, path=None, target=None):
            if name == "numpy":
                with open(os.environ["NUMPY_IMPORT_LOG"], "a") as log:
                    log.write(f"{os.getpid()}\\n")
                if os.environ.get("NUMPY_IMPORT_BLOCKED"):
                    raise ModuleNotFoundError("No module named 'numpy'",
                                              name="numpy")
            return None


    sys.meta_path.insert(0, _NumpyRecorder())
''')

#: The dense heavy-hitter stream the layered benchmark's engine_dense,
#: stack_dense and fleet2 workloads share, at a test-sized length.
STREAM = textwrap.dedent('''
    import json
    import sys
    from repro.core.config import IndexerConfig
    from repro.stream.generator import StreamConfig, StreamGenerator

    N = 3072
    stream = StreamGenerator(StreamConfig(
        seed=7, days=(N + 0.5) / 100_000.0, messages_per_day=100_000,
        user_count=max(N // 25, 200),
        events_per_day=240.0)).generate_list()[:N]
    tag = next("#" + sorted(m.hashtags)[0] for m in stream if m.hashtags)
    config = IndexerConfig.partial_index(200)
''')

#: Ingests the stream into a bare engine with every gather above the
#: cutoff and prints which scoring path each placement took.
LARGE_GATHERS = STREAM + textwrap.dedent('''
    from repro.core import postings
    from repro.core.engine import ProvenanceIndexer

    calls = {"vectorised": 0, "scalar": 0}

    def counted(name):
        method = getattr(ProvenanceIndexer, "_select_" + name)
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        setattr(ProvenanceIndexer, "_select_" + name, wrapper)

    counted("vectorised")
    counted("scalar")
    postings.SMALL_GATHER_CUTOFF = 0
    engine = ProvenanceIndexer(config)
    engine.ingest_batch(stream)
    print(json.dumps({"calls": calls,
                      "loaded": "numpy" in sys.modules,
                      "edges": sorted(engine.edge_pairs())}))
''')


def _run(tmp_path: Path, script: str, *,
         blocked: bool = False) -> "tuple[dict, list[int]]":
    """Run ``script`` in a fresh recorded interpreter.

    Returns the JSON object its last output line prints and the pid of
    every process that attempted to import numpy, one entry an attempt.
    """
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(RECORDER)
    log = tmp_path / "numpy-imports.log"
    log.touch()
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(site), str(SRC)]),
               NUMPY_IMPORT_LOG=str(log))
    env.pop("NUMPY_IMPORT_BLOCKED", None)
    if blocked:
        env["NUMPY_IMPORT_BLOCKED"] = "1"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, [int(line) for line in log.read_text().split()]


def _default_edges() -> "list[list[int]]":
    """The stream's edges from an engine left at the shipped cutoff."""
    scope: dict = {}
    exec(STREAM, scope)
    from repro.core.engine import ProvenanceIndexer
    engine = ProvenanceIndexer(scope["config"])
    engine.ingest_batch(scope["stream"])
    return [list(pair) for pair in sorted(engine.edge_pairs())]


class TestNoShippedStackImportsNumpy:

    def test_engine_durable_stack_fleet_and_entry_points(self, tmp_path):
        script = STREAM + textwrap.dedent('''
            import os
            import repro.api
            import repro.cli
            from repro.core.engine import ProvenanceIndexer
            from repro.reliability.supervisor import ResilientIndexer
            from repro.runtime import ShardedRuntime

            hits = {}
            engine = ProvenanceIndexer(config)
            engine.ingest_batch(stream)
            hits["engine"] = len(engine.search(tag))
            engine.close()

            stack = ResilientIndexer.open("stack", config=config)
            stack.ingest_batch(stream)
            hits["stack"] = len(stack.search(tag))
            stack.close()

            with ShardedRuntime("fleet", 2, config=config) as fleet:
                fleet.ingest_stream(stream, batch_size=128)
                hits["fleet"] = len(fleet.search(tag))
                workers = fleet.workers
            print(json.dumps({"hits": hits, "workers": workers,
                              "pid": os.getpid()}))
        ''')
        result, attempts = _run(tmp_path, script)
        assert result["workers"] == 2
        assert all(result["hits"].values()), result["hits"]
        assert attempts == []

    def test_a_guard_loads_numpy_for_its_minhash(self, tmp_path):
        pytest.importorskip("numpy")
        script = textwrap.dedent('''
            import json
            import os
            import sys
            from repro.reliability.guard import IngestGuard

            loaded = ["numpy" in sys.modules]
            IngestGuard()
            loaded.append("numpy" in sys.modules)
            print(json.dumps({"loaded": loaded, "pid": os.getpid()}))
        ''')
        result, attempts = _run(tmp_path, script)
        assert result["loaded"] == [False, True]
        assert attempts == [result["pid"]]

    def test_a_gather_above_the_cutoff_loads_numpy(self, tmp_path):
        pytest.importorskip("numpy")
        result, attempts = _run(tmp_path, LARGE_GATHERS)
        assert result["loaded"]
        assert len(attempts) == 1
        assert result["calls"]["vectorised"] > 0
        assert result["calls"]["scalar"] == 0
        assert result["edges"] == _default_edges()


class TestWithoutNumpy:

    def test_large_gathers_take_the_list_path(self, tmp_path):
        result, attempts = _run(tmp_path, LARGE_GATHERS, blocked=True)
        assert not result["loaded"]
        assert result["calls"]["vectorised"] == 0
        assert result["calls"]["scalar"] > 1
        # One attempt for the whole process, not one per large gather.
        assert len(attempts) == 1
        assert result["edges"] == _default_edges()


# ---------------------------------------------------------------------------
# Static guard
# ---------------------------------------------------------------------------

def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy"
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    if isinstance(node, ast.Call):
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else "")
        return (name in ("import_module", "__import__")
                and bool(node.args)
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).split(".")[0] == "numpy")
    return False


def numpy_imports(src: Path = SRC) -> "list[tuple[str, int, bool]]":
    """``(module, line, at module scope)`` of every numpy import in
    ``src/repro``: import statements and ``import_module("numpy")``
    calls.  Module scope means the import runs when the module loads
    (a class body counts; a function body does not)."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        functions: "list[ast.AST]" = []
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                functions.append(node)
        nested = {id(inner) for function in functions
                  for inner in ast.walk(function) if inner is not function}
        for node in ast.walk(tree):
            if _imports_numpy(node):
                found.append((module, node.lineno, id(node) not in nested))
    return found


def module_scope_numpy_imports(src: Path = SRC) -> "list[str]":
    """``module:line`` of each numpy import that runs at module load."""
    return [f"{module}:{line}"
            for module, line, at_load in numpy_imports(src) if at_load]


class TestStaticGuard:

    def test_no_module_imports_numpy_when_it_loads(self):
        assert module_scope_numpy_imports() == []

    def test_the_loader_is_the_only_importer(self):
        importers = {module for module, _, _ in numpy_imports()}
        assert importers == {LOADER}

    def test_the_guard_sees_every_spelling(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "spellings.py").write_text(textwrap.dedent('''
            import numpy
            import numpy.linalg as la
            from numpy import array
            from importlib import import_module
            np = import_module("numpy")
            try:
                import numpy as _np
            except ImportError:
                _np = None

            class Holder:
                import numpy as np

            def later():
                import numpy
                return importlib.import_module("numpy")
        '''))
        assert len(module_scope_numpy_imports(tmp_path)) == 6
        assert len(numpy_imports(tmp_path)) == 8
