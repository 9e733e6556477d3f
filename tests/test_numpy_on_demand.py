"""Nothing in ``src/repro`` imports numpy.

Every kernel is pure Python — the slab gather, the Eq. 1 argmax and
the ingest guard's near-duplicate join — so no shipped stack loads
numpy, even on a machine that has it.

The process checks run in a fresh interpreter whose ``sitecustomize``
puts a recording finder at the head of ``sys.meta_path`` before
anything else is imported.  The finder appends one line per attempt to
import numpy to a log file.  Forked workers inherit the finder and
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ROOT / "benchmarks" / "layers"

RECORDER = textwrap.dedent('''
    import os
    import sys


    class _NumpyRecorder:
        """Logs every attempt to import numpy."""

        def find_spec(self, name, path=None, target=None):
            if name == "numpy":
                with open(os.environ["NUMPY_IMPORT_LOG"], "a") as log:
                    log.write(f"{os.getpid()}\\n")
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


def _run(tmp_path: Path, script: str) -> "tuple[dict, list[int]]":
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
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, [int(line) for line in log.read_text().split()]


class TestNoShippedStackImportsNumpy:

    def test_engine_durable_stack_fleet_and_entry_points(self, tmp_path):
        script = STREAM + f"sys.path.insert(0, {str(WORKLOADS)!r})\n" + \
            textwrap.dedent('''
            import os
            import repro.api
            import repro.cli
            from repro.core.engine import ProvenanceIndexer
            from repro.reliability.supervisor import ResilientIndexer
            from repro.runtime import ShardedRuntime
            from workloads import hostile_stream

            hits = {}
            engine = ProvenanceIndexer(config)
            engine.ingest_batch(stream)
            hits["engine"] = len(engine.search(tag))
            engine.close()

            stack = ResilientIndexer.open("stack", config=config)
            stack.ingest_batch(stream)
            hits["stack"] = len(stack.search(tag))
            stack.close()

            guarded = ResilientIndexer.open("guarded", config=config,
                                            guard=True)
            guarded.ingest_batch(hostile_stream(7, N // 4))
            hits["folded"] = guarded.guard.stats.folded
            guarded.close()

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

    def test_a_guard_never_imports_numpy(self, tmp_path):
        script = textwrap.dedent('''
            import json
            import sys
            from repro.core.message import parse_message
            from repro.reliability.guard import IngestGuard

            guard = IngestGuard()
            text = "breaking: tsunami warning for the entire coast now"
            verdicts = []
            for i in range(3):
                for entry in guard.admit(parse_message(
                        i, f"u{i}", 1.0e9 + i, text)):
                    verdicts.append(entry.action.name)
                    guard.note_result(entry.message, 1)
            print(json.dumps({"verdicts": verdicts,
                              "loaded": "numpy" in sys.modules}))
        ''')
        result, attempts = _run(tmp_path, script)
        assert result["verdicts"] == ["PASS", "FOLD", "FOLD"]
        assert not result["loaded"]
        assert attempts == []


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


def numpy_imports(src: Path = SRC) -> "list[tuple[str, int]]":
    """``(module, line)`` of every numpy import in ``src/repro``, at any
    scope: import statements and ``import_module("numpy")`` calls."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend((module, node.lineno) for node in ast.walk(tree)
                     if _imports_numpy(node))
    return found


class TestStaticGuard:

    def test_no_module_imports_numpy(self):
        assert numpy_imports() == []

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
        assert len(numpy_imports(tmp_path)) == 8
