"""Every exported metric family is catalogued and has a reader.

The emitted set is the union of the family names of two registries:

* a fully lit single-process stack — the shape ``repro top`` /
  ``metrics`` / ``explain`` / ``profile`` replay through (guard,
  admission, tracer, audit, anatomy, quality), plus a stack sampler and
  one Eq. 7 search;
* a two-worker :class:`~repro.runtime.ShardedRuntime` (fleet tracing,
  profiling, anatomy) pulled through
  :func:`~repro.runtime.merge_worker_dumps`.

That set must equal the names in the tables of ``docs/observability.md``
§ Metric catalog, and every name must be read by something an operator
or a gate runs: a literal in the dashboard or the fleet telemetry
module, a ``.value(`` / ``.find(`` read elsewhere in ``src/``, or a
mention in the runbook (``docs/operations.md``), a benchmark or the CI
workflow.  Tests, DESIGN.md and the catalog's own prose are not
readers: a series nobody reads is deleted, not documented.

``python -c "from tests.obs.test_metric_catalog import emitted_families;
print(len(emitted_families()))"`` prints the emitted count (CI's
tracked indicator).
"""

from __future__ import annotations

import argparse
import functools
import re
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: Files whose quoted metric names are panel or fleet-merge reads.
_LITERAL_READERS = (SRC / "obs" / "dashboard.py",
                    SRC / "runtime" / "telemetry.py")

_NAME = re.compile(r"repro_[a-z0-9_]+")


def _lit_stack_names(root: Path) -> "set[str]":
    """Families of the instrumented surge replay, sampled and searched."""
    from repro.cli import _generate, _replay, _telemetry_stack
    from repro.obs import AuditLog, StackSampler, StageCell
    from repro.query.bundle_search import BundleSearchEngine

    args = argparse.Namespace(sample=0.5, seed=11, surge=4.0,
                              audit_out=None)
    messages = _generate(args.seed, 400)
    supervisor, _, schedule = _telemetry_stack(args, root, messages,
                                               audit=AuditLog())
    engine = supervisor.indexer
    cell = StageCell()
    engine.obs.profile = cell
    with supervisor, StackSampler(hz=200, cell=cell):
        _replay(supervisor, schedule, messages)
        BundleSearchEngine(engine).search("report", k=5)
        engine.obs.anatomy.publish()
        engine.obs.anatomy.account(engine, supervisor.guard)
        dump = engine.obs.registry.dump()
    return {family["name"] for family in dump["families"]}


def _fleet_names(root: Path) -> "set[str]":
    """Families of a merged two-worker fleet with every option lit."""
    from repro.cli import _generate
    from repro.runtime import ShardedRuntime, merge_worker_dumps

    with ShardedRuntime(root / "fleet", 2, trace_sample=0.5,
                        trace_sink=root / "fleet_trace.jsonl",
                        profile_dir=root / "profiles",
                        anatomy=True) as runtime:
        runtime.ingest_stream(_generate(13, 300), batch_size=50)
        runtime.search("report", k=5)
        registry = merge_worker_dumps(runtime.telemetry_dumps())
    return {family.name for family in registry.families()}


@functools.lru_cache(maxsize=1)
def emitted_families() -> "frozenset[str]":
    """Every family name the lit stack and the lit fleet export."""
    with tempfile.TemporaryDirectory(prefix="repro-catalog-") as scratch:
        root = Path(scratch)
        (root / "stack").mkdir()
        return frozenset(_lit_stack_names(root / "stack")
                         | _fleet_names(root))


def catalog_names() -> "set[str]":
    """Metric names in the tables under ``## Metric catalog``."""
    text = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    section = text.split("\n## Metric catalog\n", 1)[1].split("\n## ", 1)[0]
    names: "set[str]" = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            names.update(_NAME.findall(first_cell))
    return names


@functools.lru_cache(maxsize=1)
def _reader_texts() -> "tuple[tuple[str, str, str], ...]":
    """``(path, kind, text)`` of every file that may read a metric."""
    texts = []
    for path in sorted(SRC.rglob("*.py")):
        kind = "literal" if path in _LITERAL_READERS else "read"
        texts.append((str(path.relative_to(REPO)), kind,
                      path.read_text(encoding="utf-8")))
    mentions = [REPO / "docs" / "operations.md",
                REPO / ".github" / "workflows" / "ci.yml"]
    mentions += sorted(path for path in (REPO / "benchmarks").rglob("*")
                       if path.suffix in (".py", ".md")
                       and "results" not in path.parts)
    for path in mentions:
        texts.append((str(path.relative_to(REPO)), "mention",
                      path.read_text(encoding="utf-8")))
    return tuple(texts)


def readers(name: str) -> "list[str]":
    """Files that read ``name``, by the rules in the module docstring."""
    quoted = re.compile(r"""["']""" + re.escape(name) + r"""["']""")
    call = re.compile(r"\.(?:value|find)\(\s*[\"']" + re.escape(name)
                      + r"[\"']")
    word = re.compile(r"\b" + re.escape(name) + r"\b")
    found = []
    for path, kind, text in _reader_texts():
        pattern = {"literal": quoted, "read": call, "mention": word}[kind]
        if pattern.search(text):
            found.append(path)
    return found


class TestMetricCatalog:
    def test_emitted_families_are_exactly_the_catalog(self):
        emitted, catalogued = emitted_families(), catalog_names()
        assert not emitted - catalogued, (
            f"emitted but not catalogued: {sorted(emitted - catalogued)}")
        assert not catalogued - emitted, (
            f"catalogued but never emitted: {sorted(catalogued - emitted)}")

    def test_every_emitted_family_has_a_reader(self):
        orphans = sorted(name for name in emitted_families()
                         if not readers(name))
        assert not orphans, f"emitted with no reader: {orphans}"
