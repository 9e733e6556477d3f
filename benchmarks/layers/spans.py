"""Timing spans around the public functions at each layer boundary.

The traced run patches the names below from here — nothing under
``src/`` knows it is being measured.  A span is kept in memory as one
aggregate per ``(batch, root, op, parent)`` with ``calls``, ``busy_s``
(inclusive), ``self_s`` (busy minus the part child spans cover) and an
optional work ``count`` taken from the call's result.  Because every
child's time is subtracted from exactly one parent, the self times
under a root span sum to that root's wall time by construction; the
driver still checks it.

Targets are resolved when the tracer is installed.  A name that no
longer exists is reported, not fatal: later changes may delete a layer,
and the benchmark must still run to show what that did.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``(module, attribute path, span name, count-from-result)``.  The
#: module is the one whose *caller* resolves the name: the engine calls
#: its own module-level ``bundle_match_scores`` binding, so that is the
#: one patched.
TARGETS: tuple[tuple[str, str, str, "Callable[[Any], int] | None"], ...] = (
    ("repro.core.engine", "ProvenanceIndexer.ingest_batch",
     "core.engine.ingest_batch", None),
    ("repro.text.analyzer", "Analyzer.keywords",
     "text.analyzer.keywords", None),
    # Not public, but the only seam around Eq. 1 scoring that does not
    # fire once per candidate: its self time is scoring + selection by
    # whichever kernel (scalar or numpy) the gather size chose.
    ("repro.core.engine", "ProvenanceIndexer._select_bundle",
     "core.engine.select_bundle", None),
    ("repro.core.summary_index", "SummaryIndex.gather_candidates",
     "core.summary_index.gather_candidates", len),
    ("repro.core.summary_index", "SummaryIndex.add_message",
     "core.summary_index.add_message", None),
    ("repro.core.summary_index", "SummaryIndex.remove_bundle",
     "core.summary_index.remove_bundle", None),
    ("repro.core.engine", "bundle_match_scores",
     "core.scoring.bundle_match_scores", None),
    ("repro.core.bundle", "Bundle.insert", "core.bundle.insert", None),
    ("repro.core.pool", "BundlePool.refine", "core.pool.refine",
     lambda report: report.removed),
    ("repro.core.pool", "BundlePool.approximate_memory_bytes",
     "core.pool.approximate_memory_bytes", None),
    ("repro.core.dedup", "DuplicateDetector.check_and_add",
     "core.dedup.check_and_add", None),
    ("repro.storage.wal", "MessageJournal.append",
     "storage.wal.append", None),
    ("repro.storage.wal", "MessageJournal.sync", "storage.wal.sync", None),
    ("repro.storage.snapshot", "save_snapshot",
     "storage.snapshot.save", None),
    ("repro.storage.bundle_store", "BundleStore.append",
     "storage.bundle_store.append", None),
    ("repro.reliability.guard", "IngestGuard.admit",
     "reliability.guard.admit", None),
    ("repro.reliability.guard", "IngestGuard.note_result",
     "reliability.guard.note_result", None),
    ("repro.reliability.overload", "OverloadController.offer",
     "reliability.overload.offer", None),
    ("repro.reliability.overload", "OverloadController.apply_mode",
     "reliability.overload.apply_mode", None),
    ("repro.reliability.overload", "OverloadController.note_ingest",
     "reliability.overload.note_ingest", None),
    ("repro.reliability.supervisor", "ResilientIndexer.ingest",
     "reliability.supervisor.ingest", None),
    ("repro.query.bundle_search", "BundleSearchEngine.search",
     "query.bundle_search.search", len),
)

_MARK = "__bench_span__"
#: Positions in a span record.
CALLS, BUSY, SELF, COUNT = range(4)


class Tracer:
    """Aggregates spans; the driver sets :attr:`batch` per timed call."""

    def __init__(self) -> None:
        #: Index of the timed call in progress; -1 outside the timed loop.
        self.batch = -1
        self._stack: list[list[Any]] = []
        #: ``(batch, root, op, parent) -> [calls, busy_s, self_s, count]``
        self.records: dict[tuple[int, str, str, str], list[Any]] = {}

    def wrap(self, op: str, fn: Callable[..., Any],
             count: "Callable[[Any], int] | None" = None,
             ) -> Callable[..., Any]:
        stack = self._stack
        records = self.records
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][0] if stack else ""
            frame = [op, 0.0]
            stack.append(frame)
            counted = 0
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counted = count(result)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (self.batch, stack[0][0] if stack else op, op, parent)
                record = records.get(key)
                if record is None:
                    records[key] = [1, elapsed, elapsed - frame[1], counted]
                else:
                    record[CALLS] += 1
                    record[BUSY] += elapsed
                    record[SELF] += elapsed - frame[1]
                    record[COUNT] += counted

        setattr(traced, _MARK, op)
        return traced

    def attribute(self, batch: int, root: str, op: str, seconds: float,
                  calls: int) -> None:
        """Book ``seconds`` of a root span's self time to a child ``op``.

        For time the program measured itself (the coordinator's
        ``RuntimeStats`` clocks) inside a span recorded here.
        """
        self.records[(batch, root, root, "")][SELF] -= seconds
        record = self.records.setdefault((batch, root, op, root),
                                         [0, 0.0, 0.0, 0])
        record[CALLS] += calls
        record[BUSY] += seconds
        record[SELF] += seconds

    # -- reading -----------------------------------------------------------

    def total(self, op: str, field: int, *,
              roots: tuple[str, ...]) -> float:
        """Sum one field (:data:`CALLS` ... :data:`COUNT`) of ``op``
        over the spans under the given root spans."""
        return sum(record[field]
                   for (_, root, name, _), record in self.records.items()
                   if name == op and root in roots)

    def self_by_op(self, roots: tuple[str, ...]) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, root, op, _), record in self.records.items():
            if root in roots:
                out[op] = out.get(op, 0.0) + record[SELF]
        return out

    def rows(self) -> list[dict[str, Any]]:
        return [{"batch": batch, "root": root, "op": op, "parent": parent,
                 "calls": calls, "busy_s": busy, "self_s": self_s,
                 "count": count}
                for (batch, root, op, parent), (calls, busy, self_s, count)
                in sorted(self.records.items())]


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


#: ``(owner, attribute, original)`` of every patch currently applied.
_patched: list[tuple[Any, str, Any]] = []


def _restore() -> None:
    while _patched:
        owner, attr, original = _patched.pop()
        setattr(owner, attr, original)


# A forked fleet worker must run the program as shipped: its spans could
# never be read back, and their cost would pass for worker service time.
os.register_at_fork(after_in_child=_restore)


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Patch every resolvable target; yields the span names not found."""
    missing: list[str] = []
    try:
        for module_name, path, op, count in TARGETS:
            try:
                owner, attr = _resolve(module_name, path)
            except (ImportError, AttributeError):
                print(f"spans: {module_name}:{path} not found; "
                      f"{op} reads 0", file=sys.stderr)
                missing.append(op)
                continue
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(op, original, count))
            _patched.append((owner, attr, original))
        yield missing
    finally:
        _restore()


def still_installed() -> list[str]:
    """Span names whose target is currently wrapped (must be empty
    outside :func:`installed`)."""
    found = []
    for module_name, path, op, _ in TARGETS:
        try:
            owner, attr = _resolve(module_name, path)
        except (ImportError, AttributeError):
            continue
        if hasattr(owner.__dict__[attr], _MARK):
            found.append(op)
    return found
