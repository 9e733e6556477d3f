"""Span-based tracing of the ingest hot path.

One trace per ingested message, walking the pipeline of Algorithm 1:

* ``candidate_selection`` — summary-index fetch + Eq. 1 scoring, tagged
  with the candidate fan-in (bundles hit by at least one posting) and
  how many of them were fully scored;
* ``placement`` — Algorithm 2 inside the chosen bundle, tagged with
  whether a provenance edge was created (and to which parent);
* ``index_update`` — summary-index registration (+ bundle close);
* ``refinement`` — Algorithm 3, present only when the trigger fired.

The trace root carries the message id, the chosen bundle and the
outcome tag: ``new-bundle`` / ``matched`` from the engine, ``shed`` /
``deferred`` recorded by the supervisor for arrivals the admission
controller refused (those traces have no spans — the message never
reached the pipeline).

Sampling is decided per message by a seeded RNG, so a replayed stream
samples the identical message set run after run (the determinism the
trace tests pin).  Finished traces land in a bounded in-memory ring and,
when a ``sink`` path is given, as one JSON line each — the JSONL schema
is documented in ``docs/observability.md``.

Across the multiprocess runtime the sampling decision is made *once*,
on the coordinator, and shipped to the owning worker as a
:class:`TraceContext` inside the ingest RPC envelope.  The worker's
tracer honors the propagated decision through :meth:`Tracer.force`
without consuming any of its own RNG draws, so fleet tracing never
perturbs the deterministic sampling sequence of either side.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro.core.errors import ConfigurationError

__all__ = ["Span", "Trace", "TraceContext", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """A propagated sampling decision (coordinator → worker).

    Picklable on purpose: the runtime ships one per traced message
    inside the ingest RPC envelope.  ``trace_id`` is the message id (the
    fleet's trace ids are per-message, like the engine's),
    ``parent_span`` names the upstream hop's span id, and ``sampled``
    carries the coordinator's seeded decision — a worker never re-rolls
    it.
    """

    trace_id: int
    parent_span: str = ""
    sampled: bool = True


@dataclass(slots=True)
class Span:
    """One pipeline stage inside a trace."""

    name: str
    start: float        #: seconds since the trace began
    duration: float     #: stage wall-clock seconds
    tags: "dict[str, object]" = field(default_factory=dict)

    def to_dict(self) -> "dict[str, object]":
        return {"name": self.name, "start": self.start,
                "duration": self.duration, "tags": self.tags}


@dataclass(slots=True)
class Trace:
    """The span tree of one message's trip through the pipeline.

    The trace itself is the root span (``duration`` covers the whole
    ingest); ``spans`` are its children in pipeline order.
    """

    trace_id: int
    tags: "dict[str, object]" = field(default_factory=dict)
    spans: "list[Span]" = field(default_factory=list)
    duration: float = 0.0

    def span(self, name: str, start: float, duration: float,
             **tags: object) -> Span:
        """Append one child span; returns it for further tagging."""
        child = Span(name, start, duration, dict(tags))
        self.spans.append(child)
        return child

    @property
    def outcome(self) -> str:
        """The trace's outcome tag (``""`` until finished)."""
        return str(self.tags.get("outcome", ""))

    def to_dict(self) -> "dict[str, object]":
        return {
            "trace_id": self.trace_id,
            "duration": self.duration,
            "tags": self.tags,
            "spans": [span.to_dict() for span in self.spans],
        }


class Tracer:
    """Samples, collects and exports ingest traces.

    Parameters
    ----------
    sample_rate:
        Probability in [0, 1] that a message is traced.  1.0 traces
        everything (and skips the RNG entirely); 0.0 disables tracing
        while keeping the accounting.
    seed:
        Seed of the sampling RNG — the whole point: decisions depend
        only on (seed, arrival order), never on wall time.
    sink:
        Optional JSONL path; every finished trace is appended as one
        JSON line.  Opened lazily, flushed per line.
    keep:
        Size of the in-memory ring of finished traces (the dashboard
        and the tests read it; 0 keeps nothing).
    """

    def __init__(self, *, sample_rate: float = 1.0, seed: int = 0,
                 sink: "str | os.PathLike[str] | None" = None,
                 keep: int = 256) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        if keep < 0:
            raise ConfigurationError(f"keep must be >= 0, got {keep}")
        self.sample_rate = sample_rate
        self.seed = seed
        self.sink_path = Path(sink) if sink is not None else None
        self._handle: "IO[str] | None" = None
        self._rng = random.Random(seed)
        self.finished: "deque[Trace]" = deque(maxlen=keep or 1)
        self._keep = keep
        self.offered = 0
        self.sampled = 0
        self.exported = 0
        #: Propagated decisions awaiting their ``begin`` (trace_id →
        #: TraceContext); empty except between ``force`` and ``begin``.
        self._forced: "dict[int, TraceContext]" = {}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def begin(self, trace_id: int) -> "Trace | None":
        """Sampling decision for one message; a ``Trace`` when sampled.

        Consumes exactly one RNG draw per call when ``0 < rate < 1``,
        which is what makes the decision sequence deterministic under a
        seed regardless of what the traced code does in between.  A
        decision propagated via :meth:`force` takes precedence and never
        touches the RNG.
        """
        if self._forced:
            context = self._forced.pop(trace_id, None)
            if context is not None:
                self.offered += 1
                if not context.sampled:
                    return None
                self.sampled += 1
                trace = Trace(trace_id)
                if context.parent_span:
                    trace.tags["parent_span"] = context.parent_span
                return trace
        self.offered += 1
        if self.sample_rate <= 0.0:
            return None
        if (self.sample_rate < 1.0
                and self._rng.random() >= self.sample_rate):
            return None
        self.sampled += 1
        return Trace(trace_id)

    def force(self, context: TraceContext) -> None:
        """Register a propagated decision for ``context.trace_id``.

        The next :meth:`begin` (or :meth:`event`) for that id honors the
        coordinator's decision instead of rolling the local RNG — the
        fleet makes each sampling decision exactly once, at route time.
        Unclaimed entries are rare (a message shed before reaching the
        engine) and harmless: :meth:`unforce` lets the caller retract.
        """
        self._forced[context.trace_id] = context

    def unforce(self, trace_id: int) -> None:
        """Retract a :meth:`force` whose message never reached ``begin``."""
        self._forced.pop(trace_id, None)

    def finish(self, trace: Trace, *, duration: float = 0.0,
               **tags: object) -> None:
        """Seal a trace: merge tags, ring-buffer it, export it."""
        trace.duration = duration
        trace.tags.update(tags)
        if self._keep:
            self.finished.append(trace)
        if self.sink_path is not None:
            self._write(trace)

    def event(self, trace_id: int, outcome: str, **tags: object) -> None:
        """Record a span-less outcome (``shed`` / ``deferred``).

        Runs through the same sampling decision as :meth:`begin`, so a
        given message is either fully invisible or fully traced.
        """
        trace = self.begin(trace_id)
        if trace is not None:
            self.finish(trace, outcome=outcome, **tags)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _write(self, trace: Trace) -> None:
        if self._handle is None:
            assert self.sink_path is not None
            self.sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.sink_path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(trace.to_dict(),
                                      sort_keys=True) + "\n")
        self._handle.flush()
        self.exported += 1

    def close(self) -> None:
        """Close the JSONL sink (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
