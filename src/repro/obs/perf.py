"""Continuous profiling: a signal-free background stack sampler.

The roadmap's next arc is a ≥10x hot-path rearchitecture, and the
prerequisite is knowing *where the time goes* — per stage, per
function, continuously, in production, without perturbing the workload
being measured.  This module provides that substrate:

* :class:`StageCell` — a one-slot mailbox the engine writes the name of
  the currently executing pipeline stage into (two attribute writes per
  stage, nothing else on the hot path).
* :class:`StackSampler` — a daemon thread that wakes ``hz`` times per
  second, reads the target thread's current Python stack via
  :func:`sys._current_frames` (no signals, no tracing hooks, no
  interpreter slowdown between samples), and attributes the sample to
  whatever stage the cell names at that instant.  It accumulates

  - collapsed call stacks (``outer;inner;leaf count`` — the flamegraph
    interchange format of Brendan Gregg's ``flamegraph.pl`` and every
    viewer since), and
  - per-stage CPU sample and allocated-block-delta tallies, which
    :meth:`StackSampler.stage_table` ranks for ``repro profile``.

  Allocation attribution uses :func:`sys.getallocatedblocks` deltas
  between consecutive samples billed to the stage active at the later
  sample — coarse, but free, and enough to rank stages by allocation
  pressure (the slab-allocator work needs exactly that ranking).

* :func:`render_trace_timeline` — the ``repro trace`` renderer turning
  one stitched fleet trace (see :mod:`repro.obs.tracing` and the
  runtime's hop spans) into an aligned end-to-end text timeline.

Sampling is wall-clock driven and therefore *not* seeded-deterministic
(two runs sample different instants); everything derived from it is
advisory.  The deterministic signals stay in the registry histograms.
Overhead is pinned <5% by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter as _TallyCounter
from pathlib import Path
from types import FrameType
from typing import Mapping

from repro.core.errors import ConfigurationError

__all__ = [
    "StackSampler",
    "StageCell",
    "render_trace_timeline",
]

#: Stage name billed when the cell is empty (between messages, waiting
#: on the RPC pipe, draining the WAL, ...).
IDLE_STAGE = "idle"

#: Frames from these module stems are the sampler's own machinery and
#: are trimmed from the top of collected stacks.
_SELF_STEMS = frozenset({"perf", "threading"})


class StageCell:
    """One-slot mailbox naming the pipeline stage under execution.

    The engine (and the supervisor's guard screen) write ``cell.stage``
    on stage entry and clear it afterwards; the sampler thread reads it
    when a sample fires.  A plain attribute write is atomic under the
    GIL, so no locking is needed on the hot path.
    """

    __slots__ = ("stage",)

    def __init__(self) -> None:
        self.stage: str = ""

    def set(self, stage: str) -> None:
        self.stage = stage

    def clear(self) -> None:
        self.stage = ""


#: Cardinality cap on distinct collapsed stacks a sampler keeps.
MAX_STACKS = 10_000


class StackSampler:
    """Background sampling profiler for one target thread.

    Parameters
    ----------
    hz:
        Samples per second (1..1000).  97 by default — a prime, so the
        sampling clock cannot phase-lock with millisecond-periodic work
        and systematically miss (or always hit) the same stage.
    cell:
        Optional :class:`StageCell` for stage attribution; samples fall
        into ``"idle"`` when the cell is empty or absent.

    At most :data:`MAX_STACKS` distinct collapsed stacks are kept;
    beyond that, new shapes collapse into a shared ``(truncated)``
    bucket.

    The sampler profiles the thread that calls :meth:`start` (or an
    explicit ``thread_ident``).  ``with StackSampler(...) as s:`` wraps
    start/stop.
    """

    def __init__(self, *, hz: int = 97,
                 cell: "StageCell | None" = None) -> None:
        if not 1 <= hz <= 1000:
            raise ConfigurationError(f"hz must be in [1, 1000], got {hz}")
        self.hz = hz
        self.cell = cell
        self.stacks: "_TallyCounter[tuple[str, ...]]" = _TallyCounter()
        self.stage_samples: "_TallyCounter[str]" = _TallyCounter()
        self.stage_alloc_blocks: "_TallyCounter[str]" = _TallyCounter()
        self.samples = 0
        self.dropped_stacks = 0
        self._ident: "int | None" = None
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._last_blocks: "int | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, thread_ident: "int | None" = None) -> "StackSampler":
        """Begin sampling ``thread_ident`` (default: the caller)."""
        if self._thread is not None:
            raise ConfigurationError("sampler already started")
        self._ident = (thread_ident if thread_ident is not None
                       else threading.get_ident())
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread (idempotent, joins briefly)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling loop (runs on the profiler thread)
    # ------------------------------------------------------------------

    def _run(self) -> None:
        period = 1.0 / self.hz
        wait = self._stop.wait
        next_at = time.monotonic() + period
        while not wait(max(0.0, next_at - time.monotonic())):
            next_at += period
            self._sample_once()
            if next_at < time.monotonic() - period:
                # Fell behind (GIL contention, suspend): skip the
                # missed ticks instead of bursting to catch up.
                next_at = time.monotonic() + period

    def _sample_once(self) -> None:
        assert self._ident is not None
        frame = sys._current_frames().get(self._ident)
        if frame is None:
            return
        stage = (self.cell.stage if self.cell is not None else "") or IDLE_STAGE
        stack = self._collect(frame)
        self.samples += 1
        self.stage_samples[stage] += 1
        if stack:
            if (len(self.stacks) >= MAX_STACKS
                    and stack not in self.stacks):
                self.dropped_stacks += 1
                self.stacks[("(truncated)",)] += 1
            else:
                self.stacks[stack] += 1
        blocks = sys.getallocatedblocks()
        if self._last_blocks is not None:
            delta = blocks - self._last_blocks
            if delta > 0:
                self.stage_alloc_blocks[stage] += delta
        self._last_blocks = blocks

    @staticmethod
    def _collect(frame: "FrameType | None") -> "tuple[str, ...]":
        """Root-first ``module.function`` frames of one stack."""
        names: "list[str]" = []
        while frame is not None:
            code = frame.f_code
            stem = Path(code.co_filename).stem
            names.append(f"{stem}.{code.co_name}")
            frame = frame.f_back
        # Walked leaf→root; collapsed format wants root-first.
        names.reverse()
        # Trim trailing sampler/threading frames if the target happened
        # to be inside telemetry machinery at the sample instant.
        while names and names[-1].split(".", 1)[0] in _SELF_STEMS:
            names.pop()
        return tuple(names)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def collapsed(self) -> "list[str]":
        """Collapsed-stack lines (``root;..;leaf count``), stable order."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in self.stacks.items() if stack
        ]
        lines.sort()
        return lines

    def write_collapsed(self, path: "str | os.PathLike[str]") -> Path:
        """Write the collapsed stacks to ``path`` (flamegraph input)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.collapsed()) + "\n",
                          encoding="utf-8")
        return target

    def stage_table(self) -> "list[tuple[str, int, float, int]]":
        """``(stage, samples, share, alloc_blocks)`` rows, hottest first."""
        total = sum(self.stage_samples.values()) or 1
        rows = [
            (stage, count, count / total,
             self.stage_alloc_blocks.get(stage, 0))
            for stage, count in self.stage_samples.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows


# ----------------------------------------------------------------------
# Trace timeline rendering (the `repro trace` CLI)
# ----------------------------------------------------------------------

#: Spans with this tag are fleet hops (coordinator/worker boundaries)
#: whose durations partition the end-to-end latency; anything else is a
#: detail span nested inside the ``service`` hop.
HOP_KIND = "hop"

_BAR_WIDTH = 40


def render_trace_timeline(trace: "Mapping[str, object]",
                          *, width: int = _BAR_WIDTH) -> str:
    """Render one trace dict as an aligned end-to-end text timeline.

    Hop spans (``tags.kind == "hop"``) are drawn as bar segments over a
    shared time axis scaled to the trace duration; engine stage spans
    ride below their owning hop, indented.  Works on both fleet traces
    (from ``serve --trace-out``) and single-process engine traces
    (which have no hops — every span renders at top level).
    """
    spans = list(trace.get("spans") or [])  # type: ignore[arg-type]
    duration = float(trace.get("duration") or 0.0)
    if duration <= 0.0:
        duration = max(
            (float(s.get("start", 0.0)) + float(s.get("duration", 0.0))
             for s in spans), default=0.0)
    tags = dict(trace.get("tags") or {})  # type: ignore[arg-type]
    header_bits = [f"trace {trace.get('trace_id')}",
                   f"{duration * 1e3:.3f} ms"]
    for key in ("outcome", "shard", "bundle_id"):
        if key in tags:
            header_bits.append(f"{key}={tags[key]}")
    if tags.get("dead"):
        header_bits.append("DEAD-HOP")
    lines = ["  ".join(str(bit) for bit in header_bits)]
    hops = [s for s in spans
            if (s.get("tags") or {}).get("kind") == HOP_KIND]
    details = [s for s in spans
               if (s.get("tags") or {}).get("kind") != HOP_KIND]
    name_width = max((len(str(s.get("name", ""))) + (0 if s in hops else 2)
                      for s in spans), default=10)
    name_width = max(name_width, 10)

    def line(span: "Mapping[str, object]", indent: str = "") -> str:
        start = float(span.get("start", 0.0))
        length = float(span.get("duration", 0.0))
        if duration > 0:
            left = int(round(start / duration * width))
            fill = max(1, int(round(length / duration * width)))
        else:
            left, fill = 0, 1
        left = min(left, width - 1)
        fill = min(fill, width - left)
        bar = " " * left + "█" * fill + " " * (width - left - fill)
        name = indent + str(span.get("name", "?"))
        span_tags = dict(span.get("tags") or {})  # type: ignore[arg-type]
        extras = [f"{k}={v}" for k, v in sorted(span_tags.items())
                  if k != "kind" and not isinstance(v, float)]
        suffix = ("  " + " ".join(extras)) if extras else ""
        return (f"  {name:<{name_width}} |{bar}| "
                f"{length * 1e3:9.3f} ms{suffix}")

    if hops:
        for hop in hops:
            lines.append(line(hop))
            if str(hop.get("name")) == "service":
                for detail in details:
                    lines.append(line(detail, indent="  "))
    else:
        for span in spans:
            lines.append(line(span))
    return "\n".join(lines)
