"""Exporters: Prometheus text snapshots and a periodic JSONL flusher.

Two consumption styles for the same :class:`~repro.obs.registry.
MetricsRegistry`:

* :func:`render_prometheus` — the text exposition format, suitable for
  writing to a file a node-exporter ``textfile`` collector scrapes, or
  for serving verbatim from any HTTP handler (``repro metrics --format
  prometheus`` prints it);
* :class:`TelemetryFlusher` — appends one JSON line per interval with
  the full registry snapshot, hooked into
  :class:`~repro.reliability.supervisor.ResilientIndexer` so a
  long-lived ingest process leaves a machine-readable flight recorder
  beside its WAL.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Callable, Iterator

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["render_prometheus", "render_json", "TelemetryFlusher"]


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels_text(labels: "dict[str, str]",
                 extra: "tuple[str, str] | None" = None) -> str:
    items = sorted(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{key}="{_escape_label(str(value))}"'
                     for key, value in items)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Histograms emit the conventional ``_bucket`` (cumulative, with
    ``le``), ``_sum`` and ``_count`` series.  A disabled registry
    renders to an empty string.
    """
    lines: "list[str]" = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        if family.unit:
            lines.append(f"# UNIT {family.name} {family.unit}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for metric in family.samples():
            if isinstance(metric, Histogram):
                for bound, cumulative in metric.cumulative_buckets():
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_labels_text(metric.labels, ('le', _format_value(bound)))}"
                        f" {cumulative}")
                labels = _labels_text(metric.labels)
                lines.append(f"{family.name}_sum{labels} "
                             f"{_format_value(metric.sum)}")
                lines.append(f"{family.name}_count{labels} {metric.count}")
            else:
                lines.append(f"{family.name}{_labels_text(metric.labels)} "
                             f"{_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(registry: MetricsRegistry, *, indent: "int | None" = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def read_jsonl(path: "str | os.PathLike[str]") -> "Iterator[dict]":
    """Yield the records of a JSONL file: audit and trace sinks, the
    flight recorder, workload fingerprints.  A missing file yields
    nothing; blank and unparsable (torn) lines are skipped."""
    source = Path(path)
    if not source.exists():
        return
    with source.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                continue


#: Supervised ingests per flight-recorder line.
EVERY_TICKS = 512
#: Seconds after which a tick flushes even before :data:`EVERY_TICKS`
#: (``None``: count-triggered only).
MIN_INTERVAL_SECONDS: "float | None" = None


class TelemetryFlusher:
    """Appends periodic registry snapshots to a JSONL flight recorder.

    :meth:`tick` is called once per supervised ingest; every
    :data:`EVERY_TICKS` calls (or whenever :data:`MIN_INTERVAL_SECONDS`,
    if set, has elapsed since the last flush, whichever comes first) one
    JSON line
    ``{"seq": n, "elapsed": t, "metrics": {...}}`` is appended.
    """

    def __init__(self, registry: MetricsRegistry,
                 path: "str | os.PathLike[str]", *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.registry = registry
        self.path = Path(path)
        self.clock = clock
        self.flushes = 0
        self._ticks = 0
        self._handle: "IO[str] | None" = None
        self._started = clock()
        self._last_flush = self._started
        #: Zero-arg callables invoked on every flush — companion sinks
        #: (e.g. the audit log's JSONL buffer) ride the same cadence.
        self.companions: "list[Callable[[], None]]" = []

    def tick(self) -> bool:
        """Count one unit of work; flush when the interval is due."""
        self._ticks += 1
        due = self._ticks >= EVERY_TICKS
        if not due and MIN_INTERVAL_SECONDS is not None:
            due = (self.clock() - self._last_flush
                   >= MIN_INTERVAL_SECONDS)
        if due:
            self.flush()
        return due

    @property
    def ticks_to_flush(self) -> int:
        """Ticks until the next count-triggered flush."""
        return EVERY_TICKS - self._ticks

    def flush(self) -> None:
        """Append one snapshot line unconditionally."""
        now = self.clock()
        record = {
            "seq": self.flushes,
            "elapsed": now - self._started,
            "metrics": self.registry.snapshot(),
        }
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.flushes += 1
        self._ticks = 0
        self._last_flush = now
        for companion in self.companions:
            companion()

    def close(self) -> None:
        """Final flush + close (idempotent)."""
        if self._handle is not None or self.flushes == 0:
            self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
