"""Metrics registry: named counters, gauges and streaming histograms.

The evaluation of the paper (Figs. 11-13) is all about *measuring the
maintenance pipeline* — per-stage time cost, pool memory, throughput —
and the degradation ladder of :mod:`repro.reliability.overload` *acts*
on those same signals.  Before this module, each consumer kept its own
ad-hoc copy (``StageTimers`` floats, benchmark-only memory sampling, a
private EWMA inside the ladder).  The registry makes every signal a
named, labelled metric with exactly one producer:

* :class:`Counter` — a monotonically increasing total.  A counter may
  instead be *callback-backed*: its value is computed on read from an
  existing authoritative field (e.g. ``EngineStats.messages_ingested``),
  so exporting it adds **zero** hot-path work and can never disagree
  with the engine's own accounting.
* :class:`Gauge` — a point-in-time value, settable or callback-backed
  (e.g. ``pool.approximate_memory_bytes``).  Callback gauges are *views*:
  reading one re-computes the truth, so the dashboard, ``repro health``
  and the benchmarks all see the identical number.
* :class:`Histogram` — fixed cumulative buckets (Prometheus-style) that
  also answer p50/p95/p99, interpolated inside the bucket holding the
  rank and clamped to the exact min/max.  Bucket counts add, so a
  merged fleet histogram equals one fed every shard's observations.
  The ``sum`` doubles as the stage-time accumulator that used to live
  in ``StageTimers``.

Labels are supported with a per-family cardinality cap: once a family
holds ``max_label_sets`` children, further label sets collapse into one
shared ``overflow="true"`` child (and are counted), so a bug that
interpolates user input into a label cannot eat the heap.

A registry built with ``enabled=False`` hands out shared no-op counter /
histogram singletons whose ``inc``/``observe`` do nothing, keeping the
disabled hot path at the cost of one method call.  Gauges stay real even
when disabled — they are cheap (reads happen at export/decision time,
not per message) and the overload ladder's pressure inputs must keep
working with telemetry off.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Mapping

from repro.core.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "DEFAULT_LATENCY_BUCKETS",
    "COUNT_BUCKETS",
]

#: Log-spaced latency buckets (seconds) covering ~1 µs .. 10 s.  The
#: sub-10 µs decade exists for the vectorized hot path the roadmap
#: targets: a post-10x per-message ingest lands well under a
#: millisecond, and a histogram that bottoms out at 10 µs would lump
#: the entire distribution into its first two buckets.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Power-of-two count buckets for cardinality-shaped distributions —
#: postings-list lengths, per-ingest candidate fan-in, bundle sizes.
#: Lives here (not in ``obs.anatomy``) because the engine's always-on
#: fan-in histograms use it too and the engine must not import anatomy.
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

#: Label set assigned to the shared overflow child of a capped family.
OVERFLOW_LABELS: Mapping[str, str] = {"overflow": "true"}

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: "Mapping[str, str] | None") -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_name(name: str, labels: "Mapping[str, str] | None") -> str:
    """Canonical ``name{k=v,...}`` series identifier (stable ordering)."""
    key = _label_key(labels)
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total, optionally callback-backed."""

    __slots__ = ("name", "labels", "_value", "_callback")

    def __init__(self, name: str, *,
                 labels: "Mapping[str, str] | None" = None,
                 callback: "Callable[[], float] | None" = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._callback = callback

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        """Current total (computed on read when callback-backed)."""
        if self._callback is not None:
            return float(self._callback())
        return self._value


class Gauge:
    """A point-in-time value, settable or a callback-backed view."""

    __slots__ = ("name", "labels", "_value", "_callback")

    def __init__(self, name: str, *,
                 labels: "Mapping[str, str] | None" = None,
                 callback: "Callable[[], float] | None" = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        """Overwrite the gauge (ignored for callback-backed gauges)."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the stored value by ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the stored value by ``-amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value (computed on read when callback-backed)."""
        if self._callback is not None:
            return float(self._callback())
        return self._value


class Histogram:
    """Fixed cumulative buckets; quantiles are read from them.

    ``observe`` is the only hot-path operation: one bisect over the
    bucket bounds, two float adds and two compares.  A bucket holds the
    observations at most its bound and above the previous one, the
    Prometheus ``le`` rule, so a value equal to a bound counts at that
    bound.  Every other
    statistic is derived from the bucket counts and the exact
    ``count``/``sum``/``min``/``max``, so merging two histograms is
    plain addition and loses nothing.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(self, name: str, *,
                 labels: "Mapping[str, str] | None" = None,
                 buckets: "tuple[float, ...] | None" = None) -> None:
        bounds = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram buckets must be sorted, got {bounds}")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def percentile(self, q: float) -> float:
        """Percentile by Prometheus' ``histogram_quantile`` rule.

        ``q`` in [0, 100].  The first non-empty bucket whose cumulative
        count reaches ``q/100 · count`` holds the answer, linearly
        interpolated between its edges; the edges are clamped to the
        exact ``min``/``max``, so ``q=0`` is the minimum, ``q=100`` the
        maximum and a single observation every percentile.  Returns 0.0
        before the first observation.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        edges = (float("-inf"), *self.bounds, float("inf"))
        running = 0
        for index, bucket in enumerate(self.bucket_counts):
            if not bucket:
                continue
            if running + bucket >= rank:
                low = max(edges[index], self.min)
                high = min(edges[index + 1], self.max)
                fraction = (rank - running) / bucket
                if fraction >= 1.0:
                    return high
                return min(high, low + (high - low) * fraction)
            running += bucket
        return self.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> "list[tuple[float, int]]":
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def stats(self) -> "dict[str, float]":
        """Summary dict for snapshots / the dashboard."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def dump_state(self) -> "dict[str, object]":
        """Full JSON-able internal state (buckets included).

        Unlike :meth:`stats` this loses nothing: another process can
        rebuild an equivalent histogram from it with
        :meth:`merge_state`.  This is how :mod:`repro.runtime` workers
        ship their latency histograms to the coordinator's fleet view.
        """
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_state(self, state: "Mapping[str, object]") -> None:
        """Fold a :meth:`dump_state` payload into this histogram.

        Bucket-wise addition of the counts plus count, sum, min and
        max, so the result equals one histogram fed both streams.  The
        bucket bounds must match exactly (every dump comes from the same
        code); anything else raises.
        """
        bounds = tuple(state["bounds"])  # type: ignore[arg-type]
        if bounds != self.bounds:
            raise ConfigurationError(
                f"histogram {self.name}: cannot merge mismatched "
                f"buckets {bounds} into {self.bounds}")
        for index, bucket in enumerate(state["bucket_counts"]):  # type: ignore[arg-type]
            self.bucket_counts[index] += int(bucket)
        self.count += int(state["count"])  # type: ignore[call-overload]
        self.sum += float(state["sum"])  # type: ignore[arg-type]
        low, high = state.get("min"), state.get("max")
        if low is not None:
            self.min = min(self.min, float(low))  # type: ignore[arg-type]
        if high is not None:
            self.max = max(self.max, float(high))  # type: ignore[arg-type]


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass


class _NullHistogram(Histogram):
    """Shared do-nothing histogram handed out by a disabled registry."""

    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass


NULL_COUNTER = _NullCounter("null")
NULL_HISTOGRAM = _NullHistogram("null", buckets=(1.0,))


class MetricFamily:
    """All children of one metric name (same kind, varying labels)."""

    __slots__ = ("name", "kind", "help", "unit", "children", "overflow")

    def __init__(self, name: str, kind: str, help_text: str,
                 unit: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.unit = unit
        self.children: "dict[_LabelKey, Counter | Gauge | Histogram]" = {}
        self.overflow: "Counter | Gauge | Histogram | None" = None

    def samples(self) -> "Iterator[Counter | Gauge | Histogram]":
        """Children in stable label order, overflow last."""
        for key in sorted(self.children):
            yield self.children[key]
        if self.overflow is not None:
            yield self.overflow


class MetricsRegistry:
    """Get-or-create factory and catalog for every telemetry signal.

    Parameters
    ----------
    enabled:
        ``False`` hands out shared no-op counters/histograms, so an
        uninstrumented run pays one dynamic call per would-be sample and
        nothing else.  Gauges stay live regardless (see module docs).
    max_label_sets:
        Per-family cardinality cap; label sets beyond it collapse into
        one shared ``overflow="true"`` child and bump
        :attr:`dropped_label_sets`.
    """

    def __init__(self, *, enabled: bool = True,
                 max_label_sets: int = 64) -> None:
        if max_label_sets < 1:
            raise ConfigurationError(
                f"max_label_sets must be >= 1, got {max_label_sets}")
        self.enabled = enabled
        self.max_label_sets = max_label_sets
        self._families: "dict[str, MetricFamily]" = {}
        self.dropped_label_sets = 0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def counter(self, name: str, *, help: str = "", unit: str = "",
                labels: "Mapping[str, str] | None" = None,
                callback: "Callable[[], float] | None" = None) -> Counter:
        """Get or create a counter (callback-backed when given one)."""
        if not self.enabled:
            return NULL_COUNTER
        return self._child(
            "counter", name, help, unit, labels,
            lambda lbl: Counter(name, labels=lbl, callback=callback),
            callback)

    def gauge(self, name: str, *, help: str = "", unit: str = "",
              labels: "Mapping[str, str] | None" = None,
              callback: "Callable[[], float] | None" = None) -> Gauge:
        """Get or create a gauge.  Live even on a disabled registry."""
        return self._child(
            "gauge", name, help, unit, labels,
            lambda lbl: Gauge(name, labels=lbl, callback=callback),
            callback)

    def histogram(self, name: str, *, help: str = "", unit: str = "",
                  labels: "Mapping[str, str] | None" = None,
                  buckets: "tuple[float, ...] | None" = None,
                  ) -> Histogram:
        """Get or create a streaming histogram."""
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._child(
            "histogram", name, help, unit, labels,
            lambda lbl: Histogram(name, labels=lbl, buckets=buckets),
            None)

    def _child(self, kind, name, help_text, unit, labels, factory,
               callback):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(
                name, kind, help_text, unit)
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}")
        key = _label_key(labels)
        child = family.children.get(key)
        if child is not None:
            if callback is not None:
                # Re-registration refreshes the view (e.g. an engine
                # recovered from a snapshot re-binds its pool gauge).
                child._callback = callback
            return child
        if len(family.children) >= self.max_label_sets:
            self.dropped_label_sets += 1
            if family.overflow is None:
                family.overflow = factory(dict(OVERFLOW_LABELS))
            return family.overflow
        child = family.children[key] = factory(labels)
        return child

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def families(self) -> "list[MetricFamily]":
        """Families in name order (empty for a disabled registry)."""
        if not self.enabled:
            return []
        return [self._families[name] for name in sorted(self._families)]

    def find(self, name: str,
             labels: "Mapping[str, str] | None" = None,
             ) -> "Counter | Gauge | Histogram | None":
        """Look up one existing series without creating it."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def value(self, name: str,
              labels: "Mapping[str, str] | None" = None,
              default: float = 0.0) -> float:
        """Value of one counter/gauge series, or ``default`` if absent."""
        metric = self.find(name, labels)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value

    def snapshot(self) -> "dict[str, dict[str, object]]":
        """JSON-able point-in-time dump of every series.

        Shape: ``{"counters": {series: value}, "gauges": {...},
        "histograms": {series: {count, sum, mean, min, max, p50, p95,
        p99}}}`` with canonical ``name{k=v}`` series keys.
        """
        counters: "dict[str, object]" = {}
        gauges: "dict[str, object]" = {}
        histograms: "dict[str, object]" = {}
        for family in self.families():
            for metric in family.samples():
                key = series_name(family.name, metric.labels)
                if family.kind == "counter":
                    counters[key] = metric.value
                elif family.kind == "gauge":
                    gauges[key] = metric.value
                else:
                    assert isinstance(metric, Histogram)
                    histograms[key] = metric.stats()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    # ------------------------------------------------------------------
    # Cross-process transfer (the runtime's fleet telemetry)
    # ------------------------------------------------------------------

    def dump(self) -> "dict[str, object]":
        """Full-fidelity, picklable dump of every series.

        Where :meth:`snapshot` summarises (histograms lose their
        buckets), this round-trips: :meth:`merge_dump` on another
        registry rebuilds equivalent series.  Callback-backed series are
        materialised to their current values — a dump is a point-in-time
        cut, which is exactly what a :mod:`repro.runtime` worker ships
        to the coordinator.
        """
        families: "list[dict[str, object]]" = []
        for family in self.families():
            children: "list[dict[str, object]]" = []
            for metric in family.samples():
                entry: "dict[str, object]" = {"labels": dict(metric.labels)}
                if isinstance(metric, Histogram):
                    entry["histogram"] = metric.dump_state()
                else:
                    entry["value"] = metric.value
                children.append(entry)
            families.append({
                "name": family.name, "kind": family.kind,
                "help": family.help, "unit": family.unit,
                "children": children,
            })
        return {"families": families}

    def merge_dump(self, dump: "Mapping[str, object]", *,
                   labels: "Mapping[str, str] | None" = None,
                   aggregate: bool = True) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        ``labels`` are added to every merged series (the runtime passes
        ``{"shard": "2"}``), keeping each worker's signals separable in
        the Prometheus export.  With ``aggregate=True`` each value is
        *also* folded into the label-less series of the same family, so
        unlabeled reads — ``registry.value("repro_messages_ingested_total")``
        as the dashboard and ``repro top`` do — see fleet-wide totals.
        Aggregated gauges sum across shards (right for memory/depth
        gauges; read per-shard children for mode-style gauges like the
        overload rung).
        """
        extra = dict(labels) if labels else {}
        for family in dump["families"]:  # type: ignore[union-attr]
            name = str(family["name"])
            kind = str(family["kind"])
            help_text = str(family.get("help", ""))
            unit = str(family.get("unit", ""))
            for child in family["children"]:
                merged = dict(child.get("labels") or {})
                merged.update(extra)
                targets: "list[Mapping[str, str] | None]" = [merged]
                if aggregate:
                    base = dict(child.get("labels") or {})
                    targets.append(base or None)
                for target in targets:
                    if kind == "histogram":
                        state = child["histogram"]
                        hist = self.histogram(
                            name, help=help_text, unit=unit, labels=target,
                            buckets=tuple(state["bounds"]))
                        if not isinstance(hist, _NullHistogram):
                            hist.merge_state(state)
                    elif kind == "counter":
                        counter = self.counter(
                            name, help=help_text, unit=unit, labels=target)
                        counter.inc(float(child["value"]))
                    else:
                        gauge = self.gauge(
                            name, help=help_text, unit=unit, labels=target)
                        gauge.inc(float(child["value"]))
