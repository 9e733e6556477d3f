"""``repro.obs`` — the unified, zero-dependency telemetry layer.

One :class:`Observability` object travels with each
:class:`~repro.core.engine.ProvenanceIndexer` and bundles the four
telemetry facilities:

* a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges
  and streaming histograms — the *single source of truth* for every
  signal the benchmarks plot, ``repro top`` renders, the Prometheus
  exporter exposes and the degradation ladder acts on;
* an optional :class:`~repro.obs.tracing.Tracer` sampling span traces
  of the ingest hot path;
* an optional :class:`~repro.obs.audit.AuditLog` recording the full
  decision narrative of every ingest (Algorithm 1 candidates, the
  Algorithm 2 allocation, Algorithm 3 evictions, admission refusals)
  for ``repro explain`` / ``repro audit``;
* an optional :class:`~repro.obs.quality.QualityMonitor` computing
  streaming accu/ret/F1 against ground truth (Section VI-B, live)
  as ``repro_quality_*`` gauges with threshold-rule alerting;
* an optional :class:`~repro.obs.perf.StageCell` linking the engine to
  the continuous profiler (:mod:`repro.obs.perf`): a background,
  signal-free stack sampler that bills CPU and allocation deltas to
  the pipeline stage executing at each sample.

``Observability.disabled()`` swaps in no-op metrics for pure-throughput
runs; ``benchmarks/bench_obs_overhead.py`` and
``benchmarks/bench_audit_overhead.py`` pin the cost of each tier.
"""

from __future__ import annotations

from repro.obs.anatomy import (MemoryAccountant, SpaceSavingSketch,
                               WorkloadAnatomy, capacity_report,
                               diff_fingerprints)
from repro.obs.audit import (AuditLog, AllocationScore, CandidateScore,
                             DecisionRecord, Explanation, IngestOutcome,
                             RefinementEvent, explain_from_jsonl)
from repro.obs.exporters import (TelemetryFlusher, read_jsonl, render_json,
                                 render_prometheus)
from repro.obs.perf import StackSampler, StageCell, render_trace_timeline
from repro.obs.quality import (DEFAULT_QUALITY_RULES, QualityMonitor,
                               QualityRule)
from repro.obs.registry import (COUNT_BUCKETS, DEFAULT_LATENCY_BUCKETS,
                                Counter, Gauge, Histogram, MetricsRegistry,
                                NULL_COUNTER, NULL_HISTOGRAM)
from repro.obs.tracing import Span, Trace, TraceContext, Tracer

__all__ = [
    "AllocationScore",
    "AuditLog",
    "CandidateScore",
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_QUALITY_RULES",
    "DecisionRecord",
    "Explanation",
    "Gauge",
    "Histogram",
    "IngestOutcome",
    "MemoryAccountant",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "Observability",
    "QualityMonitor",
    "QualityRule",
    "RefinementEvent",
    "Span",
    "SpaceSavingSketch",
    "StackSampler",
    "StageCell",
    "TelemetryFlusher",
    "Trace",
    "TraceContext",
    "Tracer",
    "WorkloadAnatomy",
    "capacity_report",
    "diff_fingerprints",
    "explain_from_jsonl",
    "read_jsonl",
    "render_json",
    "render_prometheus",
    "render_trace_timeline",
]


class Observability:
    """Registry + tracer + audit + quality an engine reports into.

    Parameters
    ----------
    registry:
        An existing registry to share (several engines may report into
        one); a fresh enabled registry is created when omitted.
    tracer:
        ``None`` (the default) disables tracing entirely — the hot path
        then performs a single ``is None`` check per message.
    audit:
        ``None`` (the default) disables decision auditing under the
        same single-``is None``-check contract.
    quality:
        ``None`` (the default) disables streaming quality monitoring;
        may also be attached after construction (the engine reads the
        slot per ingest).
    profile:
        ``None`` (the default) disables stage attribution for the
        continuous profiler; when a :class:`~repro.obs.perf.StageCell`
        is attached the engine publishes the currently executing
        pipeline stage into it (two attribute writes per stage) so the
        background :class:`~repro.obs.perf.StackSampler` can bill each
        stack sample to a stage.
    anatomy:
        ``None`` (the default) disables workload characterization;
        when a :class:`~repro.obs.anatomy.WorkloadAnatomy` is attached
        the engine feeds it each ingested message post-index-update
        (heavy-hitter sketches, postings-shape histograms, workload
        fingerprints) under the same single-``is None``-check contract.
    enabled:
        Convenience for ``registry=MetricsRegistry(enabled=False)``;
        ignored when an explicit registry is passed.
    """

    __slots__ = ("registry", "tracer", "audit", "quality", "profile",
                 "anatomy")

    def __init__(self, *, registry: "MetricsRegistry | None" = None,
                 tracer: "Tracer | None" = None,
                 audit: "AuditLog | None" = None,
                 quality: "QualityMonitor | None" = None,
                 profile: "StageCell | None" = None,
                 anatomy: "WorkloadAnatomy | None" = None,
                 enabled: bool = True) -> None:
        self.registry = (registry if registry is not None
                         else MetricsRegistry(enabled=enabled))
        self.tracer = tracer
        self.audit = audit
        self.quality = quality
        self.profile = profile
        self.anatomy = anatomy

    @classmethod
    def disabled(cls) -> "Observability":
        """Telemetry off: no-op metrics, no tracer, no audit."""
        return cls(enabled=False)

    @property
    def enabled(self) -> bool:
        """Whether the metrics registry records anything."""
        return self.registry.enabled
