"""The live ``repro top`` terminal dashboard.

Renders one text frame from the metrics registry (plus, when available,
the overload controller's health report): ingest rate, degradation
rung, pool size/memory, per-stage latency percentiles, admission /
backlog / dead-letter depths and the durability counters.  Everything
is read through the registry, so the dashboard can never disagree with
``repro health``, the Prometheus export or the benchmarks — they all
consume the same gauges.

The renderer is pure (registry in, string out); the
:class:`Dashboard` wrapper adds frame-to-frame state for ingest-rate
computation and ANSI screen clearing for live mode.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.bench.reporting import ascii_table, human_bytes, human_count
from repro.obs.registry import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.overload import HealthReport

__all__ = ["Dashboard", "STAGE_LABELS"]

#: Pipeline stages in order, with their display names.
STAGE_LABELS = (
    ("bundle_match", "bundle match (Alg. 1)"),
    ("message_placement", "placement (Alg. 2)"),
    ("index_update", "index update"),
    ("memory_refinement", "refinement (Alg. 3)"),
)

_RUNG_NAMES = ("normal", "reduced", "skeleton", "shed_only")

ANSI_CLEAR = "\x1b[2J\x1b[H"


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(fraction, 1.0)) * width))
    return "#" * filled + "-" * (width - filled)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}ms"


class Dashboard:
    """Stateful frame renderer over one registry.

    Parameters
    ----------
    registry:
        The engine's metrics registry (the single source of truth).
    health:
        Optional zero-arg callable returning the overload
        :class:`~repro.reliability.overload.HealthReport` (or ``None``);
        adds the breaker / signal rows the registry alone cannot name.
    clock:
        Injectable monotonic clock for rate computation.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 health: "Callable[[], HealthReport | None] | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.registry = registry
        self.health = health
        self.clock = clock
        self.frames = 0
        self._started = clock()
        self._last_time = self._started
        self._last_ingested = 0.0

    # ------------------------------------------------------------------
    # Frame rendering
    # ------------------------------------------------------------------

    def frame(self) -> str:
        """Render one dashboard frame and advance the rate window."""
        registry = self.registry
        now = self.clock()
        elapsed = now - self._started
        ingested = registry.value("repro_messages_ingested_total")
        window = now - self._last_time
        rate = ((ingested - self._last_ingested) / window
                if window > 0 else 0.0)
        overall = ingested / elapsed if elapsed > 0 else 0.0
        self.frames += 1
        self._last_time = now
        self._last_ingested = ingested

        report = self.health() if self.health is not None else None
        find = registry.find
        pool_bytes = registry.value("repro_pool_memory_bytes")
        index_bytes = registry.value("repro_index_memory_bytes")

        # Rows of the overload controller's families render only where
        # it registered them: a fleet-merged registry holds none.
        status_rows = [
            ["ingested",
             f"{human_count(ingested)} msgs   "
             f"{rate:,.0f}/s now, {overall:,.0f}/s overall"]]
        if find("repro_overload_rung") is not None:
            rung = int(registry.value("repro_overload_rung"))
            rung_label = (_RUNG_NAMES[rung]
                          if 0 <= rung < len(_RUNG_NAMES) else str(rung))
            pressure = registry.value("repro_overload_pressure")
            signal = f" ({report.signal})" if report is not None else ""
            status_rows.append(
                ["ladder rung",
                 f"{rung_label}  pressure [{_bar(pressure)}] "
                 f"{pressure:.2f}{signal}"])
        if find("repro_latency_ewma_seconds") is not None:
            status_rows.append(
                ["latency ewma",
                 _ms(registry.value("repro_latency_ewma_seconds"))])
        status_rows += [
            ["pool",
             f"{human_count(registry.value('repro_pool_bundles'))} bundles, "
             f"{human_count(registry.value('repro_pool_messages'))} msgs, "
             f"{human_bytes(pool_bytes)} "
             f"(+{human_bytes(index_bytes)} index)"],
            ["bundles",
             f"{human_count(registry.value('repro_bundles_created_total'))} "
             "created / "
             f"{human_count(registry.value('repro_bundles_matched_total'))} "
             "matched / "
             f"{human_count(registry.value('repro_edges_created_total'))} "
             "edges"]]
        if find("repro_admission_total", {"verdict": "admitted"}) is not None:
            status_rows.append(["admission", self._admission_row()])
        if find("repro_backlog_depth") is not None:
            status_rows.append(
                ["backlog depth",
                 human_count(registry.value("repro_backlog_depth"))])
        status_rows += [
            ["dead letters",
             f"{human_count(registry.value('repro_dlq_depth'))} queued, "
             f"{human_count(registry.value('repro_retries_total'))} retries"],
            ["durability",
             f"{human_count(registry.value('repro_wal_appends_total'))} "
             "wal appends, "
             f"{human_count(registry.value('repro_checkpoints_total'))} "
             "checkpoints, "
             f"{human_count(registry.value('repro_store_appends_total'))} "
             "spills"],
        ]
        if report is not None:
            status_rows.append(
                ["breaker", f"{report.breaker_state} "
                            f"({report.breaker_opens} open(s)), "
                            f"{report.parked} parked"])
            status_rows.append(
                ["accounting", "reconciles" if report.reconciles
                 else "DOES NOT RECONCILE"])

        sections = [
            ascii_table(["signal", "value"], status_rows,
                        title=f"repro top — frame {self.frames}, "
                              f"elapsed {elapsed:.1f}s"),
            self._stage_table(),
        ]
        shards = self._shard_table()
        if shards:
            sections.append(shards)
        quality = self._quality_table()
        if quality:
            sections.append(quality)
        guard = self._guard_table()
        if guard:
            sections.append(guard)
        anatomy = self._anatomy_table()
        if anatomy:
            sections.append(anatomy)
        traces = self._trace_line()
        if traces:
            sections.append(traces)
        return "\n\n".join(sections)

    def _quality_table(self) -> str:
        # Present only when a QualityMonitor registered its gauges
        # (ground-truth streams); reads the same repro_quality_* series
        # the Prometheus export exposes.
        registry = self.registry
        if registry.find("repro_quality_accuracy") is None:
            return ""
        value = registry.value
        reference = value("repro_quality_reference")
        rows = [
            ["accuracy (accu)",
             f"{value('repro_quality_accuracy'):.3f} cumulative / "
             f"{value('repro_quality_window_accuracy'):.3f} window"],
            ["return (ret)",
             f"{value('repro_quality_return'):.3f} cumulative / "
             f"{value('repro_quality_window_return'):.3f} window"],
            ["f1", f"{value('repro_quality_f1'):.3f}"],
            ["matched edges",
             f"{human_count(value('repro_quality_matched'))} of "
             f"{human_count(reference)} ground-truth"],
            ["alerts", human_count(value("repro_quality_alerts"))],
        ]
        return ascii_table(["quality", "value"], rows,
                           title="clustering quality (vs ground truth)")

    def _guard_table(self) -> str:
        # Present only when an IngestGuard registered its counters
        # (guarded supervisors); reads the same repro_guard_* series
        # the Prometheus export exposes.
        registry = self.registry
        if registry.find("repro_guard_screened_total") is None:
            return ""
        value = registry.value
        screened = value("repro_guard_screened_total")
        toxicity = value("repro_guard_toxicity")
        rows = [
            ["screened",
             f"{human_count(screened)} msgs "
             f"({human_count(value('repro_guard_passed_total'))} passed)"],
            ["folded (near-dup)",
             human_count(value("repro_guard_folded_total"))],
            ["quarantined",
             human_count(value("repro_guard_quarantined_total"))],
            ["late arrivals",
             human_count(value("repro_guard_late_total"))],
            ["reorder buffer",
             f"{human_count(value('repro_guard_buffer_depth'))} buffered, "
             f"{human_count(value('repro_guard_reordered_total'))} "
             "released in order"],
            ["toxicity",
             f"[{_bar(toxicity)}] {toxicity:.2f}"],
        ]
        return ascii_table(["guard", "value"], rows,
                           title="ingest guard (adversarial hardening)")

    def _anatomy_table(self) -> str:
        # Present only when a WorkloadAnatomy published its gauges
        # (``--anatomy`` / ``repro anatomy``); on a fleet-merged
        # registry the hot-term weights are summed across shards —
        # the distributed SpaceSaving merge.
        registry = self.registry
        family = registry._families.get("repro_hot_terms")
        if family is None:
            return ""
        per_kind: "dict[str, list[tuple[float, str]]]" = {}
        for gauge in family.children.values():
            kind = gauge.labels.get("kind")
            term = gauge.labels.get("term")
            if kind is None or term is None or gauge.value <= 0:
                continue
            # Fleet-merged registries carry each series twice: the
            # shard-summed aggregate plus one per-shard copy.  Keep
            # only the aggregate or every term would list per shard.
            if "shard" in gauge.labels:
                continue
            per_kind.setdefault(kind, []).append((gauge.value, term))
        rows = []
        for kind in sorted(per_kind):
            top = sorted(per_kind[kind],
                         key=lambda pair: (-pair[0], pair[1]))[:5]
            rows.append([kind, ", ".join(
                f"{term}({human_count(weight)})"
                for weight, term in top)])
        fanin = registry.find("repro_candidate_fanin",
                              {"phase": "fetched"})
        if isinstance(fanin, Histogram) and fanin.count:
            rows.append(["fan-in fetched",
                         f"p50 {fanin.percentile(50):.0f} / "
                         f"p99 {fanin.percentile(99):.0f} "
                         f"(max {fanin.max:.0f})"])
        capped = registry.value("repro_candidate_capped_total")
        if capped:
            rows.append(["capped ingests", human_count(capped)])
        for component in ("index", "pool"):
            drift = registry.find("repro_memory_drift_ratio",
                                  {"component": component})
            if drift is None:
                continue
            measured = registry.value("repro_memory_measured_bytes",
                                      {"component": component})
            rows.append([f"{component} memory",
                         f"{human_bytes(measured)} measured, "
                         f"{drift.value * 100:+.1f}% vs estimate"])
        if not rows:
            return ""
        return ascii_table(
            ["anatomy", "value"], rows,
            title="workload anatomy (hot terms weight ~ caused fan-in)")

    def _shard_table(self) -> str:
        # Present only on a fleet-merged registry (the multiprocess
        # runtime's merge_worker_dumps adds a ``shard`` label to every
        # per-worker series); aggregate rows above stay fleet-wide.
        shards = self.shard_ids()
        if not shards:
            return ""
        value = self.registry.value
        rows = []
        for shard in shards:
            labels = {"shard": shard}
            rows.append([
                shard,
                human_count(value("repro_messages_ingested_total",
                                  labels)),
                human_count(value("repro_pool_bundles", labels)),
                human_count(value("repro_edges_created_total", labels)),
                human_bytes(value("repro_pool_memory_bytes", labels)
                            + value("repro_index_memory_bytes", labels)),
                human_count(value("repro_dlq_depth", labels)),
                human_count(value("repro_repair_pending_boundary",
                                  labels)),
            ])
        title = f"fleet — {len(shards)} shards"
        if self.registry.find("repro_fleet_edge_coverage") is not None:
            coverage = value("repro_fleet_edge_coverage")
            title += f", edge coverage {coverage:.3f}"
        return ascii_table(
            ["shard", "ingested", "bundles", "edges", "memory",
             "dlq", "pending"],
            rows, title=title)

    def shard_ids(self) -> "list[str]":
        """Shard labels present in the registry, numerically sorted."""
        family = self.registry._families.get(
            "repro_messages_ingested_total")
        if family is None:
            return []
        shards = {dict(key).get("shard")
                  for key in family.children if key}
        shards.discard(None)
        return sorted(shards, key=lambda s: (len(s), s))

    def _admission_row(self) -> str:
        value = self.registry.value
        labels = lambda verdict: {"verdict": verdict}  # noqa: E731
        admitted = value("repro_admission_total", labels("admitted"))
        released = value("repro_admission_total", labels("released"))
        deferred = value("repro_admission_total", labels("deferred"))
        dropped = value("repro_admission_total", labels("dropped"))
        return (f"{human_count(admitted + released)} in / "
                f"{human_count(deferred)} deferred / "
                f"{human_count(dropped)} dropped")

    def _stage_table(self) -> str:
        rows = []
        for stage, label in STAGE_LABELS:
            metric = self.registry.find("repro_stage_seconds",
                                        {"stage": stage})
            if isinstance(metric, Histogram) and metric.count:
                rows.append([label, human_count(metric.count),
                             _ms(metric.percentile(50)),
                             _ms(metric.percentile(95)),
                             _ms(metric.percentile(99)),
                             f"{metric.sum:.2f}s"])
            else:
                rows.append([label, "0", "—", "—", "—", "—"])
        ingest = self.registry.find("repro_ingest_latency_seconds")
        if isinstance(ingest, Histogram) and ingest.count:
            rows.append(["whole ingest", human_count(ingest.count),
                         _ms(ingest.percentile(50)),
                         _ms(ingest.percentile(95)),
                         _ms(ingest.percentile(99)),
                         f"{ingest.sum:.2f}s"])
        return ascii_table(
            ["stage", "count", "p50", "p95", "p99", "total"], rows,
            title="stage latencies")

    def _trace_line(self) -> str:
        # The tracer is not registry-resident; surface its sampling
        # counters when the engine exported them as callback counters.
        offered = self.registry.value("repro_traces_offered_total")
        if not offered:
            return ""
        sampled = self.registry.value("repro_traces_sampled_total")
        return (f"traces: {human_count(sampled)} sampled of "
                f"{human_count(offered)} "
                f"({sampled / offered:.1%})")

    def live_frame(self) -> str:
        """A frame prefixed with an ANSI clear for live terminal mode."""
        return ANSI_CLEAR + self.frame()
