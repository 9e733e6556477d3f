"""The live ``repro top`` / ``repro serve`` terminal dashboard.

Renders one text frame from the metrics registry (plus, when available,
the overload controller's health report).  Everything is read through
the registry, so the dashboard can never disagree with ``repro
health``, the Prometheus export or the benchmarks — they all consume
the same gauges.

The frame is one declared list of panels, :data:`PANELS`.  Each
:class:`Row` names the metric families it reads and a formatter, and
renders only when the registry holds one of those families: a bare
engine, a guarded surge stack and a fleet-merged registry each show
exactly the rows their configuration emits.

Everything above :data:`CLOCK_MARKER` is a function of the registry
and the health report, so two seeded replays print it byte for byte.  What reads a
clock — ingest rates, the latency EWMA and the stage-latency table
(the paper's Fig. 13 breakdown, live) — comes last, below the marker.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.bench.reporting import ascii_table, human_bytes, human_count
from repro.obs.registry import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.overload import HealthReport

__all__ = ["CLOCK_MARKER", "Dashboard", "PANELS", "Panel", "Row"]

#: The line between the deterministic rows and the clock block.
CLOCK_MARKER = "-- clock: the rows below differ from run to run --"

_RUNG_NAMES = ("normal", "reduced", "skeleton", "shed_only")

ANSI_CLEAR = "\x1b[2J\x1b[H"


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(fraction, 1.0)) * width))
    return "#" * filled + "-" * (width - filled)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}ms"


class _View:
    """What a formatter reads: one frame's registry, health report and
    rates, scoped to one shard's series on the per-shard panel."""

    def __init__(self, registry: MetricsRegistry,
                 report: "HealthReport | None",
                 rates: "tuple[float, float, float]") -> None:
        self.registry = registry
        self.report = report
        self.elapsed, self.rate, self.overall = rates
        self.families = {family.name: family
                         for family in registry.families()}
        self.labels: "dict[str, str]" = {}
        ingested = self.families.get("repro_messages_ingested_total")
        shards = {child.labels.get("shard")
                  for child in (ingested.samples() if ingested else ())}
        shards.discard(None)
        self.shards = sorted(shards, key=lambda s: (len(s), s))

    def find(self, name: str, **labels: str):
        return self.registry.find(name, {**self.labels, **labels} or None)

    def value(self, name: str, **labels: str) -> float:
        return self.registry.value(name, {**self.labels, **labels} or None)

    def count(self, name: str, **labels: str) -> str:
        return human_count(self.value(name, **labels))

    def at(self, shard: str) -> "_View":
        scoped = copy.copy(self)
        scoped.labels = {"shard": shard}
        return scoped

    def render(self, panel: "Panel") -> "tuple[str, list[Row]]":
        """The panel's text and the rows it drew (``""``, ``[]``: none)."""
        live = [row for row in panel.rows
                if not self.families.keys().isdisjoint(row.families)]
        if panel.per_shard:
            drawn = live if self.shards else []
            headers = ("shard", *(row.label for row in drawn))
            body = [[shard, *(row.cells(self.at(shard)) for row in drawn)]
                    for shard in self.shards] if drawn else []
        else:
            drawn, body, headers = [], [], panel.headers
            for row in live:
                cells = row.cells(self)
                if cells is not None:
                    drawn.append(row)
                    body.append([row.label, *([cells] if isinstance(
                        cells, str) else cells)])
        if not body:
            return "", []
        if not headers:
            return "\n".join(f"{label}: {value}"
                             for label, value in body), drawn
        title = panel.title(self) if callable(panel.title) else panel.title
        return ascii_table(headers, body, title=title), drawn


@dataclass(frozen=True)
class Row:
    """One declared dashboard row (a column, on the per-shard panel).

    It renders only when the registry holds one of ``families``.
    ``cells`` formats its value cell(s); ``None`` means this registry
    has nothing to show for it (say, no health report to read).
    """

    label: str
    families: "tuple[str, ...]"
    cells: "Callable[[_View], str | list[str] | None]"


@dataclass(frozen=True)
class Panel:
    """A titled table of rows; ``per_shard`` draws one line per shard
    with a column per row, ``clock`` places it below the marker, and a
    panel without headers prints ``label: value`` lines."""

    title: "str | Callable[[_View], str] | None"
    headers: "tuple[str, ...]"
    rows: "tuple[Row, ...]"
    per_shard: bool
    clock: bool


def _rung(v: _View) -> str:
    rung = int(v.value("repro_overload_rung"))
    label = _RUNG_NAMES[rung] if 0 <= rung < len(_RUNG_NAMES) else str(rung)
    pressure = v.value("repro_overload_pressure")
    signal = f" ({v.report.signal})" if v.report is not None else ""
    return f"{label}  pressure [{_bar(pressure)}] {pressure:.2f}{signal}"


def _admission(v: _View) -> str:
    admitted = v.value("repro_admission_total", verdict="admitted")
    released = v.value("repro_admission_total", verdict="released")
    return (f"{human_count(admitted + released)} in / "
            f"{v.count('repro_admission_total', verdict='deferred')} "
            "deferred / "
            f"{v.count('repro_admission_total', verdict='dropped')} dropped")


def _fanin(v: _View) -> str:
    stats = v.find("repro_candidate_fanin", phase="fetched").stats()
    return (f"p50 {stats['p50']:.0f} / p99 {stats['p99']:.0f} "
            f"(max {stats['max']:.0f})")


def _traces(v: _View) -> str:
    offered = v.value("repro_traces_offered_total")
    sampled = v.value("repro_traces_sampled_total")
    return (f"{human_count(sampled)} sampled of {human_count(offered)} "
            f"({sampled / max(offered, 1):.1%})")


def _hot_terms(kind: str) -> "Callable[[_View], str | None]":
    # Fleet-merged registries carry each series twice: the shard-summed
    # aggregate (the distributed SpaceSaving merge) plus one per-shard
    # copy.  Keep only the aggregate or every term would list per shard.
    def cells(v: _View) -> "str | None":
        top = sorted((-gauge.value, gauge.labels["term"]) for gauge
                     in v.families["repro_hot_terms"].samples()
                     if gauge.labels.get("kind") == kind
                     and "shard" not in gauge.labels and gauge.value > 0)
        return ", ".join(f"{term}({human_count(-weight)})"
                         for weight, term in top[:5]) or None
    return cells


def _memory(component: str) -> "Callable[[_View], str | None]":
    def cells(v: _View) -> "str | None":
        # The drift ratio is a per-shard mode gauge: a fleet has none.
        drift = v.find("repro_memory_drift_ratio", component=component)
        if drift is None:
            return None
        measured = v.value("repro_memory_measured_bytes",
                           component=component)
        return (f"{human_bytes(measured)} measured, "
                f"{drift.value * 100:+.1f}% vs estimate")
    return cells


def _latency(label: str, name: str, **labels: str) -> Row:
    def cells(v: _View) -> "list[str]":
        hist = v.find(name, **labels)
        if not isinstance(hist, Histogram) or not hist.count:
            return ["0", "—", "—", "—", "—"]
        return [human_count(hist.count), _ms(hist.percentile(50)),
                _ms(hist.percentile(95)), _ms(hist.percentile(99)),
                f"{hist.sum:.2f}s"]
    return Row(label, (name,), cells)


def _row(label: str, template: str, *names: str,
         each: "Callable[[float], object]" = human_count) -> Row:
    """A row filling ``template`` with ``each`` of ``names``' values."""
    return Row(label, names, lambda v: template.format(
        *(each(v.value(name)) for name in names)))


#: Every panel the dashboard can draw, in frame order.
PANELS: "tuple[Panel, ...]" = (
    Panel(None, ("signal", "value"), (
        _row("ingested", "{} msgs", "repro_messages_ingested_total"),
        Row("ladder rung", ("repro_overload_rung", "repro_overload_pressure"),
            _rung),
        _row("edge coverage", "{:.3f}", "repro_fleet_edge_coverage",
             each=float),
        Row("pool", ("repro_pool_bundles", "repro_pool_messages",
                     "repro_pool_memory_bytes", "repro_index_memory_bytes"),
            lambda v: f"{v.count('repro_pool_bundles')} bundles, "
                      f"{v.count('repro_pool_messages')} msgs, "
                      f"{human_bytes(v.value('repro_pool_memory_bytes'))} "
                      f"(+{human_bytes(v.value('repro_index_memory_bytes'))}"
                      " index)"),
        _row("bundles", "{} created / {} matched / {} edges",
             "repro_bundles_created_total", "repro_bundles_matched_total",
             "repro_edges_created_total"),
        Row("fan-in fetched", ("repro_candidate_fanin",), _fanin),
        _row("capped ingests", "{}", "repro_candidate_capped_total"),
        Row("admission", ("repro_admission_total",), _admission),
        _row("backlog depth", "{}", "repro_backlog_depth"),
        _row("dead letters", "{} queued, {} retries", "repro_dlq_depth",
             "repro_retries_total"),
        _row("durability", "{} wal appends, {} checkpoints, {} spills",
             "repro_wal_appends_total", "repro_checkpoints_total",
             "repro_store_appends_total"),
        # The breaker and the accounting law live in the health report;
        # the families gate them to stacks that run an overload layer.
        Row("breaker", ("repro_spill_parked",),
            lambda v: None if v.report is None else
            f"{v.report.breaker_state} ({v.report.breaker_opens} "
            f"open(s)), {v.count('repro_spill_parked')} parked"),
        Row("accounting", ("repro_admission_total", "repro_backlog_depth"),
            lambda v: None if v.report is None else
            "reconciles" if v.report.reconciles else "DOES NOT RECONCILE"),
    ), per_shard=False, clock=False),
    Panel(lambda v: f"fleet — {len(v.shards)} shards", (), (
        _row("ingested", "{}", "repro_messages_ingested_total"),
        _row("bundles", "{}", "repro_pool_bundles"),
        _row("edges", "{}", "repro_edges_created_total"),
        Row("memory", ("repro_pool_memory_bytes", "repro_index_memory_bytes"),
            lambda v: human_bytes(v.value("repro_pool_memory_bytes")
                                  + v.value("repro_index_memory_bytes"))),
        _row("dlq", "{}", "repro_dlq_depth"),
        _row("pending", "{}", "repro_repair_pending_boundary"),
    ), per_shard=True, clock=False),
    Panel("clustering quality (vs ground truth)", ("quality", "value"), (
        _row("accuracy (accu)", "{:.3f} cumulative / {:.3f} window",
             "repro_quality_accuracy", "repro_quality_window_accuracy",
             each=float),
        _row("return (ret)", "{:.3f} cumulative / {:.3f} window",
             "repro_quality_return", "repro_quality_window_return",
             each=float),
        _row("f1", "{:.3f}", "repro_quality_f1", each=float),
        _row("matched edges", "{} of {} ground-truth",
             "repro_quality_matched", "repro_quality_reference"),
        _row("alerts", "{}", "repro_quality_alerts"),
    ), per_shard=False, clock=False),
    Panel("ingest guard (adversarial hardening)", ("guard", "value"), (
        _row("screened", "{} msgs ({} passed)", "repro_guard_screened_total",
             "repro_guard_passed_total"),
        _row("folded (near-dup)", "{}", "repro_guard_folded_total"),
        _row("quarantined", "{}", "repro_guard_quarantined_total"),
        _row("late arrivals", "{}", "repro_guard_late_total"),
        _row("reorder buffer", "{} buffered, {} released in order",
             "repro_guard_buffer_depth", "repro_guard_reordered_total"),
        _row("toxicity", "{}", "repro_guard_toxicity",
             each=lambda toxicity: f"[{_bar(toxicity)}] {toxicity:.2f}"),
    ), per_shard=False, clock=False),
    Panel("workload anatomy (hot terms weight ~ caused fan-in)",
          ("anatomy", "value"), (
        *(Row(kind, ("repro_hot_terms",), _hot_terms(kind))
          for kind in ("hashtag", "keyword", "url", "user")),
        *(Row(f"{component} memory", ("repro_memory_drift_ratio",
                                      "repro_memory_measured_bytes"),
              _memory(component)) for component in ("index", "pool")),
    ), per_shard=False, clock=False),
    Panel(None, (), (
        Row("traces", ("repro_traces_offered_total",
                       "repro_traces_sampled_total"), _traces),
    ), per_shard=False, clock=False),
    Panel(None, ("clock", "value"), (
        Row("ingest rate", ("repro_messages_ingested_total",),
            lambda v: f"{v.rate:,.0f}/s now, {v.overall:,.0f}/s overall, "
                      f"{v.elapsed:.1f}s elapsed"),
        Row("latency ewma", ("repro_latency_ewma_seconds",),
            lambda v: _ms(v.value("repro_latency_ewma_seconds"))),
    ), per_shard=False, clock=True),
    Panel("stage latencies", ("stage", "count", "p50", "p95", "p99",
                              "total"), (
        *(_latency(label, "repro_stage_seconds", stage=stage)
          for stage, label in (("bundle_match", "bundle match (Alg. 1)"),
                               ("message_placement", "placement (Alg. 2)"),
                               ("index_update", "index update"),
                               ("memory_refinement", "refinement (Alg. 3)"))),
        _latency("whole ingest", "repro_ingest_latency_seconds"),
    ), per_shard=False, clock=True),
)


class Dashboard:
    """Stateful frame renderer over one registry.

    Parameters
    ----------
    registry:
        The engine's metrics registry (the single source of truth).  A
        fleet swaps in each freshly merged registry between frames.
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
        #: Clock seconds from construction to the latest frame.
        self.elapsed = 0.0
        self._started = self._last_time = clock()
        self._last_ingested = 0.0

    def frame(self) -> str:
        """Render one dashboard frame and advance the rate window."""
        now = self.clock()
        ingested = self.registry.value("repro_messages_ingested_total")
        window = now - self._last_time
        rate = (ingested - self._last_ingested) / window if window > 0 else 0.0
        self.elapsed = now - self._started
        overall = ingested / self.elapsed if self.elapsed > 0 else 0.0
        self.frames += 1
        self._last_time, self._last_ingested = now, ingested
        view = self._view((self.elapsed, rate, overall))
        sections, clock = [f"repro top — frame {self.frames}"], []
        for panel in PANELS:
            text = view.render(panel)[0]
            if text:
                (clock if panel.clock else sections).append(text)
        if clock:
            sections += [CLOCK_MARKER, *clock]
        return "\n\n".join(sections)

    def drawn_rows(self) -> "list[Row]":
        """Every declared row (per-shard column) this registry draws."""
        view = self._view((0.0, 0.0, 0.0))
        return [row for panel in PANELS for row in view.render(panel)[1]]

    def _view(self, rates: "tuple[float, float, float]") -> _View:
        report = self.health() if self.health is not None else None
        return _View(self.registry, report, rates)

    def live_frame(self) -> str:
        """A frame prefixed with an ANSI clear for live terminal mode."""
        return ANSI_CLEAR + self.frame()
