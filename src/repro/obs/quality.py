"""Streaming clustering-quality monitoring (Section VI-B, live).

Offline, ``bench_fig08`` replays a stream and compares the engine's
discovered edges against the generator's ground truth with
:func:`repro.core.metrics.compare_edge_sets`.  :class:`QualityMonitor`
computes the same accu / ret / F1 *while the stream runs*: the engine
feeds it one ``(message, result)`` pair per ingest, it maintains both
the cumulative edge sets and a sliding window of recent observations,
and exports everything as ``repro_quality_*`` callback gauges — so a
scrape, ``repro top`` and the offline benchmark can never disagree on
the same prefix.

Threshold rules turn the signals into events: a
:class:`QualityRule` that fires (e.g. windowed accuracy drops below
0.8 while the overload ladder is degraded) increments
``repro_quality_alerts_total{rule=…}`` and lands in the audit stream,
cross-linking the quality regression to the rung that caused it (see
``docs/operations.md``).

Ground truth requires generator streams or TSV replays (both carry
``parent_id``); on truthless streams the monitor simply observes no
reference edges and its gauges stay at their empty-set conventions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.metrics import EdgeComparison, compare_edge_sets
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import IngestResult
    from repro.core.message import Message
    from repro.obs.audit import AuditLog

__all__ = ["QualityMonitor", "QualityRule", "DEFAULT_QUALITY_RULES"]


#: Observations in the monitor's sliding window.
WINDOW = 512
#: Rule-evaluation cadence, in observations.
CHECK_EVERY = 256
#: Reference edges a window needs before a rule is armed.
MIN_REFERENCE = 16
#: Rules are armed only while the admission ladder is off NORMAL — the
#: "is the degraded mode costing us quality?" question.
ONLY_DEGRADED = True


@dataclass(frozen=True, slots=True)
class QualityRule:
    """Fire an alert when a windowed quality metric sinks below a floor.

    ``metric`` is an :class:`~repro.core.metrics.EdgeComparison`
    property name (``accuracy`` / ``coverage`` / ``f1``).  The rule is
    edge-triggered: one alert per excursion below the floor, not one
    per check.
    """

    name: str
    metric: str = "accuracy"
    min_value: float = 0.8


#: The rules the CLI replay stack arms by default.
DEFAULT_QUALITY_RULES = (
    QualityRule(name="accu-degraded", metric="accuracy", min_value=0.8),
    QualityRule(name="ret-degraded", metric="coverage", min_value=0.5),
)


class QualityMonitor:
    """Windowed + cumulative accu/ret/F1 over a supervised replay.

    Parameters
    ----------
    registry:
        Where the ``repro_quality_*`` gauges live (gauges stay live
        even on a disabled registry, like every other pressure signal).
    rules:
        The :class:`QualityRule` set to arm.
    rung:
        Zero-arg callable returning the current ladder rung as ``int``
        (``0`` = NORMAL); ``None`` reads as permanently NORMAL.
    audit:
        Optional :class:`~repro.obs.audit.AuditLog` receiving fired
        alerts, so ``repro audit`` interleaves quality regressions
        with the placement decisions that caused them.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None, *,
                 rules: "tuple[QualityRule, ...]" = (),
                 rung: "Callable[[], int] | None" = None,
                 audit: "AuditLog | None" = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.rules = tuple(rules)
        self.rung = rung
        self.audit = audit
        self.observed = 0
        self.alerts: "list[dict]" = []
        self._reference: "set[tuple[int, int]]" = set()
        self._found: "set[tuple[int, int]]" = set()
        # One (ground_truth_edge | None, found_edge | None) per
        # observation, newest right.
        self._recent: "deque[tuple[tuple[int, int] | None, tuple[int, int] | None]]" = deque()
        self._violating: "set[str]" = set()
        self._register_metrics()

    def _register_metrics(self) -> None:
        registry = self.registry
        registry.gauge("repro_quality_accuracy",
                       help="Cumulative accu vs ground truth (Sec. VI-B)",
                       callback=lambda: self.cumulative().accuracy)
        registry.gauge("repro_quality_return",
                       help="Cumulative ret (coverage) vs ground truth",
                       callback=lambda: self.cumulative().coverage)
        registry.gauge("repro_quality_f1",
                       help="Cumulative F1 of accu and ret",
                       callback=lambda: self.cumulative().f1)
        registry.gauge("repro_quality_matched",
                       help="Discovered edges matching ground truth",
                       callback=lambda: self.cumulative().matched)
        registry.gauge("repro_quality_reference",
                       help="Ground-truth edges observed so far",
                       callback=lambda: len(self._reference))
        registry.gauge("repro_quality_window_accuracy",
                       help="Windowed accu over recent observations",
                       callback=lambda: self.windowed().accuracy)
        registry.gauge("repro_quality_window_return",
                       help="Windowed ret over recent observations",
                       callback=lambda: self.windowed().coverage)
        registry.gauge("repro_quality_alerts",
                       help="Quality threshold-rule alerts fired",
                       callback=lambda: len(self.alerts))
        self._alert_counters = {
            rule.name: registry.counter(
                "repro_quality_alerts_total",
                help="Quality alerts fired, by rule",
                labels={"rule": rule.name})
            for rule in self.rules
        }

    # -- observation --------------------------------------------------------

    def observe(self, message: "Message",
                result: "IngestResult | None") -> None:
        """Record one ingested message and its placement outcome."""
        truth = ((message.msg_id, message.parent_id)
                 if message.parent_id is not None else None)
        found = (result.edge.as_pair()
                 if result is not None and result.edge is not None
                 else None)
        self._push(truth, found)

    def note_shed(self, message: "Message") -> None:
        """Record an arrival dropped at admission (ground truth only).

        A shed message can never contribute a discovered edge, but its
        ground-truth edge still counts against ret — shedding has a
        measurable quality price, which is the point of watching.
        """
        truth = ((message.msg_id, message.parent_id)
                 if message.parent_id is not None else None)
        self._push(truth, None)

    def _push(self, truth: "tuple[int, int] | None",
              found: "tuple[int, int] | None") -> None:
        if truth is not None:
            self._reference.add(truth)
        if found is not None:
            self._found.add(found)
        self._recent.append((truth, found))
        while len(self._recent) > WINDOW:
            self._recent.popleft()
        self.observed += 1
        if self.rules and self.observed % CHECK_EVERY == 0:
            self._check_rules()

    # -- views --------------------------------------------------------------

    def cumulative(self) -> EdgeComparison:
        """Exactly ``compare_edge_sets(found, ground_truth)`` so far.

        Uses the same function as the offline evaluation, so on the
        same prefix the live gauge and ``bench_fig08``-style
        computation are equal by construction.
        """
        return compare_edge_sets(self._found, self._reference)

    def windowed(self) -> EdgeComparison:
        """The comparison over the last :data:`WINDOW` observations."""
        reference = {truth for truth, _ in self._recent
                     if truth is not None}
        found = {edge for _, edge in self._recent if edge is not None}
        return compare_edge_sets(found, reference)

    def current_rung(self) -> int:
        """The ladder rung the rules see (0 without a rung source)."""
        return int(self.rung()) if self.rung is not None else 0

    # -- threshold rules ----------------------------------------------------

    def _check_rules(self) -> None:
        view = self.windowed()
        rung = self.current_rung()
        for rule in self.rules:
            if view.reference_size < MIN_REFERENCE:
                continue
            if ONLY_DEGRADED and rung == 0:
                self._violating.discard(rule.name)
                continue
            value = float(getattr(view, rule.metric))
            if value >= rule.min_value:
                self._violating.discard(rule.name)
                continue
            if rule.name in self._violating:
                continue  # still inside the same excursion
            self._violating.add(rule.name)
            self._fire(rule, value, rung)

    def _fire(self, rule: QualityRule, value: float, rung: int) -> None:
        self._alert_counters[rule.name].inc()
        alert = {
            "type": "alert", "rule": rule.name, "metric": rule.metric,
            "value": value, "threshold": rule.min_value, "rung": rung,
            "observation": self.observed,
        }
        if self.audit is not None:
            self.audit.record_alert(alert)
        self.alerts.append(alert)
