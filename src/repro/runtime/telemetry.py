"""Fleet telemetry: one registry view over every worker's metrics.

Workers are separate processes with separate
:class:`~repro.obs.registry.MetricsRegistry` instances; the coordinator
pulls each worker's full :meth:`~repro.obs.registry.MetricsRegistry.
dump` over the command pipe and folds them into a single registry here.
Every merged series carries a ``shard`` label, and — because
:meth:`merge_dump` also folds an unlabeled aggregate — plain
``registry.value(name)`` reads, the dashboard, ``repro top`` and the
Prometheus exporter all see fleet-wide totals without knowing the
runtime exists.

Aggregate gauges are *sums* across shards, which is right for
capacity-style gauges (memory bytes, queue depths) but meaningless for
mode-style gauges (shard id, drift ratio); read those per-shard via the
``shard`` label.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.registry import MetricsRegistry

__all__ = ["merge_worker_dumps", "fleet_table"]

#: Gauges whose values are modes / identities, not capacities — summing
#: them across shards is meaningless, so the aggregate series is skipped.
_MODE_GAUGES = frozenset({
    "repro_shard_id",
    # A drift *ratio* per shard; summing ratios across shards would
    # read as fleet-wide drift and lie.  Per-shard series remain.
    "repro_memory_drift_ratio",
})


def merge_worker_dumps(dumps: "Mapping[int, Mapping[str, Any]]", *,
                       registry: "MetricsRegistry | None" = None,
                       ) -> MetricsRegistry:
    """Fold per-shard registry dumps into one fleet registry.

    ``dumps`` maps shard index → that worker's ``registry.dump()``.
    Each series is merged twice: once under its original labels plus
    ``{"shard": "<i>"}``, and once into the unlabeled aggregate (except
    mode-style gauges, where a sum would lie).  Returns the registry
    (a fresh one sized for the fleet unless ``registry`` is given).
    """
    if registry is None:
        # Fleet view: every family needs shard-count × label-set room.
        registry = MetricsRegistry(
            max_label_sets=max(256, 32 * (len(dumps) + 1)))
    for shard, dump in sorted(dumps.items()):
        filtered = _strip_mode_aggregates(dump)
        registry.merge_dump(filtered["labeled"],
                            labels={"shard": str(shard)},
                            aggregate=False)
        registry.merge_dump(filtered["aggregable"],
                            labels={"shard": str(shard)},
                            aggregate=True)
    _derive_fleet_coverage(registry)
    return registry


def _derive_fleet_coverage(registry: MetricsRegistry) -> None:
    """Fold the repair series into a live edge-coverage gauge.

    ``repro_fleet_edge_coverage`` is the fraction of ingested messages
    whose provenance decision is fully reconciled — i.e. not sitting in
    a boundary backlog awaiting cross-shard repair.  It is a live lower
    bound on the bench's post-hoc edge-coverage number: boundary
    entries are the only messages whose edges can still change, so a
    fleet at 1.0 has converged.  Only derived when the repair series
    exist (workers always export them; an empty dump set yields none).
    """
    if registry.find("repro_repair_pending_boundary") is None:
        return
    messages = registry.value("repro_messages_ingested_total", default=0.0)
    if messages <= 0:
        return
    pending = registry.value("repro_repair_pending_boundary", default=0.0)
    coverage = max(0.0, (messages - pending) / messages)
    registry.gauge(
        "repro_fleet_edge_coverage",
        help="Fraction of ingested messages with fully reconciled "
             "provenance (1.0 = no boundary backlog)").set(coverage)


def _strip_mode_aggregates(dump: "Mapping[str, Any]",
                           ) -> dict[str, dict[str, Any]]:
    """Split a dump into aggregate-safe and label-only families."""
    labeled: list[Any] = []
    aggregable: list[Any] = []
    for family in dump.get("families", []):
        if (family.get("kind") == "gauge"
                and family.get("name") in _MODE_GAUGES):
            labeled.append(family)
        else:
            aggregable.append(family)
    return {"labeled": {"families": labeled},
            "aggregable": {"families": aggregable}}


def _coverage_cell(messages: int, pending: int) -> str:
    """Render live reconciled-edge coverage for the fleet table."""
    if messages <= 0:
        return "-"
    return f"{(messages - pending) / messages:.3f}"


def fleet_table(shard_stats: "Mapping[int, Mapping[str, Any]]",
                ) -> str:
    """Render a per-shard load table for ``repro serve`` / ``repro top``.

    ``shard_stats`` is :meth:`ShardedRuntime.shard_stats` output: shard
    index → the worker's ``stats`` payload (unified counters, supervisor
    counters, memory snapshot, repair backlog).
    """
    headers = ("shard", "messages", "bundles", "edges", "dead",
               "mem KiB", "pending", "cov")
    rows: list[tuple[str, ...]] = []
    totals = {"messages": 0, "bundles": 0, "edges": 0, "dead": 0,
              "mem": 0, "pending": 0}
    for shard in sorted(shard_stats):
        payload = shard_stats[shard]
        unified = payload.get("unified", {})
        sup = payload.get("supervisor", {})
        repair = payload.get("repair", {})
        snapshot = payload.get("snapshot")
        mem = 0
        if snapshot is not None:
            mem = int(getattr(snapshot, "pool_bytes", 0)
                      + getattr(snapshot, "index_bytes", 0))
        row = {
            "messages": int(unified.get("messages_ingested", 0)),
            "bundles": int(unified.get("bundles_created", 0)),
            "edges": int(unified.get("edges_created", 0)),
            "dead": int(sup.get("dead_lettered", 0)),
            "mem": mem,
            "pending": int(repair.get("boundary_pending", 0)),
        }
        for key in totals:
            totals[key] += row[key]
        rows.append((
            str(shard),
            f"{row['messages']:,}",
            f"{row['bundles']:,}",
            f"{row['edges']:,}",
            f"{row['dead']:,}",
            f"{row['mem'] // 1024:,}",
            f"{row['pending']:,}",
            _coverage_cell(row["messages"], row["pending"]),
        ))
    rows.append((
        "all",
        f"{totals['messages']:,}",
        f"{totals['bundles']:,}",
        f"{totals['edges']:,}",
        f"{totals['dead']:,}",
        f"{totals['mem'] // 1024:,}",
        f"{totals['pending']:,}",
        _coverage_cell(totals["messages"], totals["pending"]),
    ))
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = [
        "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    lines.extend("  ".join(cell.rjust(widths[i])
                           for i, cell in enumerate(row))
                 for row in rows)
    return "\n".join(lines)
