"""Perf-regression trajectory — every pinned bench, one versioned curve.

Each ``BENCH_*.json`` in the repo root pins one benchmark's latest
result, but a pin only answers "what is the number now?".  This tool
answers "which way is it moving?": it folds every pin into
``BENCH_trajectory.json``, a versioned append-only series of
*indicator* snapshots (throughput, overhead ratios, coverage/parity,
guard slowdowns) plus the explicit regression gates the repo holds
itself to.

Two kinds of gate, deliberately separated:

* **absolute gates** are machine-independent ratios and fractions
  (overhead budgets, coverage floors, parity bars) — the same numbers
  the source benches assert, re-checked here so a stale pin or a
  hand-edited JSON cannot silently drift past its budget;
* **relative gates** compare the newest snapshot against the previous
  one and flag indicator drops beyond a tolerance.  Raw msg/s rates
  are machine-dependent, so the relative tolerance is wide (default
  40%) — it catches "the refactor halved throughput", not "CI got a
  noisy neighbour".

``python benchmarks/trajectory.py`` regenerates the trajectory file
(idempotent: a snapshot is only appended when the indicators actually
changed).  ``--check`` additionally evaluates every gate and exits
non-zero on a regression — the CI perf-trajectory job runs exactly
that after refreshing the quick benches.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.reporting import ascii_table, format_float

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_JSON = REPO_ROOT / "BENCH_trajectory.json"

#: Schema version of BENCH_trajectory.json; bump on layout changes so
#: downstream readers (and the regression gates) can migrate explicitly.
TRAJECTORY_VERSION = 1

#: Indicators lifted out of the per-bench metric soup, as
#: ``(indicator, bench document, metric key)``.  Missing sources are
#: skipped — the trajectory grows as the bench suite does.
_INDICATORS = (
    # Observability overheads (ratios; machine-independent).
    ("obs.overhead_metrics", "obs_overhead", "overhead_metrics"),
    ("obs.overhead_trace_1pct", "obs_overhead", "overhead_trace_1pct"),
    ("obs.overhead_trace_100pct", "obs_overhead", "overhead_trace_100pct"),
    ("obs.overhead_profile", "obs_overhead", "overhead_profile"),
    ("obs.metrics_rate_msg_per_s", "obs_overhead", "metrics_rate_msg_per_s"),
    ("obs.overhead_audit_ring", "audit_overhead", "overhead_audit_ring"),
    # Workload anatomy (sketches + deep-size accountant on the hot path).
    ("anatomy.overhead", "anatomy", "overhead_anatomy"),
    ("anatomy.rate_msg_per_s", "anatomy", "anatomy_rate_msg_per_s"),
    ("anatomy.fingerprint_deterministic", "anatomy",
     "fingerprint_deterministic"),
    ("anatomy.memory_drift_index", "anatomy", "memory_drift_index"),
    ("anatomy.memory_drift_pool", "anatomy", "memory_drift_pool"),
    # Multiprocess runtime (throughput + quality).
    ("fleet.single_msg_per_s", "parallel_ingest", "single_msg_per_s"),
    ("fleet.fleet4_msg_per_s", "parallel_ingest", "fleet4_msg_per_s"),
    ("fleet.fleet4_speedup", "parallel_ingest", "fleet4_speedup"),
    ("fleet.fleet4_edge_coverage", "parallel_ingest",
     "fleet4_edge_coverage"),
    ("fleet.fleet4_truth_parity", "parallel_ingest", "fleet4_truth_parity"),
    ("fleet.fleet4_queue_wait_seconds", "parallel_ingest",
     "fleet4_queue_wait_seconds"),
    ("fleet.fleet4_service_seconds", "parallel_ingest",
     "fleet4_service_seconds"),
    # Ingest guard under hostile traffic.
    ("guard.organic_overhead", "adversarial_guard",
     "organic_guard_overhead"),
    ("guard.organic_rate_on", "adversarial_guard", "organic_rate_on"),
    ("guard.spam_flood_f1_on", "adversarial_guard", "spam_flood_f1_on"),
)

#: Absolute gates: ``(indicator, op, bound)`` over the newest snapshot.
#: These restate the budgets the source benches assert, in one place.
ABSOLUTE_GATES = (
    ("obs.overhead_metrics", "<", 0.05),
    ("obs.overhead_trace_1pct", "<", 0.05),
    ("obs.overhead_profile", "<", 0.05),
    ("obs.overhead_trace_100pct", "<", 0.5),
    # bench_audit_overhead's own budget is < 7% for the ring (the
    # metrics-off collect path is the one that must stay free).
    ("obs.overhead_audit_ring", "<", 0.07),
    ("anatomy.overhead", "<", 0.05),
    ("anatomy.fingerprint_deterministic", ">=", 1.0),
    ("fleet.fleet4_truth_parity", ">=", 0.98),
    ("fleet.fleet4_edge_coverage", ">=", 0.85),
    ("fleet.fleet4_speedup", ">=", 2.0),
    ("guard.organic_overhead", "<", 0.25),
)

#: Fleet gates are only meaningful on a full-size run; quick/tiny CI
#: smokes pin numbers where fixed process overhead dominates.
_FULL_ONLY_PREFIXES = ("fleet.",)

#: Which bench document backs each indicator (for full-scale checks).
_INDICATOR_BENCH = {indicator: bench
                    for indicator, bench, _ in _INDICATORS}

#: Rate-style indicators checked relatively (newest vs previous).
RELATIVE_GATES = (
    "obs.metrics_rate_msg_per_s",
    "anatomy.rate_msg_per_s",
    "fleet.single_msg_per_s",
    "fleet.fleet4_msg_per_s",
    "guard.organic_rate_on",
)

DEFAULT_DROP_TOLERANCE = 0.40


def _bench_documents() -> "dict[str, dict]":
    """Every bench document pinned in the repo root, keyed by name."""
    documents: "dict[str, dict]" = {}
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        if path.name == TRAJECTORY_JSON.name:
            continue
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            print(f"warning: {path.name} is not valid JSON; skipped",
                  file=sys.stderr)
            continue
        if not isinstance(loaded, dict):
            continue
        if "bench" in loaded:  # flat single-bench file
            documents[str(loaded["bench"])] = loaded
        else:  # nested multi-bench file
            for name, document in loaded.items():
                if isinstance(document, dict) and "bench" in document:
                    documents[name] = document
    return documents


def build_snapshot(documents: "dict[str, dict]") -> dict:
    """One trajectory point: indicators + provenance of their sources."""
    indicators: "dict[str, float]" = {}
    sources: "dict[str, str]" = {}
    full_scale: "dict[str, bool]" = {}
    for indicator, bench, key in _INDICATORS:
        document = documents.get(bench)
        if document is None:
            continue
        value = document.get("metrics", {}).get(key)
        if value is None:
            continue
        indicators[indicator] = float(value)
        sources[bench] = str(document.get("timestamp", ""))
    for bench, document in documents.items():
        config = document.get("config", {})
        full_scale[bench] = not bool(config.get("quick", False)) and (
            config.get("scale") in (None, "full"))
    return {
        "indicators": indicators,
        "sources": sources,
        "full_scale": full_scale,
    }


def _gate_applies(indicator: str, snapshot: dict, *,
                  relative: bool = False) -> bool:
    """Skip full-run-only gates when the source pin is a quick smoke.

    Absolute gates are ratios and stay meaningful at any scale except
    for the fleet bars (fixed process overhead dominates a quick run).
    Relative gates compare raw rates, which are machine- *and*
    scale-dependent, so they only apply to full-scale pins.
    """
    full_scale = snapshot.get("full_scale", {})
    if not relative and not indicator.startswith(_FULL_ONLY_PREFIXES):
        return True
    bench = _INDICATOR_BENCH.get(indicator)
    return bool(full_scale.get(bench, True)) if bench else True


def evaluate_gates(snapshot: dict, previous: "dict | None",
                   *, tolerance: float) -> "list[tuple[str, bool, str]]":
    """``(gate label, ok, detail)`` for every applicable gate."""
    results: "list[tuple[str, bool, str]]" = []
    indicators = snapshot["indicators"]
    for indicator, op, bound in ABSOLUTE_GATES:
        value = indicators.get(indicator)
        label = f"{indicator} {op} {format_float(bound, 3)}"
        if value is None:
            results.append((label, True, "no data (skipped)"))
            continue
        if not _gate_applies(indicator, snapshot):
            results.append((label, True,
                            f"{format_float(value, 4)} (quick pin; "
                            "gate skipped)"))
            continue
        ok = value < bound if op == "<" else value >= bound
        results.append((label, ok, format_float(value, 4)))
    if previous is not None:
        before = previous.get("indicators", {})
        for indicator in RELATIVE_GATES:
            new = indicators.get(indicator)
            old = before.get(indicator)
            label = (f"{indicator} drop <= "
                     f"{format_float(tolerance * 100, 0)}%")
            if new is None or old is None or old <= 0:
                results.append((label, True, "no pair (skipped)"))
                continue
            if not _gate_applies(indicator, snapshot, relative=True):
                results.append((label, True, "quick pin; gate skipped"))
                continue
            drop = 1.0 - new / old
            results.append((label, drop <= tolerance,
                            f"{old:,.0f} -> {new:,.0f} "
                            f"({drop * +100:+.1f}% drop)"))
    return results


def load_trajectory() -> dict:
    if TRAJECTORY_JSON.exists():
        try:
            loaded = json.loads(TRAJECTORY_JSON.read_text(encoding="utf-8"))
            if (isinstance(loaded, dict)
                    and loaded.get("version") == TRAJECTORY_VERSION):
                return loaded
        except ValueError:
            pass
    return {"version": TRAJECTORY_VERSION, "bench": "trajectory",
            "entries": []}


def update_trajectory(documents: "dict[str, dict]") -> "tuple[dict, bool]":
    """Append a snapshot when the indicators moved; returns (doc, appended)."""
    trajectory = load_trajectory()
    snapshot = build_snapshot(documents)
    entries = trajectory["entries"]
    if entries and entries[-1]["indicators"] == snapshot["indicators"]:
        return trajectory, False
    snapshot["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime())
    snapshot["sequence"] = (entries[-1]["sequence"] + 1 if entries else 1)
    entries.append(snapshot)
    return trajectory, True


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="merge BENCH_*.json pins into the perf trajectory "
                    "and evaluate the regression gates")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any gate regresses")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_DROP_TOLERANCE,
                        help="relative throughput-drop tolerance "
                             "(fraction; default 0.40)")
    parser.add_argument("--dry-run", action="store_true",
                        help="evaluate without rewriting the file")
    args = parser.parse_args(argv)

    documents = _bench_documents()
    if not documents:
        print("no BENCH_*.json pins found; nothing to do",
              file=sys.stderr)
        return 1
    trajectory, appended = update_trajectory(documents)
    entries = trajectory["entries"]
    newest = entries[-1]
    previous = entries[-2] if len(entries) > 1 else None
    if appended and not args.dry_run:
        TRAJECTORY_JSON.write_text(
            json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"appended snapshot #{newest['sequence']} to "
              f"{TRAJECTORY_JSON.name} "
              f"({len(newest['indicators'])} indicators from "
              f"{len(documents)} bench pins)")
    else:
        print(f"{TRAJECTORY_JSON.name}: {len(entries)} snapshot(s), "
              f"latest #{newest.get('sequence', '?')} unchanged")

    rows = [[indicator, format_float(value, 4)]
            for indicator, value in sorted(newest["indicators"].items())]
    print()
    print(ascii_table(["indicator", "value"], rows,
                      title=f"trajectory snapshot #{newest['sequence']}"))

    results = evaluate_gates(newest, previous, tolerance=args.tolerance)
    print()
    print(ascii_table(
        ["gate", "status", "detail"],
        [[label, "ok" if ok else "REGRESSION", detail]
         for label, ok, detail in results],
        title="regression gates"))
    failures = [label for label, ok, _ in results if not ok]
    if failures:
        for label in failures:
            print(f"FAIL: {label}", file=sys.stderr)
        return 1 if args.check else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
