"""Guard-on vs guard-off under the five adversarial scenarios.

For each hostile workload (plus the organic baseline) the same stream is
ingested twice — once straight into the engine, once through the
:class:`IngestGuard` (folds via the Alg.-1-skipping fold path,
quarantines to a real on-disk custody log, out-of-order arrivals through
the reorder buffer) — and both runs are scored against the stream's
ground-truth cascade edges with the same ``compare_edge_sets`` the
streaming :class:`QualityMonitor` uses, plus wall-clock msg/s.

Acceptance (pinned into ``BENCH_adversarial.json``):

* under ``spam-flood`` and ``near-dup-storm`` the guard must not lose
  quality: guard-on F1 ≥ guard-off F1;
* on the organic baseline the guard costs < 10% msg/s;
* zero acknowledged loss — every quarantined id replays from the
  custody log (the ``repro doctor`` restoration path).
"""

from __future__ import annotations

import contextlib
import gc
import time
from pathlib import Path

from repro.bench.reporting import (ascii_table, format_float, human_count,
                                   write_bench_json)
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.metrics import compare_edge_sets, ground_truth_edges
from repro.reliability.guard import GuardAction, IngestGuard, QuarantineLog
from repro.stream.generator import (ADVERSARIAL_SCENARIOS,
                                    AdversarialConfig,
                                    AdversarialGenerator, StreamConfig,
                                    StreamGenerator)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_adversarial.json"

BASE = StreamConfig(seed=11, days=0.5, messages_per_day=4000,
                    user_count=300, events_per_day=30.0)


def engine_config() -> IndexerConfig:
    return IndexerConfig.partial_index(pool_size=200)


#: Timed attempts per run; the fastest is kept for the reported rates
#: (same rationale as pytest-benchmark's ``min``: scheduling noise only
#: ever adds time).  Plain and guarded attempts are interleaved so
#: CPU-frequency drift hits both sides of the overhead comparison
#: alike, and the overhead gate compares the two minima — each side's
#: best-of-N is its closest approach to true cost, so one attempt hit
#: by a scheduling stall cannot swing the verdict.
def attempts_for(scenario: str) -> int:
    return 9 if scenario == "organic" else 2


@contextlib.contextmanager
def gc_quiesced():
    """Suspend the cyclic collector around a timed section.

    Under pytest the heap is large, so a gen-2 collection landing inside
    one timed attempt (and not its paired twin) skews the overhead
    ratio; allocation-count triggers also fire unevenly because the
    guarded run allocates more.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_plain_once(messages):
    engine = ProvenanceIndexer(engine_config())
    with gc_quiesced():
        started = time.perf_counter()
        for message in messages:
            engine.ingest(message)
        elapsed = time.perf_counter() - started
    return engine, elapsed


def run_guarded_once(messages, quarantine_path):
    engine = ProvenanceIndexer(engine_config())
    guard = IngestGuard(quarantine_path=quarantine_path)
    quarantined = []
    stack = contextlib.ExitStack()
    stack.enter_context(gc_quiesced())
    started = time.perf_counter()

    def apply(entry):
        if entry.action is GuardAction.BUFFERED:
            return
        if entry.action is GuardAction.QUARANTINE:
            quarantined.append(entry.message.msg_id)
            return
        if entry.action is GuardAction.FOLD:
            result = engine.ingest_folded(entry.message, entry.bundle_id,
                                          entry.duplicate_of)
        else:
            result = engine.ingest(entry.message)
        guard.note_result(entry.message, result.bundle_id)

    for message in messages:
        for entry in guard.admit(message):
            apply(entry)
    for entry in guard.flush():
        apply(entry)
    elapsed = time.perf_counter() - started
    stack.close()
    guard.close()
    return engine, guard, quarantined, elapsed


def run_both(messages, quarantine_dir, scenario):
    plain = guarded = None
    plain_best = on_best = None
    for attempt in range(attempts_for(scenario)):
        engine, elapsed = run_plain_once(messages)
        if plain_best is None or elapsed < plain_best:
            plain, plain_best = engine, elapsed
        quarantine_path = quarantine_dir / \
            f"{scenario}.{attempt}.quarantine.log"
        outcome = run_guarded_once(messages, quarantine_path)
        if on_best is None or outcome[-1] < on_best:
            guarded = outcome[:-1] + (quarantine_path,)
            on_best = outcome[-1]
    return plain, plain_best, guarded, on_best, on_best / plain_best


def scenario_stream(scenario: str):
    if scenario == "organic":
        return StreamGenerator(BASE).generate_list()
    return AdversarialGenerator(AdversarialConfig(
        scenario=scenario, base=BASE)).generate_list()


def test_adversarial_guard(benchmark, emit, tmp_path):
    scenarios = ("organic",) + tuple(ADVERSARIAL_SCENARIOS)
    rows = []
    metrics: "dict[str, float]" = {}
    results: "dict[str, dict[str, float]]" = {}

    def run_all():
        for scenario in scenarios:
            messages = scenario_stream(scenario)
            truth = ground_truth_edges(messages)

            plain, plain_elapsed, best_guarded, on_elapsed, ratio = \
                run_both(messages, tmp_path, scenario)
            guarded, guard, quarantined, quarantine = best_guarded
            off = compare_edge_sets(plain.edge_pairs(), truth)
            on = compare_edge_sets(guarded.edge_pairs(), truth)

            # Zero acknowledged loss: the custody log replays every
            # quarantined id, in verdict order.
            replayed = [m.msg_id for m, _ in
                        QuarantineLog.replay(quarantine)]
            assert replayed == quarantined, scenario
            assert guard.stats.reconciles(guard.buffer_depth), scenario

            results[scenario] = {
                "messages": len(messages),
                "f1_off": off.f1, "f1_on": on.f1,
                "accu_off": off.accuracy, "accu_on": on.accuracy,
                "ret_off": off.coverage, "ret_on": on.coverage,
                "rate_off": len(messages) / plain_elapsed,
                "rate_on": len(messages) / on_elapsed,
                "paired_slowdown": ratio,
                "quarantined": len(quarantined),
                "folded": guard.stats.folded,
                "late": guard.stats.late,
            }
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for scenario in scenarios:
        r = results[scenario]
        rows.append([
            scenario, human_count(r["messages"]),
            f"{format_float(r['f1_off'])} → {format_float(r['f1_on'])}",
            f"{format_float(r['accu_off'])} → "
            f"{format_float(r['accu_on'])}",
            f"{format_float(r['ret_off'])} → {format_float(r['ret_on'])}",
            f"{r['rate_off']:,.0f} → {r['rate_on']:,.0f}",
            f"{r['quarantined']}q/{r['folded']}f/{r['late']}l",
        ])
        for key, value in r.items():
            metrics[f"{scenario.replace('-', '_')}_{key}"] = value

    emit("adversarial_guard", ascii_table(
        ["scenario", "msgs", "f1 off→on", "accu off→on", "ret off→on",
         "msg/s off→on", "verdicts"],
        rows, title="adversarial ingest: guard off → guard on"))

    organic = results["organic"]
    overhead = max(0.0, organic["paired_slowdown"] - 1.0)
    metrics["organic_guard_overhead"] = overhead

    write_bench_json(
        BENCH_JSON, bench="adversarial_guard",
        config={"base_messages": organic["messages"],
                "pool_size": 200, "seed": BASE.seed},
        metrics=metrics)

    # -- acceptance ---------------------------------------------------------
    # The guard must pay for itself where the attack is duplication…
    for scenario in ("spam-flood", "near-dup-storm"):
        assert results[scenario]["f1_on"] >= \
            results[scenario]["f1_off"], results[scenario]
        assert results[scenario]["quarantined"] > 0, results[scenario]
    # …and cost little where there is no attack.
    assert overhead < 0.10, f"guard overhead {overhead:.1%} on organic"
    # Hostile scenarios must not silently disable screening.
    assert results["skewed-clock"]["late"] > 0 or \
        results["skewed-clock"]["quarantined"] > 0
