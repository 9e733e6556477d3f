"""Overload benchmark — what each degradation rung buys and costs.

Three forced-mode variants ingest the same stream in lockstep:

* NORMAL — full Eq. 1 matching, no caps;
* REDUCED — candidate-bundle fan-in capped (Algorithm 1 sees at most
  ``REDUCED_CANDIDATE_CAP`` bundles per message);
* SKELETON — keyword similarity skipped entirely; matching falls back
  to the exact indicants (RT ancestry / URL / hashtag).

Each variant's provenance edges are scored against a full-index
reference (Eq. accuracy / return, as in Fig. 8), so the throughput win
of every rung is reported *together with* the quality it gives up —
degradation is a bargain the operator can see, not a silent loss.

A fourth, regulated run replays the same stream through the admission
controller on a surge arrival schedule and reports the ladder's actual
transitions, tying the forced-mode numbers to the machinery that picks
the mode in production.
"""

from __future__ import annotations

import time

from repro.bench.reporting import ascii_table, human_count
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.metrics import compare_edge_sets
from repro.reliability.overload import (REDUCED_CANDIDATE_CAP, HealthState,
                                        OverloadConfig, OverloadController)
from repro.reliability.supervisor import ResilientIndexer
from repro.storage.wal import JournaledIndexer, MessageJournal


def forced_engine(mode: str) -> ProvenanceIndexer:
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=200))
    if mode == "reduced":
        engine.candidate_cap = REDUCED_CANDIDATE_CAP
    elif mode == "skeleton":
        engine.candidate_cap = REDUCED_CANDIDATE_CAP
        engine.skeleton_matching = True
    return engine


def test_degradation_modes(benchmark, stream, emit):
    sample = stream[: min(8_000, len(stream))]

    reference = ProvenanceIndexer(IndexerConfig.full_index())
    for message in sample:
        reference.ingest(message)
    reference_edges = reference.edge_pairs()

    def run(mode: str):
        engine = forced_engine(mode)
        started = time.perf_counter()
        for message in sample:
            engine.ingest(message)
        return time.perf_counter() - started, engine

    results = {}
    for mode in ("normal", "reduced", "skeleton"):
        timings = []
        engine = None
        for _ in range(2):
            elapsed, engine = run(mode)
            timings.append(elapsed)
        comparison = compare_edge_sets(engine.edge_pairs(), reference_edges)
        results[mode] = (min(timings), comparison)

    # Integrate the headline number with pytest-benchmark.
    benchmark.pedantic(lambda: run("skeleton"), rounds=1, iterations=1)

    rows = []
    normal_rate = len(sample) / results["normal"][0]
    for mode in ("normal", "reduced", "skeleton"):
        elapsed, comparison = results[mode]
        rate = len(sample) / elapsed
        rows.append([mode, f"{rate:,.0f} msg/s",
                     f"{rate / normal_rate:.2f}x",
                     f"{comparison.accuracy:.3f}",
                     f"{comparison.coverage:.3f}"])
    emit("overload_modes", ascii_table(
        ["mode", "throughput", "speedup", "accu", "ret"], rows,
        title=f"degradation rungs ({human_count(len(sample))} messages, "
              "vs full-index reference)"))

    # The ladder's bargain, quantified: SKELETON must at least double
    # ingest throughput, and its quality cost must be *visible* in the
    # report above — degraded accuracy, not silently perfect numbers.
    skeleton_rate = len(sample) / results["skeleton"][0]
    assert skeleton_rate >= 2.0 * normal_rate
    assert results["skeleton"][1].accuracy < results["normal"][1].accuracy
    # REDUCED sits between the extremes on quality.
    assert (results["skeleton"][1].coverage
            <= results["reduced"][1].coverage + 0.01)


def test_regulated_surge_transitions(stream, tmp_path, emit):
    sample = stream[: min(2_400, len(stream))]
    total = len(sample)
    burst = range(total // 4, (total * 7) // 12)

    class ScheduleClock:
        now = 0.0

        def __call__(self) -> float:
            return self.now

    clock = ScheduleClock()
    overload = OverloadController(OverloadConfig(
        rate_limit=1.0, burst=32, max_queue=256, latency_target=10.0,
        escalate_after=8, recover_after=64), clock=clock)
    supervisor = ResilientIndexer(
        JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.partial_index(pool_size=200)),
            MessageJournal(tmp_path / "surge.wal", sync_every=256)),
        sleep=lambda _: None, overload=overload)

    with supervisor:
        for index, message in enumerate(sample):
            clock.now += 0.2 if index in burst else 2.0
            supervisor.ingest(message, now=clock.now)
        supervisor.drain_backlog()
        report = supervisor.health_report()

    stats = report.admission
    rows = [[f"{move.previous.label} → {move.state.label}",
             str(move.observation), f"{move.pressure:.2f}", move.signal]
            for move in report.transitions]
    rows.append(["(final)", report.state.label, "", ""])
    emit("overload_ladder", ascii_table(
        ["transition", "at observation", "pressure", "signal"], rows,
        title=f"regulated 5x surge — {stats.admitted + stats.released} "
              f"ingested, {stats.dropped} dropped, "
              f"{human_count(total)} offered"))

    assert report.transitions, "the surge never moved the ladder"
    assert report.reconciles
    assert report.state in (HealthState.NORMAL, HealthState.REDUCED)
    assert overload.mode_ingests[HealthState.SKELETON] > 0
