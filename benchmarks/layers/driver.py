"""The one closed-loop driver: replay a workload, reduce, check.

Load model: closed loop, one client, load generated from this process
(the only other processes are ``fleet2``'s two workers).  One *replay*
generates the seeded stream, opens a fresh backend in a fresh temporary
directory, ingests the first tenth untimed (pool reaches its bound,
lazy set-up done), collects garbage, then alternates one timed ingest
call with that workload's timed reads until the stream ends, and
finally times the completion barrier (guard flush, journal sync) —
which counts in throughput.  Cross-shard repair of the fleet runs after
that and is timed on its own.

A run makes several identical replays.  This host alternates between
two speed regimes seconds at a time (about 1.75x apart), so a median
over a ten-second window lands in whichever regime dominated it.  Every
timing therefore has an index — the i-th ingest call, the j-th read,
the barrier — and the value kept for an index is the *fastest* of its
replays; throughput, medians and tails are computed over those.  The
outputs of every replay must be identical, which is also the
determinism check.  Replays are the only repetition: how far a value
moves when one of them is left out is the run's own measure of spread.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.message import Message
from repro.core.metrics import compare_edge_sets, ground_truth_edges

import spans
from workloads import SEARCH_K, Workload, is_miss, make_queries

INGEST, SEARCH, COMPLETE = "bench.ingest", "bench.search", "bench.complete"
#: The root spans whose wall time is the ingest path.
INGEST_ROOTS = (INGEST, COMPLETE)
#: Reads issued during warm-up (builds the lazy searcher).
WARM_READS = 3
#: Every stream is sized so one replay's timed part takes about this
#: long on the 2-core reference machine; ``--seconds`` over this is the
#: number of replays, never fewer than :data:`MIN_REPLAYS` (fewer leave
#: too many indices whose every replay hit the slow regime).
REPLAY_SECONDS = 2.0
MIN_REPLAYS = 5
#: Stop starting replays after this much wall time (the harness allows
#: 180 s per run).
WALL_CAP_SECONDS = 100.0


def _sha(value: Any) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _f1(edges: set, truth: set) -> float:
    return compare_edge_sets(edges, truth).f1


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: highest percentile with >= 10 beyond it.

    With fewer than 21 samples that percentile falls below the median
    and says nothing about the tail, so the maximum is reported and the
    percentile recorded as 100.
    """
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class Replay:
    """What one replay measured and observed."""

    setup_s: float = 0.0
    generate_s: float = 0.0
    ingest_s: list[float] = field(default_factory=list)
    search_s: list[float] = field(default_factory=list)
    complete_s: float = 0.0
    reconcile_s: float = 0.0
    #: ``ru_maxrss`` of this process plus its largest reaped child, read
    #: once the backend is closed and before any check runs.
    rss_kb: int = 0
    unit_sizes: list[int] = field(default_factory=list)
    #: ``snapshot()`` after every timed ingest call, summed over them:
    #: index + pool bytes, and messages held in the pool.
    held_bytes: int = 0
    held_messages: int = 0
    arrivals: int = 0
    failed: int = 0
    #: Deterministic outputs: equal across replays and across runs of
    #: one seed (the determinism record).
    facts: dict[str, Any] = field(default_factory=dict)
    #: End-of-replay readings that feed per-layer metrics.
    state: dict[str, float] = field(default_factory=dict)
    #: Public counters, timed window only.
    delta: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    tracer: "spans.Tracer | None" = None

    @property
    def attempted(self) -> int:
        return self.arrivals + len(self.search_s) + WARM_READS

    @property
    def ingest_wall(self) -> float:
        return sum(self.ingest_s) + self.complete_s


def _drive(backend: Any, workload: Workload, stream: list[Message],
           queries: list[str], out: Replay, setup_started: float) -> None:
    """Warm-up, the timed loop and the completion barrier."""
    clock = time.perf_counter
    tracer = out.tracer
    ingest, search, complete = (backend.ingest, backend.indexer.search,
                                backend.complete)
    snapshot = backend.indexer.snapshot
    unit = workload.unit
    warm = math.ceil(len(stream) / 10 / unit) * unit
    for start in range(0, warm, unit):
        ingest(stream[start:start + unit])
    for query in queries[:WARM_READS]:
        search(query, SEARCH_K)
    gc.collect()
    out.setup_s = clock() - setup_started
    if tracer is not None:
        # Root spans start here, so warm-up spans fall under no root
        # and stay out of every per-layer number.
        ingest = tracer.wrap(INGEST, ingest)
        search = tracer.wrap(SEARCH, search)
        complete = tracer.wrap(COMPLETE, complete)

    units = [stream[i:i + unit] for i in range(warm, len(stream), unit)]
    out.unit_sizes = [len(batch) for batch in units]
    reads, every = workload.reads
    before = previous = backend.counters()
    fleet = "route_seconds" in before
    topk: list[list[int]] = []
    cursor = 0
    for index, batch in enumerate(units):
        if tracer is not None:
            tracer.batch = index
        started = clock()
        ingest(batch)
        out.ingest_s.append(clock() - started)
        held = snapshot()
        out.held_bytes += held.total_bytes
        out.held_messages += held.message_count
        if tracer is not None and fleet:
            # The coordinator clocks these itself; book them as children
            # of this call's span so the trace closes over them.
            now = backend.counters()
            for op, name in (("runtime.coordinator.route", "route_seconds"),
                             ("runtime.coordinator.ack_wait",
                              "ack_wait_seconds")):
                tracer.attribute(index, INGEST, op,
                                 now[name] - previous[name], len(batch))
            previous = now
        if (index + 1) % every:
            continue
        for _ in range(reads):
            query = queries[cursor % len(queries)]
            cursor += 1
            started = clock()
            hits = search(query, SEARCH_K)
            out.search_s.append(clock() - started)
            topk.append([hit.bundle_id for hit in hits])
            scores = [hit.score for hit in hits]
            if (len(hits) > SEARCH_K
                    or scores != sorted(scores, reverse=True)
                    or (is_miss(query) and hits)):
                out.problems.append(f"bad search result for {query!r}")
    if tracer is not None:
        tracer.batch = len(units)
    started = clock()
    complete()
    out.complete_s = clock() - started
    # Reconciliation between shards is asynchronous to ingest and its
    # volume swings several-fold with the seed, so it is timed on its
    # own (a per-layer metric), not inside ingest throughput.
    started = clock()
    backend.reconcile()
    out.reconcile_s = clock() - started
    after = backend.counters()
    out.delta = {name: after[name] - before[name] for name in after}
    out.facts["search_topk_sha256"] = _sha(topk)
    out.facts["refine_calls"] = int(after.get("refinements", 0))
    out.facts["wal_fsyncs"] = int(after.get("wal_syncs", 0))
    out.state["hits"] = sum(len(ids) for ids in topk)


def _collect(backend: Any, stream: list[Message], truth: set,
             out: Replay) -> set:
    """Read outputs and accounting after the barrier; returns the edges."""
    indexer = backend.indexer
    facts, state = out.facts, out.state
    edges = indexer.edge_pairs()
    snapshot = indexer.snapshot()
    accounting = backend.accounting()
    if sum(accounting.values()) != len(stream):
        out.problems.append(f"arrivals not conserved: {accounting} for "
                            f"{len(stream)} offered")
    out.failed = sum(accounting.get(name, 0) for name in (
        "shed", "deferred", "dead_lettered", "lost"))
    facts["edges_sha256"] = _sha(sorted(edges))
    facts["state_bytes"] = snapshot.total_bytes
    facts["state_bytes_per_msg"] = out.held_bytes / out.held_messages
    facts["truth_f1"] = _f1(edges, truth)
    facts["accounting"] = accounting
    state["index_bytes"] = snapshot.index_bytes
    state["pool_bytes"] = snapshot.pool_bytes
    backend.observe(facts, state, out.problems)
    return edges


def _verify(backend: Any, workload: Workload, stream: list[Message],
            truth: set, edges: set, out: Replay) -> None:
    """Checks against a reopened root and a bare-engine reference."""
    started = time.perf_counter()
    reopened = backend.reopen()
    if reopened is not None:
        try:
            out.state["recover_s"] = time.perf_counter() - started
            if reopened.indexer.edge_pairs() != edges:
                out.problems.append(
                    "edge_pairs() changed across close and reopen")
        finally:
            reopened.indexer.close()
    if not workload.reference:
        return
    reference = ProvenanceIndexer(IndexerConfig.partial_index(200))
    reference.ingest_batch(stream, count_only=True)
    expected = reference.edge_pairs()
    if workload.reference == "edges" and edges != expected:
        out.problems.append(
            "edges differ from the bare engine's on the same stream")
    floor = 0.98 * _f1(expected, truth)
    if workload.reference == "f1" and out.facts["truth_f1"] < floor:
        out.problems.append(f"truth_f1 {out.facts['truth_f1']:.4f} < 0.98 x "
                            f"single-process = {floor:.4f}")


def replay(workload: Workload, seed: int, *, quick: bool, scratch: Path,
           traced: bool, verify: bool) -> Replay:
    out = Replay(tracer=spans.Tracer() if traced else None)
    setup_started = time.perf_counter()
    stream = workload.stream(
        seed, workload.quick_messages if quick else workload.messages)
    out.generate_s = time.perf_counter() - setup_started
    out.arrivals = len(stream)
    truth = ground_truth_edges(stream)
    queries = make_queries(stream, seed)
    with tempfile.TemporaryDirectory(
            dir=scratch, prefix=workload.name + "-") as tmp, \
            ExitStack() as patches:
        if out.tracer is not None:
            # Before the backend exists: the engine binds some of the
            # wrapped methods into gauge callbacks when it is built.
            patches.enter_context(spans.installed(out.tracer))
        backend = workload.backend(Path(tmp), quick)
        try:
            _drive(backend, workload, stream, queries, out, setup_started)
            patches.close()
            edges = _collect(backend, stream, truth, out)
        finally:
            backend.indexer.close()
        # Read now (close() has reaped the fleet's workers): the checks
        # below reopen the root and build a reference engine, and a peak
        # they set is the checker's, not the backend's.
        out.rss_kb = sum(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        if verify:
            _verify(backend, workload, stream, truth, edges, out)
    return out


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def _fastest(replays: list[Replay], series: str) -> list[float]:
    """Per-index minimum of one timing series across replays."""
    return [min(column)
            for column in zip(*(getattr(r, series) for r in replays))]


def _denoised_wall(replays: list[Replay]) -> float:
    return (sum(_fastest(replays, "ingest_s"))
            + min(r.complete_s for r in replays))


def end_to_end(replays: list[Replay], unit: int) -> dict[str, float]:
    first = replays[0]
    ingest = _fastest(replays, "ingest_s")
    search = _fastest(replays, "search_s")
    full = [s for s, size in zip(ingest, first.unit_sizes) if size == unit]
    batch_tail, batch_pct = tail(full)
    search_tail, search_pct = tail(search)
    return {
        # Like every other timing: a median of five set-ups reads 1.6x
        # high whenever three of them land in the host's slow regime.
        "setup_s": min(r.setup_s for r in replays),
        "ingest_msg_per_s": sum(first.unit_sizes) / _denoised_wall(replays),
        # A lifetime peak, so the last replay's reading covers them all.
        "peak_rss_mb": max(r.rss_kb for r in replays) / 1024.0,
        # Index + pool bytes per message held, over the whole run.  The
        # bytes alone follow how many messages the seed's events keep in
        # the pool: their run mean spreads up to 27% over ten seeds, the
        # end-of-run reading (bench.state_bytes) up to 54%, this 2%.
        "state_bytes_per_msg": first.facts["state_bytes_per_msg"],
        "truth_f1": first.facts["truth_f1"],
        # Measured on every run, but they spread too far from seed to
        # seed (or, failed_fraction, are always 0) to carry a bound of
        # at most 25%; see README.
        "bench.ingest_batch_p50_ms": 1e3 * statistics.median(full),
        "bench.ingest_batch_tail_ms": 1e3 * batch_tail,
        "bench.ingest_batch_tail_pct": batch_pct,
        "bench.ingest_samples": float(len(full)),
        "bench.search_mean_ms": 1e3 * statistics.mean(search),
        "bench.search_p50_ms": 1e3 * statistics.median(search),
        "bench.search_tail_ms": 1e3 * search_tail,
        "bench.search_tail_pct": search_pct,
        "bench.search_samples": float(len(search)),
        "bench.state_bytes": float(first.facts["state_bytes"]),
        "bench.failed_fraction": first.failed / first.attempted,
    }


def leave_one_out(replays: list[Replay], unit: int) -> dict[str, float]:
    """``(max - min) / value`` of every metric over the estimates made
    with one replay left out: how far a value still hangs on a single
    replay.  ``--compare`` calls a metric unresolved when this is wider
    than its bound.  Empty with fewer than three replays."""
    if len(replays) < 3:
        return {}
    whole = end_to_end(replays, unit)
    parts = [end_to_end(replays[:i] + replays[i + 1:], unit)
             for i in range(len(replays))]
    return {name: ((max(p[name] for p in parts) - min(p[name] for p in parts))
                   / value if value else 0.0)
            for name, value in whole.items()}


def per_layer(traced: Replay, all_traced: list[Replay],
              untraced: list[Replay], recover_s: float,
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced replay, and its self-time
    waterfall (seconds by span name under the ingest roots)."""
    tracer = traced.tracer
    assert tracer is not None
    arrivals = sum(traced.unit_sizes)
    queries = len(traced.search_s)
    delta, state, facts = traced.delta, traced.state, traced.facts
    per_msg = 1e6 / arrivals

    def busy(op: str) -> float:
        return tracer.total(op, spans.BUSY, roots=INGEST_ROOTS)

    def calls(op: str) -> float:
        return tracer.total(op, spans.CALLS, roots=INGEST_ROOTS)

    def self_(op: str) -> float:
        return tracer.total(op, spans.SELF, roots=INGEST_ROOTS)

    def count(op: str) -> float:
        return tracer.total(op, spans.COUNT, roots=INGEST_ROOTS)

    waterfall = tracer.self_by_op(INGEST_ROOTS)
    wall = busy(INGEST) + busy(COMPLETE)
    if abs(sum(waterfall.values()) - wall) > 0.01 * wall:
        traced.problems.append(
            f"trace does not close: layers {sum(waterfall.values()):.4f} s "
            f"vs ingest wall {wall:.4f} s")
    engine_busy = busy("core.engine.ingest_batch")
    saves = calls("storage.snapshot.save")
    fleet = "route_seconds" in delta
    service = delta.get("service_seconds", 0.0)
    probes = facts.get("repair_probes", 0)
    plain_wall = _denoised_wall(untraced)
    search_busy = tracer.total("query.bundle_search.search",
                               spans.BUSY, roots=(SEARCH,))
    metrics = {
        "stream.generate_s": traced.generate_s,
        "core.engine.ingest_batch.self_us_per_msg":
            self_("core.engine.ingest_batch") * per_msg,
        "core.engine.select_bundle.self_us_per_msg":
            self_("core.engine.select_bundle") * per_msg,
        "text.analyzer.keywords.us_per_msg":
            busy("text.analyzer.keywords") * per_msg,
        "core.engine.candidates_fetched_per_msg":
            count("core.summary_index.gather_candidates") / arrivals,
        "core.engine.candidates_capped_ratio":
            delta.get("capped", 0.0) / arrivals,
        "core.engine.stage_timer_gap_pct":
            (100.0 * (engine_busy - delta["stage_timer_s"]) / engine_busy
             if engine_busy else 0.0),
        "core.summary_index.gather_candidates.us_per_msg":
            busy("core.summary_index.gather_candidates") * per_msg,
        "core.summary_index.add_message.us_per_msg":
            busy("core.summary_index.add_message") * per_msg,
        "core.summary_index.remove_bundle.us_per_msg":
            busy("core.summary_index.remove_bundle") * per_msg,
        "core.postings.index_bytes": state["index_bytes"],
        "core.postings.entries": state.get("entries", 0.0),
        "core.scoring.bundle_match_scores.us_per_msg":
            busy("core.scoring.bundle_match_scores") * per_msg,
        "core.bundle.insert.us_per_msg":
            busy("core.bundle.insert") * per_msg,
        "core.pool.refine.us_per_msg": busy("core.pool.refine") * per_msg,
        "core.pool.refine.calls": calls("core.pool.refine"),
        "core.pool.evicted_bundles": count("core.pool.refine"),
        "core.pool.approximate_memory_bytes.us_per_msg":
            busy("core.pool.approximate_memory_bytes") * per_msg,
        "core.pool.approximate_memory_bytes.calls":
            calls("core.pool.approximate_memory_bytes"),
        "core.pool.pool_bytes": state["pool_bytes"],
        "core.dedup.check_and_add.us_per_msg":
            busy("core.dedup.check_and_add") * per_msg,
        "storage.wal.append.us_per_msg":
            busy("storage.wal.append") * per_msg,
        "storage.wal.sync.us_per_msg": busy("storage.wal.sync") * per_msg,
        "storage.wal.fsyncs": calls("storage.wal.sync"),
        "storage.wal.bytes_per_msg": delta.get("wal_bytes", 0.0) / arrivals,
        "storage.wal.recover_s": recover_s,
        "storage.snapshot.save.s_per_call":
            busy("storage.snapshot.save") / saves if saves else 0.0,
        "storage.snapshot.save.calls": saves,
        "storage.bundle_store.append.us_per_msg":
            busy("storage.bundle_store.append") * per_msg,
        "storage.bundle_store.bundles": state.get("store_bundles", 0.0),
        "storage.bundle_store.bytes_per_bundle":
            (state["store_bytes"] / state["store_bundles"]
             if "store_bundles" in state else 0.0),
        "reliability.guard.admit.us_per_msg":
            busy("reliability.guard.admit") * per_msg,
        "reliability.guard.note_result.us_per_msg":
            busy("reliability.guard.note_result") * per_msg,
        "reliability.guard.fold_ratio": facts.get("fold_ratio", 0.0),
        "reliability.guard.quarantine_ratio":
            state.get("quarantine_ratio", 0.0),
        "reliability.overload.offer.us_per_msg":
            busy("reliability.overload.offer") * per_msg,
        "reliability.overload.apply_mode.us_per_msg":
            busy("reliability.overload.apply_mode") * per_msg,
        "reliability.overload.note_ingest.us_per_msg":
            busy("reliability.overload.note_ingest") * per_msg,
        "reliability.overload.ladder_transitions":
            state.get("ladder_transitions", 0.0),
        "reliability.supervisor.ingest.self_us_per_msg":
            self_("reliability.supervisor.ingest") * per_msg,
        "reliability.supervisor.retries": state.get("retries", 0.0),
        "reliability.supervisor.dead_lettered":
            facts["accounting"].get("dead_lettered", 0.0),
        "runtime.coordinator.route.us_per_msg":
            delta.get("route_seconds", 0.0) * per_msg,
        "runtime.coordinator.ack_wait.us_per_msg":
            delta.get("ack_wait_seconds", 0.0) * per_msg,
        "runtime.coordinator.batches_sent": delta.get("batches_sent", 0.0),
        "runtime.coordinator.search_scatter.us_per_query":
            1e6 * sum(traced.search_s) / queries if fleet else 0.0,
        "runtime.worker.service.us_per_msg": service * per_msg,
        "runtime.worker.queue_wait.us_per_msg":
            delta.get("queue_wait_seconds", 0.0) * per_msg,
        "runtime.worker.queue_wait_over_service":
            delta["queue_wait_seconds"] / service if service else 0.0,
        "runtime.worker.shard_skew": state.get("shard_skew", 0.0),
        "runtime.repair.until_clean_s": traced.reconcile_s,
        "runtime.repair.boundary_hints": state.get("boundary_hints", 0.0),
        "runtime.repair.probes": probes,
        "runtime.repair.yield_ratio":
            state["repaired"] / probes if probes else 0.0,
        "query.bundle_search.search.us_per_query":
            1e6 * search_busy / queries,
        "query.bundle_search.hits_per_query": state["hits"] / queries,
        "bench.trace_overhead_pct":
            100.0 * (_denoised_wall(all_traced) - plain_wall) / plain_wall,
        "bench.unattributed_share":
            (self_(INGEST) + self_(COMPLETE)) / wall,
    }
    return metrics, waterfall


def run(workload: Workload, seed: int, *, seconds: float, quick: bool,
        trace: bool, results: Path) -> dict[str, Any]:
    """All replays of one run; returns the result document."""
    started = time.perf_counter()
    scratch = results / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    count = 1 if quick else max(MIN_REPLAYS, round(seconds / REPLAY_SECONDS))
    if trace:
        count = 2 * math.ceil(count / 2)    # traced, untraced, traced, ...
    replays: list[Replay] = []
    for index in range(count):
        over = (index >= 1
                and time.perf_counter() - started > WALL_CAP_SECONDS)
        last = index == count - 1 or over
        replays.append(replay(
            workload, seed, quick=quick, scratch=scratch,
            traced=trace and index % 2 == 0, verify=last))
        if last:
            break

    untraced = [r for r in replays if r.tracer is None]
    metrics = end_to_end(untraced, workload.unit)
    document: dict[str, Any] = {
        "spread": leave_one_out(untraced, workload.unit),
        "workload": workload.name, "seed": seed, "quick": quick,
        "trace": trace, "replays": len(replays),
        "attempted": sum(r.attempted for r in replays),
        "failed": sum(r.failed for r in replays),
        "facts": replays[0].facts,
    }
    if trace:
        all_traced = [r for r in replays if r.tracer is not None]
        cleanest = min(all_traced, key=lambda r: r.ingest_wall)
        layers, document["waterfall_s"] = per_layer(
            cleanest, all_traced, untraced,
            replays[-1].state.get("recover_s", 0.0))
        layers.update((name, value) for name, value in metrics.items()
                      if name.startswith("bench."))
        metrics = layers
        assert cleanest.tracer is not None
        path = results / f"trace-{workload.name}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for row in cleanest.tracer.rows():
                handle.write(json.dumps(row) + "\n")

    problems = [p for r in replays for p in r.problems]
    if any(r.facts != replays[0].facts for r in replays[1:]):
        problems.append("replays of one seed disagree on the determinism "
                        f"record: {[r.facts for r in replays]}")
    leftover = spans.still_installed()
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    document["metrics"] = metrics
    document["problems"] = problems
    return document
