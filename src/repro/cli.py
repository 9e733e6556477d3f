"""Command-line interface: generate, index, search, inspect.

The CLI chains the library's pieces through two file formats — TSV
datasets (:mod:`repro.stream.dataset`) and indexer snapshots
(:mod:`repro.storage.snapshot`) — so a whole experiment can be driven
from a shell::

    repro generate --days 2 --rate 4000 --seed 7 -o stream.tsv
    repro stats stream.tsv
    repro index stream.tsv --pool-size 500 -o state.json
    repro search state.json "tsunami warning" -k 5
    repro show state.json 42 --storyline

Install exposes the ``repro`` entry point; ``python -m repro.cli`` works
without installation.
"""

from __future__ import annotations

import argparse
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.reporting import ascii_table, human_bytes, human_count
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.graph import render_tree
from repro.query.bundle_search import ALPHA, BETA, BundleSearchEngine
from repro.query.ranking import quality_score
from repro.query.timeline import extract_storyline
from repro.storage.archive_index import ArchivedBundleStore
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.stream.dataset import iter_tsv, save_tsv
from repro.stream.generator import StreamConfig, StreamGenerator
from repro.stream.stats import describe_stream

__all__ = ["main", "build_parser"]


def _stamp(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M")


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic stream and save it as TSV."""
    config = StreamConfig(
        seed=args.seed, days=args.days, messages_per_day=args.rate,
        user_count=args.users, events_per_day=args.events_per_day,
        noise_fraction=args.noise)
    count = save_tsv(StreamGenerator(config).generate(), args.output)
    print(f"wrote {human_count(count)} messages to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Describe a TSV dataset."""
    stats = describe_stream(iter_tsv(args.dataset))
    rows = [
        ["messages", human_count(stats.message_count)],
        ["users", human_count(stats.user_count)],
        ["span", f"{stats.span_days:.1f} days"],
        ["rate", f"{stats.messages_per_day:,.0f} msgs/day"],
        ["retweets", f"{stats.retweet_fraction:.1%}"],
        ["with hashtags", f"{stats.hashtag_fraction:.1%}"],
        ["with urls", f"{stats.url_fraction:.1%}"],
        ["distinct hashtags", human_count(stats.distinct_hashtags)],
        ["top hashtags", ", ".join(
            f"#{tag}({count})" for tag, count in stats.top_hashtags[:5])],
    ]
    print(ascii_table(["property", "value"], rows,
                      title=f"dataset {args.dataset}"))
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    """Index a TSV dataset and snapshot the resulting state."""
    if args.pool_size is not None and args.bundle_limit is not None:
        config = IndexerConfig.bundle_limit(pool_size=args.pool_size,
                                            bundle_size=args.bundle_limit)
    elif args.pool_size is not None:
        config = IndexerConfig.partial_index(pool_size=args.pool_size)
    else:
        config = IndexerConfig.full_index()
    store = ArchivedBundleStore(args.store) if args.store else None
    indexer = ProvenanceIndexer(config, store=store)

    started = time.perf_counter()
    count = 0
    for message in iter_tsv(args.dataset):
        indexer.ingest(message)
        count += 1
    elapsed = time.perf_counter() - started

    saved = save_snapshot(indexer, args.output)
    if store is not None:
        store.close()
    memory = indexer.snapshot()
    print(f"indexed {human_count(count)} messages in {elapsed:.1f}s "
          f"({count / max(elapsed, 1e-9):,.0f} msg/s)")
    print(f"pool: {saved} bundles, "
          f"{human_count(memory.message_count)} messages, "
          f"{human_bytes(memory.total_bytes)}; "
          f"{indexer.stats.refinements} refinement scans")
    if store is not None:
        print(f"store: {len(store)} bundles at {store.store.directory} "
              "(searchable with `repro archive`)")
    print(f"snapshot: {args.output}")
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """Search bundles that were evicted/closed to the on-disk archive."""
    store = ArchivedBundleStore(args.store)
    hits = store.search(args.query, k=args.k)
    if not hits:
        print("no matching archived bundles")
        return 1
    print(ascii_table(
        ["bundle", "size", "score", "last post", "summary"],
        [[hit.bundle_id, hit.size, f"{hit.score:.1f}",
          _stamp(hit.last_update), ", ".join(hit.summary_words[:6])]
         for hit in hits],
        title=f"archived bundles for {args.query!r}"))
    if args.show is not None:
        bundle = store.load(args.show)
        print()
        print(render_tree(bundle, max_text=60))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """Eq. 7 bundle search over a snapshot, or over a fleet root (a
    directory holding a ``runtime.json`` marker)."""
    budget = args.budget_ms / 1000.0 if args.budget_ms is not None else None
    runtime = _open_fleet(Path(args.path))
    if runtime is not None:
        return _search_fleet(args, runtime, budget)
    indexer = load_snapshot(args.path)
    engine = BundleSearchEngine(indexer, alpha=args.alpha, beta=args.beta)
    outcome = engine.search_within(args.query, args.k,
                                   budget_seconds=budget)
    hits = outcome.hits
    if not hits:
        if outcome.partial:
            print(f"no results within the {args.budget_ms:g} ms budget "
                  f"(scored {outcome.candidates_scored} of "
                  f"{outcome.candidates_total} candidates)")
        else:
            print("no matching bundles")
        return 1
    if outcome.partial:
        print(f"PARTIAL: budget of {args.budget_ms:g} ms expired after "
              f"{outcome.candidates_scored} of {outcome.candidates_total} "
              "candidates — ranking may be incomplete")
    print(ascii_table(
        ["bundle", "size", "score", "quality", "last post", "summary"],
        [[hit.bundle_id, hit.size, f"{hit.score:.3f}",
          f"{quality_score(hit.bundle):.2f}", _stamp(hit.last_post),
          ", ".join(hit.summary_words[:6])]
         for hit in hits],
        title=f"bundles for {args.query!r}"))
    return 0


def _search_fleet(args: argparse.Namespace, runtime,
                  budget: "float | None") -> int:
    """Scatter-gather search over a reopened fleet."""
    with runtime:
        outcome = runtime.search_within(args.query, args.k,
                                        alpha=args.alpha, beta=args.beta,
                                        budget_seconds=budget)
    if not outcome.hits:
        print("no matching bundles across the fleet"
              + (" (partial: budget expired)" if outcome.partial else ""))
        return 1
    if outcome.partial:
        print(f"PARTIAL: scored {outcome.candidates_scored} of "
              f"{outcome.candidates_total} candidates fleet-wide — "
              "ranking may be incomplete")
    print(ascii_table(
        ["shard", "bundle", "size", "score", "last post", "summary"],
        [[shard, hit.bundle_id, hit.size, f"{hit.score:.3f}",
          _stamp(hit.last_post), ", ".join(hit.summary_words[:6])]
         for shard, hit in zip(outcome.shards, outcome.hits)],
        title=f"fleet bundles for {args.query!r} "
              f"({runtime.workers} shards, "
              f"coverage {outcome.coverage:.0%})"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Ingest a stream through the multiprocess sharded runtime.

    Spawns ``--workers`` shard processes (each a full resilient stack
    with its own WAL and bundle store under ``--root``), pipelines the
    stream through the router, and periodically prints a dashboard
    frame.  Each frame merges every worker's metrics registry into one
    fleet view — the same numbers ``repro top`` and the Prometheus
    export would show for a single process, plus per-shard rows.
    """
    import contextlib
    import tempfile

    from repro.obs import MetricsRegistry
    from repro.obs.dashboard import Dashboard
    from repro.runtime import ShardedRuntime, merge_worker_dumps

    messages = _load_or_generate(args)
    with contextlib.ExitStack() as stack:
        root = args.root
        if root is None:
            root = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-"))
        trace_sink = args.trace_out
        if trace_sink is None and args.trace_sample > 0.0:
            trace_sink = str(Path(root) / "fleet_trace.jsonl")
        runtime = stack.enter_context(ShardedRuntime(
            root, args.workers, router=args.router,
            sync_every=args.sync_every,
            trace_sample=args.trace_sample, trace_seed=args.seed,
            trace_sink=trace_sink, profile_dir=args.profile_dir,
            anatomy=args.anatomy))
        # One clock for the frames and the summary: a rate spans the run.
        dashboard = Dashboard(MetricsRegistry(), clock=time.perf_counter)
        indexed = 0
        since_repair = 0
        for offset in range(0, len(messages), args.refresh):
            window = messages[offset:offset + args.refresh]
            indexed += runtime.ingest_stream(window,
                                             batch_size=args.batch_size)
            since_repair += len(window)
            if args.repair_interval and since_repair >= args.repair_interval:
                runtime.repair_pass()
                since_repair = 0
            if not args.once:
                dashboard.registry = merge_worker_dumps(
                    runtime.telemetry_dumps())
                print(dashboard.frame())
                print()
        # Drain whatever boundary backlog remains so the fleet converges
        # before the final report (the cooccurrence router is the only
        # one that emits boundary hints; for hash routing this is a
        # no-op round).
        if args.repair_interval or args.router == "cooccurrence":
            runtime.repair_until_clean()
        runtime.checkpoint()
        dashboard.registry = merge_worker_dumps(runtime.telemetry_dumps())
        print(dashboard.frame())
        elapsed = dashboard.elapsed
        stats = runtime.stats
        print(f"\nindexed {human_count(indexed)} of "
              f"{human_count(len(messages))} messages in {elapsed:.1f}s "
              f"({indexed / max(elapsed, 1e-9):,.0f} msg/s) across "
              f"{args.workers} workers; {stats.batches_sent} batches, "
              f"{stats.restarts} restarts")
        print(f"latency split: routing {stats.route_seconds:.2f}s, "
              f"ack wait {stats.ack_wait_seconds:.2f}s = "
              f"queue wait {stats.queue_wait_seconds:.2f}s + "
              f"service {stats.service_seconds:.2f}s "
              f"(shard-seconds, pipelined)")
        if stats.boundary_hints:
            print(f"coordination: {stats.boundary_hints} boundary hints, "
                  f"{stats.repair_rounds} repair rounds, "
                  f"{stats.repair_edges} edges repaired")
        if args.trace_sample > 0.0 and trace_sink is not None:
            print(f"fleet traces: {trace_sink} (inspect with "
                  f"`repro trace {trace_sink}`)")
        if args.profile_dir is not None:
            print(f"profiles: {args.profile_dir}/*.folded "
                  f"(collapsed-stack flamegraph input)")
        if args.root is not None:
            print(f"fleet root: {root} (search it with "
                  f"`repro search {root} QUERY`)")
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Scan (and optionally repair) WAL / snapshot / store / quarantine."""
    from repro.reliability.doctor import (quarantine_snapshot, repair_log,
                                          repair_store, scan_log,
                                          scan_snapshot, scan_store)
    from repro.reliability.guard import QuarantineLog
    from repro.storage.wal import MessageJournal

    if not (args.wal or args.snapshot or args.store or args.fleet
            or args.quarantine):
        print("error: give at least one of --wal / --snapshot / --store "
              "/ --fleet / --quarantine", file=sys.stderr)
        return 2

    def log(owner):
        return (lambda path: scan_log(path, owner),
                lambda path: [repair_log(path, owner)])

    targets = (("wal", args.wal, *log(MessageJournal)),
               ("snapshot", args.snapshot, scan_snapshot,
                quarantine_snapshot),
               ("store", args.store, scan_store, repair_store),
               ("quarantine", args.quarantine, *log(QuarantineLog)))
    rows = []
    issues = 0
    repaired = 0
    for name, path, scan, repair in targets:
        if not path:
            continue
        report = scan(path)
        rows.append([name, str(path), report.describe()])
        if report.healthy:
            continue
        issues += 1
        if args.repair:
            rows.append([name, str(path), _repaired(repair(path))])
            repaired += 1

    if args.fleet:
        issues, repaired = _doctor_fleet(args, rows, issues, repaired)

    print(ascii_table(["artifact", "path", "finding"], rows,
                      title="repro doctor"))
    if issues == 0:
        print("all artifacts healthy")
        return 0
    if args.repair:
        print(f"{issues} issue(s) found, {repaired} artifact(s) repaired")
        return 0 if repaired == issues else 1
    print(f"{issues} issue(s) found — run again with --repair to fix")
    return 1


def _repaired(outcome) -> str:
    """The finding row of one repair: a snapshot set aside (its new
    path), or files rewritten down to their valid records."""
    if isinstance(outcome, Path):
        return (f"quarantined to {outcome.name}; recovery will replay "
                "the journal from scratch")
    kept = sum(result.kept_records for result in outcome)
    dropped = sum(result.dropped_lines for result in outcome)
    before = sum(result.bytes_before for result in outcome)
    after = sum(result.bytes_after for result in outcome)
    return (f"repaired {len(outcome)} file(s) — kept {kept} records, "
            f"dropped {dropped} line(s), {before} → {after} bytes")


def _open_fleet(root: Path):
    """The fleet ``root``'s ``runtime.json`` marker describes, reopened
    with the workers and router it was served with (worker WAL replay
    restores every shard), or ``None`` when ``root`` has no marker."""
    import json

    from repro.runtime import ShardedRuntime

    marker_path = root / "runtime.json"
    if not marker_path.is_file():
        return None
    marker = json.loads(marker_path.read_text())
    return ShardedRuntime(root, int(marker["workers"]),
                          router=marker["router"])


def _doctor_fleet(args: argparse.Namespace, rows: list,
                  issues: int, repaired: int) -> "tuple[int, int]":
    """Cross-shard orphan scan (and optional repair replay) of a fleet.

    An orphan is a durably acknowledged boundary-log entry past the
    shard's reconciliation cursor: the router flagged the message's
    provenance as possibly crossing a shard cut, and no repair pass has
    examined it yet.  ``--repair`` reopens the fleet
    (:func:`_open_fleet`) and runs reconciliation passes until the
    backlog drains; it counts as a repair only when a re-scan finds no
    orphan left.
    """
    from repro.runtime.repair import scan_fleet_repair

    root = Path(args.fleet)
    scans = scan_fleet_repair(root)
    if not scans:
        rows.append(["fleet", str(root),
                     "no shard directories found (not a fleet root?)"])
        return issues + 1, repaired
    for shard, scan in sorted(scans.items()):
        if scan.healthy:
            finding = (f"ok — {scan.journaled} boundary entries, "
                       f"{scan.repaired} repairs journaled")
        else:
            sample = ", ".join(str(m) for m in scan.orphans[:5])
            finding = (f"{scan.pending} orphaned boundary entries "
                       f"(cursor {scan.cursor}; msgs {sample}"
                       + ("…" if scan.pending > 5 else "") + ")")
        rows.append([f"shard-{shard:02d}", str(root), finding])
    orphaned = sum(scan.pending for scan in scans.values())
    if orphaned == 0:
        return issues, repaired
    issues += 1
    if not args.repair:
        return issues, repaired
    runtime = _open_fleet(root)
    if runtime is None:
        rows.append(["fleet", str(root),
                     "has no runtime.json marker — not a fleet root "
                     "created by `repro serve --root`"])
        return issues, repaired
    with runtime:
        report = runtime.repair_until_clean()
        runtime.checkpoint()
    left = sum(s.pending for s in scan_fleet_repair(root).values())
    rows.append(["fleet", str(root),
                 f"reconciled {report['advanced']} entries in "
                 f"{report['rounds']} pass(es), repaired "
                 f"{report['repaired']} edges, {left} orphan(s) left"])
    return issues, repaired + (1 if left == 0 else 0)


class _ScheduleClock:
    """Monotonic clock following a synthetic arrival schedule."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _surge_stack(root: Path, total: int, surge: float, *, obs=None,
                 guard: bool = False, **options):
    """The resilient stack every surge replay runs through.

    WAL, snapshots, bundle store, admission control, degradation ladder
    and spill breaker, on a clock that follows a synthetic arrival
    schedule decoupled from the message dates: a calm warm-up at the
    sustainable rate, a burst at ``surge`` times it, then a cool-down at
    half rate so the backlog can drain and the ladder can climb back
    down.  ``guard`` and ``options`` go to :class:`ResilientIndexer`.
    Returns ``(supervisor, clock, schedule)`` where ``schedule(index)``
    advances the clock to arrival ``index`` of ``total``.
    """
    from repro.reliability.overload import OverloadConfig, OverloadController
    from repro.reliability.supervisor import ResilientIndexer
    from repro.storage.bundle_store import BundleStore
    from repro.storage.wal import JournaledIndexer, MessageJournal

    clock = _ScheduleClock()
    sustainable = 1.0  # messages per scheduled second
    burst_start, burst_end = total // 4, (total * 7) // 12

    def schedule(index: int) -> float:
        if burst_start <= index < burst_end:
            clock.now += 1.0 / (sustainable * surge)
        else:
            clock.now += 2.0 / sustainable
        return clock.now

    overload = OverloadController(OverloadConfig(
        rate_limit=sustainable, burst=32, max_queue=256,
        latency_target=10.0,  # wall latency is not the signal here
        escalate_after=8, recover_after=64,
        breaker_failures=3, breaker_reset_after=120.0), clock=clock)
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=100),
                               store=BundleStore(root / "bundles"), obs=obs)
    journaled = JournaledIndexer(
        engine, MessageJournal(root / "ingest.wal", sync_every=256),
        snapshot_path=root / "state.json", snapshot_every=10_000)
    supervisor = ResilientIndexer(journaled, sleep=lambda _: None,
                                  overload=overload, guard=guard, **options)
    return supervisor, clock, schedule


def _replay(supervisor, schedule, messages, *, start: int = 0,
            stop: "int | None" = None, each=None) -> None:
    """Ingest arrivals ``start:stop`` on the surge schedule, calling
    ``each(index)`` after every one; once the last arrival is in, drain
    the admission backlog."""
    stop = len(messages) if stop is None else stop
    for index in range(start, stop):
        supervisor.ingest(messages[index], now=schedule(index))
        if each is not None:
            each(index)
    if stop == len(messages):
        supervisor.drain_backlog()


def _generate(seed: int, total: int):
    """The synthetic stream a surge replay runs over by default."""
    return StreamGenerator(StreamConfig(
        seed=seed, days=total / 100_000.0, messages_per_day=100_000,
        user_count=max(total // 10, 50),
        events_per_day=240.0)).generate_list()


def cmd_health(args: argparse.Namespace) -> int:
    """Self-check the overload machinery on a synthetic surge.

    Replays a generated burst at several times the configured
    sustainable rate through the full resilient stack (WAL, snapshots,
    bundle store, admission control, degradation ladder, spill
    breaker), optionally with injected store faults, then prints the
    health report.  Exit 0 when every arrival is accounted for and the
    ladder recovered; 1 otherwise.
    """
    import tempfile

    from repro.reliability.faults import Fault, FaultInjector
    from repro.reliability.overload import HealthState

    total = args.messages
    messages = _generate(args.seed, total)
    # Descending nth = consecutive failures: when the fault with the
    # smallest remaining nth fires, the later-firing faults (earlier in
    # the list) have already counted the occurrence.
    faults = [Fault(op="write", nth=n, kind="error", path_part="segment-")
              for n in range(args.chaos_faults, 0, -1)]

    with tempfile.TemporaryDirectory(prefix="repro-health-") as scratch:
        supervisor, _, schedule = _surge_stack(Path(scratch), total,
                                               args.surge)
        overload = supervisor.overload
        with supervisor:
            # The sick-disk episode outlasts the burst: the breaker must
            # hold through the ladder's recovery, then resume spilling
            # once the final fault-free stretch lets a probe through.
            chaos_until = (total * 3) // 4 if args.chaos else 0
            if args.chaos:
                with FaultInjector(faults):
                    _replay(supervisor, schedule, messages,
                            stop=chaos_until)
            _replay(supervisor, schedule, messages, start=chaos_until)
            if overload.guarded is not None:
                overload.guarded.flush()
            report = supervisor.health_report()

    assert report is not None
    print(ascii_table(["property", "value"], report.rows(),
                      title=f"repro health — {total} msg surge at "
                            f"{args.surge:g}x sustainable"
                            + (" + store chaos" if args.chaos else "")))
    engine = supervisor.indexer
    print(f"engine: {engine.stats.messages_ingested} indexed, "
          f"{engine.stats.skeleton_ingests} in skeleton mode, "
          f"{len(engine.edge_pairs())} edges")
    healthy = (report.reconciles
               and report.state in (HealthState.NORMAL,
                                    HealthState.REDUCED))
    if args.chaos and overload.guarded is not None:
        recovered_spill = (overload.guarded.parked_count == 0
                           and overload.guarded.spilled > 0)
        print("spill path: "
              + ("recovered — parked backlog flushed to disk"
                 if recovered_spill else
                 f"{overload.guarded.parked_count} bundle(s) still parked"))
        healthy = healthy and recovered_spill
    print("overall: " + ("healthy" if healthy else "DEGRADED"))
    return 0 if healthy else 1


def _telemetry_stack(args: argparse.Namespace, root, messages,
                     audit=None, trace_out=None, telemetry_out=None):
    """:func:`_surge_stack` with telemetry wired through every layer.

    An :class:`~repro.obs.Observability` lights up the whole metric
    catalog for ``top``/``metrics``/``explain``/``profile``.  When the
    stream carries ground-truth ``parent_id`` edges (generated streams
    and TSV replays), a :class:`~repro.obs.QualityMonitor` watches live
    accu/ret as well.  ``trace_out`` and ``telemetry_out`` are the
    tracer's and the flight recorder's JSONL sinks.  Returns what
    :func:`_surge_stack` does.
    """
    from repro.obs import (AuditLog, DEFAULT_QUALITY_RULES, Observability,
                           QualityMonitor, Tracer, WorkloadAnatomy)

    tracer = None
    if args.sample > 0:
        tracer = Tracer(sample_rate=args.sample, seed=args.seed,
                        sink=trace_out)
    if audit is None and args.audit_out is not None:
        audit = AuditLog(sink=args.audit_out)
    obs = Observability(tracer=tracer, audit=audit)
    # Workload anatomy rides every instrumented replay: the sketches
    # and shape histograms feed the `repro top` anatomy panel and the
    # fingerprint/capacity machinery of `repro anatomy`.
    obs.anatomy = WorkloadAnatomy(obs.registry)
    # Memory-only ingest guard (no quarantine/fold files for a scratch
    # replay): lights up the repro_guard_* series and the `repro top`
    # guard panel.  It does change where messages land: generated
    # streams are full of verbatim re-shares, and the guard folds each
    # into its origin's bundle (the benchmark's dense stream, seed 7,
    # 4 096 arrivals: 1 331 folds, 982 edges unlike an unguarded run's).
    stack = _surge_stack(root, len(messages), args.surge, obs=obs,
                         telemetry=telemetry_out, guard=True)
    engine = stack[0].indexer
    if any(message.parent_id is not None for message in messages):
        obs.quality = QualityMonitor(
            obs.registry, rules=DEFAULT_QUALITY_RULES,
            rung=lambda: engine.current_rung, audit=obs.audit)
    return stack


def _load_or_generate(args: argparse.Namespace):
    """The message list a telemetry replay runs over."""
    if args.dataset is not None:
        messages = list(iter_tsv(args.dataset))
        if args.messages is not None:
            messages = messages[:args.messages]
        return messages
    return _generate(args.seed,
                     args.messages if args.messages is not None else 3000)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over an instrumented surge replay.

    With ``--once``, replays the whole stream and prints one final
    frame (plus one warm-up frame internally for the rate window);
    otherwise renders a frame every ``--refresh`` messages with ANSI
    screen clearing — ``repro top`` against a fast replay behaves like
    ``top`` against a live ingest process.
    """
    import tempfile

    from repro.obs.dashboard import Dashboard

    messages = _load_or_generate(args)
    with tempfile.TemporaryDirectory(prefix="repro-top-") as scratch:
        supervisor, clock, schedule = _telemetry_stack(
            args, Path(scratch), messages, trace_out=args.trace_out,
            telemetry_out=args.telemetry_out)
        dashboard = Dashboard(supervisor.indexer.obs.registry,
                              health=supervisor.health_report,
                              clock=clock)

        def live(index: int) -> None:
            if (index + 1) % args.refresh == 0:
                print(dashboard.live_frame())

        with supervisor:
            _replay(supervisor, schedule, messages,
                    each=None if args.once or args.refresh <= 0 else live)
            anatomy = supervisor.indexer.obs.anatomy
            if anatomy is not None:
                # Final-frame freshness: mirror the sketch tops and run
                # the memory accountant so the anatomy panel shows
                # end-of-replay numbers, not the last auto-publish.
                anatomy.publish()
                anatomy.account(supervisor.indexer, supervisor.guard)
            final = (dashboard.frame() if args.once
                     else dashboard.live_frame())
            print(final)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the full metrics snapshot of an instrumented replay.

    ``--format prometheus`` prints the text exposition format (pipe it
    to a file for a node-exporter textfile collector); ``--format
    json`` prints the registry snapshot document.
    """
    import tempfile

    from repro.obs import render_json, render_prometheus

    messages = _load_or_generate(args)
    with tempfile.TemporaryDirectory(prefix="repro-metrics-") as scratch:
        supervisor, _, schedule = _telemetry_stack(
            args, Path(scratch), messages)
        with supervisor:
            _replay(supervisor, schedule, messages)
            registry = supervisor.indexer.obs.registry
            if args.format == "json":
                print(render_json(registry))
            else:
                print(render_prometheus(registry), end="")
    return 0


def cmd_anatomy(args: argparse.Namespace) -> int:
    """Characterize the workload for the hot-path rewrite.

    Three modes:

    * **replay** (default): ingest the stream through a plain
      instrumented engine, appending byte-deterministic workload
      fingerprints to ``--fingerprint-out`` (every ``--interval``
      messages plus a final record) and printing the fingerprint +
      capacity report.  Replaying the same seeded stream twice yields
      byte-identical JSONL — the CI determinism gate relies on it.
    * ``--report FILE``: offline — render the last fingerprint of an
      existing JSONL file (no replay).
    * ``--diff BEFORE AFTER``: offline — drift between the last
      fingerprints of two JSONL files (hot-term churn, growth-rate and
      memory deltas).
    """
    from repro.obs import (Observability, WorkloadAnatomy, capacity_report,
                           read_jsonl)
    from repro.obs.anatomy import (render_capacity_report, render_diff,
                                   render_fingerprint, diff_fingerprints)

    def last_fingerprint(path: str):
        record = None
        for record in read_jsonl(path):
            pass
        if record is None:
            print(f"error: no fingerprints in {path}", file=sys.stderr)
        return record

    if args.diff is not None:
        before = last_fingerprint(args.diff[0])
        after = last_fingerprint(args.diff[1])
        if before is None or after is None:
            return 1
        print(render_diff(diff_fingerprints(before, after)))
        return 0
    if args.report is not None:
        record = last_fingerprint(args.report)
        if record is None:
            return 1
        print(render_fingerprint(record))
        print()
        print(render_capacity_report(capacity_report(record)))
        return 0

    messages = _load_or_generate(args)
    obs = Observability()
    anatomy = WorkloadAnatomy(obs.registry,
                              sample_every=args.sample_every)
    obs.anatomy = anatomy
    engine = ProvenanceIndexer(
        IndexerConfig.partial_index(pool_size=100), obs=obs)
    out = args.fingerprint_out
    for index, message in enumerate(messages):
        engine.ingest(message)
        if (out is not None and args.interval
                and (index + 1) % args.interval == 0):
            anatomy.write_fingerprint(out, anatomy.fingerprint(engine))
    record = anatomy.fingerprint(engine)
    if out is not None:
        anatomy.write_fingerprint(out, record)
        print(f"fingerprints: {out}", file=sys.stderr)
    print(render_fingerprint(record))
    print()
    print(render_capacity_report(capacity_report(record)))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct one message's decision narrative.

    With ``--audit LOG`` the explanation is rebuilt from an existing
    JSONL audit log (a prior ``--audit-out`` run); otherwise the stream
    is replayed through the instrumented stack with an in-memory audit
    ring sized to hold every decision, and the narrative printed from
    the ring — candidates, Eq. 1/Eq. 2–5 scores, placement, and any
    later refinement that evicted the bundle.
    """
    import tempfile

    from repro.obs import AuditLog, explain_from_jsonl

    if args.audit is not None:
        explanation = explain_from_jsonl(args.audit, args.message_id)
        if explanation is None:
            print(f"message {args.message_id} has no decision record in "
                  f"{args.audit}", file=sys.stderr)
            return 1
        print(explanation.render())
        return 0

    messages = _load_or_generate(args)
    audit = AuditLog(capacity=len(messages) + 1024,
                     sink=args.audit_out)
    with tempfile.TemporaryDirectory(prefix="repro-explain-") as scratch:
        supervisor, _, schedule = _telemetry_stack(
            args, Path(scratch), messages, audit=audit)
        with supervisor:
            _replay(supervisor, schedule, messages)
    explanation = audit.explain(args.message_id)
    if explanation is None:
        print(f"message {args.message_id} was not seen in the replay "
              f"({len(messages)} messages)", file=sys.stderr)
        return 1
    print(explanation.render())
    return 0


def _audit_rows(records) -> "list[list[object]]":
    """Table rows for ``repro audit`` over decision-record dicts."""
    from repro.obs.audit import rung_label

    rows = []
    for data in records:
        bundle = data.get("bundle_id")
        parent = data.get("parent_id")
        detail_bits = []
        if data.get("skeleton"):
            detail_bits.append("skeleton")
        if data.get("deferred_first"):
            detail_bits.append("deferred-first")
        if data.get("late_arrival"):
            detail_bits.append("late-arrival")
        if data.get("refinement"):
            detail_bits.append(f"refined {len(data['refinement'])}")
        rows.append([
            data.get("seq", ""),
            data.get("msg_id", ""),
            data.get("outcome", ""),
            rung_label(int(data.get("rung", 0))),
            bundle if bundle is not None else "-",
            parent if parent is not None else "-",
            len(data.get("candidates", ())),
            " ".join(detail_bits),
        ])
    return rows


_AUDIT_HEADERS = ["seq", "msg", "outcome", "rung", "bundle", "parent",
                  "cands", "notes"]


def _last(records: list, n: int) -> list:
    """The last ``n`` records, none for ``n <= 0`` (``records[-0:]``
    would return all of them)."""
    return records[max(len(records) - n, 0):]


def cmd_audit(args: argparse.Namespace) -> int:
    """The latest decision records of a JSONL audit log that match
    every given filter."""
    from repro.obs import read_jsonl

    matched = []
    for data in read_jsonl(args.log):
        if data.get("type") != "decision":
            continue
        if args.outcome is not None and data.get("outcome") != args.outcome:
            continue
        if args.rung is not None and int(data.get("rung", 0)) != args.rung:
            continue
        if args.bundle is not None and data.get("bundle_id") != args.bundle:
            continue
        if args.msg is not None and data.get("msg_id") != args.msg:
            continue
        matched.append(data)
    if not matched:
        print(f"no decision records match in {args.log}", file=sys.stderr)
        return 1
    shown = _last(matched, args.n)
    print(ascii_table(_AUDIT_HEADERS, _audit_rows(shown),
                      title=f"audit — {len(shown)} of {len(matched)} "
                            "matching decisions"))
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Render one bundle from a snapshot (tree and/or storyline)."""
    indexer = load_snapshot(args.snapshot)
    bundle = indexer.pool.try_get(args.bundle_id)
    if bundle is None:
        print(f"bundle {args.bundle_id} is not in the snapshot pool",
              file=sys.stderr)
        return 1
    print(render_tree(bundle, max_text=args.width))
    if args.storyline:
        print()
        print(extract_storyline(bundle).render(max_text=args.width))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render stitched fleet traces from a JSONL trace sink.

    Reads the file a ``repro serve --trace-sample`` run wrote (or any
    single-process ``--trace-out`` file) and prints each trace as an
    end-to-end timeline: route → coordinator buffer → queue wait →
    batch wait → service (with the engine's stage spans nested under
    it) → worker drain → ACK transit, with hop durations that sum to
    the measured end-to-end latency.
    """
    from repro.obs import read_jsonl, render_trace_timeline

    traces = []
    for data in read_jsonl(args.log):
        if args.msg is not None and dict(data.get("tags") or {}).get(
                "msg_id") != args.msg:
            continue
        traces.append(data)
    if not traces:
        what = (f"msg_id {args.msg}" if args.msg is not None
                else "traces")
        print(f"no {what} in {args.log}", file=sys.stderr)
        return 1
    shown = _last(traces, args.n)
    for index, trace in enumerate(shown):
        if index:
            print()
        print(render_trace_timeline(trace, width=args.width))
    if len(shown) < len(traces):
        print(f"\n({len(traces) - len(shown)} earlier trace(s) not "
              f"shown; raise -n)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Continuously profile an instrumented replay.

    Runs the same single-process surge replay as ``repro top`` with the
    background stack sampler attached: a per-stage CPU/allocation table
    is printed at the end, and the collapsed-stack profile (flamegraph
    input: ``flamegraph.pl out.folded > out.svg``) is written to
    ``--out``.
    """
    import tempfile

    from repro.obs import StackSampler, StageCell

    messages = _load_or_generate(args)
    out = Path(args.out) if args.out is not None else Path("profile.folded")
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as scratch:
        supervisor, _, schedule = _telemetry_stack(
            args, Path(scratch), messages)
        cell = StageCell()
        supervisor.indexer.obs.profile = cell
        sampler = StackSampler(hz=args.hz, cell=cell)
        started = time.perf_counter()
        with supervisor, sampler:
            _replay(supervisor, schedule, messages)
        elapsed = time.perf_counter() - started
        print(ascii_table(
            ["stage", "samples", "cpu%", "alloc blocks"],
            [[stage, count, f"{share * 100:.1f}", f"{blocks:,}"]
             for stage, count, share, blocks in sampler.stage_table()],
            title=f"profile — {sampler.samples} samples at "
                  f"{args.hz} Hz over {elapsed:.1f}s "
                  f"({len(messages)} messages)"))
        sampler.write_collapsed(out)
        print(f"\ncollapsed stacks: {out} "
              f"(flamegraph.pl {out.name} > {out.stem}.svg)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Provenance-based indexing for micro-blog streams "
                    "(ICDE 2012 reproduction).")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic stream as TSV")
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--days", type=float, default=2.0)
    generate.add_argument("--rate", type=int, default=4000,
                          help="messages per day")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--users", type=int, default=2000)
    generate.add_argument("--events-per-day", type=float, default=15.0)
    generate.add_argument("--noise", type=float, default=0.25)
    generate.set_defaults(func=cmd_generate)

    stats = commands.add_parser("stats", help="describe a TSV dataset")
    stats.add_argument("dataset")
    stats.set_defaults(func=cmd_stats)

    index = commands.add_parser(
        "index", help="run provenance indexing over a TSV dataset")
    index.add_argument("dataset")
    index.add_argument("-o", "--output", required=True,
                       help="snapshot file to write")
    index.add_argument("--pool-size", type=int, default=None,
                       help="bundle pool bound (omit for full index)")
    index.add_argument("--bundle-limit", type=int, default=None,
                       help="max bundle size (requires --pool-size)")
    index.add_argument("--store", default=None,
                       help="directory for the on-disk bundle store")
    index.set_defaults(func=cmd_index)

    search = commands.add_parser(
        "search", help="bundle search over a snapshot or a fleet (Eq. 7)")
    search.add_argument("path", help="snapshot file, or fleet root from "
                                     "`repro serve --root`")
    search.add_argument("query")
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--alpha", type=float, default=ALPHA)
    search.add_argument("--beta", type=float, default=BETA)
    search.add_argument("--budget-ms", type=float, default=None,
                        help="time budget; expiry returns flagged "
                             "partial results instead of blocking")
    search.set_defaults(func=cmd_search)

    serve = commands.add_parser(
        "serve",
        help="ingest a stream through the multiprocess sharded runtime "
             "and report fleet-wide telemetry")
    serve.add_argument("dataset", nargs="?", default=None,
                       help="TSV dataset to ingest (default: generate "
                            "a synthetic stream)")
    serve.add_argument("--workers", type=int, default=2,
                       help="shard worker processes to spawn")
    serve.add_argument("--router", choices=("hash", "cooccurrence"),
                       default="hash")
    serve.add_argument("--root", default=None,
                       help="fleet directory (per-shard WAL + store; "
                            "default: temporary, discarded on exit)")
    serve.add_argument("--messages", type=int, default=None,
                       help="messages to ingest (default 3000 when "
                            "generating; all of a dataset)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--batch-size", type=int, default=256,
                       help="messages per routed sub-batch")
    serve.add_argument("--sync-every", type=int, default=256,
                       help="worker WAL group-commit interval")
    serve.add_argument("--refresh", type=int, default=2000,
                       help="messages between fleet table frames")
    serve.add_argument("--repair-interval", type=int, default=0,
                       help="run a cross-shard repair pass every N "
                            "ingested messages (0 = only at shutdown "
                            "with the cooccurrence router)")
    serve.add_argument("--once", action="store_true",
                       help="print only the final fleet report")
    serve.add_argument("--trace-sample", type=float, default=0.0,
                       help="fleet trace sampling rate in [0, 1]: each "
                            "sampled ingest yields one stitched "
                            "cross-process trace (0 disables)")
    serve.add_argument("--trace-out", default=None,
                       help="JSONL sink for stitched fleet traces "
                            "(default ROOT/fleet_trace.jsonl when "
                            "sampling; read back with `repro trace`)")
    serve.add_argument("--profile-dir", default=None,
                       help="directory for continuous-profiling output: "
                            "one collapsed-stack .folded file per "
                            "process (coordinator + each shard)")
    serve.add_argument("--anatomy", action="store_true",
                       help="attach per-shard workload anatomy (heavy "
                            "hitters, postings shape, measured memory); "
                            "the final fleet frame gains the anatomy "
                            "panel with shard-merged hot terms")
    serve.set_defaults(func=cmd_serve)

    archive = commands.add_parser(
        "archive", help="search the on-disk bundle archive")
    archive.add_argument("store", help="archive directory (from --store)")
    archive.add_argument("query")
    archive.add_argument("-k", type=int, default=10)
    archive.add_argument("--show", type=int, default=None,
                         help="also render this archived bundle id")
    archive.set_defaults(func=cmd_archive)

    doctor = commands.add_parser(
        "doctor",
        help="scan WAL / snapshot / bundle store for corruption")
    doctor.add_argument("--wal", default=None,
                        help="journal file to scan")
    doctor.add_argument("--snapshot", default=None,
                        help="snapshot file to scan")
    doctor.add_argument("--store", default=None,
                        help="bundle store directory to scan")
    doctor.add_argument("--fleet", default=None,
                        help="fleet root to scan for cross-shard orphans "
                             "(boundary entries no repair pass has "
                             "reconciled)")
    doctor.add_argument("--quarantine", default=None,
                        help="ingest-guard quarantine log to scan "
                             "(torn tails from a crash mid-append)")
    doctor.add_argument("--repair", action="store_true",
                        help="truncate/compact damaged files to their "
                             "last valid records (snapshot: quarantine; "
                             "fleet: replay reconciliation)")
    doctor.set_defaults(func=cmd_doctor)

    health = commands.add_parser(
        "health",
        help="run an overload self-check: surge a synthetic stream "
             "through admission control and report the health table")
    health.add_argument("--messages", type=int, default=6000,
                        help="synthetic messages to replay")
    health.add_argument("--surge", type=float, default=5.0,
                        help="burst arrival rate as a multiple of the "
                             "sustainable rate")
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--chaos", action="store_true",
                        help="inject bundle-store write faults during "
                             "the surge to exercise the circuit breaker")
    health.add_argument("--chaos-faults", type=int, default=200,
                        help="number of consecutive injected spill "
                             "failures under --chaos")
    health.set_defaults(func=cmd_health)

    def replay_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("dataset", nargs="?", default=None,
                         help="TSV dataset to replay (default: generate "
                              "a synthetic surge stream)")
        sub.add_argument("--messages", type=int, default=None,
                         help="messages to replay (default 3000 when "
                              "generating; all of a dataset)")
        sub.add_argument("--seed", type=int, default=7)

    def telemetry_args(sub: argparse.ArgumentParser) -> None:
        replay_args(sub)
        sub.add_argument("--surge", type=float, default=6.0,
                         help="burst arrival rate as a multiple of the "
                              "sustainable rate")
        sub.add_argument("--sample", type=float, default=0.01,
                         help="trace sampling rate in [0, 1] "
                              "(0 disables tracing)")
        sub.add_argument("--audit-out", default=None,
                         help="JSONL file for per-ingest decision audit "
                              "records (repro audit / repro explain "
                              "--audit read it back)")

    top = commands.add_parser(
        "top",
        help="live telemetry dashboard over an instrumented replay")
    telemetry_args(top)
    top.add_argument("--once", action="store_true",
                     help="replay everything, print one final frame")
    top.add_argument("--refresh", type=int, default=500,
                     help="messages between live frames")
    top.add_argument("--trace-out", default=None,
                     help="JSONL file for sampled ingest traces")
    top.add_argument("--telemetry-out", default=None,
                     help="JSONL flight-recorder file for periodic "
                          "metric snapshots")
    top.set_defaults(func=cmd_top)

    metrics = commands.add_parser(
        "metrics",
        help="dump the metrics snapshot of an instrumented replay")
    telemetry_args(metrics)
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus")
    metrics.set_defaults(func=cmd_metrics)

    anatomy = commands.add_parser(
        "anatomy", allow_abbrev=False,  # `--sample` is not --sample-every
        help="characterize the workload: heavy hitters, postings/fan-in "
             "shape, measured memory, slab capacity projections")
    replay_args(anatomy)
    anatomy.add_argument("--fingerprint-out", default=None,
                         help="JSONL file for byte-deterministic workload "
                              "fingerprints (appended every --interval "
                              "messages plus one final record)")
    anatomy.add_argument("--interval", type=int, default=0,
                         help="messages between periodic fingerprints "
                              "(0 = only the final one)")
    anatomy.add_argument("--sample-every", type=int, default=8,
                         help="observe every Nth message (systematic "
                              "stride; 1 = every message)")
    anatomy.add_argument("--report", default=None,
                         help="offline mode: render the last fingerprint "
                              "of this JSONL file instead of replaying")
    anatomy.add_argument("--diff", nargs=2, default=None,
                         metavar=("BEFORE", "AFTER"),
                         help="offline mode: drift between the last "
                              "fingerprints of two JSONL files")
    anatomy.set_defaults(func=cmd_anatomy)

    trace = commands.add_parser(
        "trace",
        help="render stitched fleet traces from a JSONL trace sink "
             "as end-to-end timelines")
    trace.add_argument("log", help="JSONL trace file (from `repro serve "
                                   "--trace-sample` or `repro top "
                                   "--trace-out`)")
    trace.add_argument("--msg", type=int, default=None,
                       help="only traces for this message id")
    trace.add_argument("-n", type=int, default=5,
                       help="show at most the latest N traces")
    trace.add_argument("--width", type=int, default=40,
                       help="timeline bar width in characters")
    trace.set_defaults(func=cmd_trace)

    profile = commands.add_parser(
        "profile",
        help="continuously profile an instrumented replay "
             "(per-stage CPU table + collapsed-stack flamegraph input)")
    telemetry_args(profile)
    profile.add_argument("--hz", type=int, default=97,
                         help="stack samples per second")
    profile.add_argument("-o", "--out", default=None,
                         help="collapsed-stack output file "
                              "(default profile.folded)")
    profile.set_defaults(func=cmd_profile)

    explain = commands.add_parser(
        "explain",
        help="why did this message land where it did? (candidates, "
             "Eq. 1/2-5 scores, placement, later evictions)")
    explain.add_argument("message_id", type=int)
    telemetry_args(explain)
    explain.add_argument("--audit", default=None,
                         help="existing JSONL audit log to read instead "
                              "of replaying")
    explain.set_defaults(func=cmd_explain)

    audit = commands.add_parser(
        "audit", help="the latest decision records of a JSONL audit log "
                      "that match every given filter")
    audit.add_argument("log", help="JSONL audit log (from --audit-out)")
    audit.add_argument("-n", type=int, default=20,
                       help="show at most the latest N matches")
    audit.add_argument("--outcome", default=None,
                       choices=("new-bundle", "matched", "shed", "deferred",
                                "quarantined", "folded", "late"))
    audit.add_argument("--rung", type=int, default=None,
                       help="ladder rung (0=normal 1=reduced 2=skeleton "
                            "3=shed_only)")
    audit.add_argument("--bundle", type=int, default=None,
                       help="bundle id the message landed in")
    audit.add_argument("--msg", type=int, default=None,
                       help="message id")
    audit.set_defaults(func=cmd_audit)

    show = commands.add_parser(
        "show", help="render one bundle's provenance tree")
    show.add_argument("snapshot")
    show.add_argument("bundle_id", type=int)
    show.add_argument("--storyline", action="store_true",
                      help="also print the phase storyline")
    show.add_argument("--width", type=int, default=60,
                      help="max message text width")
    show.set_defaults(func=cmd_show)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface library errors as clean messages
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
