"""The per-shard worker process of the multiprocess runtime.

Each worker owns one complete resilient stack — a
:class:`~repro.core.engine.ProvenanceIndexer` under a
:class:`~repro.storage.wal.JournaledIndexer` (WAL + snapshots) under a
:class:`~repro.reliability.supervisor.ResilientIndexer` (retry / DLQ /
optional admission control) — rooted at its own directory, with its own
:class:`~repro.obs.MetricsRegistry`.  Nothing is shared between
siblings, so a worker crash is strictly local: the coordinator restarts
the process and :meth:`ResilientIndexer.open` rebuilds the exact
pre-crash state from the shard's snapshot + WAL tail.

The command protocol is a strict request → reply sequence over one
duplex :class:`multiprocessing.connection.Connection`.  Replies are
``("ok", payload)`` or ``("error", message)``; a handler error never
kills the worker.  The durability contract of ``ingest`` is the whole
point of the design: the WAL is fsynced *before* the acknowledgment is
sent, so any result the coordinator has seen is on disk — a SIGKILL can
only lose batches that were never acknowledged.
"""

from __future__ import annotations

import os
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any

from repro.core.config import IndexerConfig
from repro.core.message import Message, parse_message
from repro.obs.anatomy import WorkloadAnatomy
from repro.obs.perf import StackSampler, StageCell
from repro.obs.tracing import TraceContext, Tracer
from repro.query.bundle_search import BundleSearchEngine
from repro.reliability.fsio import commit_scope
from repro.reliability.overload import OverloadConfig
from repro.reliability.supervisor import ResilientIndexer
from repro.runtime.repair import BoundaryLog, RepairJournal

__all__ = ["worker_main", "build_worker_stack", "WorkerOptions"]


class WorkerOptions:
    """Picklable construction options shipped to each worker process."""

    __slots__ = ("config", "overload", "snapshot_every", "sync_every",
                 "store", "telemetry_enabled", "guard", "trace",
                 "profile_dir", "profile_hz", "anatomy")

    def __init__(self, *, config: IndexerConfig | None = None,
                 overload: OverloadConfig | None = None,
                 snapshot_every: int = 50_000,
                 sync_every: int = 256,
                 store: bool = True,
                 telemetry_enabled: bool = True,
                 guard: "Any" = None,
                 trace: bool = False,
                 profile_dir: "str | None" = None,
                 profile_hz: int = 97,
                 anatomy: bool = False) -> None:
        self.config = config
        self.overload = overload
        self.snapshot_every = snapshot_every
        self.sync_every = sync_every
        self.store = store
        self.telemetry_enabled = telemetry_enabled
        # A GuardConfig, True (defaults) or None/False; each worker gets
        # its own IngestGuard with quarantine/fold logs in its shard root.
        self.guard = guard
        # Fleet trace participation: honor coordinator-propagated
        # sampling decisions and ship hop records back on each ACK.
        self.trace = trace
        # Continuous profiling: run a StackSampler for the worker's
        # lifetime and write profile-shard-NN.folded here on exit.
        self.profile_dir = profile_dir
        self.profile_hz = profile_hz
        # Workload anatomy: attach a per-shard WorkloadAnatomy whose
        # hot-term/memory gauges ride the telemetry dump; the fleet
        # merge sums them (distributed SpaceSaving merge).
        self.anatomy = anatomy


def build_worker_stack(root: str, options: WorkerOptions,
                       ) -> ResilientIndexer:
    """Open (or recover) one shard's full resilient stack at ``root``."""
    return ResilientIndexer.open(
        root,
        config=options.config,
        sync_every=options.sync_every,
        snapshot_every=options.snapshot_every,
        store=options.store,
        overload=options.overload,
        guard=options.guard,
    )


def _queue_fraction(supervisor: ResilientIndexer) -> float:
    if supervisor.overload is None:
        return 0.0
    return supervisor.overload.admission.queue_fraction


def _rung(supervisor: ResilientIndexer) -> int:
    if supervisor.overload is None:
        return 0
    return int(supervisor.overload.state)


def _load_signals(supervisor: ResilientIndexer) -> dict[str, Any]:
    """The per-ack load feedback the coordinator's gate consumes."""
    return {
        "queue_fraction": _queue_fraction(supervisor),
        "rung": _rung(supervisor),
    }


class _FleetTrace:
    """Worker-side fleet-trace state: tracer + unique span-id source.

    ``span_id`` is ``"<shard>.<boot>.<n>"`` where ``boot`` comes from a
    durable per-shard boot counter (bumped every ``worker_main``), so a
    SIGKILL'd worker's replacement can never re-issue a dead
    incarnation's span ids — the property the restart trace test pins.
    The tracer runs at ``sample_rate=0.0``: it emits spans *only* for
    coordinator-forced trace contexts, so WAL replay during recovery
    (plain ``engine.ingest`` calls, nothing forced) produces no spans
    at all, and the worker never consumes RNG draws of its own.
    """

    __slots__ = ("tracer", "shard", "boot", "seq")

    def __init__(self, tracer: Tracer, shard: int, boot: int) -> None:
        self.tracer = tracer
        self.shard = shard
        self.boot = boot
        self.seq = 0

    def next_span_id(self) -> str:
        self.seq += 1
        return f"{self.shard}.{self.boot}.{self.seq}"


def _bump_boot_counter(root: str) -> int:
    """Read-increment-fsync the shard's durable boot counter."""
    path = Path(root) / "boot.count"
    try:
        boot = int(path.read_text()) + 1
    except (OSError, ValueError):
        boot = 1
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        os.write(fd, str(boot).encode("ascii"))
        os.fsync(fd)
    finally:
        os.close(fd)
    return boot


def _handle_ingest(supervisor: ResilientIndexer, boundary: BoundaryLog,
                   messages: list[Message], count_only: bool,
                   hints: "list[tuple[int, tuple[int, ...]]] | None",
                   extras: "dict[str, Any] | None" = None,
                   fleet: "_FleetTrace | None" = None,
                   perf: "dict[str, float] | None" = None,
                   ) -> dict[str, Any]:
    """Ingest one routed sub-batch, then make it durable before ACK.

    ``results`` is positionally aligned with ``messages`` (``None`` for
    shed / deferred / dead-lettered entries) so the coordinator can
    reassemble input order across shards.  Deferred messages sit in the
    admission backlog — not yet journaled, and reported as such — so
    only *indexed* results are covered by the durability barrier below.

    ``hints`` maps sub-batch positions to peer-shard tuples (the
    router's boundary evidence).  Each hinted message that was indexed
    is journaled — with its ingest-time edge, the baseline a repair
    must strictly beat — to the boundary log, whose fsync joins the
    WAL's in the pre-ACK durability barrier.  A hinted message that was
    *deferred* re-enters through the admission backlog without its
    hint; ``repro doctor --fleet`` still sees the shard as healthy
    because no boundary entry was acknowledged for it.

    ``extras`` is the coordinator's perf envelope: its ``"enqueue"``
    monotonic stamp turns into this batch's queue wait (one clock
    across processes), and ``"traced"`` lists the fleet-sampled
    positions whose engine spans + hop timestamps ride back on the ACK
    as ``"hops"`` for the coordinator to stitch.
    """
    recv = time.monotonic()
    hinted = dict(hints) if hints else {}
    traced: dict[int, tuple[int, str]] = {}
    if extras and fleet is not None:
        for position, trace_id, parent in extras.get("traced") or ():
            traced[int(position)] = (int(trace_id), str(parent))
    hops: "list[dict[str, Any]] | None" = [] if traced else None
    results: list[Any] | None = None if count_only else []
    indexed = 0
    # The durability barrier: leaving the commit scope fsyncs whichever
    # of the boundary and guard logs this batch appended to, then the WAL
    # syncs — before the ACK, so all the coordinator sees is on disk.
    guard = supervisor.guard
    with commit_scope(boundary, *(guard.logs if guard is not None else ())):
        for position, message in enumerate(messages):
            context = traced.get(position)
            if context is not None and fleet is not None:
                trace_id, parent = context
                fleet.tracer.force(TraceContext(
                    trace_id=trace_id, parent_span=parent, sampled=True))
                started = time.monotonic()
                result = supervisor.ingest(message)
                ended = time.monotonic()
                fleet.tracer.unforce(trace_id)
                hop: dict[str, Any] = {
                    "trace_id": trace_id,
                    "span_id": fleet.next_span_id(),
                    "start": started,
                    "end": ended,
                    "screen": supervisor.last_screen_seconds,
                }
                finished = fleet.tracer.finished
                if finished and finished[-1].trace_id == trace_id:
                    engine_trace = finished.pop()
                    hop["spans"] = [span.to_dict()
                                    for span in engine_trace.spans]
                    hop["outcome"] = engine_trace.outcome
                    if "bundle_id" in engine_trace.tags:
                        hop["bundle_id"] = engine_trace.tags["bundle_id"]
                elif result is None:
                    # Shed/deferred before the engine's tracer saw it.
                    hop["outcome"] = "deferred"
                assert hops is not None
                hops.append(hop)
            else:
                result = supervisor.ingest(message)
            if results is not None:
                results.append(result)
            if result is None:
                continue
            indexed += 1
            peers = hinted.get(position)
            if peers:
                edge = result.edge
                boundary.append(message, peers,
                                edge.dst_id if edge is not None else None,
                                edge.score if edge is not None else 0.0)
    supervisor.journaled.journal.sync()
    done = time.monotonic()
    reply: dict[str, Any] = {"indexed": indexed, "results": results,
                             "recv": recv, "done": done}
    if extras and "enqueue" in extras:
        queue_wait = max(0.0, recv - float(extras["enqueue"]))
        service = max(0.0, done - recv)
        reply["queue_wait"] = queue_wait
        reply["service"] = service
        if perf is not None:
            perf["queue_wait_seconds"] += queue_wait
            perf["service_seconds"] += service
    if hops is not None:
        reply["hops"] = hops
    reply.update(_load_signals(supervisor))
    return reply


def _handle_search(supervisor: ResilientIndexer,
                   searcher: BundleSearchEngine,
                   raw_query: str, k: int,
                   budget_seconds: float | None) -> dict[str, Any]:
    outcome = searcher.search_within(raw_query, k,
                                     budget_seconds=budget_seconds)
    return {
        "hits": outcome.hits,
        "partial": outcome.partial,
        "candidates_total": outcome.candidates_total,
        "candidates_scored": outcome.candidates_scored,
        "elapsed_seconds": outcome.elapsed_seconds,
    }


def _handle_stats(supervisor: ResilientIndexer, boundary: BoundaryLog,
                  journal: RepairJournal,
                  perf: "dict[str, float] | None" = None,
                  ) -> dict[str, Any]:
    stats = supervisor.stats
    return {
        **({"perf": dict(perf)} if perf is not None else {}),
        "unified": supervisor.indexer.stats(),
        "supervisor": {
            "ingested": stats.ingested,
            "retries": stats.retries,
            "dead_lettered": stats.dead_lettered,
            "deferred_checkpoints": stats.deferred_checkpoints,
            "degraded_entries": stats.degraded_entries,
            "shed_bundles": stats.shed_bundles,
        },
        "snapshot": supervisor.snapshot(),
        "repair": {
            "boundary_journaled": boundary.appended,
            "boundary_pending": boundary.pending_count,
            "repaired": len(journal.entries),
        },
        **({"guard": {
            "screened": supervisor.guard.stats.screened,
            "passed": supervisor.guard.stats.passed,
            "folded": supervisor.guard.stats.folded,
            "quarantined": supervisor.guard.stats.quarantined,
            "late": supervisor.guard.stats.late,
            "released": supervisor.guard.stats.released,
            "buffer_depth": supervisor.guard.buffer_depth,
            "toxicity": supervisor.guard.toxicity(),
        }} if supervisor.guard is not None else {}),
        **_load_signals(supervisor),
    }


def _handle_apply_repair(supervisor: ResilientIndexer,
                         journal: RepairJournal, src: int,
                         old_dst: "int | None", new_dst: int,
                         score: float) -> dict[str, Any]:
    """Durably journal, then apply, one edge repair (idempotent).

    WAL discipline: the journal entry is fsynced *before* the ledger
    moves, so a SIGKILL between the two replays the repair on restart;
    a SIGKILL after the apply but before the ACK makes the coordinator
    re-send it, which the already-applied ledger turns into a no-op —
    no duplicate, no phantom, in either interleaving.
    """
    engine = supervisor.indexer
    if engine.has_edge(src, new_dst):
        return {"applied": False}
    journal.record(src, old_dst, new_dst, score)
    return {"applied": engine.repair_edge(src, old_dst, new_dst)}


def worker_main(shard_id: int, root: str, options: WorkerOptions,
                conn: Connection) -> None:
    """Process entry point: serve shard ``shard_id`` from ``root``.

    Top-level (picklable) so it works under both ``fork`` and ``spawn``
    start methods.  The loop exits on ``("close",)`` or when the
    coordinator's end of the pipe disappears.
    """
    supervisor = build_worker_stack(root, options)
    searcher = BundleSearchEngine(supervisor.indexer)
    # Cross-shard repair state: boundary hints + applied-repair journal.
    # Replay order matters — the WAL replay inside ``build_worker_stack``
    # re-created ingest-time edges; the repair journal now re-applies
    # any repairs on top of them (idempotent vs snapshots).
    boundary = BoundaryLog(root)
    journal = RepairJournal(root)
    replayed = journal.replay(supervisor.indexer)
    registry = supervisor.indexer.obs.registry
    perf_totals = {"queue_wait_seconds": 0.0, "service_seconds": 0.0}
    registry.counter(
        "repro_queue_wait_seconds_total", unit="seconds",
        help="Seconds ingest batches spent between coordinator dispatch "
             "and worker pickup",
        callback=lambda: perf_totals["queue_wait_seconds"])
    registry.counter(
        "repro_service_seconds_total", unit="seconds",
        help="Seconds spent servicing ingest batches (pickup to "
             "durable, fsync included)",
        callback=lambda: perf_totals["service_seconds"])
    fleet: "_FleetTrace | None" = None
    if options.trace:
        # Fleet tracing: decisions come forced from the coordinator —
        # sample_rate 0.0 means WAL replay and un-traced ingests never
        # produce spans (and never touch any RNG).  Boot counter makes
        # span ids unique across SIGKILL restarts.
        tracer = Tracer(sample_rate=0.0, keep=8)
        supervisor.indexer.obs.tracer = tracer
        fleet = _FleetTrace(tracer, shard_id,
                            boot=_bump_boot_counter(root))
    profiler: "StackSampler | None" = None
    if options.profile_dir:
        cell = StageCell()
        supervisor.indexer.obs.profile = cell
        profiler = StackSampler(hz=options.profile_hz, cell=cell,
                                registry=registry).start()
    anatomy: "WorkloadAnatomy | None" = None
    if getattr(options, "anatomy", False):
        # Per-shard workload characterization: the engine feeds every
        # ingest; publish()/account() run lazily on each telemetry pull
        # so the coordinator's merged dump carries this shard's hot
        # terms and measured memory without any new transfer path.
        anatomy = WorkloadAnatomy(registry)
        supervisor.indexer.obs.anatomy = anatomy
    registry.gauge("repro_shard_id",
                   help="This worker's shard index").set(shard_id)
    uptime_start = time.monotonic()
    registry.gauge("repro_worker_uptime_seconds", unit="seconds",
                   help="Seconds since this worker (re)started",
                   callback=lambda: time.monotonic() - uptime_start)
    registry.counter("repro_repair_boundary_total",
                     help="Boundary messages journaled for cross-shard "
                          "repair",
                     callback=lambda: boundary.appended)
    registry.gauge("repro_repair_pending_boundary",
                   help="Boundary entries awaiting reconciliation",
                   callback=lambda: boundary.pending_count)
    registry.counter("repro_repair_edges_total",
                     help="Cross-shard edge repairs journaled on this "
                          "shard",
                     callback=lambda: len(journal.entries))
    registry.counter("repro_repair_replayed_total",
                     help="Journaled repairs re-applied during recovery",
                     ).inc(replayed)
    closing = False
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            op = request[0]
            payload: dict[str, Any]
            try:
                if op == "ingest":
                    payload = _handle_ingest(
                        supervisor, boundary, request[1], request[2],
                        request[3] if len(request) > 3 else None,
                        request[4] if len(request) > 4 else None,
                        fleet, perf_totals)
                elif op == "search":
                    payload = _handle_search(supervisor, searcher,
                                             request[1], request[2],
                                             request[3])
                elif op == "drain":
                    drained = supervisor.drain_backlog()
                    supervisor.journaled.journal.sync()
                    payload = {"indexed": drained,
                               **_load_signals(supervisor)}
                elif op == "stats":
                    payload = _handle_stats(supervisor, boundary, journal,
                                            perf_totals)
                elif op == "snapshot":
                    payload = {"snapshot": supervisor.snapshot()}
                elif op == "edges":
                    payload = {"edges": supervisor.edge_pairs()}
                elif op == "telemetry":
                    if anatomy is not None:
                        anatomy.publish()
                        anatomy.account(supervisor.indexer,
                                        supervisor.guard)
                    payload = {"dump": registry.dump()}
                elif op == "health":
                    payload = {"report": supervisor.health_report()}
                elif op == "boundary_pending":
                    payload = {"entries": boundary.pending(),
                               **_load_signals(supervisor)}
                elif op == "boundary_advance":
                    boundary.advance(request[1])
                    payload = {"cursor": boundary.cursor}
                elif op == "repair_probe":
                    msg_id, user, date, text = request[1]
                    probe = parse_message(msg_id, user, date, text)
                    best = supervisor.indexer.best_alignment(probe)
                    payload = {"best": best}
                elif op == "apply_repair":
                    payload = _handle_apply_repair(
                        supervisor, journal, request[1], request[2],
                        request[3], request[4])
                elif op == "checkpoint":
                    supervisor.journaled.checkpoint()
                    # The snapshot now holds the repaired ledger, so the
                    # journal can truncate; the boundary log sheds its
                    # reconciled prefix.
                    journal.compact()
                    boundary.compact()
                    payload = {}
                elif op == "close":
                    closing = True
                    supervisor.close()
                    boundary.close()
                    journal.close()
                    payload = {}
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except Exception as exc:  # reply, never die mid-protocol
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                except (BrokenPipeError, OSError):
                    break
                if closing:
                    break
                continue
            try:
                conn.send(("ok", payload))
            except (BrokenPipeError, OSError):
                break
            if closing:
                break
    finally:
        if not closing:
            # Coordinator vanished (or crashed): flush what we have so
            # the next open recovers everything acknowledged so far.
            try:
                supervisor.close()
            except Exception:
                pass
            for log in (boundary, journal):
                try:
                    log.close()
                except Exception:
                    pass
        if profiler is not None:
            profiler.stop()
            try:
                assert options.profile_dir is not None
                profiler.write_collapsed(
                    Path(options.profile_dir)
                    / f"profile-shard-{shard_id:02d}.folded")
            except OSError:  # pragma: no cover - disk full etc.
                pass
        try:
            conn.close()
        except OSError:
            pass
