"""The per-shard worker process of the multiprocess runtime.

Each worker owns one complete resilient stack — a
:class:`~repro.core.engine.ProvenanceIndexer` under a
:class:`~repro.storage.wal.JournaledIndexer` (WAL + snapshots) under a
:class:`~repro.reliability.supervisor.ResilientIndexer` (retry / DLQ),
rooted at its own directory, with its own
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

import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any

from repro.core.config import IndexerConfig
from repro.core.engine import IngestResult
from repro.core.message import Message, parse_message
from repro.obs.anatomy import WorkloadAnatomy
from repro.obs.perf import StackSampler, StageCell
from repro.obs.tracing import TraceContext, Tracer
from repro.query.bundle_search import BundleSearchEngine, hit_row
from repro.reliability.fsio import commit_scope, write_atomic
from repro.reliability.supervisor import ResilientIndexer
from repro.runtime.repair import BoundaryLog, RepairJournal

__all__ = ["worker_main", "WorkerOptions"]


@dataclass(frozen=True, slots=True, kw_only=True)
class WorkerOptions:
    """Picklable construction options shipped to each worker process."""

    config: IndexerConfig | None = None
    sync_every: int = 256
    #: Fleet trace participation: honor coordinator-propagated sampling
    #: decisions and ship hop records back on each ACK.
    trace: bool = False
    #: Continuous profiling: run a StackSampler for the worker's
    #: lifetime and write profile-shard-NN.folded here on exit.
    profile_dir: "str | None" = None
    #: Workload anatomy: attach a per-shard WorkloadAnatomy whose
    #: hot-term/memory gauges ride the telemetry dump; the fleet merge
    #: sums them (distributed SpaceSaving merge).
    anatomy: bool = False


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
    """Read-increment the shard's durable boot counter, replacing it
    atomically: a crash mid-bump leaves the old count, never none."""
    path = Path(root) / "boot.count"
    try:
        boot = int(path.read_text()) + 1
    except (OSError, ValueError):
        boot = 1
    write_atomic(path, [str(boot)])
    return boot


def _handle_ingest(supervisor: ResilientIndexer, boundary: BoundaryLog,
                   messages: list[Message], count_only: bool,
                   hints: "list[tuple[int, tuple[int, ...]]] | None",
                   extras: "dict[str, Any] | None" = None,
                   fleet: "_FleetTrace | None" = None,
                   ) -> dict[str, Any]:
    """Ingest one routed sub-batch, then make it durable before ACK.

    ``results`` is positionally aligned with ``messages`` (``None`` for
    a dead-lettered entry) so the coordinator can reassemble input
    order across shards.

    ``hints`` maps sub-batch positions to peer-shard tuples (the
    router's boundary evidence).  Each hinted message that was indexed
    is journaled — with its ingest-time edge, the baseline a repair
    must strictly beat — to the boundary log, whose fsync joins the
    WAL's in the pre-ACK durability barrier.

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
    outcomes: "list[IngestResult | None]" = []
    # The durability barrier: leaving the commit scope fsyncs the
    # boundary log if this batch appended to it, then the WAL syncs —
    # before the ACK, so all the coordinator sees is on disk.
    with commit_scope(boundary):
        try:
            # Untraced stretches go in as runs; a traced arrival goes
            # alone, between its own hop stamps.
            for position in sorted(p for p in traced if p < len(messages)):
                outcomes += supervisor.ingest_outcomes(
                    messages[len(outcomes):position])
                assert fleet is not None and hops is not None
                trace_id, parent = traced[position]
                fleet.tracer.force(TraceContext(
                    trace_id=trace_id, parent_span=parent, sampled=True))
                started = time.monotonic()
                outcomes += supervisor.ingest_outcomes(
                    messages[position:position + 1])
                ended = time.monotonic()
                fleet.tracer.unforce(trace_id)
                hop: dict[str, Any] = {
                    "trace_id": trace_id,
                    "span_id": fleet.next_span_id(),
                    "start": started,
                    "end": ended,
                }
                finished = fleet.tracer.finished
                if finished and finished[-1].trace_id == trace_id:
                    engine_trace = finished.pop()
                    hop["spans"] = [span.to_dict()
                                    for span in engine_trace.spans]
                    hop["outcome"] = engine_trace.outcome
                    if "bundle_id" in engine_trace.tags:
                        hop["bundle_id"] = engine_trace.tags["bundle_id"]
                elif outcomes[position] is None:
                    # Refused before the engine's tracer saw it.
                    hop["outcome"] = "dead-lettered"
                hops.append(hop)
            outcomes += supervisor.ingest_outcomes(messages[len(outcomes):])
        except Exception:
            # The call that raised still journaled and indexed a prefix.
            outcomes += supervisor.last_outcomes
            raise
        finally:
            for position, result in enumerate(outcomes):
                peers = hinted.get(position)
                if peers and result is not None:
                    edge = result.edge
                    boundary.append(messages[position], peers,
                                    edge.dst_id if edge is not None
                                    else None,
                                    edge.score if edge is not None
                                    else 0.0)
    supervisor.journaled.journal.sync()
    done = time.monotonic()
    indexed = sum(result is not None for result in outcomes)
    reply: dict[str, Any] = {"indexed": indexed,
                             "results": None if count_only else outcomes,
                             "recv": recv, "done": done}
    if extras and "enqueue" in extras:
        reply["queue_wait"] = max(0.0, recv - float(extras["enqueue"]))
        reply["service"] = max(0.0, done - recv)
    if hops is not None:
        reply["hops"] = hops
    return reply


def _handle_search(supervisor: ResilientIndexer, raw_query: str, k: int,
                   budget_seconds: float | None, alpha: float,
                   beta: float) -> dict[str, Any]:
    """Search this shard with the query's Eq. 7 weights.

    The reply carries one :class:`~repro.query.bundle_search.HitRow` per
    hit, never the bundle: a pickled bundle ships every pooled member.
    """
    searcher = BundleSearchEngine(supervisor.indexer, alpha=alpha,
                                  beta=beta)
    outcome = searcher.search_within(raw_query, k,
                                     budget_seconds=budget_seconds)
    return {
        "hits": [hit_row(hit) for hit in outcome.hits],
        "partial": outcome.partial,
        "candidates_total": outcome.candidates_total,
        "candidates_scored": outcome.candidates_scored,
        "elapsed_seconds": outcome.elapsed_seconds,
    }


def _handle_stats(supervisor: ResilientIndexer, boundary: BoundaryLog,
                  journal: RepairJournal) -> dict[str, Any]:
    stats = supervisor.stats
    return {
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
    supervisor = ResilientIndexer.open(
        root, config=options.config, sync_every=options.sync_every)
    # Cross-shard repair state: boundary hints + applied-repair journal.
    # Replay order matters — the WAL replay inside ``open`` re-created ingest-time edges; the repair journal now re-applies
    # any repairs on top of them (idempotent vs snapshots).
    boundary = BoundaryLog(root)
    journal = RepairJournal(root)
    journal.replay(supervisor.indexer)
    registry = supervisor.indexer.obs.registry
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
        profiler = StackSampler(cell=cell).start()
    anatomy: "WorkloadAnatomy | None" = None
    if options.anatomy:
        # Per-shard workload characterization: the engine feeds every
        # ingest; publish()/account() run lazily on each telemetry pull
        # so the coordinator's merged dump carries this shard's hot
        # terms and measured memory without any new transfer path.
        anatomy = WorkloadAnatomy(registry)
        supervisor.indexer.obs.anatomy = anatomy
    registry.gauge("repro_shard_id",
                   help="This worker's shard index").set(shard_id)
    registry.gauge("repro_repair_pending_boundary",
                   help="Boundary entries awaiting reconciliation",
                   callback=lambda: boundary.pending_count)
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
                        fleet)
                elif op == "search":
                    payload = _handle_search(supervisor, *request[1:])
                elif op == "stats":
                    payload = _handle_stats(supervisor, boundary, journal)
                elif op == "snapshot":
                    payload = {"snapshot": supervisor.snapshot()}
                elif op == "edges":
                    payload = {"edges": supervisor.edge_pairs()}
                elif op == "telemetry":
                    if anatomy is not None:
                        anatomy.publish()
                        anatomy.account(supervisor.indexer)
                    payload = {"dump": registry.dump()}
                elif op == "boundary_pending":
                    payload = {"entries": boundary.pending()}
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
