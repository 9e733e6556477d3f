"""The coordinator: shard-per-process serving behind one object.

:class:`ShardedRuntime` spawns one :func:`~repro.runtime.worker.
worker_main` process per shard, routes messages onto them with the
deterministic routers of :mod:`repro.core.sharding` (``"hash"`` /
``"cooccurrence"``), and scatter-gathers queries with
``search_within``-style deadline budgets.  It implements the
:class:`repro.api.Indexer` protocol directly —
``open_indexer("runtime", ...)`` returns one of these.

Two mechanisms carry the operational weight:

* **pipelining** — ingest acknowledgments are collected lazily, up to
  :data:`MAX_INFLIGHT` outstanding batches per worker, so all shards chew
  their sub-batches concurrently instead of round-tripping one batch at
  a time;
* **supervision** — a dead worker (crash, SIGKILL) is detected on the
  next send/receive, counted, and restarted on the same shard directory,
  where :meth:`ResilientIndexer.open` replays the WAL tail.  Only
  *unacknowledged* in-flight batches can be lost (they are counted, not
  silently dropped); every acknowledged result was fsynced by the worker
  before the ACK, so acknowledged edges always survive — the property
  ``tests/runtime/test_runtime.py`` kills workers to verify.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.config import IndexerConfig
from repro.core.engine import IngestResult, MemorySnapshot
from repro.core.errors import ConfigurationError, StorageError
from repro.core.message import Message
from repro.core.sharding import make_router
from repro.obs.perf import StackSampler
from repro.obs.tracing import Trace, Tracer
from repro.query.bundle_search import ALPHA, BETA, HitRow, SearchOutcome
from repro.reliability.fsio import write_atomic
from repro.runtime.worker import WorkerOptions, worker_main

__all__ = ["ShardedRuntime", "RuntimeStats", "WorkerCrash"]

#: Outstanding un-ACKed batches allowed per worker before the
#: coordinator blocks on that worker's oldest ACK.
MAX_INFLIGHT = 4
#: Finished fleet traces the coordinator's tracer keeps in memory.
TRACE_KEEP = 256

#: One shard's boundary hints, ``(position, peer shards)``, and trace
#: stamps, ``(position, trace, route start, route end)``.
Hints = list[tuple[int, tuple[int, ...]]]
Stamps = list[tuple[int, Trace, float, float]]


class WorkerCrash(StorageError):
    """A worker process died while the coordinator was talking to it."""


@dataclass(slots=True)
class RuntimeStats:
    """What the coordinator did on behalf of the fleet.

    ``route_seconds`` / ``ack_wait_seconds`` decompose the
    coordinator's share of ingest wall time — routing decisions versus
    blocking on worker acknowledgments — so the fleet-of-one overhead
    the parallel bench shows (fleet1 < 1x single-process) is a measured
    quantity, not a mystery.  ``ack_wait_seconds`` itself decomposes
    further: every ACK carries the worker's monotonic receive/done
    stamps, splitting each batch's round trip into
    ``queue_wait_seconds`` (dispatch → worker pickup: pipe transfer
    plus time spent behind earlier pipelined batches) and
    ``service_seconds`` (worker pickup → durable, fsync included).
    Blocking time in excess of those two is pipelining overlap the
    coordinator spent usefully elsewhere.  The ``repair_*`` counters
    account the asynchronous reconciliation passes.

    Calling the instance returns the fleet's unified counter mapping
    (``repro.api.STATS_KEYS``), so ``runtime.stats()`` means the same
    thing on every backend while ``runtime.stats.restarts`` keeps the
    coordinator's own counters.  The coordinator binds :attr:`unified`
    to :meth:`ShardedRuntime.stats_totals` at construction.
    """

    batches_sent: int = 0
    messages_sent: int = 0
    messages_indexed: int = 0
    restarts: int = 0
    lost_batches: int = 0
    lost_messages: int = 0
    search_scatters: int = 0
    shards_skipped_by_budget: int = 0
    boundary_hints: int = 0
    repair_rounds: int = 0
    repair_probes: int = 0
    repair_edges: int = 0
    route_seconds: float = 0.0
    ack_wait_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    service_seconds: float = 0.0
    unified: "Callable[[], dict[str, int]] | None" = field(
        default=None, repr=False, compare=False)

    _INT_FIELDS = ("batches_sent", "messages_sent", "messages_indexed",
                   "restarts", "lost_batches", "lost_messages",
                   "search_scatters", "shards_skipped_by_budget",
                   "boundary_hints", "repair_rounds", "repair_probes",
                   "repair_edges")

    _FLOAT_FIELDS = ("route_seconds", "ack_wait_seconds",
                     "queue_wait_seconds", "service_seconds")

    def as_dict(self) -> dict[str, "int | float"]:
        out: dict[str, "int | float"] = {
            name: int(getattr(self, name)) for name in self._INT_FIELDS}
        for name in self._FLOAT_FIELDS:
            out[name] = round(float(getattr(self, name)), 6)
        return out

    def __call__(self) -> dict[str, int]:
        if self.unified is None:
            raise TypeError(
                "RuntimeStats is only callable once bound to a "
                "coordinator (repro.api unified stats)")
        return self.unified()


@dataclass(slots=True)
class _PendingBatch:
    """One unacknowledged ingest batch awaiting its ACK."""

    count: int
    #: ``time.monotonic()`` at dispatch — the worker's receive stamp
    #: minus this is the batch's queue wait (same clock, same host).
    enqueue: float
    #: Sampled traces riding this batch:
    #: ``(position, trace, route_started, routed)`` with monotonic
    #: stamps; stitched into fleet traces when the ACK arrives.
    traces: "Stamps" = field(default_factory=list)


@dataclass(slots=True)
class _Worker:
    """Coordinator-side handle of one shard process."""

    shard: int
    process: Any
    conn: Any
    #: Unacknowledged ingest batches, oldest first.  Non-ingest
    #: requests are never pipelined.
    pending: "deque[_PendingBatch]" = field(default_factory=deque)

    @property
    def inflight(self) -> int:
        return len(self.pending)


class ShardedRuntime:
    """N worker processes behind one routed ingest / search surface.

    Parameters
    ----------
    root:
        Fleet directory; shard ``i`` lives in ``root/shard-0i/`` with
        its own WAL, snapshot, spill store and dead-letter queue.
        Opening an existing root recovers every shard.
    workers:
        Shard/process count (fixed per root: routing is a function of
        the count, so reopening with a different count would strand
        data — enforced via a marker file).
    config / router:
        Per-shard :class:`IndexerConfig` (the pool bound applies *per
        shard*) and the :func:`~repro.core.sharding.make_router` name.
        Every worker runs a plain resilient stack: no ingest guard and
        no admission control (the single-process stack keeps both).
    trace_sample / trace_seed / trace_sink:
        Fleet-wide trace propagation.  ``trace_sample > 0`` samples
        that fraction of ingests at *route* time (seeded, like the
        engine tracer); the decision ships to the owning worker as a
        :class:`~repro.obs.tracing.TraceContext` inside the ingest RPC
        envelope, and the worker's hop timestamps come back on the ACK
        to be stitched — route → queue wait → engine stages → WAL
        fsync → ACK — into one end-to-end trace per message, exported
        to ``trace_sink`` as JSONL (``repro trace`` renders them).  All
        hop boundaries are ``time.monotonic()`` stamps (one clock across
        processes on this host), so the hop durations of a trace sum to
        its end-to-end latency by construction.
    profile_dir:
        When set, every worker runs a continuous
        :class:`~repro.obs.perf.StackSampler` (and the coordinator
        samples the thread that constructed it), writing
        ``profile-shard-NN.folded`` / ``profile-coordinator.folded``
        collapsed-stack flamegraph files into ``profile_dir`` on close.
    """

    _MARKER = "runtime.json"

    def __init__(self, root: "str | Path", workers: int, *,
                 config: IndexerConfig | None = None,
                 router: str = "hash",
                 sync_every: int = 256,
                 trace_sample: float = 0.0,
                 trace_seed: int = 0,
                 trace_sink: "str | Path | None" = None,
                 profile_dir: "str | Path | None" = None,
                 anatomy: bool = False) -> None:
        if workers <= 0:
            raise ConfigurationError(
                f"workers must be positive, got {workers}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.router = router
        self._router = make_router(router, workers)
        self.tracer: "Tracer | None" = (
            Tracer(sample_rate=trace_sample, seed=trace_seed,
                   sink=trace_sink, keep=TRACE_KEEP)
            if trace_sample > 0.0 else None)
        self._profile_dir = Path(profile_dir) if profile_dir else None
        self._profiler: "StackSampler | None" = None
        if self._profile_dir is not None:
            self._profiler = StackSampler().start()
        self._options = WorkerOptions(
            config=config, sync_every=sync_every,
            trace=self.tracer is not None,
            profile_dir=(str(self._profile_dir)
                         if self._profile_dir is not None else None),
            anatomy=anatomy)
        self.stats = RuntimeStats(unified=self.stats_totals)
        self._ctx = multiprocessing.get_context()
        self._check_marker()
        self._workers: list[_Worker] = [
            self._spawn(shard) for shard in range(workers)]
        self._closed = False

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def _check_marker(self) -> None:
        import json

        marker = self.root / self._MARKER
        if marker.exists():
            recorded = json.loads(marker.read_text())
            if int(recorded.get("workers", -1)) != self.workers:
                raise ConfigurationError(
                    f"runtime root {self.root} was created with "
                    f"{recorded.get('workers')} workers; reopening with "
                    f"{self.workers} would strand routed data")
            if recorded.get("router") != self.router:
                raise ConfigurationError(
                    f"runtime root {self.root} was created with the "
                    f"{recorded.get('router')!r} router, not "
                    f"{self.router!r}")
        else:
            write_atomic(marker, [json.dumps(
                {"workers": self.workers, "router": self.router})])

    def _shard_dir(self, shard: int) -> Path:
        return self.root / f"shard-{shard:02d}"

    def _spawn(self, shard: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(shard, str(self._shard_dir(shard)), self._options,
                  child_conn),
            name=f"repro-shard-{shard:02d}",
            daemon=True)
        process.start()
        child_conn.close()
        return _Worker(shard=shard, process=process, conn=parent_conn)

    def _restart(self, worker: _Worker) -> None:
        """Replace a dead worker; its WAL replay restores durable state."""
        self.stats.restarts += 1
        self.stats.lost_batches += worker.inflight
        self.stats.lost_messages += sum(
            batch.count for batch in worker.pending)
        if self.tracer is not None:
            # Finish any traces riding the lost batches with an explicit
            # dead hop, so a stitched fleet trace never silently
            # truncates at a crash.
            now = time.monotonic()
            for batch in worker.pending:
                for _, trace, t0, routed in batch.traces:
                    trace.span("route", 0.0, max(0.0, routed - t0),
                               kind="hop", shard=worker.shard)
                    trace.span("coordinator_buffer",
                               max(0.0, routed - t0),
                               max(0.0, batch.enqueue - routed),
                               kind="hop")
                    trace.span("lost", max(0.0, batch.enqueue - t0),
                               max(0.0, now - batch.enqueue),
                               kind="hop", dead=True, shard=worker.shard)
                    self.tracer.finish(
                        trace, duration=now - t0, msg_id=trace.trace_id,
                        shard=worker.shard, outcome="lost", dead=True)
        worker.pending.clear()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        fresh = self._spawn(worker.shard)
        worker.process = fresh.process
        worker.conn = fresh.conn

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------

    def _request(self, worker: _Worker,
                 request: "tuple[Any, ...]") -> dict[str, Any]:
        """Blocking request → reply on an idle channel (not pipelined)."""
        self._drain_worker(worker)
        self._send(worker, request)
        return self._recv(worker)

    def _send(self, worker: _Worker,
              request: "tuple[Any, ...]") -> None:
        try:
            worker.conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            self._crash(worker, f"send failed: {exc}")

    def _recv(self, worker: _Worker, timeout: float = 30.0,
              ) -> dict[str, Any]:
        """Receive one reply, detecting a dead worker while waiting."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    break
            except (BrokenPipeError, OSError) as exc:
                self._crash(worker, f"poll failed: {exc}")
            if not worker.process.is_alive():
                self._crash(worker, "process died")
            if time.monotonic() >= deadline:
                self._crash(worker, f"no reply within {timeout}s")
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self._crash(worker, f"recv failed: {exc}")
        if status != "ok":
            raise StorageError(
                f"shard {worker.shard} request failed: {payload}")
        return payload

    def _crash(self, worker: _Worker, reason: str) -> None:
        """Handle a dead worker: restart (unless closing) and raise."""
        shard = worker.shard
        if not self._closed:
            self._restart(worker)
        raise WorkerCrash(f"shard {shard} worker crashed ({reason})")

    def _collect_one(self, worker: _Worker) -> dict[str, Any]:
        """Receive and account the oldest outstanding ingest ACK."""
        started = time.perf_counter()
        try:
            payload = self._recv(worker)
        except WorkerCrash:
            # _restart already accounted the lost in-flight batches.
            self.stats.ack_wait_seconds += time.perf_counter() - started
            return {"indexed": 0, "results": None, "lost": True}
        self.stats.ack_wait_seconds += time.perf_counter() - started
        acked = time.monotonic()
        batch = worker.pending.popleft()
        self.stats.messages_indexed += int(payload.get("indexed", 0))
        self.stats.queue_wait_seconds += max(
            0.0, float(payload.get("queue_wait", 0.0)))
        self.stats.service_seconds += max(
            0.0, float(payload.get("service", 0.0)))
        if batch.traces:
            self._stitch(worker.shard, batch, payload, acked)
        return payload

    def _stitch(self, shard: int, batch: _PendingBatch,
                payload: dict[str, Any], acked: float) -> None:
        """Merge one ACK's worker hop records into stitched traces.

        Every hop boundary is a ``time.monotonic()`` stamp; consecutive
        hops share their boundary, so the hop durations of each trace
        sum to its ``duration`` (= ACK receipt minus route start)
        exactly — the property ``tests/runtime/test_fleet_trace.py``
        pins against the 5% acceptance bar.
        """
        assert self.tracer is not None
        recv = float(payload.get("recv", batch.enqueue))
        done = float(payload.get("done", recv))
        hops: dict[int, dict[str, Any]] = {
            int(hop["trace_id"]): hop
            for hop in payload.get("hops") or ()}
        for _, trace, t0, routed in batch.traces:
            def hop_span(name: str, start: float, end: float,
                         **tags: object) -> None:
                trace.span(name, max(0.0, start - t0),
                           max(0.0, end - start), kind="hop", **tags)

            hop_span("route", t0, routed, shard=shard)
            hop_span("coordinator_buffer", routed, batch.enqueue)
            hop_span("queue_wait", batch.enqueue, recv)
            record = hops.get(trace.trace_id)
            outcome = "lost"
            bundle_id: "int | None" = None
            if record is not None:
                start = float(record["start"])
                end = float(record["end"])
                hop_span("batch_wait", recv, start)
                hop_span("service", start, end,
                         span_id=str(record["span_id"]), shard=shard)
                offset = max(0.0, start - t0)
                for span in record.get("spans") or ():
                    trace.span(str(span["name"]),
                               offset + float(span["start"]),
                               float(span["duration"]), kind="stage",
                               **dict(span.get("tags") or {}))
                hop_span("worker_drain", end, done,
                         fsync=round(max(0.0, done - end), 6))
                outcome = str(record.get("outcome") or "unknown")
                raw_bundle = record.get("bundle_id")
                bundle_id = (int(raw_bundle)
                             if raw_bundle is not None else None)
            else:
                # The worker did not report this message: the whole
                # time inside the worker is one opaque service hop.
                hop_span("service", recv, done, shard=shard)
                outcome = "unreported"
            hop_span("ack_transit", done, acked)
            self.tracer.finish(
                trace, duration=max(0.0, acked - t0),
                msg_id=trace.trace_id, shard=shard, outcome=outcome,
                **({"bundle_id": bundle_id}
                   if bundle_id is not None else {}))

    def _drain_worker(self, worker: _Worker) -> None:
        while worker.pending:
            self._collect_one(worker)

    def flush(self) -> None:
        """Collect every outstanding ingest acknowledgment."""
        for worker in self._workers:
            self._drain_worker(worker)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _route_hinted(self, message: Message) -> "tuple[int, tuple[int, ...]]":
        """Route one message, timing it and accounting boundary hints."""
        started = time.perf_counter()
        decision = self._router.route_with_hint(message)
        self.stats.route_seconds += time.perf_counter() - started
        if decision.boundary:
            self.stats.boundary_hints += 1
        return decision.shard, decision.peers

    def _dispatch(self, worker: _Worker, batch: list[Message],
                  count_only: bool,
                  hints: "Hints | None" = None,
                  traces: "Stamps | None" = None) -> None:
        """Pipeline one routed sub-batch, honoring the inflight bound."""
        while worker.inflight >= MAX_INFLIGHT:
            self._collect_one(worker)
        enqueue = time.monotonic()
        extras: dict[str, Any] = {"enqueue": enqueue}
        if traces:
            # The propagated sampling decisions: (position, trace id,
            # parent span).  The worker honors them via Tracer.force —
            # its own RNG never rolls for fleet-traced messages.
            extras["traced"] = [
                (position, trace.trace_id, f"coord.route.{trace.trace_id}")
                for position, trace, _, _ in traces]
        self._send(worker,
                   ("ingest", batch, count_only, hints or None, extras))
        worker.pending.append(_PendingBatch(
            count=len(batch), enqueue=enqueue, traces=traces or []))
        self.stats.batches_sent += 1
        self.stats.messages_sent += len(batch)

    def _shard_buffers(
            self) -> "tuple[list[list[Message]], list[Hints], list[Stamps]]":
        """Empty per-shard messages, boundary hints and trace stamps."""
        return ([[] for _ in range(self.workers)],
                [[] for _ in range(self.workers)],
                [[] for _ in range(self.workers)])

    def _route_into(self, message: Message, buffers: "list[list[Message]]",
                    hints: "list[Hints]", traces: "list[Stamps]",
                    ) -> "tuple[int, int]":
        """The routing step: route ``message``, then append it, its
        boundary hint and its trace stamp to its shard's buffers;
        returns ``(shard, position in the shard's buffer)``."""
        t0 = time.monotonic() if self.tracer is not None else 0.0
        shard, peers = self._route_hinted(message)
        position = len(buffers[shard])
        if peers:
            hints[shard].append((position, peers))
        buffers[shard].append(message)
        if self.tracer is not None:
            trace = self.tracer.begin(message.msg_id)
            if trace is not None:
                traces[shard].append((position, trace, t0, time.monotonic()))
        return shard, position

    def ingest(self, message: Message) -> "IngestResult | None":
        """Route and ingest one message, waiting for its durable ACK."""
        results = self.ingest_batch([message])
        assert isinstance(results, list)
        return results[0] if results else None

    def ingest_batch(self, messages: Iterable[Message], *,
                     count_only: bool = False,
                     ) -> "list[IngestResult] | int":
        """Route a batch across the fleet; every shard works in parallel.

        Blocks until all of this batch's ACKs arrive (each durable by
        the workers' fsync-before-ACK contract).  Returns results in
        input order (shed/deferred messages omitted), or the indexed
        count with ``count_only=True``.
        """
        per_shard, hints, traces = self._shard_buffers()
        order = [self._route_into(message, per_shard, hints, traces)
                 for message in messages]
        indexed_before = self.stats.messages_indexed
        for shard, sub in enumerate(per_shard):
            if sub:
                self._dispatch(self._workers[shard], sub, count_only,
                               hints[shard], traces[shard])
        acks: dict[int, dict[str, Any]] = {}
        for shard, sub in enumerate(per_shard):
            if not sub:
                continue
            worker = self._workers[shard]
            payload = {"indexed": 0, "results": None}
            while worker.pending:
                payload = self._collect_one(worker)
            acks[shard] = payload
        if count_only:
            return self.stats.messages_indexed - indexed_before
        results: list[IngestResult] = []
        for shard, position in order:
            shard_results = acks.get(shard, {}).get("results")
            if shard_results is None:
                continue  # batch lost to a crash before its ACK
            result = shard_results[position]
            if result is not None:
                results.append(result)
        return results

    def ingest_stream(self, messages: Iterable[Message], *,
                      batch_size: int = 512) -> int:
        """Pipelined bulk ingest; returns the indexed count.

        Routes into per-shard buffers and ships each as it fills, so up
        to :data:`MAX_INFLIGHT` batches per worker are in flight at once —
        the fleet's parallel hot path (``benchmarks/bench_parallel.py``
        measures exactly this entry point).
        """
        indexed_before = self.stats.messages_indexed
        buffers, hints, traces = self._shard_buffers()
        for message in messages:
            shard, _ = self._route_into(message, buffers, hints, traces)
            if len(buffers[shard]) >= batch_size:
                self._dispatch(self._workers[shard], buffers[shard], True,
                               hints[shard], traces[shard])
                buffers[shard] = []
                hints[shard] = []
                traces[shard] = []
        for shard, buffer in enumerate(buffers):
            if buffer:
                self._dispatch(self._workers[shard], buffer, True,
                               hints[shard], traces[shard])
        self.flush()
        return self.stats.messages_indexed - indexed_before

    # ------------------------------------------------------------------
    # Asynchronous cross-shard edge repair (:mod:`repro.runtime.repair`)
    # ------------------------------------------------------------------

    def repair_pass(self, *, fault_hook: "Callable[[str, int], None] | None"
                    = None) -> dict[str, int]:
        """One reconciliation round over every shard's boundary backlog.

        Per shard: drain the pending boundary entries, probe each
        entry's hinted peer shards with the engine's pure Algorithm 1+2
        scoring (``repair_probe``), and install a peer's parent through
        the idempotent ``apply_repair`` RPC only when it *strictly
        beats* the owner's ingest-time alignment.  The shard's durable
        cursor advances only after the whole round succeeded, so a
        crash mid-round re-examines the tail — every step is idempotent.

        ``fault_hook(stage, shard)`` fires at the ``"drained"``,
        ``"scored"`` and ``"applied"`` stages of each shard's round —
        the crash-injection seam the chaos tests SIGKILL workers from.

        Returns a report: ``pending`` entries seen, ``probed`` peer
        probes, ``repaired`` edges installed and ``advanced`` entries
        reconciled.
        """
        report = {"pending": 0, "probed": 0, "repaired": 0, "advanced": 0}
        self.stats.repair_rounds += 1
        hook = fault_hook if fault_hook is not None else (
            lambda stage, shard: None)
        for worker in self._workers:
            shard = worker.shard
            try:
                payload = self._request(worker, ("boundary_pending",))
            except WorkerCrash:
                continue
            entries = payload["entries"]
            if not entries:
                continue
            report["pending"] += len(entries)
            hook("drained", shard)
            repairs: list[tuple[Any, int, float]] = []
            abandoned = False
            for entry in entries:
                best_key: "tuple[float, float, int] | None" = None
                probe_fields = (entry.msg_id, entry.user, entry.date,
                                entry.text)
                for peer in entry.peers:
                    if peer == shard or not 0 <= peer < self.workers:
                        continue
                    try:
                        reply = self._request(
                            self._workers[peer],
                            ("repair_probe", probe_fields))
                    except WorkerCrash:
                        abandoned = True
                        break
                    report["probed"] += 1
                    self.stats.repair_probes += 1
                    best = reply.get("best")
                    if best is None:
                        continue
                    key = (float(best[0]), float(best[1]), -int(best[2]))
                    if best_key is None or key > best_key:
                        best_key = key
                if abandoned:
                    break
                # Strict-beat: the peer's Eq. 5 alignment must exceed
                # the owner's ingest-time score (ties keep the owner's
                # edge — post-hoc re-scoring is measurably skewed, so
                # only clear wins move edges).
                if best_key is not None and (entry.dst is None
                                             or best_key[0] > entry.score):
                    dst = -best_key[2]
                    if dst != entry.dst:
                        repairs.append((entry, dst, best_key[0]))
            if abandoned:
                continue
            hook("scored", shard)
            applied_all = True
            for entry, dst, score in repairs:
                try:
                    reply = self._request(
                        worker, ("apply_repair", entry.msg_id,
                                 entry.dst, dst, score))
                except WorkerCrash:
                    applied_all = False
                    break
                if reply.get("applied"):
                    report["repaired"] += 1
                    self.stats.repair_edges += 1
            if not applied_all:
                continue
            hook("applied", shard)
            try:
                self._request(worker,
                              ("boundary_advance", entries[-1].seq))
            except WorkerCrash:
                continue
            report["advanced"] += len(entries)
        return report

    def repair_until_clean(self, *, max_rounds: int = 8,
                           fault_hook: "Callable[[str, int], None] | None"
                           = None) -> dict[str, int]:
        """Run repair passes until every boundary backlog drains.

        Stops early when a pass finds nothing pending; bounded by
        ``max_rounds`` so a fleet whose workers keep crashing cannot
        spin here.  Returns the accumulated report of all passes.
        """
        totals = {"pending": 0, "probed": 0, "repaired": 0,
                  "advanced": 0, "rounds": 0}
        for _ in range(max_rounds):
            try:
                report = self.repair_pass(fault_hook=fault_hook)
            except WorkerCrash:
                # The crashed worker restarted; the next round resumes
                # from its durable cursor.
                totals["rounds"] += 1
                continue
            totals["rounds"] += 1
            for name, value in report.items():
                totals[name] += value
            if report["pending"] == 0:
                break
        return totals

    # ------------------------------------------------------------------
    # Search (scatter-gather with a shared deadline budget)
    # ------------------------------------------------------------------

    def search_within(self, raw_query: str, k: int = 10, *,
                      alpha: float = ALPHA, beta: float = BETA,
                      budget_seconds: "float | None" = None,
                      clock: Callable[[], float] = time.perf_counter,
                      ) -> "SearchOutcome[HitRow]":
        """Deadline-bounded scatter-gather over every shard.

        Each shard receives the budget *remaining* at its dispatch (the
        workers enforce their own deadlines), so a slow early shard
        tightens later ones instead of blowing the whole budget.  A
        shard reached after the budget expired is skipped and the merged
        outcome is marked partial; coverage aggregates the per-shard
        candidate accounting.  ``shards`` names each hit's owning shard.
        Each hit is a plain :class:`HitRow`: a fleet hit has no
        ``bundle``.
        ``alpha`` / ``beta`` are Eq. 7's weights, shipped to every
        worker with the query.
        """
        started = clock()
        self.stats.search_scatters += 1
        self.flush()
        dispatched: list[_Worker] = []
        partial = False
        for worker in self._workers:
            if budget_seconds is not None:
                remaining = budget_seconds - (clock() - started)
                if remaining <= 0:
                    partial = True
                    self.stats.shards_skipped_by_budget += 1
                    continue
            else:
                remaining = None
            self._send(worker, ("search", raw_query, k, remaining,
                                alpha, beta))
            dispatched.append(worker)
        tagged: list[tuple[int, HitRow]] = []
        candidates_total = 0
        candidates_scored = 0
        for worker in dispatched:
            try:
                payload = self._recv(worker)
            except WorkerCrash:
                partial = True
                continue
            partial = partial or bool(payload["partial"])
            candidates_total += int(payload["candidates_total"])
            candidates_scored += int(payload["candidates_scored"])
            for hit in payload["hits"]:
                tagged.append((worker.shard, hit))
        tagged.sort(key=lambda pair: (-pair[1].score, pair[0],
                                      pair[1].bundle_id))
        return SearchOutcome(
            hits=[hit for _, hit in tagged[:k]],
            partial=partial,
            candidates_total=candidates_total,
            candidates_scored=candidates_scored,
            elapsed_seconds=clock() - started,
            shards=tuple(shard for shard, _ in tagged[:k]),
        )

    def search(self, raw_query: str, k: int = 10) -> list[HitRow]:
        """Unbudgeted scatter-gather search (merged ranked list)."""
        return self.search_within(raw_query, k).hits

    # ------------------------------------------------------------------
    # Fleet introspection
    # ------------------------------------------------------------------

    def _gather(self, request: "tuple[Any, ...]",
                ) -> "Iterator[tuple[int, dict[str, Any]]]":
        for worker in self._workers:
            try:
                yield worker.shard, self._request(worker, request)
            except WorkerCrash:
                continue

    def shard_stats(self) -> dict[int, dict[str, Any]]:
        """Per-shard stats payloads (unified + supervisor + snapshot)."""
        return {shard: payload
                for shard, payload in self._gather(("stats",))}

    def stats_totals(self) -> dict[str, int]:
        """Unified counters summed across live shards."""
        totals: dict[str, int] = {}
        for _, payload in self._gather(("stats",)):
            for name, value in payload["unified"].items():
                totals[name] = totals.get(name, 0) + int(value)
        totals["shard_count"] = self.workers
        return totals

    def snapshot(self) -> MemorySnapshot:
        """Memory accounting summed across the fleet."""
        parts = [payload["snapshot"]
                 for _, payload in self._gather(("snapshot",))]
        return MemorySnapshot(
            pool_bytes=sum(p.pool_bytes for p in parts),
            index_bytes=sum(p.index_bytes for p in parts),
            message_count=sum(p.message_count for p in parts),
            bundle_count=sum(p.bundle_count for p in parts),
        )

    def edge_pairs(self) -> set[tuple[int, int]]:
        """Union of every live shard's acknowledged edge ledger."""
        pairs: set[tuple[int, int]] = set()
        for _, payload in self._gather(("edges",)):
            pairs |= payload["edges"]
        return pairs

    def telemetry_dumps(self) -> dict[int, dict[str, Any]]:
        """Every live worker's full registry dump, keyed by shard."""
        return {shard: payload["dump"]
                for shard, payload in self._gather(("telemetry",))}

    def checkpoint(self) -> None:
        """Force a durable snapshot + WAL truncation on every shard."""
        for _ in self._gather(("checkpoint",)):
            pass

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one worker (crash-injection hook for tests/chaos)."""
        self._workers[shard].process.kill()
        self._workers[shard].process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush, checkpoint and stop every worker; idempotent."""
        if self._closed:
            return
        for worker in self._workers:
            try:
                self._drain_worker(worker)
                self._send(worker, ("close",))
                self._recv(worker)
            except (WorkerCrash, StorageError):
                pass
        self._closed = True
        for worker in self._workers:
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        if self.tracer is not None:
            self.tracer.close()
        if self._profiler is not None:
            self._profiler.stop()
            if self._profile_dir is not None:
                self._profiler.write_collapsed(
                    self._profile_dir / "profile-coordinator.folded")
            self._profiler = None

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
