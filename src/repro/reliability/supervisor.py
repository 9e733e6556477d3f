"""Resilient ingestion: supervision around the journaled indexer.

Real micro-blog ingest runs unattended against a firehose, so the hot
path needs three defenses the core algorithms don't provide:

* **bounded retry with exponential backoff** on transient storage
  failures (``ENOSPC``, flaky fsync) — a blip must not kill the stream,
  but a persistent fault must surface as
  :class:`~repro.core.errors.RetryExhaustedError` rather than spin;
* **a dead-letter queue** that quarantines poison messages (malformed
  records, engine-rejected tuples) with a reason, instead of aborting
  the whole replay on one bad crawl line;
* **degraded mode**: when the pool's memory estimate crosses a high
  watermark, the supervisor force-closes and spills the
  lowest-priority bundles (Eq. 6 ``G(B)`` order, via
  :meth:`repro.core.pool.BundlePool.shed`) until usage is back under
  the low watermark, counting everything it shed;
* **load regulation** (optional): an
  :class:`~repro.reliability.overload.OverloadController` in front of
  the hot path — token-bucket admission with a bounded backlog, the
  NORMAL → REDUCED → SKELETON → SHED_ONLY degradation ladder applied to
  the engine around every ingest, and a circuit breaker that turns a
  sick spill disk into memory-only operation instead of a stalled
  stream.

The supervisor is deliberately *outside* :class:`JournaledIndexer`: the
WAL layer stays a pure correctness protocol, and policy (how often to
retry, what to quarantine, when to shed, what to degrade) lives here.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.engine import IngestResult
from repro.core.errors import (POISON_ERRORS, RetryExhaustedError,
                               StorageError)
from repro.core.message import Message, parse_message
from repro.obs import IngestOutcome, NULL_HISTOGRAM, TelemetryFlusher
from repro.reliability.fsio import commit_scope, write_atomic
from repro.reliability.guard import (FoldLog, GuardAction, GuardConfig,
                                     IngestGuard, Screened)
from repro.reliability.overload import (Admission, HealthReport,
                                        OverloadConfig, OverloadController)
from repro.storage.wal import JournaledIndexer

__all__ = ["DeadLetter", "DeadLetterQueue", "ResilientIndexer",
           "ResilientStats"]

#: Failures worth retrying: the storage layer or the OS said "not now".
_TRANSIENT_ERRORS = (StorageError, OSError)


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One quarantined message."""

    reason: str
    error: str
    payload: str

    def to_dict(self) -> dict[str, str]:
        return {"reason": self.reason, "error": self.error,
                "payload": self.payload}


class DeadLetterQueue:
    """Quarantine for poison messages, optionally persisted as JSONL.

    With a ``path``, every entry is appended to the file as one JSON
    line (and existing entries are loaded on open), so an operator can
    inspect and replay quarantined input after the stream finishes —
    see ``docs/operations.md``.
    """

    def __init__(self, path: "str | os.PathLike[str] | None" = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: list[DeadLetter] = []
        if self.path is not None and self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        self._entries.append(DeadLetter(
                            reason=str(record.get("reason", "?")),
                            error=str(record.get("error", "")),
                            payload=str(record.get("payload", ""))))
                    except (ValueError, AttributeError):
                        continue  # a torn DLQ line loses one dead letter
        elif self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, reason: str, error: BaseException | str,
               payload: object) -> DeadLetter:
        """Quarantine one message with a human-readable reason."""
        letter = DeadLetter(reason=reason, error=str(error),
                            payload=repr(payload))
        self._entries.append(letter)
        if self.path is not None:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(letter.to_dict(),
                                        sort_keys=True) + "\n")
        return letter

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self) -> list[DeadLetter]:
        """A copy of the quarantined entries, oldest first."""
        return list(self._entries)

    def drain(self) -> list[DeadLetter]:
        """Return all entries and clear the queue (file included).

        The on-disk truncation is crash-safe: an empty replacement file
        is written and fsynced beside the queue, then atomically renamed
        over it through the fsio shim.  A crash anywhere mid-drain
        leaves either the complete old queue or the empty new one on
        disk — never a torn file that silently loses quarantined
        records.
        """
        if self.path is not None and self.path.exists():
            # Disk first: if truncation fails, nothing was drained.
            write_atomic(self.path, ())
        drained, self._entries = self._entries, []
        return drained


@dataclass(slots=True)
class ResilientStats:
    """What the supervisor did on behalf of the stream.

    Calling the instance returns the wrapped *engine's* unified counter
    mapping (``repro.api.STATS_KEYS``), so ``resilient.stats()`` means
    the same thing on every backend while
    ``resilient.stats.dead_lettered`` keeps its supervision counters.
    The supervisor binds :attr:`unified` at construction.
    """

    ingested: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    dead_lettered: int = 0
    deferred_checkpoints: int = 0
    degraded_entries: int = 0
    shed_bundles: int = 0
    shed_bytes: int = 0
    unified: "Callable[[], dict[str, int]] | None" = field(
        default=None, repr=False, compare=False)

    def __call__(self) -> "dict[str, int]":
        if self.unified is None:
            raise TypeError(
                "ResilientStats is only callable once bound to a "
                "supervisor (repro.api unified stats)")
        return self.unified()


class ResilientIndexer:
    """Supervisor wrapping :class:`JournaledIndexer` for unattended runs.

    Parameters
    ----------
    journaled:
        The WAL-protected engine to supervise.
    max_retries:
        Transient-failure retries per message before giving up.
    backoff_base / backoff_factor:
        Exponential backoff: attempt *n* sleeps
        ``backoff_base * backoff_factor ** (n - 1)`` seconds.
    sleep:
        Injectable sleeper (tests pass a recorder; default
        :func:`time.sleep`).
    dead_letters:
        A :class:`DeadLetterQueue`, a path for a persistent one, or
        ``None`` for an in-memory queue.
    high_watermark_bytes / low_watermark_bytes:
        Degraded-mode bounds on ``pool.approximate_memory_bytes()``.
        Crossing the high watermark sheds down to the low one (defaults
        to half the high watermark).  ``None`` disables shedding.
    overload:
        An :class:`~repro.reliability.overload.OverloadConfig` (or a
        pre-built :class:`~repro.reliability.overload.OverloadController`)
        enabling load regulation: admission control in front of
        :meth:`ingest`, the degradation ladder applied to the engine
        around every ingest, and the circuit breaker guarding the
        engine's spill store.  ``None`` (the default) leaves the hot
        path exactly as before.
    guard:
        An :class:`~repro.reliability.guard.IngestGuard` (or a
        :class:`~repro.reliability.guard.GuardConfig` / ``True`` to
        build one) enabling the adversarial screen in front of
        :meth:`ingest`: LSH near-duplicate folding, per-user spam
        quarantine (crash-safe quarantine log), and the bounded
        reordering buffer for out-of-order arrivals.  ``None`` (the
        default) leaves the hot path exactly as before.
    telemetry:
        A :class:`~repro.obs.TelemetryFlusher`, or a JSONL path to build
        one on (flushing every ``telemetry_every`` ingests): the
        long-run flight recorder described in ``docs/observability.md``.
        ``None`` (the default) records nothing.
    """

    def __init__(self, journaled: JournaledIndexer, *,
                 max_retries: int = 4,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 sleep: "Callable[[float], None] | None" = None,
                 dead_letters: "DeadLetterQueue | str | os.PathLike[str] | None" = None,
                 high_watermark_bytes: "int | None" = None,
                 low_watermark_bytes: "int | None" = None,
                 overload: "OverloadConfig | OverloadController | None" = None,
                 guard: "IngestGuard | GuardConfig | bool | None" = None,
                 telemetry: "TelemetryFlusher | str | os.PathLike[str] | None" = None,
                 telemetry_every: int = 512) -> None:
        if max_retries < 0:
            raise StorageError(
                f"max_retries must be non-negative, got {max_retries}")
        if (high_watermark_bytes is not None
                and low_watermark_bytes is not None
                and low_watermark_bytes > high_watermark_bytes):
            raise StorageError(
                "low watermark must not exceed the high watermark")
        self.journaled = journaled
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self._sleep = sleep if sleep is not None else time.sleep
        if isinstance(dead_letters, DeadLetterQueue):
            self.dead_letters = dead_letters
        else:
            self.dead_letters = DeadLetterQueue(dead_letters)
        self.high_watermark_bytes = high_watermark_bytes
        if high_watermark_bytes is not None and low_watermark_bytes is None:
            low_watermark_bytes = high_watermark_bytes // 2
        self.low_watermark_bytes = low_watermark_bytes
        self.stats = ResilientStats()
        self.stats.unified = lambda: self.journaled.indexer.stats()
        if overload is None:
            self.overload: "OverloadController | None" = None
        elif isinstance(overload, OverloadController):
            self.overload = overload
        else:
            self.overload = OverloadController(overload)
        if self.overload is not None:
            self.overload.attach(self.journaled.indexer)
        if guard is None or guard is False:
            self.guard: "IngestGuard | None" = None
        elif isinstance(guard, IngestGuard):
            self.guard = guard
        else:
            self.guard = IngestGuard(
                guard if isinstance(guard, GuardConfig) else None)
        if self.guard is not None and self.overload is not None:
            self.overload.attach_guard(self.guard)
        #: What the batch entry points group-commit: the custody log.
        #: (The fold log only needs its write-before-WAL-write flush.)
        self._custody = (self.guard.quarantine,) if self.guard else ()
        registry = self.journaled.indexer.obs.registry
        stats = self.stats
        for name, field_name, help_text in (
                ("repro_supervisor_ingested_total", "ingested",
                 "Messages successfully indexed under supervision"),
                ("repro_retries_total", "retries",
                 "Transient-failure retries performed"),
                ("repro_dead_letters_total", "dead_lettered",
                 "Messages quarantined to the dead-letter queue"),
                ("repro_deferred_checkpoints_total", "deferred_checkpoints",
                 "Checkpoints deferred after a post-ingest failure"),
                ("repro_degraded_entries_total", "degraded_entries",
                 "Entries into watermark-driven degraded mode"),
        ):
            registry.counter(
                name, help=help_text,
                callback=(lambda f=field_name: getattr(stats, f)))
        registry.gauge("repro_dlq_depth",
                       help="Messages currently held in the DLQ",
                       callback=lambda: len(self.dead_letters))
        if self.guard is not None:
            gstats = self.guard.stats
            guard_logs = self.guard.logs
            for name, field_name, help_text in (
                    ("repro_guard_screened_total", "screened",
                     "Arrivals screened by the ingest guard"),
                    ("repro_guard_passed_total", "passed",
                     "Arrivals passed clean through the guard"),
                    ("repro_guard_folded_total", "folded",
                     "Near-duplicates folded into their origin bundle"),
                    ("repro_guard_quarantined_total", "quarantined",
                     "Messages quarantined to the guard log "
                     "(spam / clock-skew)"),
                    ("repro_guard_late_total", "late",
                     "Arrivals routed through the deterministic "
                     "late-path"),
                    ("repro_guard_reordered_total", "released",
                     "Buffered out-of-order arrivals re-emitted in "
                     "date order"),
            ):
                registry.counter(
                    name, help=help_text,
                    callback=(lambda f=field_name: getattr(gstats, f)))
            registry.counter(
                "repro_guard_log_syncs_total",
                help="fsyncs issued on the guard's quarantine and fold logs",
                callback=lambda: sum(log.syncs for log in guard_logs))
            registry.gauge(
                "repro_guard_buffer_depth",
                help="Messages held in the guard's reordering buffer",
                callback=lambda: (self.guard.buffer_depth
                                  if self.guard else 0))
            registry.gauge(
                "repro_guard_toxicity",
                help="Hostile fraction of recently screened arrivals",
                callback=lambda: (self.guard.toxicity()
                                  if self.guard else 0.0))
        self._latency_hist = (registry.histogram(
            "repro_ingest_latency_seconds", unit="seconds",
            help="Whole supervised ingest latency, message arrival "
                 "to indexed (retries and backoff included)")
            if registry.enabled else NULL_HISTOGRAM)
        # The guard screen is a pipeline stage of its own (LSH probe +
        # reorder bookkeeping before Algorithm 1 runs); give it a child
        # in the same repro_stage_seconds family the engine's stages
        # live in so trace hops, flamegraph stages and stage histograms
        # all speak the same stage vocabulary.
        self._screen_hist = (registry.histogram(
            "repro_stage_seconds", unit="seconds",
            help="Per-stage maintenance latency (Fig. 13's signals)",
            labels={"stage": "guard_screen"})
            if registry.enabled and self.guard is not None
            else NULL_HISTOGRAM)
        #: Guard-screen seconds of the most recent :meth:`ingest` call
        #: (0.0 without a guard) — the runtime worker turns this into
        #: the stitched trace's ``guard_screen`` hop.
        self.last_screen_seconds = 0.0
        if isinstance(telemetry, TelemetryFlusher) or telemetry is None:
            self.telemetry = telemetry
        else:
            self.telemetry = TelemetryFlusher(
                registry, telemetry, every_ticks=telemetry_every)
        audit = self.journaled.indexer.obs.audit
        if self.telemetry is not None and audit is not None:
            # The audit JSONL sink rides the flight recorder's cadence.
            self.telemetry.companions.append(audit.flush)

    # -- construction -------------------------------------------------------

    @classmethod
    def open(cls, root: "str | os.PathLike[str]", *,
             config: "Any | None" = None,
             sync_every: int = 64,
             snapshot_every: int = 50_000,
             store: bool = True,
             **options: Any) -> "ResilientIndexer":
        """Open (or recover) a full resilient stack rooted at ``root``.

        The directory layout is fixed — ``ingest.wal`` (journal),
        ``state.snapshot`` (+ ``.seq`` sidecar), ``bundles/`` (spill
        store) and ``dead_letters.jsonl`` — so a process that died at
        any point is rebuilt exactly by calling :meth:`open` on the same
        root: snapshot load + journal-tail replay, then the same sinks
        reattached.  This is the factory behind
        ``repro.api.open_indexer("resilient")`` and each
        :mod:`repro.runtime` worker process.

        ``options`` are forwarded to the constructor (``overload=``,
        ``telemetry=``, ``guard=``, watermarks, …).  A truthy ``guard``
        option gets its durable logs at the fixed layout paths —
        ``quarantine.log`` and ``folds.log`` next to the DLQ — and the
        fold log's hints steer WAL replay so recovered fold placements
        match the live ones.
        """
        from repro.storage.bundle_store import BundleStore
        from repro.storage.wal import MessageJournal

        root_dir = Path(root)
        root_dir.mkdir(parents=True, exist_ok=True)
        journal_path = root_dir / "ingest.wal"
        snapshot_path = root_dir / "state.snapshot"
        guard_opt = options.get("guard")
        fold_hints: "dict[int, tuple[int, int]] | None" = None
        if isinstance(guard_opt, IngestGuard):
            if guard_opt.folds.path is not None:
                fold_hints = FoldLog.load(guard_opt.folds.path)
        elif guard_opt:  # True or a GuardConfig: build at fixed paths
            fold_path = root_dir / "folds.log"
            fold_hints = FoldLog.load(fold_path)
            options["guard"] = IngestGuard(
                guard_opt if isinstance(guard_opt, GuardConfig) else None,
                quarantine_path=root_dir / "quarantine.log",
                fold_path=fold_path)
        if snapshot_path.exists() or journal_path.exists():
            journaled = JournaledIndexer.recover(
                snapshot_path, journal_path,
                snapshot_every=snapshot_every, config=config,
                fold_hints=fold_hints)
            journaled.journal.sync_every = sync_every
        else:
            from repro.core.engine import ProvenanceIndexer

            journaled = JournaledIndexer(
                ProvenanceIndexer(config),
                MessageJournal(journal_path, sync_every=sync_every),
                snapshot_path=snapshot_path,
                snapshot_every=snapshot_every)
        if store:
            sink = BundleStore(root_dir / "bundles")
            journaled.indexer.store = sink
            sink.bind_registry(journaled.indexer.obs.registry)
        options.setdefault("dead_letters", root_dir / "dead_letters.jsonl")
        return cls(journaled, **options)

    # -- convenience passthroughs ------------------------------------------

    @property
    def indexer(self):
        """The wrapped engine (for queries and inspection)."""
        return self.journaled.indexer

    # -- ingestion ----------------------------------------------------------
    # ingest → _apply_verdict (guard) → _admit (admission) → _index
    # (ladder rung + retry/poison) → JournaledIndexer.ingest(fold=hint).

    def ingest(self, message: Message, *,
               now: "float | None" = None) -> "IngestResult | None":
        """Ingest one message, surviving transient faults and poison.

        Returns the engine's :class:`IngestResult`, or ``None`` when the
        message was quarantined to the dead-letter queue — or, with load
        regulation enabled, deferred to the backlog or dropped (both
        fully accounted in the overload controller's stats).

        ``now`` is the arrival time fed to the admission controller's
        token bucket (defaults to the controller's clock); pass the
        stream's own timestamps to regulate in simulated time.

        With a guard attached the arrival is screened first: it may be
        quarantined (``None`` returned, message durably logged), folded
        into a near-duplicate's bundle, buffered for reordering
        (``None`` now, ingested when the watermark passes), or release
        older buffered messages ahead of itself.
        """
        if self.guard is None:
            self.last_screen_seconds = 0.0
            return self._admit(message, now)
        result: "IngestResult | None" = None
        screen_started = time.perf_counter()
        entries = self.guard.admit(message)
        screened = time.perf_counter() - screen_started
        self.last_screen_seconds = screened
        self._screen_hist.observe(screened)
        for entry, outcome in zip(entries, self._apply_all(entries, now)):
            if entry.message is message:
                result = outcome
        return result

    def _apply_all(self, entries: "list[Screened]", now: "float | None",
                   ) -> "list[IngestResult | None]":
        """Apply, in order, the entries the guard just popped from its
        reorder buffer.  If one raises (retries exhausted) those behind
        it would be in no ledger at all, so they are dead-lettered
        first — bar the quarantined and buffered, already in custody.
        """
        outcomes: "list[IngestResult | None]" = []
        try:
            for entry in entries:
                outcomes.append(self._apply_verdict(entry, now))
        except Exception as exc:
            for lost in entries[len(outcomes) + 1:]:
                if lost.action not in (GuardAction.QUARANTINE,
                                       GuardAction.BUFFERED):
                    self.stats.dead_lettered += 1
                    self.dead_letters.append("release-aborted", exc,
                                             lost.message)
            raise
        return outcomes

    def _apply_verdict(self, entry: Screened,
                       now: "float | None") -> "IngestResult | None":
        """Guard frame: act on one screened arrival's verdict."""
        message = entry.message
        action = entry.action
        rung = (int(self.overload.state) if self.overload is not None
                else self.indexer.current_rung)
        if action is GuardAction.QUARANTINE:
            # Custody is already written (durable at once, or at the
            # exit of the caller's commit scope); account the refusal
            # exactly like a shed for quality purposes.
            self._note_refusal(message, IngestOutcome.QUARANTINED, rung,
                               lost=True, reason=entry.reason)
            return None
        if action is GuardAction.BUFFERED:
            # Held for reordering — not refused, so no audit record;
            # the eventual release produces the real decision.
            tracer = self.indexer.obs.tracer
            if tracer is not None:
                tracer.event(message.msg_id, "buffered", rung=rung)
            return None
        if action is GuardAction.LATE:
            # The deterministic late-path: record the verdict (the
            # placement record supersedes it with late_arrival=True),
            # then ingest immediately — the engine's arrival floor
            # keeps pool eviction ordering intact.
            self._note_refusal(message, IngestOutcome.LATE, rung,
                               lost=False)
        fold_hint = ((entry.bundle_id, entry.duplicate_of)
                     if action is GuardAction.FOLD else None)
        return self._admit(message, now, fold_hint)

    def _admit(self, message: Message, now: "float | None",
               fold_hint: "tuple[int, int] | None" = None,
               ) -> "IngestResult | None":
        """Admission frame: token bucket, backlog, refusal accounting."""
        ctl = self.overload
        if ctl is None:
            return self._index(message, fold_hint)
        arrival = ctl.now(now)
        # Backlog first: deferred messages whose tokens have accrued are
        # ingested before the new arrival, preserving stream order.
        # (A deferred message loses its fold hint by design: the target
        # bundle may be gone by release time, so it degrades to a full
        # ingest rather than a stale fold.)
        for queued in ctl.release(arrival):
            self._index(queued)
        verdict = ctl.offer(message, arrival)
        if verdict is Admission.ADMITTED:
            return self._index(message, fold_hint)
        dropped = verdict is Admission.DROPPED
        self._note_refusal(
            message,
            IngestOutcome.SHED if dropped else IngestOutcome.DEFERRED,
            int(ctl.state), lost=dropped)
        return None

    def _note_refusal(self, message: Message, outcome: IngestOutcome,
                      rung: int, *, lost: bool, **tags: object) -> None:
        """Account an arrival the pipeline will not (yet) place: a
        span-less outcome record if its trace is sampled, an audit
        refusal with the rung that refused it, and — ``lost`` (shed,
        quarantined) arrivals can never yield an edge — its ground
        truth counted against ret."""
        obs = self.indexer.obs
        if obs.tracer is not None:
            obs.tracer.event(message.msg_id, outcome.value, rung=rung,
                             **tags)
        if obs.audit is not None:
            obs.audit.record_refusal(message.msg_id, outcome, rung)
        if lost and obs.quality is not None:
            obs.quality.note_shed(message)

    def _index(self, message: Message,
               fold_hint: "tuple[int, int] | None" = None,
               ) -> "IngestResult | None":
        """Ingest frame: one journaled ingest in the ladder's current
        rung, retried on transient faults, dead-lettered on poison."""
        ctl = self.overload
        state = ctl.apply_mode(self.indexer) if ctl is not None else None
        result: "IngestResult | None" = None
        attempt = 0
        started = time.perf_counter()
        try:
            while True:
                seq_before = self.journaled.last_applied_seq
                try:
                    if fold_hint is not None:
                        # The fold hint must be on disk before the WAL
                        # record it explains: a crash between the two
                        # leaves a hint without a record (harmless) but
                        # never a record without its hint (replay
                        # divergence).
                        assert self.guard is not None
                        self.guard.folds.append(message.msg_id, *fold_hint)
                    result = self.journaled.ingest(message, fold=fold_hint)
                    break
                except POISON_ERRORS as exc:
                    self.stats.dead_lettered += 1
                    self.dead_letters.append("index-rejected", exc, message)
                    break
                except _TRANSIENT_ERRORS as exc:
                    if self.journaled.last_applied_seq > seq_before:
                        # The message itself was journaled and indexed;
                        # only the trailing checkpoint failed.  Retrying
                        # the ingest would double-apply — defer the
                        # checkpoint instead (the next ingest past the
                        # threshold re-triggers it).
                        self.stats.deferred_checkpoints += 1
                        result = self.journaled.last_result
                        break
                    attempt += 1
                    if attempt > self.max_retries:
                        raise RetryExhaustedError(
                            f"ingest of message {message.msg_id} failed "
                            f"after {self.max_retries} retries: {exc}"
                        ) from exc
                    delay = self.backoff_base * (
                        self.backoff_factor ** (attempt - 1))
                    self.stats.retries += 1
                    self.stats.backoff_seconds += delay
                    self._sleep(delay)
            if result is not None:
                self.stats.ingested += 1
                if self.guard is not None:
                    # Teach the guard where this message landed so
                    # future near-duplicates of it fold into the same
                    # bundle.
                    self.guard.note_result(message, result.bundle_id)
                self._maybe_shed()
        finally:
            self._latency_hist.observe(time.perf_counter() - started)
            if self.telemetry is not None:
                self.telemetry.tick()
        if ctl is not None:
            ctl.note_ingest(state, time.perf_counter() - started,
                            indexed=result is not None)
        return result

    def ingest_raw(self, msg_id: object, user: object, date: object,
                   text: object, *, event_id: object = None,
                   parent_id: object = None) -> "IngestResult | None":
        """Parse an untrusted raw record, then ingest it.

        Malformed fields (the poison a real crawl feed produces) land in
        the dead-letter queue with a reason instead of raising.  Raw
        ``bytes`` text is decoded strictly as UTF-8, so mojibake from a
        broken crawler dead-letters instead of being indexed as its
        ``repr``.
        """
        try:
            if isinstance(text, (bytes, bytearray)):
                text = bytes(text).decode("utf-8")
            message = parse_message(
                int(msg_id),  # type: ignore[arg-type]
                str(user),
                float(date),  # type: ignore[arg-type]
                str(text),
                event_id=int(event_id) if event_id not in (None, "") else None,
                parent_id=(int(parent_id)
                           if parent_id not in (None, "") else None))
        except POISON_ERRORS as exc:
            self.stats.dead_lettered += 1
            self.dead_letters.append(
                "parse-failed", exc,
                (msg_id, user, date, text, event_id, parent_id))
            return None
        return self.ingest(message)

    def ingest_stream(self, records: Iterable[Any], *,
                      drain_backlog: bool = True) -> int:
        """Drive a mixed stream of :class:`Message` / raw tuples to the end.

        A raw record is ``(msg_id, user, date, text[, event_id[,
        parent_id]])``; the optional ground-truth fields reach the
        :class:`Message` so quality accounting can read them.

        Returns the number of messages actually indexed; everything else
        is accounted for in :attr:`stats`, the dead-letter queue and
        (with load regulation) the overload controller's admission
        stats.  With regulation enabled the deferred backlog is drained
        at end of stream unless ``drain_backlog=False``.
        """
        before = self.stats.ingested
        with commit_scope(*self._custody):
            for record in records:
                if isinstance(record, Message):
                    self.ingest(record)
                elif isinstance(record, (tuple, list)) and len(record) >= 4:
                    truth = dict(zip(("event_id", "parent_id"),
                                     record[4:6]))
                    self.ingest_raw(*record[:4], **truth)
                else:
                    self.stats.dead_lettered += 1
                    self.dead_letters.append(
                        "unrecognized-record",
                        f"expected Message or >=4-tuple, got {type(record).__name__}",
                        record)
            if drain_backlog:
                self.flush_guard()
                self.drain_backlog()
        return self.stats.ingested - before

    def flush_guard(self) -> int:
        """Ingest everything still held in the guard's reorder buffer.

        Returns how many buffered messages were actually indexed.  A
        no-op without a guard.
        """
        if self.guard is None:
            return 0
        with commit_scope(*self._custody):
            outcomes = self._apply_all(self.guard.flush(), None)
        return sum(outcome is not None for outcome in outcomes)

    def drain_backlog(self) -> int:
        """Ingest everything still deferred in the admission backlog.

        Returns how many backlog messages were actually indexed.  A
        no-op without load regulation.
        """
        if self.overload is None:
            return 0
        with commit_scope(*self._custody):
            return sum(self._index(queued) is not None
                       for queued in self.overload.drain())

    def ingest_batch(self, messages: Iterable[Message], *,
                     count_only: bool = False,
                     ) -> "list[IngestResult] | int":
        """Ingest a date-ordered batch (:class:`repro.api.Indexer`).

        Shed, deferred and dead-lettered messages yield no result, so
        the returned list may be shorter than the input; with
        ``count_only=True`` only the indexed count comes back.  Its
        quarantine verdicts share one fsync, issued before it returns.
        """
        results: "list[IngestResult]" = []
        count = 0
        with commit_scope(*self._custody):
            for message in messages:
                result = self.ingest(message)
                if result is not None:
                    count += 1
                    if not count_only:
                        results.append(result)
        return count if count_only else results

    # -- retrieval ----------------------------------------------------------

    def search(self, raw_query: str, k: int = 10):
        """Ranked Eq. 7 retrieval over the supervised engine's pool."""
        return self.indexer.search(raw_query, k=k)

    def snapshot(self):
        """The supervised engine's memory accounting."""
        return self.indexer.snapshot()

    def edge_pairs(self) -> set[tuple[int, int]]:
        """The supervised engine's cumulative edge ledger."""
        return self.indexer.edge_pairs()

    def health_report(self) -> "HealthReport | None":
        """The overload controller's snapshot (``None`` unregulated)."""
        if self.overload is None:
            return None
        return self.overload.health_report()

    # -- degraded mode -------------------------------------------------------

    def _maybe_shed(self) -> None:
        if self.high_watermark_bytes is None:
            return
        engine = self.journaled.indexer
        usage = engine.pool.approximate_memory_bytes()
        if usage < self.high_watermark_bytes:
            return
        self.stats.degraded_entries += 1
        target = self.low_watermark_bytes
        assert target is not None
        audit = engine.obs.audit
        events = [] if audit is not None else None
        shed, bytes_shed = engine.pool.shed(
            engine.current_date, target_bytes=target,
            summary_index=engine.summary_index, sink=engine.store,
            collect=events)
        if audit is not None and events:
            audit.record_evictions(events, rung=engine.current_rung)
        self.stats.shed_bundles += shed
        self.stats.shed_bytes += bytes_shed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the supervised indexer (final checkpoint included)."""
        self.__exit__(None, None, None)

    def __enter__(self) -> "ResilientIndexer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        exc_type = exc_info[0] if exc_info else None
        if self.guard is not None:
            if exc_type is None:
                self.flush_guard()
            # Crashing out: keep the reorder buffer for recovery (its
            # members are unacknowledged); just make the logs durable.
            self.guard.close()
        if self.telemetry is not None:
            self.telemetry.close()
        audit = self.journaled.indexer.obs.audit
        if audit is not None:
            audit.close()
        # Behind admission's breaker wrapper, if any; sinks need not close.
        sink = getattr(self.indexer.store, "sink", self.indexer.store)
        if hasattr(sink, "close"):
            sink.close()
        self.journaled.__exit__(exc_type, *exc_info[1:])
