"""Resilient ingestion: supervision around the journaled indexer.

Real micro-blog ingest runs unattended against a firehose, so the hot
path needs three defenses the core algorithms don't provide:

* **bounded retry with exponential backoff** on transient journal
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
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.engine import IngestResult, ProvenanceIndexer
from repro.core.errors import (POISON_ERRORS, RetryExhaustedError,
                               StorageError)
from repro.core.message import Message, parse_message
from repro.obs import IngestOutcome, NULL_HISTOGRAM, TelemetryFlusher
from repro.reliability.fsio import (FramedLog, commit_scope, read_framed,
                                    write_atomic)
from repro.reliability.guard import (FoldLog, GuardAction, IngestGuard,
                                     Screened)
from repro.reliability.overload import (Admission, CircuitBreaker,
                                        GuardedSink, HealthReport,
                                        OverloadConfig, OverloadController)
from repro.storage.wal import Fold, JournaledIndexer

__all__ = ["DeadLetter", "DeadLetterQueue", "ResilientIndexer",
           "ResilientStats"]

#: Failures worth retrying: the storage layer or the OS said "not now".
_TRANSIENT_ERRORS = (StorageError, OSError)
#: Transient-failure retries per journal append before giving up.
MAX_RETRIES = 4
#: Exponential backoff: retry *n* sleeps
#: ``BACKOFF_BASE * BACKOFF_FACTOR ** (n - 1)`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0


def _encodable(message: Message) -> bool:
    """Whether UTF-8 can encode the message's free-text fields (a lone
    surrogate from a truncated emoji cannot be)."""
    try:
        message.user.encode("utf-8")
        message.text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One quarantined message."""

    reason: str
    error: str
    payload: str


def _parse_letter(payload: str) -> DeadLetter:
    record = json.loads(payload)
    return DeadLetter(reason=str(record.get("reason", "?")),
                      error=str(record.get("error", "")),
                      payload=str(record.get("payload", "")))


class DeadLetterQueue(FramedLog):
    """Quarantine for poison messages, optionally persisted.

    With a ``path``, every entry is one CRC-framed JSON line (a
    :class:`~repro.reliability.fsio.FramedLog`, fsynced at once or at
    the exit of the caller's commit scope), and the intact entries load
    on open — pre-CRC JSON lines included — so an operator can inspect
    and replay quarantined input after the stream finishes — see
    ``docs/operations.md``.
    """

    durable = True

    def __init__(self, path: "str | os.PathLike[str] | None" = None) -> None:
        super().__init__(path)
        self._entries: list[DeadLetter] = (
            [] if self.path is None
            else list(read_framed(self.path, _parse_letter, unframed=True)))

    def append(self, reason: str, error: BaseException | str,
               payload: object) -> DeadLetter:
        """Quarantine one message with a human-readable reason."""
        letter = DeadLetter(reason=reason, error=str(error),
                            payload=repr(payload))
        self._entries.append(letter)
        self.append_payload(json.dumps(asdict(letter), sort_keys=True))
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
            # Disk first: if truncation fails, nothing was drained.  The
            # next append reopens the replacement.
            self.close()
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
    sleep:
        Injectable sleeper for the retry backoff (tests pass a
        recorder; default :func:`time.sleep`).
    dead_letters:
        A :class:`DeadLetterQueue`, a path for a persistent one, or
        ``None`` for an in-memory queue.
    high_watermark_bytes:
        Degraded-mode bound on ``pool.approximate_memory_bytes()``.
        Crossing it sheds down to the low watermark, always half the
        high one.  ``None`` disables shedding.
    overload:
        An :class:`~repro.reliability.overload.OverloadConfig` (or a
        pre-built :class:`~repro.reliability.overload.OverloadController`)
        enabling load regulation: admission control in front of
        :meth:`ingest`, the degradation ladder applied to the engine
        around every ingest, and the circuit breaker in front of the
        engine's spill store (without one, a plain breaker still parks
        bundles a failed spill could not write).
    guard:
        An :class:`~repro.reliability.guard.IngestGuard` (or ``True``
        to build a memory-only one; :meth:`open` builds it with its
        logs) enabling the adversarial screen in front of
        :meth:`ingest`: exact near-duplicate folding, per-user spam
        quarantine (crash-safe quarantine log), and the bounded
        reordering buffer for out-of-order arrivals.  ``None`` (the
        default) leaves the hot path exactly as before.
    telemetry:
        A :class:`~repro.obs.TelemetryFlusher`, or a JSONL path to build
        one on (flushing every
        :data:`~repro.obs.exporters.EVERY_TICKS` ingests): the
        long-run flight recorder described in ``docs/observability.md``.
        ``None`` (the default) records nothing.
    """

    def __init__(self, journaled: JournaledIndexer, *,
                 sleep: "Callable[[float], None] | None" = None,
                 dead_letters: "DeadLetterQueue | str | os.PathLike[str] | None" = None,
                 high_watermark_bytes: "int | None" = None,
                 overload: "OverloadConfig | OverloadController | None" = None,
                 guard: "IngestGuard | bool | None" = None,
                 telemetry: "TelemetryFlusher | str | os.PathLike[str] | None" = None) -> None:
        self.journaled = journaled
        self._sleep = sleep if sleep is not None else time.sleep
        if isinstance(dead_letters, DeadLetterQueue):
            self.dead_letters = dead_letters
        else:
            self.dead_letters = DeadLetterQueue(dead_letters)
        self.high_watermark_bytes = high_watermark_bytes
        self.low_watermark_bytes = (None if high_watermark_bytes is None
                                    else high_watermark_bytes // 2)
        self.stats = ResilientStats()
        self.stats.unified = lambda: self.journaled.indexer.stats()
        if overload is None:
            self.overload: "OverloadController | None" = None
        elif isinstance(overload, OverloadController):
            self.overload = overload
        else:
            self.overload = OverloadController(overload)
        engine = self.journaled.indexer
        registry = engine.obs.registry
        if engine.store is not None and not isinstance(engine.store,
                                                       GuardedSink):
            # A failed spill must not raise out of the engine after the
            # record was journaled (see _retry): park the bundle instead.
            # A checkpoint waits for parked bundles to reach disk.
            engine.store = GuardedSink(
                engine.store, self.overload.breaker
                if self.overload is not None else CircuitBreaker())
        if isinstance(engine.store, GuardedSink):
            parked = engine.store
            registry.gauge("repro_spill_parked",
                           help="Bundles parked in memory behind a sick disk",
                           callback=lambda: parked.parked_count)
        if self.overload is not None:
            self.overload.attach(engine)  # adopts the GuardedSink
        if isinstance(guard, IngestGuard):
            self.guard: "IngestGuard | None" = guard
        else:
            self.guard = IngestGuard() if guard else None
        if self.guard is not None and self.overload is not None:
            self.overload.attach_guard(self.guard)
        #: What the batch entry points group-commit: the custody log and
        #: the dead letters.  (The fold log only needs its
        #: write-before-WAL-write flush.)
        self._custody = ((self.guard.quarantine, self.dead_letters)
                         if self.guard else (self.dead_letters,))
        stats = self.stats
        for name, field_name, help_text in (
                ("repro_retries_total", "retries",
                 "Transient-failure retries performed"),
                ("repro_deferred_checkpoints_total", "deferred_checkpoints",
                 "Checkpoints deferred after a post-ingest failure"),
        ):
            registry.counter(
                name, help=help_text,
                callback=(lambda f=field_name: getattr(stats, f)))
        registry.gauge("repro_dlq_depth",
                       help="Messages currently held in the DLQ",
                       callback=lambda: len(self.dead_letters))
        if self.guard is not None:
            self.guard.bind_registry(registry)
        self._latency_hist = (registry.histogram(
            "repro_ingest_latency_seconds", unit="seconds",
            help="Supervised ingest latency per settled arrival: its "
                 "run's wall (retries and backoff included) over the "
                 "arrivals the run settled")
            if registry.enabled else NULL_HISTOGRAM)
        # The guard screen is a pipeline stage of its own (near-dup join +
        # reorder bookkeeping before Algorithm 1 runs); give it a child
        # in the same repro_stage_seconds family the engine's stages
        # live in so flamegraph stages and stage histograms speak the
        # same stage vocabulary.
        self._screen_hist = (registry.histogram(
            "repro_stage_seconds", unit="seconds",
            help="Per-stage maintenance latency (Fig. 13's signals)",
            labels={"stage": "guard_screen"})
            if registry.enabled and self.guard is not None
            else NULL_HISTOGRAM)
        #: The latest ingest loop's outcomes, one slot per arrival,
        #: filled as its runs settle: what a call that raised settled.
        self.last_outcomes: "list[IngestResult | None]" = []
        if isinstance(telemetry, TelemetryFlusher) or telemetry is None:
            self.telemetry = telemetry
        else:
            self.telemetry = TelemetryFlusher(registry, telemetry)
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
        elif guard_opt:  # True: build at the fixed paths
            fold_path = root_dir / "folds.log"
            fold_hints = FoldLog.load(fold_path)
            options["guard"] = IngestGuard(
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
    # Every entry point is one loop, _ingest_all, over the stages guard →
    # admit (_admitted) → journal → engine → ack (_run).  Admitted arrivals
    # collect into runs: one arrival while a guard, a ladder or a watermark
    # reads the previous arrival's result, else up to the next checkpoint
    # or telemetry flush.

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
        return self._ingest_all((message,), now)[0]

    def ingest_outcomes(self, messages: Iterable[Message],
                        ) -> "list[IngestResult | None]":
        """:meth:`ingest_batch` with one outcome per arrival, in input
        order: ``None`` wherever :meth:`ingest` would return ``None``.
        If it raises, :attr:`last_outcomes` holds what it settled."""
        with commit_scope(*self._custody):
            return self._ingest_all(list(messages), None)

    def _ingest_all(self, messages: "Sequence[Message | None]",
                    now: "float | None",
                    release: "Callable[[], list[Screened]] | None" = None,
                    ) -> "list[IngestResult | None]":
        """The ingest loop; ``release`` replaces the guard screen (for
        :meth:`flush_guard`, the reorder buffer's whole contents)."""
        guard = self.guard
        one_by_one = (guard is not None or self.overload is not None
                      or self.high_watermark_bytes is not None)
        self.last_outcomes = outcomes = [None] * len(messages)
        # The run being collected (no guard, so no folds): each message
        # and its outcome slot, -1 for one that answers no arrival here.
        slots: "list[int]" = []
        run: "list[Message]" = []
        limit = 0
        for slot, message in enumerate(messages):
            if release is not None:
                entries = release()
            elif guard is None:
                entries = [Screened(message, GuardAction.PASS)]
            else:
                started = time.perf_counter()
                # The screen hashes and logs the text: what UTF-8 cannot
                # encode skips it, and the journal refuses it in its slot.
                entries = (guard.admit(message) if _encodable(message)
                           else [Screened(message, GuardAction.PASS)])
                self._screen_hist.observe(time.perf_counter() - started)
            for done, entry in enumerate(entries):
                try:
                    for admitted, fold in self._admitted(entry, now):
                        answer = slot if admitted is message else -1
                        if one_by_one:
                            self._run([answer], [admitted], [fold], outcomes)
                            continue
                        if not run:
                            limit = min(self.journaled.checkpoint_room,
                                        self.telemetry.ticks_to_flush
                                        if self.telemetry else sys.maxsize)
                        slots.append(answer)
                        run.append(admitted)
                        if len(run) >= limit:
                            self._run(slots, run, None, outcomes)
                            slots, run = [], []
                except Exception as exc:
                    # The entries behind this one have left the reorder
                    # buffer and are in no ledger: dead-letter them, bar
                    # the quarantined and buffered (already in custody).
                    for lost in entries[done + 1:]:
                        if lost.action not in (GuardAction.QUARANTINE,
                                               GuardAction.BUFFERED):
                            self.stats.dead_lettered += 1
                            self.dead_letters.append("release-aborted", exc,
                                                     lost.message)
                    raise
        if run:
            self._run(slots, run, None, outcomes)
        return outcomes

    def _admitted(self, entry: Screened, now: "float | None",
                  ) -> "Iterator[tuple[Message, Fold | None]]":
        """Admit stage: act on the guard's verdict, then on admission
        control's; yields what to index, in order.  Each is indexed
        before this resumes, so every admission decision sees the
        results of those before it."""
        message = entry.message
        action = entry.action
        ctl = self.overload
        if action is not GuardAction.PASS:
            rung = (int(ctl.state) if ctl is not None
                    else self.indexer.current_rung)
            if action is GuardAction.QUARANTINE:
                # Custody is already written (durable at once, or at the
                # exit of the caller's commit scope); account the refusal
                # exactly like a shed for quality purposes.
                self._note_refusal(message, IngestOutcome.QUARANTINED, rung,
                                   lost=True, reason=entry.reason)
                return
            if action is GuardAction.BUFFERED:
                # Held for reordering — not refused, so no audit record;
                # the eventual release produces the real decision.
                tracer = self.indexer.obs.tracer
                if tracer is not None:
                    tracer.event(message.msg_id, "buffered", rung=rung)
                return
            if action is GuardAction.LATE:
                # The deterministic late-path: record the verdict (the
                # placement record supersedes it with late_arrival=True),
                # then ingest immediately — the engine's arrival floor
                # keeps pool eviction ordering intact.
                self._note_refusal(message, IngestOutcome.LATE, rung,
                                   lost=False)
        if ctl is not None:
            arrival = ctl.now(now)
            # Backlog first: deferred messages whose tokens have accrued
            # are ingested before the new arrival, preserving stream
            # order.  (A deferred message loses its fold hint by design:
            # the target bundle may be gone by release time, so it
            # degrades to a full ingest rather than a stale fold.)
            for queued in ctl.release(arrival):
                yield queued, None
            verdict = ctl.offer(message, arrival)
            if verdict is not Admission.ADMITTED:
                dropped = verdict is Admission.DROPPED
                self._note_refusal(
                    message,
                    IngestOutcome.SHED if dropped else IngestOutcome.DEFERRED,
                    int(ctl.state), lost=dropped)
                return
        if action is GuardAction.FOLD:
            assert self.guard is not None
            fold = (entry.bundle_id, entry.duplicate_of)
            # The fold hint must be on disk before the WAL record it
            # explains: a crash between the two leaves a hint without a
            # record (harmless) but never a record without its hint
            # (replay divergence).  A guard runs one arrival at a time,
            # so that record is the next one journaled.
            self.guard.folds.append(message.msg_id, *fold)
            yield message, fold
        else:
            yield message, None

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

    def _run(self, slots: "list[int]", run: "list[Message]",
             folds: "list[Fold | None] | None",
             outcomes: "list[IngestResult | None]") -> None:
        """Journal → engine → ack for one run, in the ladder's current
        rung; each arrival's result lands in ``outcomes`` at its slot."""
        ctl = self.overload
        state = ctl.apply_mode(self.indexer) if ctl is not None else None
        started = time.perf_counter()
        journaled = self.journaled
        try:
            journaled.ingest_run(run, folds, self._retry)
        except _TRANSIENT_ERRORS:
            if len(journaled.last_outcomes) < len(run):
                raise  # retries exhausted, or a failure past the journal
            # Every record was journaled and indexed; only the trailing
            # checkpoint failed.  Retrying would double-apply — defer it
            # instead (the next run past the threshold re-triggers it).
            self.stats.deferred_checkpoints += 1
        finally:
            # Each settled arrival observes the run's wall ÷ its length.
            done = journaled.last_outcomes
            latency = (time.perf_counter() - started) / (len(done) or 1)
            for slot, message, outcome in zip(slots, run, done):
                indexed = not isinstance(outcome, Exception)
                if indexed:
                    self.stats.ingested += 1
                    if self.guard is not None:  # future near-dups fold here
                        self.guard.note_result(message, outcome.bundle_id)
                    self._maybe_shed()
                else:
                    self.stats.dead_lettered += 1
                    self.dead_letters.append("index-rejected", outcome,
                                             message)
                if slot >= 0:
                    outcomes[slot] = outcome if indexed else None
                self._latency_hist.observe(latency)
                if self.telemetry is not None:
                    self.telemetry.tick()
                if ctl is not None:
                    ctl.note_ingest(state, latency, indexed=indexed)

    def _retry(self, append: "Callable[[Message], int]", message: Message,
               error: Exception) -> int:
        """The journal stage's bounded backoff after a failed append —
        the only retry: an error raised after a record is journaled is
        never answered by journaling it again."""
        attempt = 0
        while isinstance(error, _TRANSIENT_ERRORS):
            if attempt == MAX_RETRIES:
                raise RetryExhaustedError(
                    f"ingest of message {message.msg_id} failed "
                    f"after {MAX_RETRIES} retries: {error}"
                ) from error
            delay = BACKOFF_BASE * BACKOFF_FACTOR ** attempt
            attempt += 1
            self.stats.retries += 1
            self.stats.backoff_seconds += delay
            self._sleep(delay)
            try:
                return append(message)
            except Exception as again:
                error = again
        raise error

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
        before = self.stats.ingested
        with commit_scope(*self._custody):
            self._ingest_all((None,), None, self.guard.flush)
        return self.stats.ingested - before

    def drain_backlog(self) -> int:
        """Ingest everything still deferred in the admission backlog.

        Returns how many backlog messages were actually indexed.  A
        no-op without load regulation.
        """
        if self.overload is None:
            return 0
        before = self.stats.ingested
        with commit_scope(*self._custody):
            for queued in self.overload.drain():
                self._run([-1], [queued], None, [])
        return self.stats.ingested - before

    def ingest_batch(self, messages: Iterable[Message], *,
                     count_only: bool = False,
                     ) -> "list[IngestResult] | int":
        """Ingest a date-ordered batch (:class:`repro.api.Indexer`).

        Shed, deferred and dead-lettered messages yield no result, so
        the returned list may be shorter than the input; with
        ``count_only=True`` only the indexed count comes back.  Its
        quarantine verdicts share one fsync, issued before it returns.
        The input is read in :data:`ProvenanceIndexer.BATCH_CHUNK`
        slices, so a streaming iterable is never held whole.
        """
        results: "list[IngestResult]" = []
        count = 0
        iterator = iter(messages)
        chunk = ProvenanceIndexer.BATCH_CHUNK
        with commit_scope(*self._custody):
            for part in iter(lambda: list(islice(iterator, chunk)), []):
                for result in self._ingest_all(part, None):
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
        self.dead_letters.close()
        if self.telemetry is not None:
            self.telemetry.close()
        audit = self.journaled.indexer.obs.audit
        if audit is not None:
            audit.close()
        try:
            # The final checkpoint first: it flushes parked bundles.
            self.journaled.__exit__(exc_type, *exc_info[1:])
        finally:
            # Behind the breaker wrapper, if any; sinks need not close.
            sink = getattr(self.indexer.store, "sink", self.indexer.store)
            if hasattr(sink, "close"):
                sink.close()
