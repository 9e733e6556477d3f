"""Write-ahead message journal: crash recovery for the indexer.

Snapshots (:mod:`repro.storage.snapshot`) capture the engine at a point;
the journal captures every message *since*, so a crash loses nothing:

    wal = MessageJournal("ingest.wal")
    with JournaledIndexer(indexer, wal, snapshot_path="state.json",
                          snapshot_every=50_000) as journaled:
        for message in stream:
            journaled.ingest(message)       # append → then index

    # after a crash:
    recovered = JournaledIndexer.recover("state.json", "ingest.wal")

Correctness protocol: every journal record carries a monotonically
increasing **sequence number**; a checkpoint writes the snapshot (which
embeds the last applied sequence, atomically with the state), then a
sidecar file recording that sequence, then truncates the journal.
Recovery replays only records with ``seq > applied seq``, so a crash
*anywhere* — mid-append (torn tail skipped), between snapshot and
sidecar, between sidecar and truncate (duplicate records skipped by
seq), after truncate — recovers the exact pre-crash engine.

The journal is a :class:`~repro.reliability.fsio.FramedLog`: framing
(``<crc32:8 hex> <tab-separated record>`` per line), open, reopen,
torn-tail termination and close are every framed log's; the message
row is :func:`~repro.core.message.encode_row`'s.  Its own are the
sequence numbers, the ``sync_every`` cadence, an unconditional
``sync()`` barrier, ``truncate()`` and the ``repro_wal_*`` counters.
Reads are version-tolerant: lines without the CRC prefix are parsed as
the original v0 format, so pre-CRC journals still replay.  A record that
fails its CRC or cannot be parsed is skipped (:meth:`parse_payload` is
the rule, shared with ``repro doctor``); a run of bad lines at the tail
is the classic torn tail.  ``tests/storage/test_wal.py``,
``tests/reliability/test_crash_matrix.py`` and ``test_framed_log_matrix.py``
pin this with simulated crashes at every durability boundary.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.config import IndexerConfig
from repro.core.engine import IngestResult, ProvenanceIndexer
from repro.core.errors import POISON_ERRORS, StorageError
from repro.core.message import Message, decode_row, encode_row
from repro.obs.registry import NULL_COUNTER, MetricsRegistry
from repro.reliability.fsio import (FramedLog, filesystem, framed_records,
                                    write_atomic)

__all__ = ["MessageJournal", "JournaledIndexer", "ReplayStats"]


@dataclass(slots=True)
class ReplayStats:
    """What a journal replay saw (filled in by :meth:`replay_entries`)."""

    records: int = 0
    legacy_records: int = 0
    skipped_corrupt: int = 0
    torn_tail: bool = False


class MessageJournal(FramedLog):
    """A :class:`FramedLog` of sequenced messages with WAL replay.

    A record is the sequence number, a tab and the message row
    (:func:`~repro.core.message.encode_row`); a line without a CRC frame
    is the v0 (pre-CRC) spelling of the same record.
    """

    unframed = True

    def __init__(self, path: "str | os.PathLike[str]", *,
                 sync_every: int = 64) -> None:
        if sync_every <= 0:
            raise StorageError(
                f"sync_every must be positive, got {sync_every}")
        super().__init__(path)
        self.sync_every = sync_every
        self._next_seq: "int | None" = None
        self._since_sync = 0
        # No-op until bind_registry() wires the journal into a registry.
        self._append_counter = NULL_COUNTER
        self._sync_counter = NULL_COUNTER
        self._bytes_counter = NULL_COUNTER

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Export the journal's durability counters."""
        self._append_counter = registry.counter(
            "repro_wal_appends_total",
            help="Records appended to the write-ahead journal")
        self._sync_counter = registry.counter(
            "repro_wal_syncs_total",
            help="fsync batches flushed to the journal")
        self._bytes_counter = registry.counter(
            "repro_wal_bytes_total", unit="bytes",
            help="Payload bytes written to the journal")

    @property
    def next_seq(self) -> int:
        """The next append's sequence number: one past the last record,
        scanned on first use (:meth:`JournaledIndexer.recover` sets it)."""
        if self._next_seq is None:
            self._next_seq = max((seq + 1 for seq, _ in
                                  self.replay_entries(self.path)), default=0)
        return self._next_seq

    @next_seq.setter
    def next_seq(self, value: int) -> None:
        self._next_seq = value

    def append(self, message: Message) -> int:
        """Log one message; returns its sequence number (consumed even
        when the write fails)."""
        seq = self._next_seq
        if seq is None:
            seq = self.next_seq
        self._next_seq = seq + 1
        self._bytes_counter.inc(self.append_payload(
            f"{seq}\t{encode_row(message)}"))
        self._append_counter.inc()
        self._since_sync += 1
        if self._since_sync >= self.sync_every:
            self.sync()
        return seq

    def sync(self) -> None:
        """Flush and fsync the journal, appended-to or not — checkpoints
        and callers' barriers count on it (nothing to do once closed)."""
        if self._handle is None:
            return
        filesystem().fsync(self._handle)
        self._since_sync = 0
        self._sync_counter.inc()

    def truncate(self) -> None:
        """Drop all journal content (sequence numbering continues)."""
        self.close()
        filesystem().unlink(self.path, missing_ok=True)
        self._open()

    @staticmethod
    def parse_payload(payload: str) -> "tuple[int, Message] | None":
        """Decode one record; ``None`` or ``ValueError`` if malformed.

        The sequence number is plain decimal, as every writer wrote it,
        so a framed line that failed its CRC cannot pass as v0: the
        ``<crc32:8 hex> `` prefix puts a space inside that field.
        """
        seq, _, row = payload.partition("\t")
        return (int(seq), decode_row(row)) if seq.isdigit() else None

    @staticmethod
    def replay_entries(
        path: "str | os.PathLike[str]", *,
        stats: "ReplayStats | None" = None,
    ) -> Iterator[tuple[int, Message]]:
        """Yield ``(seq, message)`` in append order.

        Corrupt lines are skipped: records are CRC-framed, so a line
        that fails validation is provably damaged, and every line that
        passes is provably intact regardless of its neighbours.  A run
        of bad lines at the end of the file is the usual torn tail
        (crash mid-append) — everything before it was fsync-bounded.
        Pass ``stats`` to learn what the replay skipped.
        """
        tally = stats if stats is not None else ReplayStats()
        pending_bad = 0
        for _, parsed, legacy in framed_records(
                path, MessageJournal.parse_payload,
                unframed=MessageJournal.unframed):
            if parsed is None:
                pending_bad += 1
                continue
            tally.skipped_corrupt += pending_bad
            pending_bad = 0
            tally.records += 1
            tally.legacy_records += legacy
            yield parsed
        if pending_bad:
            tally.skipped_corrupt += pending_bad
            tally.torn_tail = True


#: A guard fold hint, ``(bundle_id, duplicate_of)``; one record's
#: outcome, its result or the poison it was refused with; one record's
#: sequence number, or the poison that kept it out of the journal; the
#: handler of a failed append, ``retry(append, message, error) -> seq``.
Fold = tuple[int, "int | None"]
Outcome = IngestResult | Exception
Seq = int | Exception
Retry = Callable[[Callable[[Message], int], Message, Exception], int]


def _index(indexer: ProvenanceIndexer, messages: "Sequence[Message]",
           seqs: "Sequence[Seq]", folds: "Sequence[Fold | None] | None",
           outcomes: "list[Outcome]") -> None:
    """Index ``messages[:len(seqs)]`` in order, appending to
    ``outcomes`` — live and on replay alike.  A record whose ``seqs``
    entry is an exception never reached the journal: that exception is
    its outcome.

    A stretch of plain records is one engine ``ingest_batch`` call, and
    a fold goes alone.  A record the engine refuses takes the error as
    its outcome; the error carries the results of the stretch before it
    (:meth:`ProvenanceIndexer.ingest_batch`), and the stretch resumes
    after it.
    """
    start, end = 0, len(seqs)
    while start < end:
        if isinstance(seqs[start], Exception):
            outcomes.append(seqs[start])
            start += 1
            continue
        fold = folds[start] if folds is not None else None
        stop = start + 1
        if fold is None:
            while (stop < end and not isinstance(seqs[stop], Exception)
                   and (folds is None or folds[stop] is None)):
                stop += 1
        try:
            if fold is None:
                outcomes += indexer.ingest_batch(messages[start:stop])
            else:
                outcomes.append(indexer.ingest_folded(messages[start], *fold))
        except POISON_ERRORS as exc:
            settled = getattr(exc, "settled", [])  # a fold settles none
            outcomes += settled
            outcomes.append(exc)
            stop = start + len(settled) + 1
        start = stop


class JournaledIndexer:
    """An indexer with WAL + periodic snapshots for exact crash recovery.

    Usable as a context manager: a clean ``with`` exit flushes the
    journal and (when snapshotting is configured) writes a final
    checkpoint; an exceptional exit only flushes, leaving the journal
    tail for recovery.

    Parameters
    ----------
    indexer / journal:
        The wrapped engine and its message log.
    snapshot_path:
        Where periodic snapshots go (``None`` disables snapshotting; the
        journal then holds the entire history).
    snapshot_every:
        Snapshot-and-truncate after this many ingests.
    """

    def __init__(self, indexer: ProvenanceIndexer, journal: MessageJournal,
                 *, snapshot_path: "str | os.PathLike[str] | None" = None,
                 snapshot_every: int = 50_000) -> None:
        if snapshot_every <= 0:
            raise StorageError(
                f"snapshot_every must be positive, got {snapshot_every}")
        self.indexer = indexer
        self.journal = journal
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        self.snapshot_every = snapshot_every
        self._since_snapshot = 0
        self._closed = False
        #: The latest :meth:`ingest_run`'s outcomes, filled as it goes.
        self.last_outcomes: "list[Outcome]" = []
        # One registry per stack: the engine's registry also carries the
        # durability signals of its journal and checkpoints.
        registry = indexer.obs.registry
        journal.bind_registry(registry)
        self._checkpoint_counter = registry.counter(
            "repro_checkpoints_total",
            help="Snapshot-and-truncate checkpoints completed")
        # Sequence numbers must never move backwards across restarts:
        # after a checkpoint truncated the journal, the sidecar holds the
        # high-water mark a fresh journal scan cannot see.
        if self.snapshot_path is not None:
            sidecar = self._seq_sidecar()
            if sidecar.exists():
                journal.next_seq = max(
                    journal.next_seq,
                    int(sidecar.read_text().strip()) + 1)
        self.last_applied_seq = journal.next_seq - 1

    def ingest(self, message: Message, *,
               fold: "Fold | None" = None) -> IngestResult:
        """Journal first, then index (write-ahead ordering): an
        :meth:`ingest_run` of one that raises the poison it met.

        ``fold`` is the guard's ``(bundle_id, duplicate_of)`` hint.  The
        WAL record is the standard one either way — the hint lives in
        the guard's fold log, written before this append, so replay can
        reproduce the same placement (:meth:`recover`'s ``fold_hints``).
        """
        outcome = self.ingest_run((message,), (fold,))[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    @property
    def checkpoint_room(self) -> int:
        """How many records the next run may hold: the ingests left
        before the next checkpoint (at least 1)."""
        if self.snapshot_path is None:
            return sys.maxsize
        return max(1, self.snapshot_every - self._since_snapshot)

    def ingest_run(self, run: "Sequence[Message]",
                   folds: "Sequence[Fold | None] | None" = None,
                   retry: "Retry | None" = None) -> "list[Outcome]":
        """Journal a run, then index it (:func:`_index`), then checkpoint
        when due.  A run fits before the next checkpoint
        (:attr:`checkpoint_room`), so none journals into a log that a
        checkpoint then truncates.

        A record the engine rejects stays journaled; one the journal
        cannot frame (poison, e.g. text UTF-8 cannot encode) is not
        journaled.  Either way its exception fills its slot and it does
        not count as applied.  Any other failed append goes to
        ``retry(append, message, error)``, which returns a later
        attempt's sequence number or raises; the records settled before
        it are indexed (:attr:`last_outcomes`) first.
        """
        if len(run) > 1 and len(run) > self.checkpoint_room:
            raise StorageError(
                f"a run of {len(run)} records crosses the next checkpoint")
        self.last_outcomes = outcomes = []
        seqs: "list[Seq]" = []
        try:
            for message in run:
                try:
                    seqs.append(self.journal.append(message))
                except POISON_ERRORS as error:
                    seqs.append(error)
                except Exception as error:
                    if retry is None:
                        raise
                    seqs.append(retry(self.journal.append, message, error))
        finally:
            _index(self.indexer, run, seqs, folds, outcomes)
            for seq, outcome in zip(seqs, outcomes):
                if not isinstance(outcome, Exception):
                    self.last_applied_seq = seq  # type: ignore[assignment]
                    self._since_snapshot += 1
        if (self.snapshot_path is not None
                and self._since_snapshot >= self.snapshot_every):
            self.checkpoint()
        return outcomes

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Checkpoint (if configured) and close the journal.

        A *successful* close is not re-run.  A failed final checkpoint
        propagates with the journal handle released and the indexer
        still open: :meth:`close` again retries it (truncate reopens).
        """
        if self._closed:
            return
        try:
            if self.snapshot_path is not None:
                self.checkpoint()
        finally:
            self.journal.close()
        self._closed = True

    def __enter__(self) -> "JournaledIndexer":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            # Crashing out: keep the journal tail for recovery, just make
            # sure everything appended so far is durable.
            self._closed = True
            self.journal.close()

    # -- checkpointing -----------------------------------------------------

    def _seq_sidecar(self) -> Path:
        assert self.snapshot_path is not None
        return self.snapshot_path.with_suffix(
            self.snapshot_path.suffix + ".seq")

    def checkpoint(self) -> None:
        """Snapshot, record the applied sequence, truncate the journal."""
        if self.snapshot_path is None:
            raise StorageError("no snapshot_path configured")
        from repro.storage.snapshot import save_snapshot

        self.journal.sync()
        # A spill store that parks bundles behind a sick disk (the
        # supervisor's GuardedSink) must flush them first: they are in no
        # snapshot, and it raises to defer the checkpoint if it cannot.
        settle = getattr(self.indexer.store, "settle", None)
        if settle is not None:
            settle()
        save_snapshot(self.indexer, self.snapshot_path,
                      applied_seq=self.last_applied_seq)
        write_atomic(self._seq_sidecar(), [str(self.last_applied_seq)])
        self.journal.truncate()
        self._since_snapshot = 0
        self._checkpoint_counter.inc()

    @classmethod
    def recover(cls, snapshot_path: "str | os.PathLike[str] | None",
                journal_path: "str | os.PathLike[str]", *,
                snapshot_every: int = 50_000,
                config: "IndexerConfig | None" = None,
                fold_hints: "Mapping[int, tuple[int, int]] | None" = None,
                ) -> "JournaledIndexer":
        """Rebuild the exact pre-crash state: snapshot + journal tail.

        ``config`` seeds the fresh engine when no snapshot exists yet
        (a snapshot carries its own config); without it the defaults
        apply, as before.  ``fold_hints`` maps msg_id to a
        ``(bundle_id, duplicate_of)`` pair for messages the ingest guard
        fold-placed (from its fold log); replay folds those as the live
        path did, so recovery reproduces its placements byte-for-byte.
        A hint whose bundle has since left the pool degrades
        deterministically to a full ingest, exactly as the live path did.
        """
        from repro.storage.snapshot import load_snapshot_with_meta

        snapshot_file = Path(snapshot_path) if snapshot_path else None
        applied_seq = -1
        if snapshot_file is not None and snapshot_file.exists():
            indexer, meta = load_snapshot_with_meta(snapshot_file)
            # The snapshot's embedded sequence is atomic with its state;
            # the sidecar is the pre-CRC fallback (and may lag by one
            # checkpoint if the crash hit between the two writes).
            embedded = meta.get("applied_seq")
            if embedded is not None:
                applied_seq = int(embedded)
            sidecar = snapshot_file.with_suffix(snapshot_file.suffix + ".seq")
            if sidecar.exists():
                applied_seq = max(applied_seq,
                                  int(sidecar.read_text().strip()))
        else:
            indexer = ProvenanceIndexer(config or IndexerConfig())

        # One parse per record: the replay scan also yields next_seq.
        next_seq = 0

        def unapplied() -> Iterator[tuple[int, Message]]:
            nonlocal next_seq
            for seq, message in MessageJournal.replay_entries(journal_path):
                next_seq = seq + 1
                if seq > applied_seq:  # else already in the snapshot
                    yield seq, message

        replayed, tail = 0, unapplied()
        chunk = ProvenanceIndexer.BATCH_CHUNK
        for entries in iter(lambda: list(islice(tail, chunk)), []):
            seqs, run = zip(*entries)
            # A record the engine rejects (a duplicate msg_id journaled
            # before a crashed supervisor could dead-letter it) is
            # skipped, as the live supervisor quarantined it.
            folds = ([fold_hints.get(message.msg_id) for message in run]
                     if fold_hints else None)
            outcomes: "list[Outcome]" = []
            _index(indexer, run, seqs, folds, outcomes)
            replayed += sum(not isinstance(outcome, Exception)
                            for outcome in outcomes)
        journal = MessageJournal(journal_path)
        journal.next_seq = next_seq
        recovered = cls(indexer, journal, snapshot_path=snapshot_file,
                        snapshot_every=snapshot_every)
        recovered._since_snapshot = replayed
        return recovered
