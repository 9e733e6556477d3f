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

Record framing: each line is ``<crc32:8 hex> <payload>`` (mirroring the
bundle store's segments), where the payload is the tab-separated record.
Reads are version-tolerant: lines without the CRC prefix are parsed as
the original v0 format, so pre-CRC journals still replay.  A record that
fails its CRC or cannot be parsed is skipped; a run of bad lines at the
tail is the classic torn tail.  ``tests/storage/test_wal.py`` and
``tests/reliability/test_crash_matrix.py`` pin this with simulated
crashes at every durability boundary.

All durable I/O goes through :mod:`repro.reliability.fsio`, so the fault
injector can exercise every failure path deterministically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.core.config import IndexerConfig
from repro.core.engine import IngestResult, ProvenanceIndexer
from repro.core.errors import POISON_ERRORS, StorageError
from repro.core.message import Message, parse_message
from repro.obs.registry import NULL_COUNTER, MetricsRegistry
from repro.reliability.fsio import (check_frame, escape_field, filesystem,
                                    frame_line, unescape_field, write_atomic)

__all__ = ["MessageJournal", "JournaledIndexer", "ReplayStats"]


def _parse_payload(payload: str) -> "tuple[int, Message] | None":
    """Decode one tab-separated record payload; ``None`` if malformed
    (the sequence number is plain decimal, as every writer wrote it)."""
    fields = payload.split("\t", 6)
    if len(fields) != 7 or not fields[0].isdigit():
        return None
    seq, msg_id, user, date, event, parent, text = fields
    try:
        return int(seq), parse_message(
            int(msg_id), user, float(date), unescape_field(text),
            event_id=int(event) if event else None,
            parent_id=int(parent) if parent else None)
    except ValueError:
        return None


def _parse_line(line: str) -> "tuple[int, Message, bool] | None":
    """Decode one journal line (without its newline).

    Returns ``(seq, message, legacy)`` or ``None`` for a corrupt line.
    A line :func:`~repro.reliability.fsio.check_frame` verifies is a
    framed record; anything else is tried as the v0 (pre-CRC) format.
    A framed line whose checksum failed cannot pass as v0: a v0 line's
    first field is a decimal sequence number, and the ``<crc32:8 hex> ``
    prefix puts a space inside that field.
    """
    payload = check_frame(line)
    parsed = _parse_payload(line if payload is None else payload)
    return None if parsed is None else (*parsed, payload is None)


@dataclass(slots=True)
class ReplayStats:
    """What a journal replay saw (filled in by :meth:`replay_entries`)."""

    records: int = 0
    legacy_records: int = 0
    skipped_corrupt: int = 0
    torn_tail: bool = False


class MessageJournal:
    """Append-only sequenced message log with CRC framing and replay."""

    def __init__(self, path: "str | os.PathLike[str]", *,
                 sync_every: int = 64) -> None:
        if sync_every <= 0:
            raise StorageError(
                f"sync_every must be positive, got {sync_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sync_every = sync_every
        self.next_seq = self._scan_next_seq()
        self._handle = filesystem().open(self.path, "a", encoding="utf-8")
        self._since_sync = 0
        self._closed = False
        self._tail_dirty = False
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

    def _scan_next_seq(self) -> int:
        last = -1
        for seq, _ in self.replay_entries(self.path):
            last = seq
        return last + 1

    def append(self, message: Message) -> int:
        """Log one message; returns its sequence number.

        If a previous append failed mid-write (``ENOSPC`` leaving a
        partial line), the next append first terminates the garbage line
        so the journal stays parseable — replay skips the remnant by its
        failed CRC.
        """
        seq = self.next_seq
        self.next_seq += 1
        event = "" if message.event_id is None else str(message.event_id)
        parent = "" if message.parent_id is None else str(message.parent_id)
        payload = (f"{seq}\t{message.msg_id}\t{message.user}\t"
                   f"{message.date!r}\t{event}\t{parent}\t"
                   f"{escape_field(message.text)}")
        try:
            if self._tail_dirty:
                self._handle.write("\n")
                self._tail_dirty = False
            line = frame_line(payload) + "\n"
            self._handle.write(line)
        except OSError:
            self._tail_dirty = True
            raise
        self._append_counter.inc()
        self._bytes_counter.inc(len(line))
        self._since_sync += 1
        if self._since_sync >= self.sync_every:
            self.sync()
        return seq

    def sync(self) -> None:
        """Flush and fsync the journal (nothing to do once closed)."""
        if self._closed:
            return
        filesystem().fsync(self._handle)
        self._since_sync = 0
        self._sync_counter.inc()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent); the handle
        is released even when the final fsync fails."""
        if self._closed:
            return
        try:
            self.sync()
        finally:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "MessageJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def truncate(self) -> None:
        """Drop all journal content (sequence numbering continues)."""
        self.close()
        filesystem().unlink(self.path, missing_ok=True)
        self._handle = filesystem().open(self.path, "a", encoding="utf-8")
        self._closed = False
        self._tail_dirty = False

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
        source = Path(path)
        tally = stats if stats is not None else ReplayStats()
        if not source.exists():
            return
        pending_bad = 0
        # errors="replace": a bit-flip that breaks UTF-8 must degrade to
        # a CRC-failing line (skipped), not a UnicodeDecodeError that
        # aborts the whole replay.
        with source.open("r", encoding="utf-8", errors="replace",
                         newline="") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    pending_bad += 1
                    continue
                parsed = _parse_line(line[:-1])
                if parsed is None:
                    pending_bad += 1
                    continue
                tally.skipped_corrupt += pending_bad
                pending_bad = 0
                seq, message, legacy = parsed
                tally.records += 1
                if legacy:
                    tally.legacy_records += 1
                yield seq, message
        if pending_bad:
            tally.skipped_corrupt += pending_bad
            tally.torn_tail = True


def _index(indexer: ProvenanceIndexer, message: Message,
           fold: "tuple[int, int | None] | None") -> IngestResult:
    """Index one journaled message — live and on replay alike."""
    if fold is None:
        return indexer.ingest(message)
    return indexer.ingest_folded(message, *fold)


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
        self.last_result: "IngestResult | None" = None
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
               fold: "tuple[int, int | None] | None" = None) -> IngestResult:
        """Journal first, then index (write-ahead ordering).

        ``fold`` is the guard's ``(bundle_id, duplicate_of)`` hint.  The
        WAL record is the standard one either way — the hint lives in
        the guard's fold log, written before this append, so replay can
        reproduce the same placement (:meth:`recover`'s ``fold_hints``).
        """
        seq = self.journal.append(message)
        result = _index(self.indexer, message, fold)
        self.last_applied_seq = seq
        self.last_result = result
        self._since_snapshot += 1
        if (self.snapshot_path is not None
                and self._since_snapshot >= self.snapshot_every):
            self.checkpoint()
        return result

    def ingest_folded(self, message: Message, bundle_id: int,
                      duplicate_of: "int | None" = None) -> IngestResult:
        """:meth:`ingest` with the fold hint spelled out."""
        return self.ingest(message, fold=(bundle_id, duplicate_of))

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
        ``(bundle_id, duplicate_of)`` pair for
        messages the ingest guard fold-placed (from its fold log);
        replay routes those through :meth:`ingest_folded` so recovery
        reproduces the live placements byte-for-byte.  A hint whose
        bundle has since left the pool degrades deterministically to a
        full ingest, exactly as the live path did.
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

        replayed = 0
        for seq, message in MessageJournal.replay_entries(journal_path):
            if seq <= applied_seq:
                continue  # already reflected in the snapshot
            try:
                _index(indexer, message,
                       fold_hints.get(message.msg_id) if fold_hints else None)
            except POISON_ERRORS:
                # A journaled record the engine rejects (e.g. a duplicate
                # msg_id that slipped past a crashed supervisor before it
                # could dead-letter) must not make recovery itself
                # unrecoverable; skip it, exactly as the live supervisor
                # would have quarantined it.
                continue
            replayed += 1
        journal = MessageJournal(journal_path)
        recovered = cls(indexer, journal, snapshot_path=snapshot_file,
                        snapshot_every=snapshot_every)
        recovered._since_snapshot = replayed
        return recovered
