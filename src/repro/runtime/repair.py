"""Crash-safe asynchronous cross-shard edge repair.

Sharding the provenance engine trades edge quality for throughput: a
message routed to shard *i* can only align with parents shard *i* holds,
so a retweet cascade (or a merged indicant component) that straddles a
shard cut silently loses its cross-cut connections.  The co-occurrence
router flags exactly those messages (:meth:`~repro.core.sharding.
CooccurrenceRouter.route_with_hint`); this module makes the flag
durable and actionable:

* :class:`BoundaryLog` — each worker journals every hinted message to a
  per-shard CRC-framed ``boundary.log`` (same framing as the WAL,
  shared via :mod:`repro.reliability.fsio`), fsynced *before* the
  ingest ACK: a hint the coordinator has seen acknowledged is on disk
  and survives SIGKILL exactly like the acknowledged messages
  themselves.  A durable ``boundary.cursor`` watermark records how far
  reconciliation has progressed, so a crashed repair pass simply
  re-examines the un-advanced tail.

* :class:`RepairJournal` — the mutation side.  Every repaired edge is
  appended to ``repairs.log`` and fsynced *before* the engine's ledger
  is touched (WAL discipline); on worker restart the journal replays
  after the WAL, re-applying repairs on top of the re-ingested edges.
  Replay and re-delivery are idempotent because
  :meth:`~repro.core.engine.ProvenanceIndexer.repair_edge` matches on
  the old edge: a repair applied twice, or superseded by a later one,
  is a no-op — SIGKILL at any point leaves no duplicate and no phantom
  edge.

The coordinator drives reconciliation (:meth:`~repro.runtime.
coordinator.ShardedRuntime.repair_pass`): drain a shard's pending
boundary entries, probe the hinted peer shards with the engine's pure
Algorithm 1+2 scoring (:meth:`~repro.core.engine.ProvenanceIndexer.
best_alignment`), and install a peer's parent only when it *strictly
beats* the owner's ingest-time alignment score.  The strictness is
load-bearing and measured: blanket re-scoring against final-state
bundles replaces more correct edges than it fixes (recency terms and
membership drift skew post-hoc scores), while strict-beat repair is
net-positive on both the single-process-parity and ground-truth
metrics (``benchmarks/bench_parallel.py``).

:func:`scan_fleet_repair` gives ``repro doctor`` an offline view of the
same files: boundary entries past the cursor with no corresponding
journaled repair are *orphans* — hints that were acknowledged but never
reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core.engine import ProvenanceIndexer
from repro.core.message import Message
from repro.reliability.fsio import (FramedLog, escape_field, frame_line,
                                    read_framed, unescape_field, write_atomic)

__all__ = ["BoundaryEntry", "BoundaryLog", "RepairEntry", "RepairJournal",
           "RepairScan", "scan_fleet_repair", "BOUNDARY_LOG",
           "BOUNDARY_CURSOR", "REPAIR_JOURNAL"]

BOUNDARY_LOG = "boundary.log"
BOUNDARY_CURSOR = "boundary.cursor"
REPAIR_JOURNAL = "repairs.log"


@dataclass(frozen=True, slots=True)
class BoundaryEntry:
    """One journaled boundary message, with its ingest-time alignment.

    ``dst`` / ``score`` record the edge the *owning* shard found at
    ingest time (``dst is None`` when the message became a bundle root
    locally) — the baseline a peer's candidate must strictly beat.
    ``peers`` are the shard indices the router flagged as possibly
    holding a better parent.
    """

    seq: int
    msg_id: int
    user: str
    date: float
    text: str
    peers: tuple[int, ...]
    dst: "int | None"
    score: float

    def payload(self) -> str:
        peers = ",".join(str(p) for p in self.peers)
        dst = "-" if self.dst is None else str(self.dst)
        return "\t".join((str(self.seq), str(self.msg_id),
                          escape_field(self.user), repr(self.date),
                          peers, dst, repr(self.score),
                          escape_field(self.text)))

    @classmethod
    def parse(cls, payload: str) -> "BoundaryEntry":
        fields = payload.split("\t")
        if len(fields) != 8:
            raise ValueError(f"boundary entry has {len(fields)} fields")
        seq, msg_id, user, date, peers, dst, score, text = fields
        return cls(
            seq=int(seq), msg_id=int(msg_id),
            user=unescape_field(user), date=float(date),
            text=unescape_field(text),
            peers=tuple(int(p) for p in peers.split(",") if p),
            dst=None if dst == "-" else int(dst),
            score=float(score))


@dataclass(frozen=True, slots=True)
class RepairEntry:
    """One journaled edge repair: ``src``'s edge flips ``old -> new``."""

    seq: int
    src: int
    old_dst: "int | None"
    new_dst: int
    score: float

    def payload(self) -> str:
        old = "-" if self.old_dst is None else str(self.old_dst)
        return "\t".join((str(self.seq), str(self.src), old,
                          str(self.new_dst), repr(self.score)))

    @classmethod
    def parse(cls, payload: str) -> "RepairEntry":
        fields = payload.split("\t")
        if len(fields) != 5:
            raise ValueError(f"repair entry has {len(fields)} fields")
        seq, src, old, new, score = fields
        return cls(seq=int(seq), src=int(src),
                   old_dst=None if old == "-" else int(old),
                   new_dst=int(new), score=float(score))


def _read_cursor(path: Path) -> int:
    if not path.exists():
        return 0
    try:
        return int(path.read_text(encoding="utf-8").strip() or 0)
    except ValueError:
        return 0


class BoundaryLog(FramedLog):
    """Durable per-shard journal of boundary (cross-cut) messages.

    Entries carry monotonically increasing sequence numbers; the
    ``boundary.cursor`` watermark (written with the temp-fsync-rename
    pattern) marks the highest *reconciled* seq.  ``pending()`` is the
    un-reconciled tail — exactly what a repair pass (or ``repro doctor
    --fleet``) must still examine.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        super().__init__(self.directory / BOUNDARY_LOG)
        self._cursor_path = self.directory / BOUNDARY_CURSOR
        entries = list(read_framed(self.directory / BOUNDARY_LOG,
                                   BoundaryEntry.parse))
        self.cursor = _read_cursor(self._cursor_path)
        self._next_seq = (entries[-1].seq + 1) if entries else 1
        self._pending: list[BoundaryEntry] = [
            e for e in entries if e.seq > self.cursor]
        #: Entries ever journaled (survives restart via the log itself).
        self.appended = len(entries)

    def append(self, message: Message, peers: "Iterable[int]",
               dst: "int | None", score: float) -> BoundaryEntry:
        """Journal one boundary message; NOT yet durable — call sync()."""
        entry = BoundaryEntry(
            seq=self._next_seq, msg_id=message.msg_id, user=message.user,
            date=message.date, text=message.text,
            peers=tuple(sorted(set(peers))), dst=dst, score=score)
        self._next_seq += 1
        self.append_payload(entry.payload())
        self._pending.append(entry)
        self.appended += 1
        return entry

    def pending(self) -> list[BoundaryEntry]:
        """Entries past the cursor, oldest first (a copy)."""
        return list(self._pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def advance(self, seq: int) -> None:
        """Durably mark everything up to ``seq`` as reconciled."""
        if seq <= self.cursor:
            return
        write_atomic(self._cursor_path, [f"{seq}\n"])
        self.cursor = seq
        self._pending = [e for e in self._pending if e.seq > seq]

    def compact(self) -> None:
        """Drop reconciled entries from disk (checkpoint-time GC).

        Rewrites the log with only the pending tail (seqs preserved),
        so a long-lived shard's boundary log stays proportional to its
        *un-reconciled* backlog, not its history.
        """
        self.close()
        lines = "".join(frame_line(e.payload()) + "\n"
                        for e in self._pending)
        write_atomic(self.directory / BOUNDARY_LOG, [lines])


class RepairJournal(FramedLog):
    """Durable journal of applied edge repairs, replayed on open.

    The write path is WAL discipline: :meth:`record` appends and fsyncs
    *before* the caller touches the engine ledger, so every applied
    repair is recoverable.  :meth:`replay` runs after the worker's WAL
    replay (which re-creates ingest-time edges) and re-applies the
    journal in order; ``repair_edge``'s match-on-old semantics make
    replay idempotent against snapshots that already contain the
    repaired ledger.
    """

    durable = True

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        super().__init__(self.directory / REPAIR_JOURNAL)
        self.entries = list(read_framed(self.directory / REPAIR_JOURNAL,
                                        RepairEntry.parse))
        self._next_seq = (self.entries[-1].seq + 1) if self.entries else 1

    def record(self, src: int, old_dst: "int | None", new_dst: int,
               score: float) -> RepairEntry:
        """Durably journal one repair (append + fsync) before applying."""
        entry = RepairEntry(seq=self._next_seq, src=src, old_dst=old_dst,
                            new_dst=new_dst, score=score)
        self._next_seq += 1
        self.append_payload(entry.payload())
        self.entries.append(entry)
        return entry

    def replay(self, engine: ProvenanceIndexer) -> int:
        """Re-apply every journaled repair in order; returns applied count."""
        applied = 0
        for entry in self.entries:
            if engine.repair_edge(entry.src, entry.old_dst,
                                  entry.new_dst):
                applied += 1
        return applied

    def compact(self) -> None:
        """Truncate after a checkpoint: the snapshot holds the ledger."""
        self.close()
        write_atomic(self.directory / REPAIR_JOURNAL, ())
        self.entries = []


@dataclass(frozen=True, slots=True)
class RepairScan:
    """Offline repair health of one shard directory (``repro doctor``)."""

    shard: int
    journaled: int
    cursor: int
    pending: int
    repaired: int
    orphans: tuple[int, ...]

    @property
    def healthy(self) -> bool:
        return self.pending == 0


def scan_fleet_repair(root: "str | Path") -> dict[int, RepairScan]:
    """Offline cross-shard orphan scan over a fleet root.

    An *orphan* is a boundary entry past the reconciliation cursor —
    durably acknowledged evidence that a message's provenance may cross
    a shard cut, with no recorded repair outcome.  A healthy fleet
    drains to zero orphans after ``repro doctor --fleet ROOT --repair``
    (or the serve loop's ``--repair-interval`` passes).
    """
    root = Path(root)
    scans: dict[int, RepairScan] = {}
    for shard_dir in sorted(root.glob("shard-*")):
        try:
            shard = int(shard_dir.name.split("-")[1])
        except (IndexError, ValueError):
            continue
        entries = list(read_framed(shard_dir / BOUNDARY_LOG,
                                   BoundaryEntry.parse))
        cursor = _read_cursor(shard_dir / BOUNDARY_CURSOR)
        repairs = list(read_framed(shard_dir / REPAIR_JOURNAL,
                                   RepairEntry.parse))
        orphans = tuple(e.msg_id for e in entries if e.seq > cursor)
        scans[shard] = RepairScan(
            shard=shard, journaled=len(entries), cursor=cursor,
            pending=len(orphans), repaired=len(repairs),
            orphans=orphans)
    return scans
