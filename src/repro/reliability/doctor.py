"""Offline integrity scanning and repair (the ``repro doctor`` command).

The storage layer's readers are deliberately conservative at runtime —
replay skips what it can prove is damaged, the bundle store refuses to
open over corruption unless told to tolerate it.  The doctor is the
operator-facing complement: it *inventories* damage across the durable
artifacts (WAL, quarantine log, snapshot, bundle-store segments) without
mutating anything, and with ``repair=True`` rewrites each damaged file
down to the records its reader keeps (atomically, via
:func:`~repro.reliability.fsio.write_atomic`) so the engine can load
again.  The doctor owns no record rule: a log is read by its owner's
parser (:meth:`MessageJournal.parse_payload`,
:meth:`QuarantineLog.parse_payload`) through
:func:`~repro.reliability.fsio.framed_records`, a segment by
:meth:`BundleStore.read_segment` — so the doctor, replay and the store
agree on every line.  See ``docs/operations.md`` for the runbook.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import StorageError
from repro.reliability.fsio import (FramedLog, filesystem, framed_records,
                                    write_atomic)
from repro.storage.bundle_store import BundleStore

__all__ = [
    "LogScan",
    "SnapshotScan",
    "SegmentScan",
    "StoreScan",
    "RepairResult",
    "scan_log",
    "scan_snapshot",
    "scan_store",
    "repair_log",
    "repair_store",
    "quarantine_snapshot",
]

_SEGMENT_GLOB = "segment-*.log"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class LogScan:
    """Findings for one framed log (a journal or a quarantine log)."""

    path: Path
    exists: bool = True
    valid_records: int = 0
    legacy_records: int = 0
    corrupt_lines: list[int] = field(default_factory=list)  # 1-based
    torn_tail: bool = False

    @property
    def healthy(self) -> bool:
        return not self.corrupt_lines

    def describe(self) -> str:
        if not self.exists:
            return "missing (nothing to replay — fine)"
        if self.healthy:
            legacy = (f", {self.legacy_records} legacy(v0)"
                      if self.legacy_records else "")
            return f"ok — {self.valid_records} records{legacy}"
        kind = "torn tail" if self.torn_tail else "corrupt records"
        return (f"{kind}: {len(self.corrupt_lines)} bad line(s) at "
                f"{self.corrupt_lines[:5]}, {self.valid_records} recoverable")


@dataclass(slots=True)
class SnapshotScan:
    """Findings for one snapshot file."""

    path: Path
    exists: bool = True
    ok: bool = False
    error: str = ""
    bundles: int = 0
    applied_seq: "int | None" = None

    @property
    def healthy(self) -> bool:
        return self.ok or not self.exists

    def describe(self) -> str:
        if not self.exists:
            return "missing (recovery will replay the journal from scratch)"
        if self.ok:
            seq = ("" if self.applied_seq is None
                   else f", applied_seq={self.applied_seq}")
            return f"ok — {self.bundles} bundles{seq}"
        return f"unloadable: {self.error}"


@dataclass(slots=True)
class SegmentScan:
    """Findings for one bundle-store segment."""

    path: Path
    valid_records: int = 0
    corrupt_offsets: list[int] = field(default_factory=list)  # bytes

    @property
    def healthy(self) -> bool:
        return not self.corrupt_offsets


@dataclass(slots=True)
class StoreScan:
    """Findings for a bundle-store directory."""

    directory: Path
    exists: bool = True
    segments: list[SegmentScan] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return all(segment.healthy for segment in self.segments)

    @property
    def valid_records(self) -> int:
        return sum(segment.valid_records for segment in self.segments)

    @property
    def corrupt_records(self) -> int:
        return sum(len(segment.corrupt_offsets) for segment in self.segments)

    def describe(self) -> str:
        if not self.exists:
            return "missing"
        if self.healthy:
            return (f"ok — {self.valid_records} records in "
                    f"{len(self.segments)} segment(s)")
        bad = [s.path.name for s in self.segments if not s.healthy]
        return (f"corrupt records: {self.corrupt_records} bad record(s) in "
                f"{', '.join(bad)}, {self.valid_records} recoverable")


@dataclass(slots=True)
class RepairResult:
    """Outcome of one repair pass over a file."""

    path: Path
    kept_records: int
    dropped_lines: int
    bytes_before: int
    bytes_after: int


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def scan_log(path: "str | os.PathLike[str]",
             owner: "type[FramedLog]") -> LogScan:
    """Inventory a framed log by its owner's rule, without mutating it.

    ``owner`` is the log's class (:class:`~repro.storage.wal.MessageJournal`,
    :class:`~repro.reliability.guard.QuarantineLog`): its
    ``parse_payload`` and ``unframed`` decide each line, exactly as
    replay does.  A valid line read without a frame is a legacy record.
    """
    report = LogScan(path=Path(path))
    if not report.path.exists():
        report.exists = False
        return report
    number = 0
    for number, (_, record, bare) in enumerate(
            framed_records(path, owner.parse_payload,
                           unframed=owner.unframed), start=1):
        if record is None:
            report.corrupt_lines.append(number)
        else:
            report.valid_records += 1
            report.legacy_records += bare
    report.torn_tail = report.corrupt_lines[-1:] == [number]  # bad last line
    return report


def scan_snapshot(path: "str | os.PathLike[str]") -> SnapshotScan:
    """Check that a snapshot (plus metadata) still loads."""
    from repro.storage.snapshot import load_snapshot_with_meta

    source = Path(path)
    report = SnapshotScan(path=source)
    if not source.exists():
        report.exists = False
        return report
    try:
        indexer, meta = load_snapshot_with_meta(source)
    except StorageError as exc:
        report.error = str(exc)
        return report
    report.ok = True
    report.bundles = len(indexer.pool)
    applied = meta.get("applied_seq")
    report.applied_seq = int(applied) if applied is not None else None
    return report


def scan_store(directory: "str | os.PathLike[str]") -> StoreScan:
    """Inventory every segment of a bundle-store directory by the rule
    the store applies when it opens (:meth:`BundleStore.read_segment`)."""
    root = Path(directory)
    report = StoreScan(directory=root)
    if not root.is_dir():
        report.exists = False
        return report
    for segment_path in sorted(root.glob(_SEGMENT_GLOB)):
        segment = SegmentScan(path=segment_path)
        for offset, _, payload in BundleStore.read_segment(segment_path):
            if payload is None:
                segment.corrupt_offsets.append(offset)
            else:
                segment.valid_records += 1
        report.segments.append(segment)
    return report


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------


def _rewrite_keeping(path: Path, keep: "list[str]",
                     dropped: int) -> RepairResult:
    """Atomically rewrite ``path`` with only the lines in ``keep``."""
    before = path.stat().st_size
    write_atomic(path, keep)
    return RepairResult(path=path, kept_records=len(keep),
                        dropped_lines=dropped, bytes_before=before,
                        bytes_after=path.stat().st_size)


def repair_log(path: "str | os.PathLike[str]",
               owner: "type[FramedLog]") -> RepairResult:
    """Rewrite a framed log down to the records its owner reads back.

    A pure torn tail is thereby truncated to the last valid record;
    interior damage (a bit-flipped archive) is compacted out.  Each
    kept line is the text replay reads, newline restored, so legacy
    (v0) lines survive and the repaired log replays identically.
    """
    lines = list(framed_records(path, owner.parse_payload,
                                unframed=owner.unframed))
    keep = [line + "\n" for line, record, _ in lines if record is not None]
    return _rewrite_keeping(Path(path), keep, len(lines) - len(keep))


def repair_store(directory: "str | os.PathLike[str]") -> list[RepairResult]:
    """Compact every damaged segment down to the records the store
    reads (blank padding lines go too)."""
    results: list[RepairResult] = []
    for segment in scan_store(directory).segments:
        if segment.healthy:
            continue
        keep = [line.decode("utf-8", errors="replace")
                for _, line, payload in BundleStore.read_segment(segment.path)
                if payload is not None]
        results.append(_rewrite_keeping(segment.path, keep,
                                        len(segment.corrupt_offsets)))
    return results


def quarantine_snapshot(path: "str | os.PathLike[str]") -> Path:
    """Move an unloadable snapshot (and its sidecar) out of the way.

    Recovery then falls back to a fresh engine plus full journal replay.
    Returns the quarantine path holding the damaged file.
    """
    source = Path(path)
    quarantined = source.with_suffix(source.suffix + ".corrupt")
    filesystem().replace(source, quarantined)
    sidecar = source.with_suffix(source.suffix + ".seq")
    if sidecar.exists():
        filesystem().replace(
            sidecar, sidecar.with_suffix(sidecar.suffix + ".corrupt"))
    return quarantined
