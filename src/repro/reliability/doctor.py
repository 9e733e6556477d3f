"""Offline integrity scanning and repair (the ``repro doctor`` command).

The storage layer's readers are deliberately conservative at runtime —
replay skips what it can prove is damaged, the bundle store refuses to
open over corruption unless told to tolerate it.  The doctor is the
operator-facing complement: it *inventories* damage across all three
durable artifacts (WAL, snapshot, bundle-store segments) without
mutating anything, and with ``repair=True`` rewrites each damaged file
down to its provably-valid records (atomically, via temp file + rename)
so the engine can load again.  See ``docs/operations.md`` for the
runbook.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.errors import StorageError
from repro.reliability.fsio import check_frame, filesystem, framed_lines
from repro.storage.wal import _parse_line

__all__ = [
    "WalScan",
    "SnapshotScan",
    "SegmentScan",
    "StoreScan",
    "QuarantineScan",
    "RepairResult",
    "scan_wal",
    "scan_snapshot",
    "scan_store",
    "scan_quarantine",
    "repair_wal",
    "repair_store",
    "repair_quarantine",
    "quarantine_snapshot",
]

_SEGMENT_GLOB = "segment-*.log"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class WalScan:
    """Findings for one journal file."""

    path: Path
    exists: bool = True
    total_lines: int = 0
    valid_records: int = 0
    legacy_records: int = 0
    corrupt_lines: list[int] = field(default_factory=list)  # 1-based
    torn_tail: bool = False

    @property
    def healthy(self) -> bool:
        return not self.corrupt_lines

    def describe(self) -> str:
        if not self.exists:
            return "missing (nothing to recover — fine after a checkpoint)"
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
    corrupt_lines: list[int] = field(default_factory=list)  # 1-based

    @property
    def healthy(self) -> bool:
        return not self.corrupt_lines


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
        return sum(len(segment.corrupt_lines) for segment in self.segments)

    def describe(self) -> str:
        if not self.exists:
            return "missing"
        if self.healthy:
            return (f"ok — {self.valid_records} records in "
                    f"{len(self.segments)} segment(s)")
        bad = [s.path.name for s in self.segments if not s.healthy]
        return (f"{self.corrupt_records} corrupt record(s) in "
                f"{', '.join(bad)}, {self.valid_records} recoverable")


@dataclass(slots=True)
class QuarantineScan:
    """Findings for one ingest-guard quarantine log."""

    path: Path
    exists: bool = True
    total_lines: int = 0
    valid_records: int = 0
    corrupt_lines: list[int] = field(default_factory=list)  # 1-based
    torn_tail: bool = False

    @property
    def healthy(self) -> bool:
        return not self.corrupt_lines

    def describe(self) -> str:
        if not self.exists:
            return "missing (nothing quarantined — fine)"
        if self.healthy:
            return f"ok — {self.valid_records} quarantined message(s)"
        kind = "torn tail" if self.torn_tail else "corrupt records"
        return (f"{kind}: {len(self.corrupt_lines)} bad line(s) at "
                f"{self.corrupt_lines[:5]}, {self.valid_records} recoverable")


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


#: Validator of one newline-stripped line: ``(valid, legacy)``.
_LineCheck = Callable[[str], "tuple[bool, bool]"]


def _wal_line_ok(line: str) -> "tuple[bool, bool]":
    """``(valid, legacy)`` for one newline-stripped journal line."""
    parsed = _parse_line(line)
    return (False, False) if parsed is None else (True, parsed[2])


def _quarantine_line_ok(line: str) -> "tuple[bool, bool]":
    """Validate one newline-stripped quarantine-log line end to end."""
    from repro.reliability.guard import parse_quarantine_payload

    payload = check_frame(line)
    return (payload is not None
            and parse_quarantine_payload(payload) is not None), False


def _scan_lines(report: "WalScan | QuarantineScan", line_ok: _LineCheck):
    """Fill ``report`` from its file's lines; nothing is mutated."""
    if not report.path.exists():
        report.exists = False
        return report
    last_bad_run = 0
    for number, line in enumerate(framed_lines(report.path), start=1):
        report.total_lines += 1
        valid, legacy = (False, False) if line is None else line_ok(line)
        if not valid:
            report.corrupt_lines.append(number)
            last_bad_run += 1
            continue
        last_bad_run = 0
        report.valid_records += 1
        if legacy:
            report.legacy_records += 1
    report.torn_tail = last_bad_run > 0
    return report


def scan_wal(path: "str | os.PathLike[str]") -> WalScan:
    """Inventory a journal file without mutating it."""
    return _scan_lines(WalScan(path=Path(path)), _wal_line_ok)


def scan_quarantine(path: "str | os.PathLike[str]") -> QuarantineScan:
    """Inventory an ingest-guard quarantine log without mutating it."""
    return _scan_lines(QuarantineScan(path=Path(path)), _quarantine_line_ok)


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
    """Inventory every segment of a bundle-store directory."""
    root = Path(directory)
    report = StoreScan(directory=root)
    if not root.is_dir():
        report.exists = False
        return report
    for segment_path in sorted(root.glob(_SEGMENT_GLOB)):
        segment = SegmentScan(path=segment_path)
        with segment_path.open("rb") as handle:
            for number, line in enumerate(handle, start=1):
                if line == b"\n":
                    continue  # blank line: harmless padding
                text = line.decode("utf-8", errors="replace")
                if text.endswith("\n") and check_frame(text[:-1]) is not None:
                    segment.valid_records += 1
                else:
                    segment.corrupt_lines.append(number)
        report.segments.append(segment)
    return report


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------


def _rewrite_keeping(path: Path, keep: "list[bytes]",
                     kept_records: int, dropped: int) -> RepairResult:
    """Atomically rewrite ``path`` with only the lines in ``keep``."""
    before = path.stat().st_size
    tmp = path.with_suffix(path.suffix + ".repair")
    with filesystem().open(tmp, "wb") as handle:
        for line in keep:
            handle.write(line)
        filesystem().fsync(handle)
    filesystem().replace(tmp, path)
    return RepairResult(path=path, kept_records=kept_records,
                        dropped_lines=dropped, bytes_before=before,
                        bytes_after=path.stat().st_size)


def _repair_lines(path: "str | os.PathLike[str]",
                  line_ok: _LineCheck) -> RepairResult:
    """Rewrite a framed text log down to the lines ``line_ok`` proves."""
    source = Path(path)
    keep: list[bytes] = []
    dropped = 0
    with source.open("rb") as handle:
        for line in handle:
            try:
                valid = (line.endswith(b"\n")
                         and line_ok(line[:-1].decode("utf-8"))[0])
            except UnicodeDecodeError:
                valid = False
            if valid:
                keep.append(line)
            else:
                dropped += 1
    return _rewrite_keeping(source, keep, len(keep), dropped)


def repair_wal(path: "str | os.PathLike[str]") -> RepairResult:
    """Drop every unprovable journal line, keeping all valid records.

    A pure torn tail is thereby truncated to the last valid record;
    interior damage (a bit-flipped archive) is compacted out.  Valid
    records keep their original bytes, so legacy (v0) lines survive
    untouched.
    """
    return _repair_lines(path, _wal_line_ok)


def repair_quarantine(path: "str | os.PathLike[str]") -> RepairResult:
    """Truncate a torn quarantine-log tail down to its valid records.

    Every surviving record keeps its original bytes, so the restored
    log replays byte-identically; only unprovable lines (torn tail,
    bit-flips) are dropped.
    """
    return _repair_lines(path, _quarantine_line_ok)


def repair_store(directory: "str | os.PathLike[str]") -> list[RepairResult]:
    """Compact every damaged segment down to its CRC-valid records."""
    results: list[RepairResult] = []
    for segment in scan_store(directory).segments:
        if segment.healthy:
            continue
        bad = set(segment.corrupt_lines)
        with segment.path.open("rb") as handle:
            keep = [line for number, line in enumerate(handle, start=1)
                    if number not in bad]
        results.append(_rewrite_keeping(segment.path, keep,
                                        segment.valid_records, len(bad)))
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
