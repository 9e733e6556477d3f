"""Segment compaction for the bundle store.

A bundle can be appended more than once (evict → reload → evict), so
segments accumulate superseded records.  Compaction rewrites the store
keeping only the latest record per bundle id, reclaiming the dead bytes.
The rewrite goes into a sibling temp directory and is swapped in with
directory renames, so a crash mid-compaction leaves the original store
intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.bundle_store import BundleStore

__all__ = ["CompactionReport", "compact_store", "dead_bytes_fraction"]


@dataclass(frozen=True, slots=True)
class CompactionReport:
    """Outcome of one compaction run."""

    bundles_kept: int
    records_dropped: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        """Disk space recovered."""
        return max(0, self.bytes_before - self.bytes_after)


def dead_bytes_fraction(store: BundleStore) -> float:
    """Estimated fraction of superseded records in the store.

    Record-count based (cheap); exact byte accounting would require a
    full scan, which compaction does anyway.
    """
    total = store.append_count
    if total == 0:
        return 0.0
    return 1.0 - len(store) / total


def compact_store(store: BundleStore) -> tuple[BundleStore, CompactionReport]:
    """Rewrite ``store`` keeping only the latest record per bundle.

    Returns the reopened (compacted) store and a report.  The original
    directory path is preserved; the caller must drop references to the
    old :class:`BundleStore` object and use the returned one.
    """
    directory = store.directory
    bytes_before = store.total_bytes()
    records_before = store.append_count

    fresh_dir = directory.with_name(directory.name + ".compact")
    backup_dir = directory.with_name(directory.name + ".old")
    if fresh_dir.exists() or backup_dir.exists():
        raise StorageError(
            f"leftover compaction directories next to {directory}; "
            "remove them before compacting")

    fresh = BundleStore(fresh_dir, max_segment_bytes=store.max_segment_bytes,
                        config=store.config)
    kept = 0
    for bundle in store.iter_bundles():
        fresh.append(bundle)
        kept += 1

    # Swap directories: original -> .old, compacted -> original.
    store.close()  # no segment may stay open across the renames
    fresh.close()
    Path(directory).rename(backup_dir)
    Path(fresh_dir).rename(directory)
    _remove_tree(backup_dir)

    compacted = BundleStore(directory,
                            max_segment_bytes=store.max_segment_bytes,
                            config=store.config)
    report = CompactionReport(
        bundles_kept=kept,
        records_dropped=records_before - kept,
        bytes_before=bytes_before,
        bytes_after=compacted.total_bytes(),
    )
    return compacted, report


def _remove_tree(path: Path) -> None:
    for child in path.iterdir():
        child.unlink()
    path.rmdir()
