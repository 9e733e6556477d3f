"""Append-only on-disk bundle store (the back-end of Fig. 4).

Layout: a directory of segment files ``segment-00000.log``, each holding
newline-delimited records ``<crc32:8 hex> <json>``.  Appends go to the
active segment (kept open: one ``write`` + ``flush`` per record), which
rotates at ``max_segment_bytes``.  An in-memory offset index (``bundle_id
→ (segment, byte offset)``) enables random reads; it is rebuilt by
scanning segments on open, so the store needs no separate manifest and
tolerates being copied around.

A bundle id may be appended more than once (a bundle can be evicted,
reloaded and evicted again); the offset index keeps the *latest* record,
which is the only one readers see.
"""

from __future__ import annotations

import contextlib
import os
import warnings
import zlib
from pathlib import Path
from typing import IO, Iterator

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.errors import (BundleNotFoundError, CorruptSegmentError,
                               StorageError)
from repro.obs.registry import MetricsRegistry
from repro.reliability.fsio import filesystem
from repro.storage.serializer import bundle_from_json, bundle_to_json

__all__ = ["BundleStore"]

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"


def _ends_with_newline(path: Path) -> bool:
    with path.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) == b"\n"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"


class BundleStore:
    """Durable sink for evicted/closed bundles with random read-back.

    Satisfies the :class:`~repro.core.pool.BundleSink` protocol, so it can
    be handed straight to :class:`~repro.core.engine.ProvenanceIndexer`.

    Parameters
    ----------
    directory:
        Store root; created if missing.
    max_segment_bytes:
        Rotation threshold for the active segment.
    config:
        Config attached to bundles reconstructed by :meth:`load`.
    tolerant:
        When true, a corrupt record found while scanning on open is
        *skipped* (counted in :attr:`corrupt_records_skipped` and
        reported via :mod:`warnings`) instead of aborting the open with
        :class:`CorruptSegmentError`.  The default stays strict — silent
        data loss must be an explicit operator choice (or use
        ``repro doctor --repair``).
    """

    def __init__(self, directory: "str | os.PathLike[str]", *,
                 max_segment_bytes: int = 8 * 1024 * 1024,
                 config: IndexerConfig | None = None,
                 tolerant: bool = False) -> None:
        if max_segment_bytes <= 0:
            raise StorageError(
                f"max_segment_bytes must be positive, got {max_segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.config = config
        self.tolerant = tolerant
        self._offsets: dict[int, tuple[int, int]] = {}
        self._segments: list[int] = []
        self._appends = 0
        self._skipped_files = 0
        self._corrupt_skipped = 0
        self._recover()
        self._active = self._segments[-1] if self._segments else 0
        if not self._segments:
            self._segments.append(0)
        self._handle: "IO[bytes] | None" = None  # active segment, once open
        self._offset = 0  # where its next record starts

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the offset index by scanning all segments in order."""
        names = sorted(
            p.name for p in self.directory.iterdir()
            if p.name.startswith(_SEGMENT_PREFIX)
            and p.name.endswith(_SEGMENT_SUFFIX)
        )
        for name in names:
            try:
                index = int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
            except ValueError:
                # A file wearing the segment naming but with an unparsable
                # index is not ours to read — but skipping it silently
                # would hide data loss from a misrenamed segment.
                self._skipped_files += 1
                warnings.warn(
                    f"bundle store {self.directory}: ignoring "
                    f"unparsable segment name {name!r}",
                    RuntimeWarning, stacklevel=3)
                continue
            self._segments.append(index)
            self._scan_segment(index)

    def _scan_segment(self, index: int) -> None:
        path = self._segment_path(index)
        offset = 0
        with path.open("rb") as handle:
            for line in handle:
                record = line.rstrip(b"\n")
                if record:
                    try:
                        bundle_id = self._validate_record(
                            record, path, offset)
                    except CorruptSegmentError:
                        if not self.tolerant:
                            raise
                        self._corrupt_skipped += 1
                        warnings.warn(
                            f"bundle store {self.directory}: skipping "
                            f"corrupt record in {path.name} @{offset} "
                            f"(total skipped: {self._corrupt_skipped})",
                            RuntimeWarning, stacklevel=3)
                    else:
                        self._offsets[bundle_id] = (index, offset)
                        self._appends += 1
                offset += len(line)

    def _validate_record(self, record: bytes, path: Path,
                         offset: int) -> int:
        """Check the CRC and pull the bundle id without full parsing."""
        if len(record) < 10 or record[8:9] != b" ":
            raise CorruptSegmentError(
                f"{path} @{offset}: record too short or missing separator")
        stated = record[:8].decode("ascii", errors="replace")
        payload = record[9:]
        actual = f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"
        if stated != actual:
            raise CorruptSegmentError(
                f"{path} @{offset}: CRC mismatch ({stated} != {actual})")
        # Cheap id pull: records are compact JSON with sorted keys, so the
        # id appears as "id":<n>.  Fall back to full parse if not found.
        marker = payload.find(b'"id":')
        if marker >= 0:
            end = marker + 5
            digits = []
            while end < len(payload) and payload[end:end + 1].isdigit():
                digits.append(payload[end:end + 1])
                end += 1
            if digits:
                return int(b"".join(digits))
        bundle = bundle_from_json(payload.decode("utf-8"), self.config)
        return bundle.bundle_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._offsets)

    def __contains__(self, bundle_id: int) -> bool:
        return bundle_id in self._offsets

    @property
    def append_count(self) -> int:
        """Total records ever appended (re-appends included)."""
        return self._appends

    @property
    def corrupt_records_skipped(self) -> int:
        """Corrupt records skipped by a tolerant open (operator-visible)."""
        return self._corrupt_skipped

    @property
    def skipped_files(self) -> int:
        """Segment-named files ignored on open for unparsable indices."""
        return self._skipped_files

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Export the store's spill counters (callback-backed views)."""
        registry.counter("repro_store_appends_total",
                         help="Bundles spilled to the on-disk store",
                         callback=lambda: self._appends)
        registry.gauge("repro_store_segments",
                       help="Segment files in the bundle store",
                       callback=self.segment_count)
        registry.gauge("repro_store_bytes", unit="bytes",
                       help="On-disk footprint of the bundle store",
                       callback=self.total_bytes)

    def bundle_ids(self) -> list[int]:
        """All stored bundle ids (latest-record view), ascending."""
        return sorted(self._offsets)

    def segment_count(self) -> int:
        """Number of segment files."""
        return len(self._segments)

    def total_bytes(self) -> int:
        """Bytes on disk across all segments."""
        return sum(self._segment_path(i).stat().st_size
                   for i in self._segments
                   if self._segment_path(i).exists())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def append(self, bundle: Bundle) -> None:
        """Persist one bundle (BundleSink protocol)."""
        payload = bundle_to_json(bundle).encode("utf-8")
        crc = f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}".encode("ascii")
        record = crc + b" " + payload + b"\n"
        if self._handle is None:  # first append, or after close/failure
            path = self._segment_path(self._active)
            self._offset = path.stat().st_size if path.exists() else 0
            if self._offset > 0 and not _ends_with_newline(path):
                # A failed write left a fragment at the tail: terminate
                # it, or a later scan reads fragment + this record as
                # one corrupt line and the record is lost.
                with filesystem().open(path, "ab") as handle:
                    handle.write(b"\n")
                self._offset += 1
        if (self._offset > 0
                and self._offset + len(record) > self.max_segment_bytes):
            self.close()
            self._active += 1
            self._segments.append(self._active)
            self._offset = 0
        if self._handle is None:
            self._handle = filesystem().open(
                self._segment_path(self._active), "ab")
        try:
            self._handle.write(record)
            self._handle.flush()
        except BaseException:
            # The next append reopens and re-stats (the sick-disk probe).
            with contextlib.suppress(OSError):
                self.close()
            raise
        self._offsets[bundle.bundle_id] = (self._active, self._offset)
        self._offset += len(record)
        self._appends += 1

    def close(self) -> None:
        """Release the append handle; the next append reopens it."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "BundleStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def load(self, bundle_id: int) -> Bundle:
        """Read one bundle back (its latest stored record)."""
        location = self._offsets.get(bundle_id)
        if location is None:
            raise BundleNotFoundError(
                f"bundle {bundle_id} is not in the store")
        segment, offset = location
        path = self._segment_path(segment)
        with path.open("rb") as handle:
            handle.seek(offset)
            line = handle.readline().rstrip(b"\n")
        self._validate_record(line, path, offset)
        return bundle_from_json(line[9:].decode("utf-8"), self.config)

    def iter_bundles(self) -> Iterator[Bundle]:
        """Iterate all stored bundles (latest records), id-ascending."""
        for bundle_id in self.bundle_ids():
            yield self.load(bundle_id)

    def _segment_path(self, index: int) -> Path:
        return self.directory / _segment_name(index)
