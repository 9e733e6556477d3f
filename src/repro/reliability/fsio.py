"""Pluggable filesystem indirection for the storage layer.

The durable paths of :mod:`repro.storage` (WAL appends, snapshot
temp-file-plus-rename, bundle-store segment appends) do all their writes,
fsyncs, renames and unlinks through the process-wide :class:`FileSystem`
returned by :func:`filesystem`.  By default that is a
:class:`RealFileSystem` — a thin passthrough to :mod:`os` / :mod:`pathlib`
with no behaviour change — but :class:`repro.reliability.faults.FaultInjector`
can swap in a faulty implementation to deterministically inject torn
writes, ``ENOSPC`` and simulated crashes at every durability boundary.

This module deliberately imports nothing from :mod:`repro.storage`, so the
storage layer can import it without a cycle.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

__all__ = [
    "FileSystem",
    "RealFileSystem",
    "filesystem",
    "set_filesystem",
    "reset_filesystem",
    "write_atomic",
    "FramedLog",
    "commit_scope",
    "read_framed",
    "framed_records",
    "parse_framed",
    "framed_lines",
    "torn_tail",
    "frame_line",
    "check_frame",
    "escape_field",
    "unescape_field",
]

# ---------------------------------------------------------------------------
# Shared CRC32 record framing
#
# Every append-only file in the repo frames records the same way:
# ``<crc32:8 hex> <payload>`` per line, free-text fields escaped so payloads
# stay single-line.  Each rule lives here once — the CRC (:func:`frame_line`
# / :func:`check_frame`), the text line reader (:func:`framed_lines`), the
# reading rule replay and ``repro doctor`` share (:func:`parse_framed` /
# :func:`framed_records`), the torn-tail test (:func:`torn_tail`) and the
# append class (:class:`FramedLog`) — next to the filesystem indirection
# all of those files write through, so the storage and runtime layers
# share them without importing each other.
# ---------------------------------------------------------------------------

CRC_WIDTH = 8
_HEX_DIGITS = frozenset("0123456789abcdef")


def frame_line(payload: str) -> str:
    """CRC-frame one record payload into a log line (no newline)."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def check_frame(line: str) -> "str | None":
    """The payload of one framed line, or ``None``.

    ``None`` means the line does not carry the ``<crc32:8 hex> `` prefix
    at all — callers with a legacy fallback (the WAL's v0 records) can
    then try other formats.  A line that *does* carry the prefix but
    fails its checksum returns ``None`` too: a torn or corrupt record is
    indistinguishable from garbage and must be skipped either way.
    """
    if not (len(line) > CRC_WIDTH and line[CRC_WIDTH] == " "
            and all(c in _HEX_DIGITS for c in line[:CRC_WIDTH])):
        return None
    payload = line[CRC_WIDTH + 1:]
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return payload if f"{crc:08x}" == line[:CRC_WIDTH] else None


def escape_field(text: str) -> str:
    """Escape a free-text field so it survives tab-separated framing."""
    return (text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


_UNESCAPE_MAP = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\"}


def unescape_field(text: str) -> str:
    """Invert :func:`escape_field` with a single left-to-right scan.

    Naive chained ``str.replace`` mis-decodes sequences like ``\\\\n``
    (escaped backslash followed by a literal ``n``).
    """
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char == "\\" and i + 1 < length:
            mapped = _UNESCAPE_MAP.get(text[i + 1])
            if mapped is not None:
                out.append(mapped)
                i += 2
                continue
        out.append(char)
        i += 1
    return "".join(out)


class FileSystem:
    """The durability operations storage writes route through.

    Subclasses override individual operations; the base class is the real
    thing, so a partial override still behaves sanely.
    """

    def open(self, path: "str | os.PathLike[str]", mode: str = "r", *,
             encoding: "str | None" = None) -> IO[Any]:
        """Open ``path``; mirrors :meth:`pathlib.Path.open`."""
        return Path(path).open(mode, encoding=encoding)

    def fsync(self, handle: IO[Any]) -> None:
        """Flush ``handle``'s buffers and fsync it to stable storage."""
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: "str | os.PathLike[str]",
                dst: "str | os.PathLike[str]") -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)

    def unlink(self, path: "str | os.PathLike[str]", *,
               missing_ok: bool = False) -> None:
        """Remove ``path``."""
        Path(path).unlink(missing_ok=missing_ok)


class RealFileSystem(FileSystem):
    """The default passthrough filesystem (explicit alias for clarity)."""


_DEFAULT = RealFileSystem()
_active: FileSystem = _DEFAULT


def filesystem() -> FileSystem:
    """The currently installed filesystem (real unless faults are active)."""
    return _active


def set_filesystem(fs: FileSystem) -> FileSystem:
    """Install ``fs`` process-wide; returns the previously active one."""
    global _active
    previous = _active
    _active = fs
    return previous


def reset_filesystem() -> None:
    """Restore the default real filesystem."""
    set_filesystem(_DEFAULT)


def write_atomic(path: "str | os.PathLike[str]",
                 chunks: Iterable[str]) -> None:
    """Replace ``path`` with the joined ``chunks``, all or nothing: temp
    file + fsync + atomic rename, each chunk written as it is produced."""
    fs = filesystem()
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(target.suffix + ".tmp")
    with fs.open(tmp, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(chunk)
        fs.fsync(handle)
    fs.replace(tmp, target)


def torn_tail(path: "str | os.PathLike[str]") -> bool:
    """Whether ``path`` ends in an unterminated fragment, as a crash or a
    failed write mid-append leaves it (a missing or empty file does not)."""
    source = Path(path)
    if not source.exists() or source.stat().st_size == 0:
        return False
    with source.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


def framed_lines(path: "str | os.PathLike[str]") -> Iterator["str | None"]:
    """A framed text log's lines in file order, newline stripped; a torn
    (unterminated) final line reads as ``None``, a missing file as none.
    ``errors="replace"``: a bit-flip that breaks UTF-8 must fail a CRC,
    not raise a ``UnicodeDecodeError`` that aborts the whole read."""
    source = Path(path)
    if not source.exists():
        return
    with source.open("r", encoding="utf-8", errors="replace",
                     newline="") as handle:
        for line in handle:
            yield line[:-1] if line.endswith("\n") else None


_Log = TypeVar("_Log", bound="FramedLog")


class FramedLog:
    """Append side of a CRC-framed log (WAL, quarantine, folds, boundary,
    repairs, dead letters, archive index): one :func:`frame_line` record
    per line.

    ``path=None`` keeps the log memory-only (tests, ephemeral stacks).
    Appends go through the pluggable :func:`filesystem` so the fault
    injector can tear them.  A failed append marks the tail dirty, and
    so does (re)opening a file a crash left ending in a fragment: the
    next append terminates it first, so the fragment stays one damaged
    line readers skip instead of swallowing the next record's frame.
    A log whose class sets :attr:`durable` fsyncs each append before it
    returns — unless a :func:`commit_scope` holds the log, which moves
    that fsync to the scope's exit; one that sets :attr:`flush_each`
    hands each otherwise unsynced append to the OS.
    """

    #: Whether an append outside any commit scope is fsynced at once.
    durable = False
    #: Whether an append that is not fsynced is flushed to the OS at once
    #: (a reader or a process crash sees it; a power cut need not).
    flush_each = False
    #: Whether a line without a valid frame is a record in the log's
    #: pre-CRC format (:func:`framed_records`' ``unframed``).
    unframed = False

    def __init__(self, path: "str | os.PathLike[str] | None") -> None:
        self.path = Path(path) if path is not None else None
        self._handle: "IO[Any] | None" = None
        self._tail_dirty = False
        self._unsynced = False
        self._held = 0
        #: fsyncs actually issued (``repro_guard_log_syncs_total``).
        self.syncs = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._open()

    def _open(self) -> IO[Any]:
        assert self.path is not None
        self._tail_dirty = torn_tail(self.path)
        self._handle = filesystem().open(self.path, "a", encoding="utf-8")
        return self._handle

    def append_payload(self, payload: str) -> int:
        """Frame and write one record; returns the bytes written for it
        (0 when memory-only)."""
        if self.path is None:
            return 0
        handle = self._handle or self._open()  # reopen after close()
        line = frame_line(payload) + "\n"
        try:
            if self._tail_dirty:
                handle.write("\n")
                self._tail_dirty = False
            handle.write(line)
        except OSError:
            self._tail_dirty = True
            raise
        self._unsynced = True
        if self.durable and not self._held:
            self.sync()
        elif self.flush_each:
            handle.flush()
        return len(line)

    def sync(self) -> None:
        """Flush and fsync (no-op when memory-only or already clean)."""
        if self._handle is None or not self._unsynced:
            return
        filesystem().fsync(self._handle)
        self._unsynced = False
        self.syncs += 1

    def close(self) -> None:
        """Sync and release the handle (idempotent; the next append
        reopens).  The handle is released even when the fsync fails."""
        handle = self._handle
        if handle is None:
            return
        try:
            self.sync()
        finally:
            self._handle = None
            handle.close()

    def __enter__(self: _Log) -> _Log:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def parse_framed(line: "str | None", parse: "Callable[[str], Any]", *,
                 unframed: bool = False) -> "tuple[Any, bool]":
    """One line of a framed log judged by its owner's parser:
    ``(record, bare)``.  The one reading rule, shared by replay and
    ``repro doctor``.

    ``record`` is ``None`` for damage: an unterminated line (a torn
    tail, ``line`` ``None``), a CRC failure, or a payload ``parse``
    rejects (``None``, or the ``ValueError`` / ``LookupError`` /
    ``TypeError`` / ``AttributeError`` a malformed record raises).

    ``unframed`` also parses a line without a valid frame whole (a log's
    pre-CRC format); ``bare`` marks a record read that way.  A framed
    line that failed its CRC cannot pass: its prefix puts a space and
    more text in front of the payload, which no owner's parser accepts.
    """
    payload = None if line is None else check_frame(line)
    bare = payload is None and unframed
    if bare:
        payload = line
    try:
        record = parse(payload) if payload is not None else None
    except (ValueError, LookupError, TypeError, AttributeError):
        record = None
    return record, bare and record is not None


def framed_records(path: "str | os.PathLike[str]",
                   parse: "Callable[[str], Any]", *,
                   unframed: bool = False,
                   ) -> Iterator["tuple[str | None, Any, bool]"]:
    """Every line of a framed log with its verdict, in file order:
    ``(line, record, bare)`` (:func:`parse_framed`).  Damage is reported
    wherever it sits — every record carries its own CRC, and a reopened
    log leaves a torn fragment *inside* the file."""
    for line in framed_lines(path):
        yield (line, *parse_framed(line, parse, unframed=unframed))


def read_framed(path: "str | os.PathLike[str]",
                parse: "Callable[[str], Any]", *,
                unframed: bool = False) -> Iterator[Any]:
    """The intact records of a framed log, in append order
    (:func:`framed_records` without the damage)."""
    for _, record, _ in framed_records(path, parse, unframed=unframed):
        if record is not None:
            yield record


@contextmanager
def commit_scope(*logs: FramedLog) -> Iterator[None]:
    """Group-commit ``logs``: the acknowledgement boundary of a call.

    Inside the block an append only writes; leaving it — normally or by
    exception — fsyncs each log once (a no-op for a log nothing was
    appended to).  Nothing a caller can observe escapes the block
    before that barrier, so a verdict is durable when the public call
    that produced it returns.  Scopes nest: the outermost exit syncs.
    """
    for log in logs:
        log._held += 1
    try:
        yield
    finally:
        for log in logs:
            log._held -= 1
        for log in logs:
            if not log._held:
                log.sync()
