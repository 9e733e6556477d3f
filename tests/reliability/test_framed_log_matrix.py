"""One fault-injection matrix for the append-only log class.

Every CRC-framed log — the WAL (:class:`MessageJournal`), the guard's
quarantine and fold logs, the runtime's boundary log and repair journal,
the supervisor's dead-letter queue and the archive index's journal — is
a :class:`~repro.reliability.fsio.FramedLog`.  Each client is driven
through the same three faults:

* a torn write at the nth append (the process dies mid-record);
* ``ENOSPC`` mid-append (the process lives and appends again);
* an fsync fault while closing.

and every cell checks the same three things: every record acknowledged
before the fault replays, a record appended after reopening behind the
damage survives the next reopen, and ``close()`` releases the handle.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.core.bundle import Bundle
from repro.reliability.faults import Fault, FaultInjector, SimulatedCrash
from repro.reliability.fsio import FramedLog, commit_scope
from repro.reliability.guard import FoldLog, QuarantineLog
from repro.reliability.supervisor import DeadLetterQueue
from repro.runtime.repair import BoundaryLog, RepairJournal
from repro.storage.archive_index import ArchiveIndex
from repro.storage.wal import MessageJournal
from tests.conftest import make_message

#: Key of the record appended after the reopen.
AFTER = 100


@dataclass(frozen=True)
class Client:
    """How to open, append to and replay one log class by integer key."""

    name: str
    file: str
    open: Callable[[Path], FramedLog]
    append: Callable[[Any, int], Any]
    replay: Callable[[Path], "list[int]"]


def _message(key: int):
    return make_message(key, f"#matrix record {key}", hours=key)


def _boundary_replay(root: Path) -> "list[int]":
    with BoundaryLog(root) as log:
        return [entry.msg_id for entry in log.pending()]


def _repair_replay(root: Path) -> "list[int]":
    with RepairJournal(root) as journal:
        return [entry.src for entry in journal.entries]


def _dead_letter_replay(root: Path) -> "list[int]":
    with DeadLetterQueue(root / "dead_letters.jsonl") as queue:
        return [int(letter.payload) for letter in queue]


def _archived(log: ArchiveIndex, key: int) -> None:
    bundle = Bundle(key)
    bundle.insert(_message(key), keywords=frozenset({"matrix"}))
    log.add(bundle)


def _archive_replay(root: Path) -> "list[int]":
    with ArchiveIndex(root) as index:
        return list(index._records)


CLIENTS = [
    Client("wal", "ingest.wal",
           lambda root: MessageJournal(root / "ingest.wal"),
           lambda log, key: log.append(_message(key)),
           lambda root: [m.msg_id for _, m in
                         MessageJournal.replay_entries(root / "ingest.wal")]),
    Client("quarantine", "quarantine.log",
           lambda root: QuarantineLog(root / "quarantine.log"),
           lambda log, key: log.append(_message(key), "spam"),
           lambda root: [m.msg_id for m, _ in
                         QuarantineLog.replay(root / "quarantine.log")]),
    Client("folds", "folds.log",
           lambda root: FoldLog(root / "folds.log"),
           lambda log, key: log.append(key, 1000 + key, key),
           lambda root: list(FoldLog.load(root / "folds.log"))),
    Client("boundary", "boundary.log", BoundaryLog,
           lambda log, key: log.append(_message(key), peers=(1,),
                                       dst=None, score=0.0),
           _boundary_replay),
    Client("repairs", "repairs.log", RepairJournal,
           lambda log, key: log.record(key, None, 1000 + key, 1.0),
           _repair_replay),
    Client("dead-letters", "dead_letters.jsonl",
           lambda root: DeadLetterQueue(root / "dead_letters.jsonl"),
           lambda log, key: log.append("index-rejected", "poison", key),
           _dead_letter_replay),
    Client("archive-index", "archive-index.log", ArchiveIndex, _archived,
           _archive_replay),
]


@pytest.fixture(params=CLIENTS, ids=[client.name for client in CLIENTS])
def client(request) -> Client:
    return request.param


def _acknowledge(client: Client, log: FramedLog, key: int) -> None:
    """Append one record and pass the barrier that acknowledges it."""
    client.append(log, key)
    log.sync()


def _append_until(client: Client, log: FramedLog,
                  fault: "type[BaseException]") -> "list[int]":
    """Acknowledge keys 1, 2, ... until the scheduled fault fires."""
    acked: list[int] = []
    with pytest.raises(fault):
        for key in range(1, 10):
            _acknowledge(client, log, key)
            acked.append(key)
    return acked


def _released(log: FramedLog, handle: Any) -> bool:
    return log._handle is None and getattr(handle, "_raw", handle).closed


def _reopen_and_append(client: Client, root: Path) -> None:
    log = client.open(root)
    _acknowledge(client, log, AFTER)
    handle = log._handle
    log.close()
    assert _released(log, handle)


@pytest.mark.parametrize("nth", [1, 3])
def test_torn_write_at_nth_append(client, tmp_path, nth):
    with FaultInjector([Fault("write", nth=nth, kind="torn", keep_bytes=9,
                              path_part=client.file)]):
        log = client.open(tmp_path)
        acked = _append_until(client, log, SimulatedCrash)
        handle = log._handle
        with contextlib.suppress(SimulatedCrash):  # the WAL's sync dies too
            log.close()
    assert _released(log, handle)
    assert acked == list(range(1, nth))
    assert client.replay(tmp_path) == acked
    _reopen_and_append(client, tmp_path)
    assert client.replay(tmp_path) == acked + [AFTER]


def test_enospc_mid_append(client, tmp_path):
    with FaultInjector([Fault("write", nth=3, path_part=client.file)]):
        log = client.open(tmp_path)
        acked = _append_until(client, log, OSError)
        _acknowledge(client, log, 4)  # the disk recovered: same handle
        acked.append(4)
        handle = log._handle
        log.close()
    assert _released(log, handle)
    assert acked == [1, 2, 4]
    assert client.replay(tmp_path) == acked
    _reopen_and_append(client, tmp_path)
    assert client.replay(tmp_path) == acked + [AFTER]


def test_fsync_fault_on_close(client, tmp_path):
    log = client.open(tmp_path)
    for key in (1, 2, 3):
        _acknowledge(client, log, key)
    handle = log._handle
    with FaultInjector([Fault("fsync", path_part=client.file)]):
        with commit_scope(log):  # record 4 is written, its fsync held
            client.append(log, 4)
            with pytest.raises(OSError):
                log.close()
    assert _released(log, handle)
    # Releasing the handle still hands record 4 to the OS.
    assert client.replay(tmp_path) == [1, 2, 3, 4]
    _reopen_and_append(client, tmp_path)
    assert client.replay(tmp_path) == [1, 2, 3, 4, AFTER]
