"""Crash matrix for the guarded ingest path (chaos suite).

The guard adds two durable artifacts — the quarantine log and the fold
log — to the WAL/snapshot family, and with them two new ways a SIGKILL
can tear state.  For every scheduled fault this harness replays a
hostile stream (spam flood + undeclared near-dups + organic traffic)
through a guarded :class:`ResilientIndexer` until the injected crash,
recovers from disk alone, and asserts the custody contract:

* zero acknowledged loss — every verdict the driver saw before the
  crash is still honored after recovery: quarantined ids replay from
  the quarantine log, indexed ids sit in the same bundle they were
  acknowledged into (fold hints steering WAL replay);
* the artifacts stay consistent — ``repro doctor`` scans both logs,
  ``--repair`` clears any torn tail with exit code 0;
* recovery is deterministic — recovering the same disk state twice
  yields byte-identical snapshots.

The second matrix drives the same stream through ``ingest_batch``, whose
quarantine appends share one fsync at the batch's commit-scope exit: the
acknowledgement is the batch's *return*, so every id of a returned batch
must survive, while ids of the batch in flight at the crash may be lost.
"""

from __future__ import annotations

import shutil
from unittest import mock

import pytest

from repro import cli
from repro.core.config import IndexerConfig
from repro.core.validation import check_engine
from repro.reliability.faults import Fault, FaultInjector, SimulatedCrash
from repro.reliability import guard as guard_module
from repro.reliability.guard import QuarantineLog
from repro.reliability.supervisor import ResilientIndexer
from repro.storage.snapshot import save_snapshot
from tests.conftest import make_message

pytestmark = pytest.mark.chaos

SPAM = "win big money now with this one amazing trick friends"
NEWS = "harbor bridge closed after the morning quake inspection"


def hostile_stream():
    """40 in-order arrivals: organic, a spam flood, a near-dup storm."""
    messages = []
    for i in range(40):
        hours = i * 0.1
        if i % 4 == 1 and i > 4:
            messages.append(make_message(
                i, f"{SPAM} {i % 3}", user="spammer", hours=hours))
        elif i % 4 == 2 and i > 4:
            messages.append(make_message(
                i, f"{NEWS} copy {i % 2}", user=f"copier{i % 3}",
                hours=hours))
        else:
            messages.append(make_message(
                i, f"organic story number {i} about topic{i % 6}",
                user=f"u{i % 5}", hours=hours))
    return messages


@pytest.fixture(autouse=True)
def low_spam_gate():
    # A low judgment gate so the 9-message spam flood starts tripping
    # quarantines early enough for the scheduled faults to land on them.
    with mock.patch.object(guard_module, "SPAM_MIN_MESSAGES", 4.0):
        yield


def open_guarded(root) -> ResilientIndexer:
    return ResilientIndexer.open(
        root, config=IndexerConfig.full_index(), sync_every=1,
        snapshot_every=12, guard=True)


FAULT_POINTS = [
    pytest.param(Fault(op="write", nth=9, kind="torn", keep_bytes=7,
                       path_part=".wal"), id="torn-wal-mid-stream"),
    pytest.param(Fault(op="write", nth=25, kind="crash_after",
                       path_part=".wal"), id="crash-after-wal-append"),
    pytest.param(Fault(op="fsync", nth=18, kind="crash_before",
                       path_part=".wal"), id="crash-before-wal-fsync"),
    pytest.param(Fault(op="write", nth=2, kind="torn", keep_bytes=5,
                       path_part="quarantine.log"),
                 id="torn-quarantine-append"),
    pytest.param(Fault(op="write", nth=4, kind="error",
                       path_part="quarantine.log"),
                 id="enospc-quarantine-append"),
    pytest.param(Fault(op="fsync", nth=2, kind="crash_before",
                       path_part="quarantine.log"),
                 id="crash-before-quarantine-fsync"),
    pytest.param(Fault(op="fsync", nth=3, kind="crash_after",
                       path_part="quarantine.log"),
                 id="crash-after-quarantine-fsync"),
    pytest.param(Fault(op="write", nth=2, kind="torn", keep_bytes=4,
                       path_part="folds.log"), id="torn-fold-append"),
    pytest.param(Fault(op="write", nth=3, kind="crash_after",
                       path_part="folds.log"), id="crash-after-fold-hint"),
]


@pytest.mark.parametrize("fault", FAULT_POINTS)
def test_guarded_crash_recovery_honors_every_ack(fault, tmp_path):
    root = tmp_path / "stack"
    messages = hostile_stream()
    acknowledged_quarantined: "list[int]" = []
    acknowledged_placed: "dict[int, int]" = {}

    crashed = False
    supervisor = None
    try:
        with FaultInjector([fault]):
            supervisor = open_guarded(root)
            for message in messages:
                result = supervisor.ingest(message)
                # The verdict returned: this arrival is now acknowledged
                # and must survive any later crash.
                if result is not None:
                    acknowledged_placed[message.msg_id] = result.bundle_id
                else:
                    assert supervisor.guard is not None
                    acknowledged_quarantined.append(message.msg_id)
            supervisor.close()
    except (SimulatedCrash, OSError):
        crashed = True
    assert crashed, f"fault {fault} never fired — dead test"
    # The driver's view of the unacknowledged tail is discarded, like a
    # coordinator that never got the ACK.  A quarantine verdict is the
    # ack for a quarantined message, so the last recorded id may be the
    # one whose append crashed — drop it only if the log lost it too.

    # -- recover from disk alone.
    recovered = open_guarded(root)
    engine = recovered.indexer
    assert check_engine(engine) == []

    quarantined_on_disk = {m.msg_id for m, _ in
                           QuarantineLog.replay(root / "quarantine.log")}
    for msg_id in acknowledged_quarantined:
        assert msg_id in quarantined_on_disk, \
            f"acknowledged quarantine of {msg_id} was lost"

    placed_ids = {m for bundle in engine.pool
                  for m in bundle.message_ids()}
    for msg_id, bundle_id in acknowledged_placed.items():
        assert msg_id in placed_ids, \
            f"acknowledged message {msg_id} vanished"
        bundle = engine.pool.get(bundle_id)
        assert msg_id in bundle.message_ids(), \
            f"message {msg_id} moved from bundle {bundle_id} on replay"
    recovered.close()


def assert_recovery_deterministic(root, tmp_path):
    """Recovering two copies of one disk state yields equal snapshots."""
    snapshots = []
    for attempt in range(2):
        copy = tmp_path / f"copy{attempt}"
        shutil.copytree(root, copy)
        recovered = open_guarded(copy)
        out = tmp_path / f"state{attempt}.json"
        save_snapshot(recovered.indexer, out)
        snapshots.append(out.read_bytes())
        recovered.close()
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("fault", FAULT_POINTS[:1] + FAULT_POINTS[3:4])
def test_recovery_is_deterministic(fault, tmp_path):
    root = tmp_path / "stack"
    try:
        with FaultInjector([fault]):
            supervisor = open_guarded(root)
            for message in hostile_stream():
                supervisor.ingest(message)
            supervisor.close()
    except (SimulatedCrash, OSError):
        pass
    assert_recovery_deterministic(root, tmp_path)


def test_doctor_repairs_torn_guard_artifacts(tmp_path, capsys):
    root = tmp_path / "stack"
    fault = Fault(op="write", nth=3, kind="torn", keep_bytes=6,
                  path_part="quarantine.log")
    try:
        with FaultInjector([fault]):
            supervisor = open_guarded(root)
            for message in hostile_stream():
                supervisor.ingest(message)
            supervisor.close()
    except (SimulatedCrash, OSError):
        pass

    wal = root / "ingest.wal"
    quarantine = root / "quarantine.log"
    # Scan-only on damage exits 1; --repair exits 0 and a second scan
    # confirms health.
    first = cli.main(["doctor", "--wal", str(wal),
                      "--quarantine", str(quarantine)])
    repaired = cli.main(["doctor", "--wal", str(wal),
                         "--quarantine", str(quarantine), "--repair"])
    assert repaired == 0
    final = cli.main(["doctor", "--wal", str(wal),
                      "--quarantine", str(quarantine)])
    assert final == 0
    assert first in (0, 1)
    out = capsys.readouterr().out
    assert "quarantine" in out
    # The repaired log still replays its intact custody records.
    survivors = list(QuarantineLog.replay(quarantine))
    assert all(reason in ("spam", "clock-skew") for _, reason in survivors)
    # And a guarded stack reopens cleanly on the repaired artifacts.
    recovered = open_guarded(root)
    assert check_engine(recovered.indexer) == []
    recovered.close()


# -- ingest_batch: the acknowledgement is the batch's return ---------------
# Batches of 8 over the 40-message stream quarantine ids (17, 21), (25, 29)
# and (33, 37) in batches 3, 4 and 5: quarantine writes 1-6, scope fsyncs
# 1-3.  Every fault below lands inside batch 3 or 4.

BATCH = 8

BATCH_FAULT_POINTS = [
    pytest.param(Fault(op="write", nth=3, kind="crash_after",
                       path_part="quarantine.log"),
                 id="crash-after-append-inside-scope"),
    pytest.param(Fault(op="write", nth=4, kind="torn", keep_bytes=5,
                       path_part="quarantine.log"),
                 id="torn-second-append-inside-scope"),
    pytest.param(Fault(op="write", nth=18, kind="crash_after",
                       path_part=".wal"),
                 id="crash-on-wal-with-custody-unsynced"),
    pytest.param(Fault(op="fsync", nth=2, kind="crash_before",
                       path_part="quarantine.log"),
                 id="crash-before-scope-fsync"),
    pytest.param(Fault(op="fsync", nth=2, kind="crash_after",
                       path_part="quarantine.log"),
                 id="crash-after-scope-fsync"),
    pytest.param(Fault(op="write", nth=3, kind="error",
                       path_part="quarantine.log"),
                 id="enospc-append-inside-scope"),
]


@pytest.mark.parametrize("fault", BATCH_FAULT_POINTS)
def test_batch_crash_honors_every_returned_batch(fault, tmp_path, capsys):
    root = tmp_path / "stack"
    messages = hostile_stream()
    returned: "list[int]" = []
    placed: "dict[int, int]" = {}
    crashed = False
    try:
        with FaultInjector([fault]):
            supervisor = open_guarded(root)
            for start in range(0, len(messages), BATCH):
                batch = messages[start:start + BATCH]
                results = supervisor.ingest_batch(batch)
                # The call returned: the whole batch is acknowledged.
                returned.extend(m.msg_id for m in batch)
                placed.update((r.msg_id, r.bundle_id) for r in results)
            supervisor.close()
    except (SimulatedCrash, OSError):
        crashed = True
    assert crashed, f"fault {fault} never fired — dead test"
    assert returned and len(returned) < len(messages)

    # -- the artifacts repair cleanly, whatever the in-flight batch left.
    quarantine = root / "quarantine.log"
    assert cli.main(["doctor", "--quarantine", str(quarantine),
                     "--repair"]) == 0
    assert cli.main(["doctor", "--quarantine", str(quarantine)]) == 0
    capsys.readouterr()

    # -- recovery from disk alone is byte-deterministic ...
    assert_recovery_deterministic(root, tmp_path)

    # -- ... and honors every returned batch: each id is in custody or
    # in the bundle it was acknowledged into.
    recovered = open_guarded(root)
    engine = recovered.indexer
    assert check_engine(engine) == []
    in_custody = {m.msg_id for m, _ in QuarantineLog.replay(quarantine)}
    assert in_custody.isdisjoint(placed)
    for msg_id in returned:
        if msg_id in placed:
            assert msg_id in engine.pool.get(placed[msg_id]).message_ids(), \
                f"message {msg_id} left bundle {placed[msg_id]} on replay"
        else:
            assert msg_id in in_custody, \
                f"returned batch lost quarantined message {msg_id}"
    recovered.close()
