"""Tests for the ``repro doctor`` scanner and its repair actions."""

from __future__ import annotations

from unittest import mock

import pytest

from repro import cli
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.reliability.doctor import (quarantine_snapshot, repair_log,
                                      repair_store, scan_log, scan_snapshot,
                                      scan_store)
from repro.reliability.guard import QuarantineLog
from repro.storage.bundle_store import BundleStore
from repro.storage.snapshot import save_snapshot
from repro.storage.wal import JournaledIndexer, MessageJournal
from tests.conftest import make_message


def stream(count: int = 20):
    return [make_message(i, f"#topic{i % 4} doctor body {i}",
                         user=f"u{i % 3}", hours=i * 0.2)
            for i in range(count)]


def write_wal(path, count: int = 20) -> None:
    with MessageJournal(path, sync_every=64) as journal:
        for message in stream(count):
            journal.append(message)


def corrupt_line(path, line_number: int, *, replacement: bytes) -> None:
    """Replace one 1-based line of a text file with arbitrary bytes."""
    lines = path.read_bytes().split(b"\n")
    lines[line_number - 1] = replacement
    path.write_bytes(b"\n".join(lines))


def orphaned_fleet(tmp_path, *, pending: int = 3):
    """Two shard directories without a marker: shard 1 fully
    reconciled, shard 0 with ``pending`` orphaned boundary entries."""
    from repro.runtime import BoundaryLog

    root = tmp_path / "fleet"
    for shard in range(2):
        directory = root / f"shard-{shard:02d}"
        directory.mkdir(parents=True)
        log = BoundaryLog(directory)
        entries = [log.append(message, peers=(1 - shard,),
                              dst=None, score=0.0)
                   for message in stream(pending)]
        log.sync()
        if shard == 1:
            log.advance(entries[-1].seq)
        log.close()
    return root


class TestWalScan:
    def test_clean_journal_is_healthy(self, tmp_path):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        report = scan_log(wal, MessageJournal)
        assert report.healthy
        assert report.valid_records == 20
        assert report.corrupt_lines == []
        assert not report.torn_tail
        assert "ok" in report.describe()

    def test_missing_journal_reported(self, tmp_path):
        report = scan_log(tmp_path / "absent.wal", MessageJournal)
        assert not report.exists
        assert report.healthy
        assert "missing" in report.describe()

    def test_hand_corrupted_record_is_detected(self, tmp_path):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        corrupt_line(wal, 7, replacement=b"deadbeef garbage payload")
        report = scan_log(wal, MessageJournal)
        assert not report.healthy
        assert report.corrupt_lines == [7]
        assert report.valid_records == 19
        assert not report.torn_tail  # interior damage, not a torn tail

    def test_torn_tail_is_flagged(self, tmp_path):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        with wal.open("ab") as handle:
            handle.write(b"0123abcd 5\t99\tu")  # no newline: torn append
        report = scan_log(wal, MessageJournal)
        assert report.torn_tail
        assert report.corrupt_lines == [21]
        assert "torn tail" in report.describe()

    def test_legacy_journal_counted_and_replayable(self, tmp_path):
        """Pre-CRC (v0) journals must still scan healthy and replay."""
        wal = tmp_path / "legacy.wal"
        lines = []
        for index, message in enumerate(stream(5)):
            lines.append(f"{index}\t{message.msg_id}\t{message.user}\t"
                         f"{message.date!r}\t\t\t{message.text}")
        wal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = scan_log(wal, MessageJournal)
        assert report.healthy
        assert report.valid_records == 5
        assert report.legacy_records == 5
        replayed = list(MessageJournal.replay_entries(wal))
        assert [seq for seq, _ in replayed] == [0, 1, 2, 3, 4]
        assert replayed[2][1].text == stream(5)[2].text


class TestWalRepair:
    def test_repair_truncates_to_valid_records(self, tmp_path):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        corrupt_line(wal, 5, replacement=b"not a record at all")
        result = repair_log(wal, MessageJournal)
        assert result.kept_records == 19
        assert result.dropped_lines == 1
        assert result.bytes_after < result.bytes_before
        assert scan_log(wal, MessageJournal).healthy
        # the repaired journal replays without skips
        assert len(list(MessageJournal.replay_entries(wal))) == 19

    def test_repaired_state_is_loadable_end_to_end(self, tmp_path):
        wal = tmp_path / "ingest.wal"
        snapshot = tmp_path / "state.json"
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.partial_index(pool_size=10)),
            MessageJournal(wal, sync_every=1),
            snapshot_path=snapshot, snapshot_every=8)
        for message in stream(20):
            journaled.ingest(message)
        journaled.journal.close()  # simulate a crash: no final checkpoint

        # vandalize both surviving artifacts
        corrupt_line(wal, 2, replacement=b"ffffffff 9\tjunk")
        snapshot.write_text("{ not json", encoding="utf-8")

        assert not scan_log(wal, MessageJournal).healthy
        assert not scan_snapshot(snapshot).healthy
        repair_log(wal, MessageJournal)
        quarantine_snapshot(snapshot)

        recovered = JournaledIndexer.recover(
            snapshot, wal,
            config=IndexerConfig.partial_index(pool_size=10))
        # snapshot quarantined + one WAL record dropped: of the 4
        # post-checkpoint journal records, 3 survive the vandalism…
        assert recovered.indexer.stats.messages_ingested == 3
        # …and the quarantined artifacts sit beside the originals.
        assert (tmp_path / "state.json.corrupt").exists()


class TestSnapshotScan:
    def test_good_snapshot_reports_metadata(self, tmp_path):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=10))
        for message in stream(12):
            engine.ingest(message)
        snapshot = tmp_path / "state.json"
        save_snapshot(engine, snapshot, applied_seq=11)
        report = scan_snapshot(snapshot)
        assert report.healthy and report.ok
        assert report.bundles == len(engine.pool)
        assert report.applied_seq == 11

    def test_corrupt_snapshot_detected(self, tmp_path):
        snapshot = tmp_path / "state.json"
        snapshot.write_text('{"truncated": ', encoding="utf-8")
        report = scan_snapshot(snapshot)
        assert report.exists and not report.healthy
        assert "unloadable" in report.describe()


class TestStoreScanAndRepair:
    def build_store(self, tmp_path) -> BundleStore:
        store = BundleStore(tmp_path / "store")
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=3), store=store)
        for message in stream(30):
            engine.ingest(message)
        return store

    def test_clean_store_is_healthy(self, tmp_path):
        store = self.build_store(tmp_path)
        report = scan_store(store.directory)
        assert report.healthy
        assert report.valid_records == store.append_count

    def test_corrupt_segment_detected_and_repaired(self, tmp_path):
        store = self.build_store(tmp_path)
        segment = sorted(store.directory.glob("segment-*.log"))[0]
        corrupt_line(segment, 1, replacement=b"00000000 {\"zapped\": true}")
        report = scan_store(store.directory)
        assert not report.healthy
        assert report.corrupt_records == 1
        results = repair_store(store.directory)
        assert len(results) == 1
        assert results[0].dropped_lines == 1
        after = scan_store(store.directory)
        assert after.healthy
        assert after.valid_records == store.append_count - 1
        # the repaired store opens strict (no tolerance needed)
        reopened = BundleStore(store.directory)
        assert reopened.append_count == store.append_count - 1


    def test_final_record_without_its_newline_is_intact(self, tmp_path,
                                                          capsys):
        """The doctor reads a segment by the store's own rule: a last
        record that passes its CRC but lost its newline loads, so it is
        healthy and a repair keeps it."""
        store = self.build_store(tmp_path)
        store.close()
        segment = sorted(store.directory.glob("segment-*.log"))[-1]
        segment.write_bytes(segment.read_bytes()[:-1])
        loaded = len(BundleStore(store.directory))
        report = scan_store(store.directory)
        assert report.healthy
        assert report.valid_records == store.append_count
        assert cli.main(["doctor", "--store", str(store.directory),
                         "--repair"]) == 0
        assert len(BundleStore(store.directory)) == loaded


class TestDoctorCli:
    def test_no_targets_is_usage_error(self, capsys):
        assert cli.main(["doctor"]) == 2

    def test_healthy_artifacts_exit_zero(self, tmp_path, capsys):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        assert cli.main(["doctor", "--wal", str(wal)]) == 0
        out = capsys.readouterr().out
        assert "repro doctor" in out
        assert "all artifacts healthy" in out

    def test_damage_exits_one_without_repair(self, tmp_path, capsys):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        corrupt_line(wal, 3, replacement=b"xxxx")
        assert cli.main(["doctor", "--wal", str(wal)]) == 1
        assert "recoverable" in capsys.readouterr().out

    def test_repair_flag_fixes_and_exits_zero(self, tmp_path, capsys):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        corrupt_line(wal, 3, replacement=b"xxxx")
        snapshot = tmp_path / "state.json"
        snapshot.write_text("garbage", encoding="utf-8")
        assert cli.main(["doctor", "--wal", str(wal),
                         "--snapshot", str(snapshot), "--repair"]) == 0
        assert scan_log(wal, MessageJournal).healthy
        assert not snapshot.exists()  # quarantined aside
        assert snapshot.with_suffix(".json.corrupt").exists()


class TestDoctorExitCodeMatrix:
    """The documented exit-code contract (docs/operations.md).

    0 — every scanned artifact healthy (or absent), or repair fixed all
    1 — damage found and ``--repair`` not given, or damage ``--repair``
        could not fix (a fleet's orphans remain, its marker is missing,
        or no shard directory is found)
    2 — usage error: no artifact to scan
    """

    def damaged_wal(self, tmp_path):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        corrupt_line(wal, 3, replacement=b"xxxx")
        return wal

    def damaged_store(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        indexer = ProvenanceIndexer(IndexerConfig.full_index(), store=store)
        for message in stream(12):
            indexer.ingest(message)
        for bundle in list(indexer.pool):
            store.append(bundle)
        segment = sorted(store.directory.glob("segment-*.log"))[0]
        corrupt_line(segment, 1, replacement=b"deadbeef broken")
        return store.directory

    def test_exit_0_all_healthy(self, tmp_path, capsys):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)
        assert cli.main(["doctor", "--wal", str(wal)]) == 0

    def test_exit_0_missing_artifacts_are_not_issues(self, tmp_path, capsys):
        # Absent files are reported but carry no damage to fix.
        assert cli.main(["doctor",
                         "--wal", str(tmp_path / "nope.wal"),
                         "--snapshot", str(tmp_path / "nope.json"),
                         "--store", str(tmp_path / "nope")]) == 0
        assert "missing" in capsys.readouterr().out

    def test_exit_1_any_damaged_artifact_without_repair(self, tmp_path,
                                                        capsys):
        wal = tmp_path / "ingest.wal"
        write_wal(wal)  # healthy
        store_dir = self.damaged_store(tmp_path)
        assert cli.main(["doctor", "--wal", str(wal),
                         "--store", str(store_dir)]) == 1
        assert "--repair" in capsys.readouterr().out

    def test_exit_0_after_repair(self, tmp_path, capsys):
        wal = self.damaged_wal(tmp_path)
        store_dir = self.damaged_store(tmp_path)
        assert cli.main(["doctor", "--wal", str(wal),
                         "--store", str(store_dir), "--repair"]) == 0
        # Idempotence: a second scan of the repaired artifacts is clean.
        assert cli.main(["doctor", "--wal", str(wal),
                         "--store", str(store_dir)]) == 0

    def test_exit_1_fleet_repair_without_a_shard_directory(self, tmp_path,
                                                           capsys):
        assert cli.main(["doctor", "--fleet", str(tmp_path),
                         "--repair"]) == 1
        assert "no shard directories" in capsys.readouterr().out

    def test_exit_1_fleet_repair_without_a_marker(self, tmp_path, capsys):
        from repro.runtime import scan_fleet_repair

        root = orphaned_fleet(tmp_path)
        assert cli.main(["doctor", "--fleet", str(root), "--repair"]) == 1
        assert "runtime.json" in capsys.readouterr().out
        assert [s.pending for _, s in sorted(
            scan_fleet_repair(root).items())] == [3, 0]

    def test_exit_1_fleet_repair_leaves_orphans(self, tmp_path, capsys,
                                                monkeypatch):
        # A fleet whose passes all back off keeps its backlog; here no
        # pass runs at all.
        import json

        from repro.runtime import ShardedRuntime

        root = orphaned_fleet(tmp_path)
        (root / "runtime.json").write_text(
            json.dumps({"workers": 2, "router": "cooccurrence"}))
        drain = ShardedRuntime.repair_until_clean
        monkeypatch.setattr(ShardedRuntime, "repair_until_clean",
                            lambda self: drain(self, max_rounds=0))
        assert cli.main(["doctor", "--fleet", str(root), "--repair"]) == 1
        assert "3 orphan(s) left" in capsys.readouterr().out

    def test_exit_2_usage_error(self, capsys):
        assert cli.main(["doctor"]) == 2
        assert "at least one" in capsys.readouterr().err


class TestFleetOrphanScan:
    """``doctor --fleet``: cross-shard orphans join the exit-code matrix.

    An orphan is a boundary-log entry past the shard's reconciliation
    cursor — a message the router flagged as possibly cross-shard that
    no repair pass has examined.  The scan itself is offline (reads
    ``shard-*/boundary.log`` + cursors); ``--repair`` replays
    reconciliation through a live fleet.
    """

    def test_exit_0_reconciled_fleet(self, tmp_path, capsys):
        root = orphaned_fleet(tmp_path, pending=2)
        from repro.runtime import BoundaryLog

        log = BoundaryLog(root / "shard-00")
        log.advance(log.pending()[-1].seq)
        log.close()
        assert cli.main(["doctor", "--fleet", str(root)]) == 0
        assert "all artifacts healthy" in capsys.readouterr().out

    def test_exit_1_orphans_without_repair(self, tmp_path, capsys):
        root = orphaned_fleet(tmp_path)
        assert cli.main(["doctor", "--fleet", str(root)]) == 1
        out = capsys.readouterr().out
        assert "3 orphaned boundary entries" in out
        assert "--repair" in out

    def test_exit_1_not_a_fleet_root(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert cli.main(["doctor", "--fleet",
                         str(tmp_path / "empty")]) == 1
        assert "no shard directories" in capsys.readouterr().out

    def test_repair_replays_reconciliation(self, tmp_path, capsys):
        # End to end: a real fleet closed with an unreconciled backlog,
        # then doctor --repair drains it and a rescan is clean.
        import itertools

        from repro.runtime import ShardedRuntime, scan_fleet_repair
        from repro.stream.generator import StreamConfig, StreamGenerator

        root = tmp_path / "fleet"
        messages = list(itertools.islice(
            iter(StreamGenerator(StreamConfig(seed=11))), 300))
        with ShardedRuntime(root, 2, router="cooccurrence") as runtime:
            runtime.ingest_stream(messages, batch_size=64)
            assert runtime.stats.boundary_hints > 0
        assert cli.main(["doctor", "--fleet", str(root)]) == 1
        assert cli.main(["doctor", "--fleet", str(root),
                         "--repair"]) == 0
        assert "reconciled" in capsys.readouterr().out
        scans = scan_fleet_repair(root)
        assert scans and all(s.pending == 0 for s in scans.values())
        assert cli.main(["doctor", "--fleet", str(root)]) == 0


class TestQuarantineScanAndRepair:
    def _write_quarantine(self, path, count: int = 6):
        from repro.core import credibility
        from repro.reliability import guard as guard_module
        from repro.reliability.guard import IngestGuard

        with mock.patch.object(guard_module, "SPAM_MIN_MESSAGES", 2.0), \
                mock.patch.object(credibility, "PRIOR", 0.5):
            guard = IngestGuard(quarantine_path=path)
            for i in range(count + 2):
                guard.admit(make_message(
                    i, "identical spam payload wins big money now",
                    user="spammer", hours=i * 0.1))
        guard.close()

    def test_clean_log_is_healthy(self, tmp_path):
        path = tmp_path / "quarantine.log"
        self._write_quarantine(path)
        report = scan_log(path, QuarantineLog)
        assert report.healthy
        assert report.valid_records > 0
        assert "ok" in report.describe()

    def test_missing_log_reported(self, tmp_path):
        report = scan_log(tmp_path / "absent.log", QuarantineLog)
        assert not report.exists
        assert report.healthy
        assert "missing" in report.describe()

    def test_torn_tail_detected_and_repaired(self, tmp_path):
        path = tmp_path / "quarantine.log"
        self._write_quarantine(path)
        before = [m.msg_id for m, _ in QuarantineLog.replay(path)]
        with path.open("ab") as handle:
            handle.write(b"0123abcd 42\tspammer\t1.0")  # torn append
        report = scan_log(path, QuarantineLog)
        assert report.torn_tail
        assert not report.healthy
        result = repair_log(path, QuarantineLog)
        assert result.dropped_lines == 1
        assert scan_log(path, QuarantineLog).healthy
        assert [m.msg_id for m, _ in QuarantineLog.replay(path)] == before

    def test_interior_corruption_detected(self, tmp_path):
        path = tmp_path / "quarantine.log"
        self._write_quarantine(path)
        corrupt_line(path, 2, replacement=b"deadbeef not a record")
        report = scan_log(path, QuarantineLog)
        assert not report.healthy
        assert report.corrupt_lines == [2]
        assert not report.torn_tail

    def test_cli_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "quarantine.log"
        self._write_quarantine(path)
        assert cli.main(["doctor", "--quarantine", str(path)]) == 0
        with path.open("ab") as handle:
            handle.write(b"torn garbage")
        assert cli.main(["doctor", "--quarantine", str(path)]) == 1
        assert cli.main(["doctor", "--quarantine", str(path),
                         "--repair"]) == 0
        assert cli.main(["doctor", "--quarantine", str(path)]) == 0
        assert "quarantine" in capsys.readouterr().out
