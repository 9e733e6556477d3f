"""Tests for the write-ahead journal and crash recovery."""

from __future__ import annotations

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import StorageError
from repro.core.validation import check_engine
from repro.storage.wal import JournaledIndexer, MessageJournal
from tests.conftest import make_message


def stream(count: int = 40):
    return [make_message(i, f"#topic{i % 6} message body {i}",
                         user=f"u{i % 5}", hours=i * 0.1)
            for i in range(count)]


class TestMessageJournal:
    def test_append_and_replay(self, tmp_path):
        journal = MessageJournal(tmp_path / "m.wal")
        messages = stream(5)
        for message in messages:
            journal.append(message)
        journal.sync()
        replayed = [m for _, m in MessageJournal.replay_entries(
            tmp_path / "m.wal")]
        assert replayed == messages

    def test_sequence_numbers_monotone(self, tmp_path):
        journal = MessageJournal(tmp_path / "m.wal")
        seqs = [journal.append(m) for m in stream(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_reopen_continues_sequence(self, tmp_path):
        journal = MessageJournal(tmp_path / "m.wal")
        for message in stream(3):
            journal.append(message)
        journal.close()
        reopened = MessageJournal(tmp_path / "m.wal")
        assert reopened.append(make_message(99, "late", hours=9)) == 3

    def test_truncate_keeps_sequence(self, tmp_path):
        journal = MessageJournal(tmp_path / "m.wal")
        for message in stream(3):
            journal.append(message)
        journal.truncate()
        assert journal.append(make_message(99, "late", hours=9)) == 3
        assert len(list(MessageJournal.replay_entries(
            tmp_path / "m.wal"))) == 0  # not yet synced
        journal.sync()
        assert len(list(MessageJournal.replay_entries(
            tmp_path / "m.wal"))) == 1

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "m.wal"
        journal = MessageJournal(path)
        for message in stream(3):
            journal.append(message)
        journal.close()
        # simulate a crash mid-append: cut the last line in half
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        replayed = list(MessageJournal.replay_entries(path))
        assert len(replayed) == 2

    def test_escaped_text_round_trips(self, tmp_path):
        journal = MessageJournal(tmp_path / "m.wal")
        message = make_message(0, "line\none\ttab \\ slash")
        journal.append(message)
        journal.sync()
        _, replayed = next(MessageJournal.replay_entries(
            tmp_path / "m.wal"))
        assert replayed.text == message.text

    def test_missing_file_replays_nothing(self, tmp_path):
        assert list(MessageJournal.replay_entries(
            tmp_path / "nope.wal")) == []

    def test_invalid_sync_every(self, tmp_path):
        with pytest.raises(StorageError):
            MessageJournal(tmp_path / "m.wal", sync_every=0)


class TestCrashRecovery:
    def _journaled(self, tmp_path, snapshot_every=10_000):
        indexer = ProvenanceIndexer(IndexerConfig.partial_index(
            pool_size=15))
        journal = MessageJournal(tmp_path / "ingest.wal", sync_every=1)
        return JournaledIndexer(indexer, journal,
                                snapshot_path=tmp_path / "state.json",
                                snapshot_every=snapshot_every)

    def test_recover_without_any_snapshot(self, tmp_path):
        journaled = self._journaled(tmp_path)
        reference = ProvenanceIndexer(IndexerConfig.partial_index(
            pool_size=15))
        for message in stream(30):
            journaled.ingest(message)
            reference.ingest(message)
        # "crash": drop the in-memory engine entirely, recover from disk
        recovered = JournaledIndexer.recover(
            tmp_path / "state.json", tmp_path / "ingest.wal")
        assert recovered.indexer.edge_pairs() == reference.edge_pairs()
        assert check_engine(recovered.indexer) == []

    def test_recover_after_checkpoint(self, tmp_path):
        journaled = self._journaled(tmp_path)
        reference = ProvenanceIndexer(IndexerConfig.partial_index(
            pool_size=15))
        messages = stream(30)
        for message in messages[:20]:
            journaled.ingest(message)
            reference.ingest(message)
        journaled.checkpoint()
        for message in messages[20:]:
            journaled.ingest(message)
            reference.ingest(message)
        recovered = JournaledIndexer.recover(
            tmp_path / "state.json", tmp_path / "ingest.wal")
        assert recovered.indexer.edge_pairs() == reference.edge_pairs()
        assert (recovered.indexer.stats.messages_ingested
                == reference.stats.messages_ingested)

    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        """The nasty window: snapshot + sidecar written, journal NOT
        truncated — recovery must not double-apply."""
        journaled = self._journaled(tmp_path)
        reference = ProvenanceIndexer(IndexerConfig.partial_index(
            pool_size=15))
        messages = stream(24)
        for message in messages[:12]:
            journaled.ingest(message)
            reference.ingest(message)
        # manual "partial checkpoint": snapshot + sidecar, no truncate
        from repro.storage.snapshot import save_snapshot

        journaled.journal.sync()
        save_snapshot(journaled.indexer, tmp_path / "state.json")
        (tmp_path / "state.json.seq").write_text(
            str(journaled.last_applied_seq))
        for message in messages[12:]:
            journaled.ingest(message)
            reference.ingest(message)
        recovered = JournaledIndexer.recover(
            tmp_path / "state.json", tmp_path / "ingest.wal")
        assert (recovered.indexer.stats.messages_ingested
                == reference.stats.messages_ingested)
        assert recovered.indexer.edge_pairs() == reference.edge_pairs()

    def test_automatic_checkpointing(self, tmp_path):
        journaled = self._journaled(tmp_path, snapshot_every=10)
        for message in stream(25):
            journaled.ingest(message)
        assert (tmp_path / "state.json").exists()
        # journal only holds the tail after the last auto-checkpoint
        journaled.journal.sync()
        tail = list(MessageJournal.replay_entries(tmp_path / "ingest.wal"))
        assert len(tail) == 5

    def test_recovered_engine_continues(self, tmp_path):
        journaled = self._journaled(tmp_path)
        for message in stream(10):
            journaled.ingest(message)
        recovered = JournaledIndexer.recover(
            tmp_path / "state.json", tmp_path / "ingest.wal")
        result = recovered.ingest(make_message(100, "#topic0 continuation",
                                               user="x", hours=5.0))
        assert result is not None
        assert recovered.indexer.stats.messages_ingested == 11

    def test_checkpoint_without_path_rejected(self, tmp_path):
        indexer = ProvenanceIndexer(IndexerConfig())
        journal = MessageJournal(tmp_path / "m.wal")
        journaled = JournaledIndexer(indexer, journal)
        with pytest.raises(StorageError):
            journaled.checkpoint()

    def test_invalid_snapshot_every(self, tmp_path):
        indexer = ProvenanceIndexer(IndexerConfig())
        journal = MessageJournal(tmp_path / "m.wal")
        with pytest.raises(StorageError):
            JournaledIndexer(indexer, journal, snapshot_every=0)


class TestLifecycle:
    def test_journal_context_manager_flushes(self, tmp_path):
        path = tmp_path / "m.wal"
        with MessageJournal(path, sync_every=1000) as journal:
            for message in stream(4):
                journal.append(message)
        assert len(list(MessageJournal.replay_entries(path))) == 4

    def test_journal_close_idempotent(self, tmp_path):
        journal = MessageJournal(tmp_path / "m.wal")
        journal.append(stream(1)[0])
        journal.close()
        journal.close()

    def test_journaled_clean_exit_checkpoints(self, tmp_path):
        snapshot = tmp_path / "state.json"
        with JournaledIndexer(
                ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15)),
                MessageJournal(tmp_path / "m.wal"),
                snapshot_path=snapshot, snapshot_every=10_000) as journaled:
            for message in stream(6):
                journaled.ingest(message)
        assert snapshot.exists()
        # the final checkpoint truncated the journal
        assert list(MessageJournal.replay_entries(tmp_path / "m.wal")) == []
        recovered = JournaledIndexer.recover(snapshot, tmp_path / "m.wal")
        assert recovered.indexer.stats.messages_ingested == 6

    def test_journaled_exceptional_exit_skips_checkpoint(self, tmp_path):
        snapshot = tmp_path / "state.json"
        with pytest.raises(RuntimeError):
            with JournaledIndexer(
                    ProvenanceIndexer(
                        IndexerConfig.partial_index(pool_size=15)),
                    MessageJournal(tmp_path / "m.wal"),
                    snapshot_path=snapshot,
                    snapshot_every=10_000) as journaled:
                for message in stream(6):
                    journaled.ingest(message)
                raise RuntimeError("simulated consumer bug")
        # no checkpoint — but the journal tail is durable for recovery
        assert not snapshot.exists()
        recovered = JournaledIndexer.recover(snapshot, tmp_path / "m.wal")
        assert recovered.indexer.stats.messages_ingested == 6

    def test_journaled_close_idempotent(self, tmp_path):
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15)),
            MessageJournal(tmp_path / "m.wal"),
            snapshot_path=tmp_path / "state.json")
        journaled.ingest(stream(1)[0])
        journaled.close()
        before = (tmp_path / "state.json").read_bytes()
        journaled.close()  # second close must not re-checkpoint
        assert (tmp_path / "state.json").read_bytes() == before

    def test_journal_close_releases_the_handle_when_the_fsync_fails(
            self, tmp_path):
        from repro.reliability.faults import Fault, FaultInjector

        journal = MessageJournal(tmp_path / "m.wal")
        journal.append(stream(1)[0])
        with FaultInjector([Fault("fsync", path_part="m.wal")]):
            with pytest.raises(OSError):
                journal.close()
        assert journal._handle.closed and journal._closed
        journal.close()


class TestCrcFraming:
    def test_records_are_crc_framed(self, tmp_path):
        path = tmp_path / "m.wal"
        with MessageJournal(path, sync_every=1) as journal:
            journal.append(stream(1)[0])
        line = path.read_text(encoding="utf-8").splitlines()[0]
        assert line[8] == " "
        int(line[:8], 16)  # first field is the CRC in hex

    def test_interior_corruption_skipped_and_counted(self, tmp_path):
        from repro.storage.wal import ReplayStats

        path = tmp_path / "m.wal"
        with MessageJournal(path, sync_every=1) as journal:
            for message in stream(5):
                journal.append(message)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"00000000 " + lines[2][9:]  # zap record 3's CRC
        path.write_bytes(b"\n".join(lines))
        stats = ReplayStats()
        replayed = list(MessageJournal.replay_entries(path, stats=stats))
        assert [m.msg_id for _, m in replayed] == [0, 1, 3, 4]
        assert stats.skipped_corrupt == 1
        assert not stats.torn_tail

    def test_legacy_v0_journal_replays(self, tmp_path):
        """Journals written before CRC framing must still replay."""
        from repro.reliability.fsio import escape_field as _escape
        from repro.storage.wal import ReplayStats

        path = tmp_path / "legacy.wal"
        messages = stream(3)
        lines = [f"{seq}\t{m.msg_id}\t{m.user}\t{m.date!r}\t\t\t"
                 f"{_escape(m.text)}"
                 for seq, m in enumerate(messages)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stats = ReplayStats()
        replayed = [m for _, m in MessageJournal.replay_entries(
            path, stats=stats)]
        assert replayed == messages
        assert stats.legacy_records == 3

    def test_crc_prefixed_line_with_failing_checksum_is_rejected(self):
        """The framing check is ``fsio.check_frame``; a line that carries
        the prefix but fails it must not slip through as a v0 record —
        not even when the prefix reads as a decimal sequence number."""
        from repro.reliability.fsio import check_frame, frame_line
        from repro.storage.wal import _parse_line

        payload = "4\t9\tann\t3.0\t\t\tstorm #red"
        framed = frame_line(payload)
        assert check_frame(framed) == payload
        seq, message, legacy = _parse_line(framed)
        assert (seq, message.msg_id, legacy) == (4, 9, False)
        assert _parse_line("00000000" + framed[8:]) is None
        # All-digit prefix, payload opening with a tab: int() alone would
        # accept "12345678 " as a v0 sequence number.
        assert _parse_line("12345678 \t9\tann\t3.0\t\t\tstorm") is None
        seq, message, legacy = _parse_line(payload)  # the v0 spelling
        assert (seq, message.msg_id, legacy) == (4, 9, True)

    def test_legacy_journal_continues_with_framed_appends(self, tmp_path):
        """A reopened v0 journal appends CRC-framed records after the
        legacy ones, and replay handles the mixed file."""
        from repro.reliability.fsio import escape_field as _escape

        path = tmp_path / "mixed.wal"
        old = stream(2)
        lines = [f"{seq}\t{m.msg_id}\t{m.user}\t{m.date!r}\t\t\t"
                 f"{_escape(m.text)}" for seq, m in enumerate(old)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = MessageJournal(path, sync_every=1)
        assert journal.append(make_message(50, "new era", hours=9)) == 2
        journal.close()
        replayed = list(MessageJournal.replay_entries(path))
        assert [seq for seq, _ in replayed] == [0, 1, 2]
        assert replayed[-1][1].msg_id == 50
