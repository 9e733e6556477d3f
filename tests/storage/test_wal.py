"""Tests for the write-ahead journal and crash recovery."""

from __future__ import annotations

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import BundleError, StorageError
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

    def test_reopen_behind_a_torn_tail_keeps_the_next_record(self, tmp_path):
        """A crash mid-append leaves a fragment; the reopened journal
        terminates it, so the first record acknowledged after the
        restart is not glued onto the fragment and lost with it."""
        from repro.reliability.faults import (Fault, FaultInjector,
                                              SimulatedCrash)

        path = tmp_path / "m.wal"
        messages = stream(4)
        with FaultInjector([Fault("write", nth=3, kind="torn", keep_bytes=9,
                                  path_part="m.wal")]):
            journal = MessageJournal(path, sync_every=1)
            journal.append(messages[1])
            journal.append(messages[2])
            with pytest.raises(SimulatedCrash):
                journal.append(messages[0])
        with MessageJournal(path, sync_every=1) as reopened:
            reopened.append(messages[3])
        assert [m.msg_id for _, m in MessageJournal.replay_entries(path)] \
            == [1, 2, 3]

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

    def test_recovery_parses_each_record_once(self, tmp_path, monkeypatch):
        journaled = self._journaled(tmp_path)
        for message in stream(30):
            journaled.ingest(message)
        journaled.journal.close()
        import repro.storage.wal as wal

        calls = []
        parse = wal.decode_row
        monkeypatch.setattr(wal, "decode_row",
                            lambda *a, **kw: calls.append(1) or parse(*a, **kw))
        recovered = JournaledIndexer.recover(
            tmp_path / "state.json", tmp_path / "ingest.wal")
        assert len(calls) == 30
        assert recovered.journal.next_seq == 30
        assert recovered.indexer.stats.messages_ingested == 30

    def test_runs_equal_the_sequence(self, tmp_path):
        """Runs cut at checkpoints leave the sequence's bytes, and a
        duplicate msg_id inside one is rejected in its own slot with
        the rest of the run indexed."""
        messages = stream(25)
        messages.insert(12, messages[3])
        sequence = self._journaled(tmp_path / "a", snapshot_every=7)
        outcomes = []
        for message in messages:
            try:
                outcomes.append(sequence.ingest(message).msg_id)
            except Exception as exc:
                outcomes.append(type(exc))
        runs = self._journaled(tmp_path / "b", snapshot_every=7)
        with pytest.raises(StorageError, match="crosses the next checkpoint"):
            runs.ingest_run(messages[:8])
        got: list = []
        while len(got) < len(messages):
            run = messages[len(got):len(got) + runs.checkpoint_room]
            got += [getattr(o, "msg_id", type(o)) for o in runs.ingest_run(run)]
        assert got == outcomes
        assert outcomes[12] is BundleError
        for name in ("ingest.wal", "state.json", "state.json.seq"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

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
        handle = journal._handle
        with FaultInjector([Fault("fsync", path_part="m.wal")]):
            with pytest.raises(OSError):
                journal.close()
        assert handle.closed and journal._handle is None
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
        from repro.reliability.fsio import (check_frame, frame_line,
                                            parse_framed)

        def parse_line(line):
            return parse_framed(line, MessageJournal.parse_payload,
                                unframed=MessageJournal.unframed)

        payload = "4\t9\tann\t3.0\t\t\tstorm #red"
        framed = frame_line(payload)
        assert check_frame(framed) == payload
        (seq, message), legacy = parse_line(framed)
        assert (seq, message.msg_id, legacy) == (4, 9, False)
        assert parse_line("00000000" + framed[8:]) == (None, False)
        # All-digit prefix, payload opening with a tab: int() alone would
        # accept "12345678 " as a v0 sequence number.
        assert parse_line("12345678 \t9\tann\t3.0\t\t\tstorm") == (None,
                                                                     False)
        (seq, message), legacy = parse_line(payload)  # the v0 spelling
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
