"""Tests for the resilient ingestion supervisor."""

from __future__ import annotations

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import RetryExhaustedError
from repro.reliability.faults import Fault, FaultInjector
from repro.reliability.guard import GuardConfig, IngestGuard
from repro.reliability.overload import OverloadConfig
from repro.reliability.supervisor import DeadLetterQueue, ResilientIndexer
from repro.storage.bundle_store import BundleStore
from repro.storage.wal import JournaledIndexer, MessageJournal
from tests.conftest import BASE_DATE, make_message


def stream(count: int = 30):
    return [make_message(i, f"#topic{i % 6} message body {i}",
                         user=f"u{i % 5}", hours=i * 0.1)
            for i in range(count)]


def build(tmp_path, **kwargs) -> ResilientIndexer:
    journaled = JournaledIndexer(
        ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15)),
        MessageJournal(tmp_path / "ingest.wal", sync_every=1),
        snapshot_path=tmp_path / "state.json", snapshot_every=10_000)
    kwargs.setdefault("sleep", lambda _: None)
    return ResilientIndexer(journaled, **kwargs)


class TestRetry:
    def test_transient_write_failure_is_retried(self, tmp_path):
        slept = []
        with FaultInjector([Fault(op="write", nth=4, kind="error",
                                  path_part=".wal")]):
            supervisor = build(tmp_path, sleep=slept.append)
            for message in stream(10):
                assert supervisor.ingest(message) is not None
        assert supervisor.stats.retries == 1
        assert supervisor.stats.ingested == 10
        assert supervisor.indexer.stats.messages_ingested == 10
        assert slept == [supervisor.backoff_base]

    def test_backoff_grows_exponentially(self, tmp_path):
        slept = []
        faults = [Fault(op="write", nth=n, kind="error", path_part=".wal")
                  for n in (3, 4, 5)]  # three consecutive failures
        with FaultInjector(faults):
            supervisor = build(tmp_path, sleep=slept.append,
                               backoff_base=0.1, backoff_factor=2.0)
            for message in stream(5):
                supervisor.ingest(message)
        assert slept == [0.1, 0.2, 0.4]
        assert supervisor.stats.backoff_seconds == pytest.approx(0.7)

    def test_retry_budget_exhausts(self, tmp_path):
        faults = [Fault(op="write", nth=n, kind="error", path_part=".wal")
                  for n in range(1, 10)]
        with FaultInjector(faults):
            supervisor = build(tmp_path, max_retries=2)
            with pytest.raises(RetryExhaustedError):
                supervisor.ingest(stream(1)[0])
        assert supervisor.stats.retries == 2

    def test_failed_checkpoint_is_deferred_not_doubled(self, tmp_path):
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15)),
            MessageJournal(tmp_path / "ingest.wal", sync_every=1),
            snapshot_path=tmp_path / "state.json", snapshot_every=5)
        with FaultInjector([Fault(op="replace", nth=1, kind="error",
                                  path_part="state.json")]):
            supervisor = ResilientIndexer(journaled, sleep=lambda _: None)
            for message in stream(12):
                assert supervisor.ingest(message) is not None
        assert supervisor.stats.deferred_checkpoints == 1
        # no double-apply: every message indexed exactly once
        assert supervisor.indexer.stats.messages_ingested == 12
        # the next threshold crossing retried the checkpoint successfully
        assert (tmp_path / "state.json").exists()


class TestReleaseAborted:
    """A failure part-way through a reorder release loses no arrival.

    ``guard.admit`` / ``guard.flush`` pop released messages from the
    reorder buffer before the supervisor applies them, so when one of
    them exhausts its retries the ones behind it are in no ledger —
    they must be dead-lettered before the error propagates.
    """

    @pytest.mark.parametrize("via", ["arrival", "flush_guard"])
    def test_wal_enospc_mid_release_conserves_arrivals(self, tmp_path, via):
        def story(i, hours):
            return make_message(i, f"unique story number {i} entirely",
                                hours=hours)

        # One WAL write per indexed message: 1 and 2 land, then ENOSPC
        # outlasts the retry budget of the first released message.
        faults = [Fault(op="write", nth=n, kind="error", path_part=".wal")
                  for n in range(3, 12)]
        with FaultInjector(faults):
            supervisor = build(
                tmp_path, max_retries=2,
                guard=IngestGuard(GuardConfig(reorder_window=7200.0)))
            assert supervisor.ingest(story(1, 0.0)) is not None
            assert supervisor.ingest(story(2, 3.0)) is not None
            assert supervisor.ingest(story(3, 2.0)) is None   # buffered
            assert supervisor.ingest(story(4, 1.5)) is None   # buffered
            offered = {1, 2, 3, 4}
            with pytest.raises(RetryExhaustedError, match="message 4"):
                if via == "arrival":
                    offered.add(5)   # releases 4, 3, then itself
                    supervisor.ingest(story(5, 6.0))
                else:
                    supervisor.flush_guard()
        guard = supervisor.guard
        assert guard.buffer_depth == 0
        assert guard.stats.reconciles(0)
        indexed = {m for bundle in supervisor.indexer.pool
                   for m in bundle.message_ids()}
        aborted = [letter for letter in supervisor.dead_letters
                   if letter.reason == "release-aborted"]
        dead = {int(letter.payload.split("msg_id=")[1].split(",")[0])
                for letter in aborted}
        assert indexed == {1, 2}
        assert dead == offered - {1, 2, 4}
        assert supervisor.stats.dead_lettered == len(dead)
        # Every offered id is in exactly one place: the index, the DLQ,
        # or the exception the caller caught (message 4).
        assert indexed | dead | {4} == offered
        assert all("message 4" in letter.error for letter in aborted)


class TestDeadLetters:
    def test_malformed_records_are_quarantined(self, tmp_path):
        supervisor = build(tmp_path)
        records = list(stream(10))
        records.insert(3, (1000, "", 3600.0, "empty user"))
        records.insert(7, (1001, "bob", "not-a-date", "bad date"))
        records.insert(9, ("huh", {}, None))  # not even a 4-tuple
        # a 6-tuple carries ground truth (event_id, parent_id)
        records.append((1002, "carol", BASE_DATE + 7200.0,
                        "#topic1 labelled", 7, 3))
        indexed = supervisor.ingest_stream(records)
        assert indexed == 11
        labelled = [bundle.get(1002)
                    for bundle in supervisor.indexer.bundles()
                    if 1002 in bundle]
        assert [(m.event_id, m.parent_id) for m in labelled] == [(7, 3)]
        assert supervisor.stats.dead_lettered == 3
        reasons = [letter.reason for letter in supervisor.dead_letters]
        assert reasons == ["parse-failed", "parse-failed",
                           "unrecognized-record"]
        assert all(letter.error for letter in supervisor.dead_letters)

    def test_negative_ids_and_dates_are_poison(self, tmp_path):
        supervisor = build(tmp_path)
        assert supervisor.ingest_raw(-1, "alice", 0.0, "negative id") is None
        assert supervisor.ingest_raw(1, "alice", -5.0, "negative date") is None
        assert len(supervisor.dead_letters) == 2

    def test_dead_letter_queue_persists_and_drains(self, tmp_path):
        dlq_path = tmp_path / "dead.jsonl"
        supervisor = build(tmp_path, dead_letters=dlq_path)
        supervisor.ingest_raw(5, "", 0.0, "poison")
        assert dlq_path.exists()
        reloaded = DeadLetterQueue(dlq_path)
        assert len(reloaded) == 1
        assert reloaded.entries()[0].reason == "parse-failed"
        drained = reloaded.drain()
        assert len(drained) == 1
        assert len(reloaded) == 0
        assert DeadLetterQueue(dlq_path).entries() == []

    def test_poison_does_not_stop_the_stream(self, tmp_path):
        supervisor = build(tmp_path)
        records = []
        for index, message in enumerate(stream(20)):
            records.append(message)
            if index % 4 == 0:
                records.append((index + 500, "", "nan", "junk"))
        indexed = supervisor.ingest_stream(records)
        assert indexed == 20
        assert supervisor.stats.dead_lettered == 5
        assert supervisor.indexer.stats.messages_ingested == 20


class TestDegradedMode:
    def test_shedding_brings_memory_under_low_watermark(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.full_index(), store=store),
            MessageJournal(tmp_path / "ingest.wal", sync_every=64))
        supervisor = ResilientIndexer(
            journaled, sleep=lambda _: None,
            high_watermark_bytes=30_000, low_watermark_bytes=15_000)
        for message in stream(120):
            supervisor.ingest(message)
        pool = supervisor.indexer.pool
        assert supervisor.stats.degraded_entries > 0
        assert supervisor.stats.shed_bundles > 0
        assert supervisor.stats.shed_bytes > 0
        assert pool.approximate_memory_bytes() <= 30_000
        # shed bundles were spilled to the store, not dropped
        assert store.append_count >= supervisor.stats.shed_bundles

    def test_shed_bundles_are_closed_and_stored(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.full_index(), store=store),
            MessageJournal(tmp_path / "ingest.wal", sync_every=64))
        supervisor = ResilientIndexer(
            journaled, sleep=lambda _: None, high_watermark_bytes=20_000)
        for message in stream(100):
            supervisor.ingest(message)
        assert supervisor.stats.shed_bundles > 0
        assert store.append_count >= supervisor.stats.shed_bundles
        for bundle in store.iter_bundles():
            assert bundle.closed

    def test_low_watermark_defaults_to_half(self, tmp_path):
        supervisor = build(tmp_path, high_watermark_bytes=1000)
        assert supervisor.low_watermark_bytes == 500

    def test_inverted_watermarks_rejected(self, tmp_path):
        from repro.core.errors import StorageError

        with pytest.raises(StorageError):
            build(tmp_path, high_watermark_bytes=100,
                  low_watermark_bytes=200)

    def test_no_watermark_means_no_shedding(self, tmp_path):
        supervisor = build(tmp_path)
        for message in stream(50):
            supervisor.ingest(message)
        assert supervisor.stats.degraded_entries == 0
        assert supervisor.stats.shed_bundles == 0


class TestMixedPoisonStream:
    """One stream carrying every poison species the crawl produces."""

    def records(self):
        good = stream(12)
        records: list = []
        for index, message in enumerate(good):
            records.append(message)
            if index == 2:   # malformed date
                records.append((900, "carol", "yesterday", "bad date"))
            if index == 5:   # non-UTF-8 bytes from a broken crawler
                records.append((901, "dave", 7200.0, b"caf\xe9 \xff\xfe"))
            if index == 8:   # duplicate msg_id, same thread
                records.append(good[0])
        return records

    def test_each_species_lands_with_its_reason(self, tmp_path):
        supervisor = build(tmp_path)
        indexed = supervisor.ingest_stream(self.records())
        assert indexed == 12
        assert supervisor.stats.dead_lettered == 3
        reasons = [letter.reason for letter in supervisor.dead_letters]
        assert reasons == ["parse-failed", "parse-failed", "index-rejected"]
        # The non-UTF-8 record dead-lettered as bytes, not as mojibake.
        assert "caf" in supervisor.dead_letters.entries()[1].payload

    def test_accounting_reconciles(self, tmp_path):
        supervisor = build(tmp_path)
        records = self.records()
        indexed = supervisor.ingest_stream(records)
        assert indexed + supervisor.stats.dead_lettered == len(records)
        assert supervisor.indexer.stats.messages_ingested == indexed

    def test_poison_storm_under_load_regulation(self, tmp_path):
        from repro.reliability.overload import OverloadConfig

        supervisor = build(tmp_path,
                           overload=OverloadConfig(rate_limit=None))
        indexed = supervisor.ingest_stream(self.records())
        assert indexed == 12
        assert supervisor.stats.dead_lettered == 3
        report = supervisor.health_report()
        assert report is not None
        assert report.reconciles
        # Raw tuples are parsed (and possibly quarantined) before
        # admission, so only the 12 good messages plus the duplicate
        # were offered; the admitted-then-rejected duplicate counts as
        # load but not as a per-mode ingest.
        assert report.admission.admitted == 13
        assert sum(report.mode_ingests.values()) == 12


class TestDrainCrashSafety:
    """DLQ drain is all-or-nothing on disk (write-then-rename)."""

    def populated(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        queue = DeadLetterQueue(path)
        for i in range(3):
            queue.append("parse-failed", f"boom {i}", ("raw", i))
        return path, queue

    def test_crash_before_rename_keeps_every_letter(self, tmp_path):
        from repro.reliability.faults import SimulatedCrash

        path, queue = self.populated(tmp_path)
        with FaultInjector([Fault(op="replace", nth=1, kind="crash_before",
                                  path_part="dead.jsonl")]):
            with pytest.raises(SimulatedCrash):
                queue.drain()
        # Nothing was drained: disk and a post-reboot reload agree.
        reloaded = DeadLetterQueue(path)
        assert len(reloaded) == 3
        assert [letter.error for letter in reloaded] == [
            "boom 0", "boom 1", "boom 2"]

    def test_crash_after_rename_shows_a_complete_drain(self, tmp_path):
        from repro.reliability.faults import SimulatedCrash

        path, queue = self.populated(tmp_path)
        with FaultInjector([Fault(op="replace", nth=1, kind="crash_after",
                                  path_part="dead.jsonl")]):
            with pytest.raises(SimulatedCrash):
                queue.drain()
        assert DeadLetterQueue(path).entries() == []

    def test_clean_drain_returns_and_clears(self, tmp_path):
        path, queue = self.populated(tmp_path)
        drained = queue.drain()
        assert [letter.error for letter in drained] == [
            "boom 0", "boom 1", "boom 2"]
        assert len(queue) == 0
        assert DeadLetterQueue(path).entries() == []


class TestRecoverSkipsPoison:
    def test_journaled_poison_does_not_abort_replay(self, tmp_path):
        # WAL ordering journals the record *before* the engine rejects
        # it, so a duplicate sits in the journal.  Recovery must skip
        # it, not die on its own log.
        supervisor = build(tmp_path)
        messages = stream(6)
        for message in messages:
            supervisor.ingest(message)
        assert supervisor.ingest(messages[0]) is None   # dead-lettered
        assert supervisor.stats.dead_lettered == 1
        supervisor.journaled.journal.close()

        recovered = JournaledIndexer.recover(
            None, tmp_path / "ingest.wal",
            config=IndexerConfig.partial_index(pool_size=15))
        assert recovered.indexer.stats.messages_ingested == 6


class TestLifecycle:
    def test_context_manager_checkpoints_on_clean_exit(self, tmp_path):
        with build(tmp_path) as supervisor:
            for message in stream(8):
                supervisor.ingest(message)
        assert (tmp_path / "state.json").exists()
        recovered = JournaledIndexer.recover(
            tmp_path / "state.json", tmp_path / "ingest.wal")
        assert recovered.indexer.stats.messages_ingested == 8

    def test_close_is_idempotent(self, tmp_path):
        supervisor = build(tmp_path)
        supervisor.ingest(stream(1)[0])
        supervisor.close()
        supervisor.close()

    def test_close_after_a_failed_final_checkpoint_can_be_retried(
            self, tmp_path):
        """ENOSPC on the last snapshot must not make close() a no-op:
        the first call raises with the journal handle released, the
        second (fault gone) writes the checkpoint."""
        supervisor = ResilientIndexer.open(tmp_path, guard=GuardConfig())
        supervisor.ingest_batch(stream(12))
        edges = supervisor.edge_pairs()
        journal = supervisor.journaled.journal
        with FaultInjector([Fault("write", path_part="state.snapshot")]):
            with pytest.raises(OSError):
                supervisor.close()
        assert journal._handle.closed
        assert not (tmp_path / "state.snapshot").exists()
        supervisor.close()
        assert (tmp_path / "state.snapshot").exists()
        assert journal._closed and journal._handle.closed
        assert (tmp_path / "ingest.wal").read_bytes() == b""
        checkpoint = (tmp_path / "state.snapshot").read_bytes()
        supervisor.close()  # a successful close is not re-run
        assert (tmp_path / "state.snapshot").read_bytes() == checkpoint
        with ResilientIndexer.open(tmp_path, guard=GuardConfig()) as reopened:
            assert reopened.edge_pairs() == edges
            assert reopened.indexer.stats.messages_ingested == 12

    @pytest.mark.parametrize("overload", [None, OverloadConfig()])
    def test_exit_releases_the_spill_segment(self, tmp_path, overload):
        # With admission on, the store sits behind the breaker's sink.
        with ResilientIndexer.open(
                tmp_path, config=IndexerConfig.partial_index(pool_size=5),
                overload=overload) as supervisor:
            for message in stream(60):
                supervisor.ingest(message)
            store = supervisor.indexer.store
            store = getattr(store, "sink", store)
            assert store.append_count > 0
            assert store._handle is not None
        assert store._handle is None
        assert BundleStore(tmp_path / "bundles").bundle_ids() == \
            store.bundle_ids()
