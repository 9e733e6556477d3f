"""Tests for the adversarial ingest guard (verdicts, reordering, logs).

The guard's contract has four load-bearing clauses exercised here:

* every arrival gets exactly one verdict and the stats reconcile;
* quarantine is custody, not drop — the log replays every quarantined
  message byte-for-byte, and the fsync happens before the verdict
  returns;
* the reorder buffer re-emits within-window arrivals in date order and
  routes older ones through the deterministic late-path;
* fold decisions are journaled so WAL replay reproduces live placement.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import credibility
from repro.core.message import parse_message
from repro.reliability.faults import Fault, FaultInjector, SimulatedCrash
from repro.reliability.fsio import commit_scope
from repro.reliability import guard as guard_module
from repro.reliability.guard import (FoldLog, GuardAction, IngestGuard,
                                     QuarantineLog, Screened)
from repro.reliability.supervisor import ResilientIndexer
from tests.conftest import make_message

BASE = make_message(0, "base").date


def msg(msg_id: int, text: str, *, user: str = "alice",
        hours: float = 0.0, **kw):
    return make_message(msg_id, text, user=user, hours=hours, **kw)


def actions(entries: "list[Screened]") -> "list[GuardAction]":
    return [entry.action for entry in entries]


class TestVerdicts:
    def test_clean_in_order_traffic_passes(self):
        guard = IngestGuard()
        for i in range(5):
            entries = guard.admit(
                msg(i, f"completely distinct body number {i} about "
                       f"topic{i}", hours=i))
            assert actions(entries) == [GuardAction.PASS]
        assert guard.stats.passed == 5
        assert guard.stats.reconciles(guard.buffer_depth)

    def test_undeclared_near_dup_folds_into_known_bundle(self):
        guard = IngestGuard()
        original = msg(1, "breaking earthquake hits the coastal city "
                          "tonight residents evacuate quickly")
        [first] = guard.admit(original)
        assert first.action is GuardAction.PASS
        guard.note_result(original, bundle_id=7)
        copy = msg(2, "breaking earthquake hits the coastal city "
                      "tonight residents evacuate quickly now",
                   user="bob", hours=0.1)
        [verdict] = guard.admit(copy)
        assert verdict.action is GuardAction.FOLD
        assert verdict.bundle_id == 7
        assert guard.stats.folded == 1

    def test_near_dup_without_known_bundle_passes(self):
        # The original was never placed (e.g. shed): nothing to fold
        # into, so the copy takes the normal path.
        guard = IngestGuard()
        guard.admit(msg(1, "breaking earthquake hits the coastal city "
                           "tonight residents evacuate quickly"))
        [verdict] = guard.admit(
            msg(2, "breaking earthquake hits the coastal city tonight "
                   "residents evacuate quickly now", user="bob",
                hours=0.1))
        assert verdict.action is GuardAction.PASS

    @mock.patch.object(guard_module, "SPAM_MIN_MESSAGES", 4.0)
    @mock.patch.object(credibility, "PRIOR", 1.0)
    def test_spam_flood_is_quarantined(self):
        guard = IngestGuard()
        seed = msg(0, "win a free prize click this amazing link now")
        guard.admit(seed)
        guard.note_result(seed, bundle_id=1)
        verdicts = []
        for i in range(1, 12):
            [entry] = guard.admit(
                msg(i, "win a free prize click this amazing link now "
                       "friend", user="spammer", hours=i * 0.01))
            verdicts.append(entry.action)
        assert GuardAction.QUARANTINE in verdicts
        # Once judged, the spammer stays quarantined.
        assert verdicts[-1] is GuardAction.QUARANTINE
        [entry] = guard.admit(
            msg(99, "win a free prize click this amazing link now pal",
                user="spammer", hours=1.0))
        assert entry.action is GuardAction.QUARANTINE
        assert entry.reason == "spam"

    @mock.patch.object(guard_module, "SPAM_MIN_MESSAGES", 4.0)
    @mock.patch.object(credibility, "PRIOR", 1.0)
    def test_declared_retweets_never_count_as_spam(self):
        guard = IngestGuard()
        origin = msg(0, "major storm warning issued for the northern "
                        "valley region this evening")
        guard.admit(origin)
        guard.note_result(origin, bundle_id=3)
        for i in range(1, 12):
            [entry] = guard.admit(
                msg(i, "RT @alice: major storm warning issued for the "
                       "northern valley region this evening",
                    user="fan", hours=i * 0.01))
            # A declared reshare may fold (it *is* a near-copy) but must
            # never be quarantined as spam.
            assert entry.action in (GuardAction.FOLD, GuardAction.PASS)
        assert guard.tracker.spam_score("fan") <= 0.5

    def test_future_clock_bomb_is_quarantined_without_advancing(self):
        guard = IngestGuard()
        guard.admit(msg(1, "ordinary first message about the weather"))
        watermark_before = guard.watermark
        [entry] = guard.admit(
            msg(2, "message from the far future", hours=1000.0))
        assert entry.action is GuardAction.QUARANTINE
        assert entry.reason == "clock-skew"
        assert guard.watermark == watermark_before

    @mock.patch.object(guard_module, "REORDER_WINDOW", 3600.0)
    def test_stats_reconcile_across_mixed_traffic(self):
        guard = IngestGuard()
        texts = ["alpha beta gamma delta story {}",
                 "completely different tale number {}"]
        order = [0, 3, 1, 2, 6, 4, 5, 9, 7, 8]
        for i in order:
            guard.admit(msg(i, texts[i % 2].format(i), hours=i))
        guard.flush()
        assert guard.stats.reconciles(guard.buffer_depth)


class TestReorderBuffer:
    @mock.patch.object(guard_module, "REORDER_WINDOW", 7200.0)
    def test_within_window_arrivals_released_in_date_order(self):
        guard = IngestGuard()
        released = []

        def admit(i, hours):
            for entry in guard.admit(
                    msg(i, f"unique story number {i} entirely",
                        hours=hours)):
                if entry.action is not GuardAction.BUFFERED:
                    released.append(entry.message.msg_id)

        admit(1, 0.0)    # in order
        admit(2, 3.0)    # in order, advances clock
        admit(3, 2.0)    # out of order, within window: buffered
        admit(4, 1.5)    # same
        admit(5, 6.0)    # advances watermark past 1.5 and 2.0 → release
        for entry in guard.flush():
            released.append(entry.message.msg_id)
        assert released == [1, 2, 4, 3, 5]
        assert guard.stats.buffered == 2
        assert guard.stats.released == 2

    @mock.patch.object(guard_module, "REORDER_WINDOW", 60.0)
    def test_too_old_arrival_takes_late_path(self):
        guard = IngestGuard()
        guard.admit(msg(1, "first ordinary message", hours=10.0))
        [entry] = guard.admit(
            msg(2, "very old message arriving now", hours=0.0))
        assert entry.action is GuardAction.LATE
        assert guard.stats.late == 1

    @mock.patch.multiple(guard_module, REORDER_WINDOW=7200.0,
                         REORDER_CAPACITY=2)
    def test_buffer_overflow_evicts_oldest_first(self):
        guard = IngestGuard()
        guard.admit(msg(1, "one of a kind story", hours=3.0))
        guard.admit(msg(2, "second singular story", hours=1.0))
        guard.admit(msg(3, "third unique story", hours=2.0))
        entries = guard.admit(msg(4, "fourth original story", hours=2.5))
        # Capacity 2: admitting the third out-of-order message forces
        # the oldest buffered one (msg 2 at hour 1.0) out early.
        forced = [e for e in entries
                  if e.action is not GuardAction.BUFFERED]
        assert [e.message.msg_id for e in forced] == [2]


class TestQuarantineCustody:
    @mock.patch.object(guard_module, "SPAM_MIN_MESSAGES", 2.0)
    @mock.patch.object(credibility, "PRIOR", 0.5)
    def test_quarantine_log_replays_every_message(self, tmp_path):
        path = tmp_path / "quarantine.log"
        guard = IngestGuard(quarantine_path=path)
        quarantined = []
        for i in range(10):
            for entry in guard.admit(
                    msg(i, "identical spam payload wins big money now",
                        user="spammer", hours=i * 0.01)):
                if entry.action is GuardAction.QUARANTINE:
                    quarantined.append(entry.message)
        guard.close()
        assert quarantined, "the flood must trip the spam screen"
        replayed = list(QuarantineLog.replay(path))
        assert [m.msg_id for m, _ in replayed] == \
            [m.msg_id for m in quarantined]
        for (restored, reason), original in zip(replayed, quarantined):
            assert restored.text == original.text
            assert restored.user == original.user
            assert restored.date == original.date
            assert reason == "spam"

    def test_quarantine_survives_reopen(self, tmp_path):
        path = tmp_path / "quarantine.log"
        first = IngestGuard(quarantine_path=path)
        first.admit(msg(1, "anchor message setting the clock"))
        first.admit(msg(2, "from the distant future", hours=999.0))
        first.close()
        second = IngestGuard(quarantine_path=path)
        second.admit(msg(3, "another anchor message", hours=1.0))
        second.admit(msg(4, "also far future", hours=999.0))
        second.close()
        assert [m.msg_id for m, _ in QuarantineLog.replay(path)] == [2, 4]

    def test_replay_skips_torn_tail(self, tmp_path):
        path = tmp_path / "quarantine.log"
        guard = IngestGuard(quarantine_path=path)
        guard.admit(msg(1, "anchor message setting the clock"))
        guard.admit(msg(2, "from the distant future", hours=999.0))
        guard.close()
        with path.open("ab") as handle:
            handle.write(b"deadbeef torn")
        assert [m.msg_id for m, _ in QuarantineLog.replay(path)] == [2]

    def test_reopen_behind_a_torn_tail_keeps_the_next_record(self, tmp_path):
        path = tmp_path / "quarantine.log"
        with FaultInjector([Fault("write", nth=2, kind="torn", keep_bytes=9,
                                  path_part="quarantine.log")]):
            log = QuarantineLog(path)
            log.append(msg(1, "first verdict"), "spam")
            with pytest.raises(SimulatedCrash):
                log.append(msg(2, "torn by the crash"), "spam")
        reopened = QuarantineLog(path)
        reopened.append(msg(3, "first verdict after the restart"), "spam")
        reopened.close()
        assert [m.msg_id for m, _ in QuarantineLog.replay(path)] == [1, 3]

    def test_close_releases_the_handle_when_the_fsync_fails(self, tmp_path):
        with FaultInjector([Fault("fsync")]):
            log = QuarantineLog(tmp_path / "quarantine.log")
            with commit_scope(log):  # the append only writes; close syncs
                log.append(msg(1, "held verdict"), "spam")
                handle = log._handle
                with pytest.raises(OSError):
                    log.close()
        assert log._handle is None and handle._raw.closed
        log.close()  # idempotent


class TestFoldLog:
    def test_later_entries_win(self, tmp_path):
        path = tmp_path / "folds.log"
        log = FoldLog(path)
        log.append(5, 1, 50)
        log.append(6, 2, 60)
        log.append(5, 3, 51)
        log.close()
        assert FoldLog.load(path) == {5: (3, 51), 6: (2, 60)}

    def test_load_skips_damage(self, tmp_path):
        path = tmp_path / "folds.log"
        log = FoldLog(path)
        log.append(5, 1, 50)
        log.close()
        with path.open("ab") as handle:
            handle.write(b"garbage line\n")
            handle.write(b"00000000 7\t9\t8\n")  # bad CRC
        assert FoldLog.load(path) == {5: (1, 50)}

    def test_reopen_behind_a_torn_tail_keeps_the_next_record(self, tmp_path):
        path = tmp_path / "folds.log"
        with FaultInjector([Fault("write", nth=2, kind="torn", keep_bytes=9,
                                  path_part="folds.log")]):
            log = FoldLog(path)
            log.append(10, 1, 100)
            with pytest.raises(SimulatedCrash):
                log.append(11, 1, 110)
        reopened = FoldLog(path)
        reopened.append(12, 2, 120)
        reopened.close()
        assert list(FoldLog.load(path)) == [10, 12]

    def test_missing_file_loads_empty(self, tmp_path):
        assert FoldLog.load(tmp_path / "absent.log") == {}


class TestTightening:
    @mock.patch.multiple(guard_module, DEDUP_THRESHOLD=0.9,
                         TIGHTENED_DEDUP_THRESHOLD=0.5)
    def test_reduced_mode_swaps_thresholds(self):
        guard = IngestGuard()
        assert guard.detector.threshold == 0.9
        guard.set_tightened(True)
        assert guard.detector.threshold == 0.5
        guard.set_tightened(False)
        assert guard.detector.threshold == 0.9

    def test_tightened_config_must_not_loosen(self):
        # Tightening means catching more: lower thresholds, and the
        # detector indexes prefixes at the lowest one it switches to.
        assert (0.0 < guard_module.TIGHTENED_DEDUP_THRESHOLD
                <= guard_module.DEDUP_THRESHOLD <= 1.0)
        assert (0.0 < guard_module.TIGHTENED_SPAM_THRESHOLD
                <= guard_module.SPAM_THRESHOLD <= 1.0)


class TestSupervisorIntegration:
    def test_guarded_supervisor_counts_and_audits(self, tmp_path):
        supervisor = ResilientIndexer.open(tmp_path, guard=True)
        with supervisor:
            base = msg(0, "anchor message setting the stream clock")
            supervisor.ingest(base)
            supervisor.ingest(msg(1, "from the impossible future",
                                  hours=999.0))
            for i in range(2, 6):
                supervisor.ingest(
                    msg(i, f"organic update number {i} about topic{i}",
                        hours=0.1 * i))
        registry = supervisor.indexer.obs.registry
        assert registry.value("repro_guard_screened_total") == 6
        assert registry.value("repro_guard_quarantined_total") == 1
        assert (tmp_path / "quarantine.log").exists()
        assert [m.msg_id for m, _ in QuarantineLog.replay(
            tmp_path / "quarantine.log")] == [1]

    def test_only_open_writes_the_guard_logs(self, tmp_path):
        # docs/operations.md: open(root, guard=True) keeps quarantine.log
        # and folds.log next to the DLQ; the constructor's guard=True is
        # memory-only, even with a persistent DLQ.
        from repro.core.engine import ProvenanceIndexer
        from repro.storage.wal import JournaledIndexer, MessageJournal

        origin = msg(1, "breaking earthquake hits the coastal city "
                        "tonight residents evacuate quickly")
        arrivals = [origin, msg(2, f"{origin.text} now", user="bob",
                                hours=0.1),
                    msg(3, "from the impossible future", hours=999.0)]

        def screen(supervisor):
            with supervisor:
                for message in arrivals:
                    supervisor.ingest(message)
                stats = supervisor.guard.stats
                assert (stats.folded, stats.quarantined) == (1, 1)

        built = tmp_path / "built"
        built.mkdir()
        screen(ResilientIndexer(
            JournaledIndexer(ProvenanceIndexer(),
                             MessageJournal(built / "ingest.wal")),
            dead_letters=built / "dead_letters.jsonl", guard=True))
        assert not {"quarantine.log", "folds.log"} & {
            path.name for path in tmp_path.rglob("*")}
        opened = tmp_path / "opened"
        screen(ResilientIndexer.open(opened, guard=True))
        assert [m.msg_id for m, _ in QuarantineLog.replay(
            opened / "quarantine.log")] == [3]
        assert list(FoldLog.load(opened / "folds.log")) == [2]

    def test_fold_hints_steer_recovery(self, tmp_path):
        original = msg(1, "breaking earthquake hits the coastal city "
                          "tonight residents evacuate quickly")
        copy = msg(2, "breaking earthquake hits the coastal city "
                      "tonight residents evacuate quickly now",
                   user="bob", hours=0.1)
        with ResilientIndexer.open(tmp_path, guard=True) as supervisor:
            supervisor.ingest(original)
            supervisor.ingest(copy)
            assert supervisor.guard is not None
            assert supervisor.guard.stats.folded == 1
            live = {b.bundle_id: sorted(b.message_ids())
                    for b in supervisor.indexer.pool}
        # Crash-less close; now recover purely from disk: the fold log
        # must route msg 2 into the same bundle as the live run.
        with ResilientIndexer.open(tmp_path, guard=True) as recovered:
            state = {b.bundle_id: sorted(b.message_ids())
                     for b in recovered.indexer.pool}
        assert state == live
