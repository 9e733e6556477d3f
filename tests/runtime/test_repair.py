"""Cross-shard edge repair: journals, reconciliation, crash matrix.

The load-bearing suite is :class:`TestCrashMatrix`: it SIGKILLs a
worker at every stage of a reconciliation round (``drained`` /
``scored`` / ``applied``) and proves the interrupted fleet converges to
the byte-identical edge set of an uninterrupted twin — no acknowledged
edge lost, no duplicate or phantom edges created.  The guarantees under
test: boundary entries are fsynced before the ingest ACK, repairs are
journaled (fsynced) before they touch the ledger, ``apply_repair`` is
idempotent, and the durable cursor only advances after a fully
successful shard round.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.message import parse_message
from repro.core.metrics import compare_edge_sets
from repro.core.sharding import CooccurrenceRouter
from repro.runtime import (BoundaryEntry, BoundaryLog, RepairEntry,
                           RepairJournal, ShardedRuntime, merge_worker_dumps,
                           scan_fleet_repair)
from repro.stream.generator import StreamConfig, StreamGenerator

BASE_DATE = 1_249_084_800.0
WORKERS = 3


def _message(msg_id=1, user="alice", offset=0.0,
             text="#quake tremor felt downtown"):
    return parse_message(msg_id, user, BASE_DATE + offset, text)


@pytest.fixture(scope="module")
def messages():
    """A realistic cascade-heavy stream (retweets, shared hashtags)."""
    generator = StreamGenerator(StreamConfig(seed=11))
    return list(itertools.islice(iter(generator), 600))


@pytest.fixture(scope="module")
def reference(tmp_path_factory, messages):
    """Edge set of an uninterrupted fleet after full reconciliation."""
    root = tmp_path_factory.mktemp("reference")
    with ShardedRuntime(root, WORKERS, router="cooccurrence") as runtime:
        runtime.ingest_stream(messages, batch_size=128)
        runtime.repair_until_clean()
        return runtime.edge_pairs()


class TestEntryRoundTrip:
    def test_boundary_entry_survives_tabs_and_newlines(self):
        entry = BoundaryEntry(seq=7, msg_id=42, user="ali\tce",
                              date=BASE_DATE + 0.5,
                              text="line one\nline\ttwo \\ three",
                              peers=(0, 2), dst=9, score=1.25)
        assert BoundaryEntry.parse(entry.payload()) == entry

    def test_boundary_entry_no_parent(self):
        entry = BoundaryEntry(seq=1, msg_id=5, user="bob", date=BASE_DATE,
                              text="orphan", peers=(1,), dst=None,
                              score=0.0)
        parsed = BoundaryEntry.parse(entry.payload())
        assert parsed.dst is None
        assert parsed == entry

    def test_repair_entry_round_trip(self):
        entry = RepairEntry(seq=3, src=10, old_dst=None, new_dst=4,
                            score=2.5)
        assert RepairEntry.parse(entry.payload()) == entry
        moved = RepairEntry(seq=4, src=10, old_dst=4, new_dst=6, score=3.0)
        assert RepairEntry.parse(moved.payload()) == moved


class TestBoundaryLog:
    def _append(self, log, n, start=0):
        entries = []
        for i in range(start, start + n):
            entries.append(log.append(_message(msg_id=i, offset=float(i)),
                                      peers=(1, 2), dst=None, score=0.0))
        log.sync()
        return entries

    def test_append_sync_reload(self, tmp_path):
        log = BoundaryLog(tmp_path)
        self._append(log, 3)
        log.close()
        reopened = BoundaryLog(tmp_path)
        assert reopened.pending_count == 3
        assert [e.msg_id for e in reopened.pending()] == [0, 1, 2]
        reopened.close()

    def test_advance_is_durable_and_prunes(self, tmp_path):
        log = BoundaryLog(tmp_path)
        entries = self._append(log, 3)
        log.advance(entries[1].seq)
        assert [e.msg_id for e in log.pending()] == [2]
        log.close()
        reopened = BoundaryLog(tmp_path)
        assert [e.msg_id for e in reopened.pending()] == [2]
        reopened.close()

    def test_compact_keeps_pending_and_seqs(self, tmp_path):
        log = BoundaryLog(tmp_path)
        entries = self._append(log, 4)
        log.advance(entries[2].seq)
        log.compact()
        log.close()
        reopened = BoundaryLog(tmp_path)
        pending = reopened.pending()
        assert [e.seq for e in pending] == [entries[3].seq]
        # New appends keep monotonically increasing sequence numbers.
        fresh = reopened.append(_message(msg_id=99), peers=(0,),
                                dst=None, score=0.0)
        assert fresh.seq > entries[3].seq
        reopened.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        log = BoundaryLog(tmp_path)
        self._append(log, 2)
        log.close()
        path = tmp_path / "boundary.log"
        with path.open("ab") as handle:
            handle.write(b"deadbeef\tgarbage without a frame\n")
        reopened = BoundaryLog(tmp_path)
        assert reopened.pending_count == 2
        reopened.close()


class TestIngestHandler:
    def test_failed_batch_keeps_the_hints_of_what_it_indexed(self, tmp_path):
        """Retries exhausted mid-batch: the arrivals journaled and
        indexed before the failure still get their boundary records."""
        from repro.core.errors import RetryExhaustedError
        from repro.reliability.faults import Fault, FaultInjector
        from repro.reliability.supervisor import ResilientIndexer
        from repro.runtime.worker import _handle_ingest

        batch = [_message(msg_id=i, offset=float(i), text=f"#quake note {i}")
                 for i in range(8)]
        faults = [Fault(op="write", nth=n, kind="error", path_part=".wal")
                  for n in range(6, 30)]
        with FaultInjector(faults):
            supervisor = ResilientIndexer.open(tmp_path, sleep=lambda _: None)
            boundary = BoundaryLog(tmp_path)
            with pytest.raises(RetryExhaustedError):
                _handle_ingest(supervisor, boundary, batch, True,
                               [(position, (1,)) for position in range(8)])
        assert [entry.msg_id for entry in boundary.pending()] == [0, 1, 2, 3, 4]
        assert supervisor.stats.ingested == 5
        boundary.close()
        supervisor.journaled.journal.close()


class TestRepairJournal:
    def _engine(self):
        engine = ProvenanceIndexer(IndexerConfig())
        # Seed the ledger directly through the idempotent repair path.
        assert engine.repair_edge(5, None, 3)
        return engine

    def test_record_reload_replay(self, tmp_path):
        journal = RepairJournal(tmp_path)
        journal.record(5, 3, 7, 2.0)
        journal.close()
        engine = self._engine()
        reopened = RepairJournal(tmp_path)
        assert reopened.replay(engine) == 1
        assert engine.has_edge(5, 7)
        assert not engine.has_edge(5, 3)
        reopened.close()

    def test_replay_is_idempotent(self, tmp_path):
        journal = RepairJournal(tmp_path)
        journal.record(5, 3, 7, 2.0)
        engine = self._engine()
        journal.replay(engine)
        # A second replay (double restart) changes nothing: the new
        # edge is already installed, so match-on-old fails cleanly.
        assert journal.replay(engine) == 0
        assert engine.edge_pairs() == {(5, 7)}
        journal.close()

    def test_crash_between_record_and_apply(self, tmp_path):
        # WAL discipline: the journal entry hits disk before the ledger
        # mutation.  Simulate the SIGKILL window between the two — the
        # engine still holds the old edge, the journal already holds the
        # repair — and verify replay completes the repair exactly once.
        journal = RepairJournal(tmp_path)
        journal.record(5, 3, 7, 2.0)
        journal.close()
        engine = self._engine()  # old edge (5, 3) as at ingest time
        replayer = RepairJournal(tmp_path)
        assert replayer.replay(engine) == 1
        assert engine.edge_pairs() == {(5, 7)}
        replayer.close()

    def test_reopen_behind_a_torn_tail_keeps_every_later_repair(
            self, tmp_path):
        """The reopened journal terminates the crash's fragment, and the
        fragment, now interior damage, hides none of the records after
        it: each carries its own CRC."""
        from repro.reliability.faults import (Fault, FaultInjector,
                                              SimulatedCrash)

        with FaultInjector([Fault("write", nth=2, kind="torn", keep_bytes=9,
                                  path_part="repairs.log")]):
            journal = RepairJournal(tmp_path)
            journal.record(5, None, 1, 2.0)
            with pytest.raises(SimulatedCrash):
                journal.record(7, None, 1, 2.0)
        reopened = RepairJournal(tmp_path)
        reopened.record(6, None, 1, 2.0)
        reopened.record(9, None, 1, 2.0)
        reopened.close()
        replayer = RepairJournal(tmp_path)
        assert [e.src for e in replayer.entries] == [5, 6, 9]
        replayer.close()


class TestRouterHints:
    def test_same_component_sticks_without_boundary(self):
        router = CooccurrenceRouter(4)
        first = router.route_with_hint(
            _message(msg_id=1, user="ann", text="#storm landfall"))
        second = router.route_with_hint(
            _message(msg_id=2, user="joe", offset=5.0,
                     text="#storm surge rising"))
        assert second.shard == first.shard
        assert not second.boundary

    def test_component_merge_emits_peer_hint(self):
        router = CooccurrenceRouter(4)
        seen = {}
        # Grow disjoint single-tag components until two land on
        # different shards, then bridge them with one message.
        for i in range(64):
            decision = router.route_with_hint(
                _message(msg_id=i, user=f"u{i}", offset=float(i),
                         text=f"#t{i} isolated story"))
            seen[f"t{i}"] = decision.shard
            tags = list(seen)
            split = [(a, b) for a in tags for b in tags
                     if seen[a] != seen[b]]
            if split:
                left, right = split[0]
                bridge = router.route_with_hint(
                    _message(msg_id=1000, user="bridge", offset=99.0,
                             text=f"#{left} meets #{right}"))
                assert bridge.boundary
                assert bridge.peers
                assert bridge.shard not in bridge.peers
                return
        pytest.fail("router never spread components over two shards")


class TestRepairPipeline:
    def test_reconciliation_drains_and_converges(self, tmp_path, messages):
        root = tmp_path / "fleet"
        with ShardedRuntime(root, WORKERS,
                            router="cooccurrence") as runtime:
            runtime.ingest_stream(messages, batch_size=128)
            assert runtime.stats.boundary_hints > 0
            pending_before = sum(
                payload["repair"]["boundary_pending"]
                for payload in runtime.shard_stats().values())
            assert pending_before == runtime.stats.boundary_hints
            report = runtime.repair_until_clean()
            assert report["advanced"] == pending_before
            edges = runtime.edge_pairs()
            registry = merge_worker_dumps(runtime.telemetry_dumps())
            assert registry.value("repro_fleet_edge_coverage") == 1.0
        scans = scan_fleet_repair(root)
        assert scans and all(s.healthy for s in scans.values())
        # Repair may move an edge to a better parent but never
        # duplicates one: each non-root message has at most one parent.
        srcs = [src for src, _ in edges]
        assert len(srcs) == len(set(srcs))

    def test_hash_router_emits_no_hints(self, tmp_path, messages):
        with ShardedRuntime(tmp_path / "fleet", WORKERS,
                            router="hash") as runtime:
            runtime.ingest_stream(messages[:200], batch_size=128)
            assert runtime.stats.boundary_hints == 0
            report = runtime.repair_pass()
            assert report == {"pending": 0, "probed": 0, "repaired": 0,
                              "advanced": 0}


class TestRepairCli:
    """``repro doctor --fleet ROOT --repair`` drains a fleet's backlog."""

    def test_rejects_non_fleet_root(self, tmp_path, messages, capsys):
        # Without its marker the fleet cannot be reopened: the backlog
        # stays, and the exit code says so.
        from repro import cli

        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2, router="cooccurrence") as runtime:
            runtime.ingest_stream(messages[:300], batch_size=64)
        (root / "runtime.json").unlink()
        pending = sum(s.pending for s in scan_fleet_repair(root).values())
        assert pending > 0
        assert cli.main(["doctor", "--fleet", str(root), "--repair"]) == 1
        assert "runtime.json" in capsys.readouterr().out
        assert sum(s.pending
                   for s in scan_fleet_repair(root).values()) == pending

    def test_drains_backlog_and_reports(self, tmp_path, messages, capsys):
        from repro import cli

        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2, router="cooccurrence") as runtime:
            runtime.ingest_stream(messages[:300], batch_size=64)
            hints = runtime.stats.boundary_hints
        assert hints > 0
        assert cli.main(["doctor", "--fleet", str(root), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "orphaned boundary entries" in out
        assert "0 orphan(s) left" in out
        scans = scan_fleet_repair(root)
        assert all(scan.pending == 0 for scan in scans.values())

    def test_search_reopens_with_marker_router(self, tmp_path, messages,
                                               capsys):
        # `repro search fleet/` must honour the fleet's router marker —
        # a cooccurrence fleet used to refuse with a router mismatch.
        from repro import cli

        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2, router="cooccurrence") as runtime:
            runtime.ingest_stream(messages[:200], batch_size=64)
        code = cli.main(["search", str(root), "breaking report"])
        captured = capsys.readouterr()
        assert code in (0, 1)  # hits or no hits — never a router error
        assert "router" not in captured.err


class TestCrashMatrix:
    """SIGKILL at every reconciliation stage: the fleet still converges.

    ``drained``: the backlog was read but nothing applied — the cursor
    never moved, the whole round replays.  ``scored``: repairs are
    decided but not installed — same.  ``applied``: repairs are
    journaled and installed but the cursor did not advance — the round
    replays and every ``apply_repair`` is a detected duplicate.
    """

    @pytest.mark.parametrize("stage", [
        pytest.param("drained", marks=pytest.mark.chaos),
        pytest.param("scored", marks=pytest.mark.chaos),
        "applied",
    ])
    def test_sigkill_mid_reconciliation(self, stage, tmp_path, messages,
                                        reference):
        root = tmp_path / "interrupted"
        killed = []
        with ShardedRuntime(root, WORKERS,
                            router="cooccurrence") as runtime:
            runtime.ingest_stream(messages, batch_size=128)
            acked = runtime.edge_pairs()

            def hook(fired_stage, shard):
                if fired_stage == stage and not killed:
                    killed.append(shard)
                    runtime.kill_worker(shard)

            runtime.repair_until_clean(fault_hook=hook)
            assert killed, "fault hook never fired — no boundary backlog"
            assert runtime.stats.restarts >= 1
            # Converge without further faults; idempotence means the
            # replayed round cannot double-install anything.
            runtime.repair_until_clean()
            survivors = runtime.edge_pairs()
        scans = scan_fleet_repair(root)

        assert survivors == reference
        srcs = [src for src, _ in survivors]
        assert len(srcs) == len(set(srcs))
        # Every message that had an acknowledged edge before the kill
        # still has exactly one (possibly repaired to a better parent).
        assert {src for src, _ in acked} <= set(srcs)
        assert compare_edge_sets(survivors, reference).coverage == 1.0
        assert all(scan.pending == 0 for scan in scans.values())
