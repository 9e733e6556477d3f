"""The multiprocess runtime: parity, durability under SIGKILL, recovery.

The load-bearing test is :class:`TestCrashDurability` — it SIGKILLs a
worker mid-stream and proves (via ``compare_edge_sets`` against an
uninterrupted fleet) that no *acknowledged* edge is lost: the worker
fsyncs its WAL before every ACK, and the restarted process replays the
tail.
"""

from __future__ import annotations

import pytest

from repro.core.message import parse_message
from repro.core.metrics import compare_edge_sets
from repro.core.errors import ConfigurationError
from repro.runtime import (ShardedRuntime, WorkerCrash, fleet_table,
                           merge_worker_dumps)
from tests.sharding_oracle import RoutedEngines

BASE_DATE = 1_249_084_800.0


def stream(count, start=0):
    """Deterministic mixed stream: originals and retweet chains."""
    out = []
    for i in range(start, start + count):
        user = f"u{i % 23}"
        if i % 3 == 1:
            text = f"RT @u{(i - 1) % 23}: #tag{i % 7} report {i - 1}"
        else:
            text = f"#tag{i % 7} report {i}"
        out.append(parse_message(i, user, BASE_DATE + i * 2.0, text))
    return out


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """One shared 2-worker fleet, preloaded with 240 messages."""
    root = tmp_path_factory.mktemp("fleet")
    runtime = ShardedRuntime(root, 2)
    runtime.ingest_stream(stream(240), batch_size=40)
    yield runtime
    runtime.close()


class TestParity:
    """The fleet must agree with the in-process routed-engines oracle."""

    def test_edges_match_inprocess(self, fleet):
        local = RoutedEngines(2, "hash").ingest_each(stream(240))
        assert fleet.edge_pairs() == local.edge_pairs()

    def test_stats_match_inprocess(self, fleet):
        local = RoutedEngines(2, "hash").ingest_each(stream(240))
        assert fleet.stats_totals() == local.stats()

    def test_search_matches_inprocess(self, fleet):
        local = RoutedEngines(2, "hash").ingest_each(stream(240))
        fleet_hits = [(shard, hit.bundle_id, hit.score) for shard, hit
                      in fleet.search_by_shard("#tag3 report", k=5)]
        local_hits = [(shard, hit.bundle_id, hit.score) for shard, hit
                      in local.search_by_shard("#tag3 report", k=5)]
        assert fleet_hits == local_hits

    def test_snapshot_sums_fleet(self, fleet):
        snap = fleet.snapshot()
        assert snap.message_count == 240
        assert snap.pool_bytes > 0

    def test_budgeted_search_covers_fleet(self, fleet):
        outcome = fleet.search_within("#tag3 report", k=5,
                                      budget_seconds=5.0)
        assert outcome.hits
        assert not outcome.partial
        assert outcome.coverage == 1.0

    def test_exhausted_budget_is_partial(self, fleet):
        outcome = fleet.search_within("#tag3 report", k=5,
                                      budget_seconds=0.0)
        assert outcome.partial
        assert outcome.hits == []
        assert fleet.stats.shards_skipped_by_budget >= 2


class TestCrashDurability:
    """SIGKILL a worker mid-stream: zero acknowledged edges lost."""

    def test_kill_and_restart_loses_no_acknowledged_edges(self, tmp_path):
        first, second = stream(160), stream(160, start=160)

        with ShardedRuntime(tmp_path / "interrupted", 2) as interrupted:
            interrupted.ingest_batch(first, count_only=True)
            acked_edges = interrupted.edge_pairs()
            interrupted.kill_worker(0)
            # The crash surfaces on the next touch of shard 0, the
            # batch is retried against the restarted worker; duplicate
            # re-sends of already-indexed messages are dead-lettered by
            # the worker, never double-indexed.
            for attempt in range(4):
                try:
                    interrupted.ingest_batch(second, count_only=True)
                    break
                except WorkerCrash:
                    continue
            else:
                pytest.fail("worker never came back after restart")
            assert interrupted.stats.restarts >= 1
            survivors = interrupted.edge_pairs()

        with ShardedRuntime(tmp_path / "uninterrupted", 2) as clean:
            clean.ingest_batch(first + second, count_only=True)
            reference = clean.edge_pairs()

        # Every edge acknowledged before the kill survived the replay...
        assert compare_edge_sets(survivors, acked_edges).coverage == 1.0
        # ...and the interrupted fleet converged on the clean run.
        comparison = compare_edge_sets(survivors, reference)
        assert comparison.coverage == 1.0
        assert survivors == reference

    def test_restart_accounts_lost_inflight(self, tmp_path):
        with ShardedRuntime(tmp_path / "fleet", 2) as runtime:
            runtime.ingest_batch(stream(40), count_only=True)
            runtime.kill_worker(1)
            with pytest.raises(WorkerCrash):
                # Routed at shard 1 ("t:tag0" hashes there with 2
                # shards); the send fails and the batch is counted lost.
                while True:
                    runtime.ingest_batch(stream(40), count_only=True)
            assert runtime.stats.restarts == 1


class TestRecovery:
    """Closing and reopening a fleet root restores every shard."""

    def test_reopen_preserves_state(self, tmp_path):
        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_stream(stream(120), batch_size=30)
            edges = runtime.edge_pairs()
            totals = runtime.stats_totals()
        with ShardedRuntime(root, 2) as reopened:
            assert reopened.edge_pairs() == edges
            assert reopened.stats_totals() == totals

    def test_reopen_with_wrong_worker_count_refuses(self, tmp_path):
        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_batch(stream(10), count_only=True)
        with pytest.raises(ConfigurationError, match="workers"):
            ShardedRuntime(root, 3)

    def test_reopen_with_wrong_router_refuses(self, tmp_path):
        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_batch(stream(10), count_only=True)
        with pytest.raises(ConfigurationError, match="router"):
            ShardedRuntime(root, 2, router="cooccurrence")


class TestFleetTelemetry:
    def test_merged_registry_has_shard_labels_and_totals(self, fleet):
        registry = merge_worker_dumps(fleet.telemetry_dumps())
        total = registry.value("repro_messages_ingested_total")
        assert total >= 240
        per_shard = [registry.value("repro_messages_ingested_total",
                                    {"shard": str(shard)})
                     for shard in range(2)]
        assert sum(per_shard) == total
        assert all(count > 0 for count in per_shard)

    def test_mode_gauges_not_aggregated(self, fleet):
        registry = merge_worker_dumps(fleet.telemetry_dumps())
        # Shard ids exist per shard but summing them would be nonsense,
        # so no unlabeled aggregate series is created.
        assert registry.find("repro_shard_id", {"shard": "1"}) is not None
        assert registry.find("repro_shard_id") is None

    def test_merged_histograms_keep_buckets(self, fleet):
        from repro.obs.registry import Histogram

        registry = merge_worker_dumps(fleet.telemetry_dumps())
        ingest = registry.find("repro_ingest_latency_seconds")
        assert isinstance(ingest, Histogram)
        assert ingest.count >= 240
        assert ingest.percentile(50) > 0

    def test_dashboard_renders_fleet_frame(self, fleet):
        from repro.obs.dashboard import Dashboard

        registry = merge_worker_dumps(fleet.telemetry_dumps())
        frame = Dashboard(registry).frame()
        assert "fleet — 2 shards" in frame

    def test_fleet_table_renders_all_shards(self, fleet):
        table = fleet_table(fleet.shard_stats())
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["shard", "messages"]
        assert lines[-1].startswith("  all") or "all" in lines[-1]


class TestBackpressureGate:
    """Coordinator-side hysteresis over per-shard queue fractions."""

    def test_engages_on_any_hot_shard(self):
        from repro.reliability.overload import FleetBackpressure

        gate = FleetBackpressure(high_watermark=0.8, low_watermark=0.5)
        assert not gate.note(0, 0.2)
        assert gate.note(1, 0.9)
        assert gate.engaged
        assert gate.worst == (1, 0.9)
        # Stays engaged until *every* shard is under the low watermark.
        assert gate.note(1, 0.6)
        assert not gate.note(1, 0.4)
        assert gate.engagements == 1

    def test_rejects_bad_watermarks(self):
        from repro.core.errors import ConfigurationError
        from repro.reliability.overload import FleetBackpressure

        with pytest.raises(ConfigurationError):
            FleetBackpressure(high_watermark=0.3, low_watermark=0.6)

    def test_runtime_builds_gate_from_overload_config(self, tmp_path):
        from repro.reliability.overload import OverloadConfig

        config = OverloadConfig(max_queue=64)
        with ShardedRuntime(tmp_path / "fleet", 2,
                            overload=config) as runtime:
            assert runtime.gate is not None
            assert runtime.ingest_batch(stream(20),
                                        count_only=True) == 20


class TestGuardedFleet:
    """Per-worker ingest guards behind the coordinator."""

    def test_guarded_fleet_folds_and_accounts(self, tmp_path):
        # Four templates repeated by many users: every shard sees
        # verbatim undeclared copies, so its guard must fold.  Per-user
        # volume stays under spam_min_messages so nobody is quarantined.
        messages = [
            parse_message(
                i, f"u{i % 37}", BASE_DATE + i * 2.0,
                f"breaking report {i % 4} about the flood downtown "
                f"tonight stay safe")
            for i in range(160)
        ]
        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2, guard=True) as runtime:
            runtime.ingest_stream(messages, batch_size=32)
            folded = 0
            for shard, payload in runtime.shard_stats().items():
                g = payload["guard"]
                # Conservation: every screened arrival has exactly one
                # verdict (or is still buffered).
                assert g["screened"] == (
                    g["passed"] + g["folded"] + g["quarantined"]
                    + g["late"] + g["buffer_depth"]), shard
                assert g["quarantined"] == 0, shard
                folded += g["folded"]
            assert folded > 0
            # Folds still count as ingested — nothing acknowledged is
            # lost to screening.
            assert runtime.stats_totals()["messages_ingested"] == 160
        shard_roots = sorted(root.glob("shard-*"))
        assert len(shard_roots) == 2
        for shard_root in shard_roots:
            # Custody + fold logs live in the shard root, inside the
            # pre-ACK durability barrier.
            assert (shard_root / "quarantine.log").exists()
            assert (shard_root / "folds.log").exists()

    def test_unguarded_fleet_reports_no_guard_block(self, fleet):
        for payload in fleet.shard_stats().values():
            assert "guard" not in payload
