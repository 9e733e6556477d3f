"""The multiprocess runtime: parity, durability under SIGKILL, recovery.

The load-bearing test is :class:`TestCrashDurability` — it SIGKILLs a
worker mid-stream and proves (via ``compare_edge_sets`` against an
uninterrupted fleet) that no *acknowledged* edge is lost: the worker
fsyncs its WAL before every ACK, and the restarted process replays the
tail.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.message import parse_message
from repro.core.metrics import compare_edge_sets
from repro.core.errors import ConfigurationError
from repro.query.bundle_search import ALPHA, BETA
from repro.reliability.supervisor import ResilientIndexer
from repro.runtime import ShardedRuntime, WorkerCrash, merge_worker_dumps
from repro.runtime.worker import _handle_search
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
        # Every field of every shipped row equals the oracle engine's
        # live hit, read through BundleHit's own properties.
        local = RoutedEngines(2, "hash").ingest_each(stream(240))
        outcome = fleet.search_within("#tag3 report", k=5)
        fleet_hits = [(shard, row._asdict()) for shard, row
                      in zip(outcome.shards, outcome.hits)]
        local_hits = [(shard, {
            "bundle_id": hit.bundle_id, "size": hit.size,
            "last_post": hit.last_post,
            "summary_words": tuple(hit.summary_words), "score": hit.score,
            "text_score": hit.text_score,
            "indicant_score": hit.indicant_score,
            "freshness": hit.freshness,
        }) for shard, hit in local.search_by_shard("#tag3 report", k=5)]
        assert len(fleet_hits) == 5
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


class TestSearchReply:
    """A shard's search reply ships rows, not bundles."""

    def test_reply_stays_small_when_a_bundle_is_huge(self, tmp_path):
        # One retweet cascade grows a 1 200-member bundle; its hit must
        # not drag the members through the pipe.
        cascade = [parse_message(i, f"u{i % 40}", BASE_DATE + i,
                                 f"RT @u{(i - 1) % 40}: #storm flood {i}")
                   for i in range(1200)]
        with ResilientIndexer.open(tmp_path) as stack:
            stack.ingest_batch(cascade, count_only=True)
            assert max(len(bundle) for bundle in stack.indexer.pool) > 1000
            reply = _handle_search(stack, "#storm flood", 5, None,
                                   ALPHA, BETA)
        assert reply["hits"]
        assert len(pickle.dumps(reply)) < 1024 * len(reply["hits"])


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

    def test_retried_batch_after_a_crash_is_not_double_indexed(
            self, tmp_path):
        # Killing shard 1 lets the retried batch reach shard 0 twice:
        # the first attempt was sent and acknowledged there before the
        # crash surfaced on shard 1.  Every re-sent message must be
        # refused, never pooled a second time.
        from repro.core.validation import check_engine
        from repro.reliability.supervisor import ResilientIndexer

        first, second = stream(160), stream(160, start=160)
        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2) as runtime:
            runtime.ingest_batch(first, count_only=True)
            runtime.kill_worker(1)
            for attempt in range(4):
                try:
                    runtime.ingest_batch(second, count_only=True)
                    break
                except WorkerCrash:
                    continue
            else:
                pytest.fail("worker never came back after restart")
            assert runtime.stats.restarts >= 1
        for shard_root in sorted(root.glob("shard-*")):
            with ResilientIndexer.open(shard_root) as shard:
                assert check_engine(shard.indexer) == [], shard_root.name

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


class TestWorkerOptions:
    def test_round_trips_through_pickle(self):
        # A spawn-started worker receives its options pickled; fork
        # (the Linux default, which every other test here uses) never
        # pickles them.
        import pickle

        from repro.core.config import IndexerConfig
        from repro.runtime import WorkerOptions

        options = WorkerOptions(config=IndexerConfig.partial_index(50),
                                sync_every=8, trace=True,
                                profile_dir="profiles", anatomy=True)
        assert pickle.loads(pickle.dumps(options)) == options


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

    def test_fleet_panel_renders_all_shards(self, fleet):
        from repro.obs.dashboard import Dashboard

        registry = merge_worker_dumps(fleet.telemetry_dumps())
        frame = Dashboard(registry).frame()
        lines = frame[frame.index("fleet — 2 shards"):].splitlines()
        assert lines[1].split()[:2] == ["shard", "ingested"]
        rows = {line.split()[0]: line.split() for line in lines[3:5]}
        assert sorted(rows) == ["0", "1"]
        # Fewer than 1 000 per shard, so the cells print exact counts.
        assert (sum(int(row[1]) for row in rows.values())
                == registry.value("repro_messages_ingested_total"))
