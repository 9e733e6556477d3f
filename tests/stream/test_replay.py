"""Tests for stream replay and checkpointing."""

from __future__ import annotations

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.stream.replay import replay
from tests.conftest import make_message


def make_stream(count: int):
    return [make_message(i, f"#topic{i % 5} message {i}", user=f"u{i % 7}",
                         hours=i * 0.05) for i in range(count)]


class TestReplay:
    def test_checkpoints_at_interval(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        points = replay(make_stream(25), indexer, checkpoint_every=10)
        assert [p.messages_seen for p in points] == [10, 20, 25]

    def test_final_checkpoint_always_taken(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        points = replay(make_stream(20), indexer, checkpoint_every=10)
        assert points[-1].messages_seen == 20
        assert len(points) == 2  # no duplicate final point

    def test_checkpoint_fields_consistent(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        points = replay(make_stream(30), indexer, checkpoint_every=15)
        last = points[-1]
        assert last.bundle_count == len(indexer.pool)
        assert last.message_count_in_memory == indexer.pool.message_count()
        assert last.edge_count == len(indexer.edge_pairs())
        assert last.current_date == indexer.current_date
        assert last.total_time >= last.match_time

    def test_on_checkpoint_callback(self):
        seen = []
        indexer = ProvenanceIndexer(IndexerConfig())
        replay(make_stream(12), indexer, checkpoint_every=5,
               on_checkpoint=lambda p: seen.append(p.messages_seen))
        assert seen == [5, 10, 12]

    def test_zero_interval_gives_only_final(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        points = replay(make_stream(8), indexer, checkpoint_every=0)
        assert len(points) == 1
        assert points[0].messages_seen == 8


class TestReplayMany:
    """One stream replayed into several engines, one replay call each."""

    def test_lockstep_positions_identical(self):
        stream = make_stream(30)
        engines = {
            "a": ProvenanceIndexer(IndexerConfig.full_index()),
            "b": ProvenanceIndexer(IndexerConfig.partial_index(pool_size=5)),
        }
        results = {name: replay(stream, engine, checkpoint_every=10)
                   for name, engine in engines.items()}
        positions_a = [p.messages_seen for p in results["a"]]
        positions_b = [p.messages_seen for p in results["b"]]
        assert positions_a == positions_b == [10, 20, 30]

    def test_bounded_engine_smaller_pool(self):
        stream = make_stream(60)
        engines = {
            "full": ProvenanceIndexer(IndexerConfig.full_index()),
            "partial": ProvenanceIndexer(
                IndexerConfig.partial_index(pool_size=3)),
        }
        results = {name: replay(stream, engine, checkpoint_every=30)
                   for name, engine in engines.items()}
        assert (results["partial"][-1].bundle_count
                <= results["full"][-1].bundle_count)
