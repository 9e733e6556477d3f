"""Edge-case tests for the streaming engine beyond the happy path."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import engine as engine_module
from repro.core import pool as pool_module
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from tests.conftest import make_message


class TestTiesAndDeterminism:
    def test_identical_dates_handled(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        for index in range(5):
            indexer.ingest(make_message(index, "#same topic words",
                                        user=f"u{index}", hours=0.0))
        assert indexer.stats.messages_ingested == 5
        bundle = next(iter(indexer.pool))
        assert len(bundle) == 5

    def test_equal_score_candidates_resolved_deterministically(self):
        def run() -> list[int]:
            indexer = ProvenanceIndexer(IndexerConfig())
            # Two identical-looking bundles, then a message matching both.
            indexer.ingest(make_message(0, "#a alpha", user="u0"))
            indexer.ingest(make_message(1, "#b beta", user="u1", hours=0.01))
            result = indexer.ingest(make_message(
                2, "#a #b gamma", user="u2", hours=0.02))
            return [result.bundle_id]

        assert run() == run()

    def test_reingesting_same_content_different_ids(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        indexer.ingest(make_message(0, "#x same text"))
        indexer.ingest(make_message(1, "#x same text", user="b",
                                    hours=0.1))
        assert indexer.stats.messages_ingested == 2


class TestExtremeMessages:
    def test_empty_indicant_message(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        result = indexer.ingest(make_message(0, "!!!"))
        assert result.created_bundle

    def test_message_with_many_hashtags(self):
        tags = " ".join(f"#tag{i}" for i in range(30))
        indexer = ProvenanceIndexer(IndexerConfig())
        result = indexer.ingest(make_message(0, tags))
        bundle = indexer.bundle(result.bundle_id)
        assert len(bundle.hashtag_counts) == 30

    def test_very_long_text(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        indexer.ingest(make_message(0, "word " * 500))
        assert indexer.stats.messages_ingested == 1

    def test_unicode_text(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        indexer.ingest(make_message(0, "地震 warning ツナミ #日本"))
        indexer.ingest(make_message(1, "more on #日本", user="b", hours=0.1))
        # the unicode hashtag routes both into one bundle
        assert len(indexer.pool) == 1

    def test_rt_of_unknown_user_is_harmless(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        result = indexer.ingest(make_message(0, "RT @ghost: never seen"))
        assert result.created_bundle


class TestCandidateCap:
    @mock.patch.object(engine_module, "MAX_CANDIDATES", 4)
    def test_max_candidates_bounds_scored_set(self):
        """With a hot hashtag across many bundles, only MAX_CANDIDATES
        are fully scored — verified by it still matching correctly."""
        indexer = ProvenanceIndexer(IndexerConfig())
        # Create many disjoint bundles sharing one weak keyword.
        for index in range(20):
            indexer.ingest(make_message(index, f"#only{index} filler words",
                                        user=f"u{index}", hours=index * 0.01))
        result = indexer.ingest(make_message(
            99, "#only19 filler words", user="x", hours=0.5))
        # must join the bundle with the matching hashtag
        bundle = indexer.bundle(result.bundle_id)
        assert "only19" in bundle.hashtag_counts

    def test_closed_candidates_skipped_for_next_best(self):
        config = IndexerConfig.bundle_limit(pool_size=100, bundle_size=2)
        indexer = ProvenanceIndexer(config)
        indexer.ingest(make_message(0, "#hot a", user="a"))
        indexer.ingest(make_message(1, "#hot b", user="b", hours=0.01))
        # first bundle now closed; the next #hot message opens bundle 2
        second = indexer.ingest(make_message(2, "#hot c", user="c",
                                             hours=0.02))
        assert second.created_bundle
        # ...and the one after joins bundle 2, not the closed one
        third = indexer.ingest(make_message(3, "#hot d", user="d",
                                            hours=0.03))
        assert third.bundle_id == second.bundle_id


class TestClockBehaviour:
    def test_out_of_order_message_does_not_rewind_clock(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        indexer.ingest(make_message(0, "a", hours=10))
        indexer.ingest(make_message(1, "b", user="b", hours=5))
        assert indexer.current_date == make_message(9, "x", hours=10).date

    @mock.patch.object(pool_module, "REFINE_TINY_SIZE", 2)
    def test_refinement_uses_stream_clock_not_wallclock(self):
        indexer = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=3))
        # all messages at nearly the same stream time: nothing is "aging",
        # so refinement must evict by rank, not by age deletion
        for index in range(10):
            indexer.ingest(make_message(index, f"#t{index} x",
                                        user=f"u{index}", hours=index * 1e-4))
        assert len(indexer.pool) <= 3


class TestStatsConsistency:
    def test_created_plus_matched_equals_ingested(self):
        indexer = ProvenanceIndexer(IndexerConfig())
        for index in range(40):
            indexer.ingest(make_message(index, f"#t{index % 7} words",
                                        user=f"u{index % 3}",
                                        hours=index * 0.1))
        stats = indexer.stats
        assert stats.bundles_created + stats.bundles_matched == \
            stats.messages_ingested

    def test_edges_equal_ingested_minus_roots(self):
        indexer = ProvenanceIndexer(IndexerConfig.full_index())
        for index in range(30):
            indexer.ingest(make_message(index, f"#t{index % 5} words",
                                        user=f"u{index}", hours=index * 0.1))
        root_count = sum(
            1 for bundle in indexer.pool
            for msg_id in bundle.message_ids()
            if bundle.parent_of(msg_id) is None)
        assert indexer.stats.edges_created == \
            indexer.stats.messages_ingested - root_count
