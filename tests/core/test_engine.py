"""Tests for the streaming engine (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import BundleNotFoundError
from tests.conftest import make_message


class TestIngestRouting:
    def test_first_message_creates_bundle(self, indexer):
        result = indexer.ingest(make_message(1, "#tag hello"))
        assert result.created_bundle
        assert result.edge is None
        assert indexer.stats.bundles_created == 1

    def test_matching_message_joins_existing_bundle(self, indexer):
        first = indexer.ingest(make_message(1, "#tag hello bit.ly/a"))
        second = indexer.ingest(
            make_message(2, "#tag follow-up bit.ly/a", user="b", hours=0.5))
        assert not second.created_bundle
        assert second.bundle_id == first.bundle_id
        assert second.edge is not None
        assert second.edge.dst_id == 1

    def test_unrelated_message_gets_new_bundle(self, indexer):
        first = indexer.ingest(make_message(1, "#sports game tonight"))
        second = indexer.ingest(
            make_message(2, "#finance markets rally", user="b", hours=0.1))
        assert second.created_bundle
        assert second.bundle_id != first.bundle_id

    def test_rt_joins_authors_bundle(self, indexer):
        first = indexer.ingest(make_message(1, "breaking news here",
                                            user="mlb"))
        second = indexer.ingest(
            make_message(2, "RT @mlb: breaking news here", user="fan",
                         hours=0.2))
        assert second.bundle_id == first.bundle_id
        assert second.edge is not None and second.edge.dst_id == 1

    def test_weak_keyword_overlap_does_not_merge(self, indexer):
        """A single shared background word must not glue bundles
        (the calibration behind min_match_score)."""
        indexer.ingest(make_message(1, "great game tonight #sports"))
        result = indexer.ingest(
            make_message(2, "dinner plans tonight", user="b", hours=0.1))
        assert result.created_bundle

    def test_current_date_tracks_latest_message(self, indexer):
        indexer.ingest(make_message(1, "a", hours=1))
        indexer.ingest(make_message(2, "b", user="b", hours=3))
        expected = make_message(3, "x", hours=3).date
        assert indexer.current_date == expected

    def test_ingest_batch_returns_results(self, indexer):
        results = indexer.ingest_batch([
            make_message(1, "#a x"),
            make_message(2, "#b y", user="b", hours=0.1),
        ])
        assert [r.msg_id for r in results] == [1, 2]
        count = indexer.ingest_batch(
            [make_message(3, "#c z", user="c", hours=0.2)],
            count_only=True)
        assert count == 1
        assert indexer.stats.messages_ingested == 3
        assert indexer.stats()["messages_ingested"] == 3


class TestBundleSizeConstraint:
    def test_bundle_closes_at_limit(self):
        config = IndexerConfig.bundle_limit(pool_size=100, bundle_size=3)
        indexer = ProvenanceIndexer(config)
        bundle_id = None
        for index in range(3):
            result = indexer.ingest(make_message(
                index, "#hot breaking", user=f"u{index}", hours=index * 0.01))
            bundle_id = result.bundle_id
        assert indexer.bundle(bundle_id).closed
        assert indexer.stats.bundles_closed == 1

    def test_closed_bundle_not_matched_again(self):
        config = IndexerConfig.bundle_limit(pool_size=100, bundle_size=2)
        indexer = ProvenanceIndexer(config)
        for index in range(2):
            indexer.ingest(make_message(index, "#hot breaking",
                                        user=f"u{index}", hours=index * 0.01))
        result = indexer.ingest(make_message(5, "#hot more", user="x",
                                             hours=0.1))
        assert result.created_bundle  # had to open a fresh bundle


class TestRefinementIntegration:
    def test_pool_stays_bounded(self):
        config = IndexerConfig.partial_index(pool_size=5)
        indexer = ProvenanceIndexer(config)
        for index in range(50):
            indexer.ingest(make_message(index, f"#topic{index} text",
                                        user=f"u{index}", hours=index * 0.01))
        assert len(indexer.pool) <= 5
        assert indexer.stats.refinements > 0

    def test_evicted_bundles_go_to_store(self):
        class Sink:
            def __init__(self):
                self.count = 0

            def append(self, bundle: Bundle) -> None:
                self.count += 1

        sink = Sink()
        config = IndexerConfig.partial_index(pool_size=5)
        indexer = ProvenanceIndexer(config, store=sink)
        for index in range(50):
            indexer.ingest(make_message(index, f"#topic{index} text",
                                        user=f"u{index}", hours=index * 0.01))
        assert sink.count > 0

    def test_full_index_never_refines(self):
        indexer = ProvenanceIndexer(IndexerConfig.full_index())
        for index in range(100):
            indexer.ingest(make_message(index, f"#t{index} x",
                                        user=f"u{index}", hours=index * 0.01))
        assert indexer.stats.refinements == 0
        assert len(indexer.pool) == 100


class TestEdgeLedger:
    def test_edges_accumulate(self, indexer):
        indexer.ingest(make_message(1, "#a x"))
        indexer.ingest(make_message(2, "#a y", user="b", hours=0.1))
        assert indexer.edge_pairs() == {(2, 1)}

    def test_ledger_survives_eviction(self):
        config = IndexerConfig.partial_index(pool_size=3)
        indexer = ProvenanceIndexer(config)
        indexer.ingest(make_message(1, "#a x"))
        indexer.ingest(make_message(2, "#a y", user="b", hours=0.1))
        for index in range(10, 40):
            indexer.ingest(make_message(index, f"#t{index} z",
                                        user=f"u{index}", hours=index))
        assert (2, 1) in indexer.edge_pairs()

    def test_tracking_can_be_disabled(self):
        indexer = ProvenanceIndexer(IndexerConfig(), track_edges=False)
        indexer.ingest(make_message(1, "#a x"))
        indexer.ingest(make_message(2, "#a y", user="b", hours=0.1))
        assert indexer.edge_pairs() == set()
        assert indexer.stats.edges_created == 1


class TestAccessors:
    def test_bundle_accessor_raises_for_unknown(self, indexer):
        with pytest.raises(BundleNotFoundError):
            indexer.bundle(12345)

    def test_bundles_lists_pool(self, indexer):
        indexer.ingest(make_message(1, "#a x"))
        indexer.ingest(make_message(2, "#b y", user="b", hours=0.1))
        assert len(indexer.bundles()) == 2

    def test_memory_snapshot_fields(self, indexer):
        indexer.ingest(make_message(1, "#a hello"))
        snap = indexer.snapshot()
        assert snap.bundle_count == 1
        assert snap.message_count == 1
        assert snap.total_bytes > 0
        assert snap.total_megabytes == pytest.approx(
            snap.total_bytes / (1024 * 1024))

    def test_timers_accumulate(self, indexer):
        for index in range(20):
            indexer.ingest(make_message(index, f"#t{index % 3} text",
                                        user=f"u{index}", hours=index * 0.01))
        timers = indexer.timers
        assert timers.bundle_match > 0
        assert timers.message_placement > 0
        assert timers.total >= timers.bundle_match


class TestMaxScorePruning:
    """Alg. 1 skips candidates that cannot win — and only those."""

    @staticmethod
    def _dense_stream():
        from repro.stream.generator import StreamConfig, StreamGenerator

        return StreamGenerator(StreamConfig(
            seed=7, days=0.02, messages_per_day=100_000, user_count=200,
            events_per_day=240.0)).generate_list()[:2000]

    def test_most_capped_candidates_never_reach_the_pool(self):
        class CountingMap:
            """``pool.live()`` stand-in counting per-candidate lookups."""

            def __init__(self, inner):
                self.inner = inner
                self.lookups = 0

            def get(self, bundle_id):
                self.lookups += 1
                return self.inner.get(bundle_id)

        indexer = ProvenanceIndexer(IndexerConfig.partial_index(200))
        live = CountingMap(indexer.pool.live())
        indexer.pool.live = lambda: live
        capped = 0
        for message in self._dense_stream():
            indexer.ingest(message)
            capped += indexer.last_candidate_fanin[1]
        assert capped > 20_000  # the stream really is dense
        assert live.lookups < 0.25 * capped

    def test_audit_on_and_off_place_identically(self):
        from repro.obs import Observability
        from repro.obs.audit import AuditLog

        stream = self._dense_stream()
        plain = ProvenanceIndexer(IndexerConfig.partial_index(200))
        audited = ProvenanceIndexer(
            IndexerConfig.partial_index(200),
            obs=Observability(audit=AuditLog()))
        plain.ingest_batch(stream)
        audited.ingest_batch(stream)
        assert audited.edge_pairs() == plain.edge_pairs()
        assert ([b.message_ids() for b in audited.pool]
                == [b.message_ids() for b in plain.pool])


class TestFoldGolden:
    """The fold path against the commit before it merged into
    ``_ingest_one`` (see ``tests/core/fold_golden.py``)."""

    def test_instrumented_fold_stream_matches_the_parent(self):
        import json

        from tests.core.fold_golden import GOLDEN, build

        golden = json.loads(GOLDEN.read_text())
        current = json.loads(json.dumps(build()))
        for section in golden:
            assert current[section] == golden[section], section
        assert current.keys() == golden.keys()
