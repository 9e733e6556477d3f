"""Tests for the streaming engine (Algorithm 1)."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import engine as engine_module
from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import BundleError, BundleNotFoundError
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
        (the calibration behind MIN_MATCH_SCORE)."""
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


class TestRejectionContract:
    """A refused arrival costs no neighbour its result: the engine alone
    decides what it refuses, and its error carries what it settled
    (``ingest_batch`` docstring)."""

    def test_member_id_is_refused_after_the_messages_before_it(
            self, indexer):
        first = make_message(1, "#tag hello bit.ly/a")
        indexer.ingest(first)
        with pytest.raises(BundleError, match="already in bundle") as refused:
            indexer.ingest_batch([
                make_message(2, "#other note", user="b", hours=0.1),
                make_message(1, "#tag hello bit.ly/a", hours=0.2),
                make_message(3, "#late note", user="c", hours=0.3)])
        assert indexer.stats.messages_ingested == 2
        assert [r.msg_id for r in refused.value.settled] == [2]
        with pytest.raises(BundleError) as counted:
            indexer.ingest_batch([make_message(4, "#x y", user="d", hours=1),
                                  first], count_only=True)
        assert counted.value.settled == 1

    def test_a_pooled_id_is_refused_whichever_bundle_it_lands_in(self):
        from repro.core.validation import check_engine
        from repro.stream.generator import StreamConfig, StreamGenerator

        # Re-sent 17 and 19 would open new bundles: refusing only a
        # member of the landing bundle pooled each of them twice.
        messages = StreamGenerator(StreamConfig(
            seed=7, messages_per_day=2000, days=0.1)).generate_list()[:20]
        engine = ProvenanceIndexer()
        engine.ingest_batch(messages)
        stats = engine.stats.as_dict()
        bundles = len(engine.pool)
        for message in messages[15:20]:
            with pytest.raises(BundleError, match="already in bundle"):
                engine.ingest(message)
        assert engine.stats.as_dict() == stats
        assert len(engine.pool) == bundles
        assert check_engine(engine) == []

    def test_journal_resumes_after_a_refused_record(self, tmp_path,
                                                    monkeypatch):
        from repro.storage.wal import JournaledIndexer, MessageJournal

        calls: "list[list[int]]" = []
        batch = ProvenanceIndexer.ingest_batch

        def counting(engine, messages, **kw):
            calls.append([m.msg_id for m in messages])
            return batch(engine, messages, **kw)

        monkeypatch.setattr(ProvenanceIndexer, "ingest_batch", counting)
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.partial_index(pool_size=10)),
            MessageJournal(tmp_path / "ingest.wal"))
        first = make_message(1, "#tag hello bit.ly/a")
        journaled.ingest(first)
        calls.clear()
        outcomes = journaled.ingest_run([
            make_message(2, "#other note", user="b", hours=0.1),
            make_message(1, "#tag hello bit.ly/a", hours=0.2),
            make_message(3, "#tag more bit.ly/a", user="c", hours=0.3)])
        assert [getattr(o, "msg_id", None) for o in outcomes] == [2, None, 3]
        assert isinstance(outcomes[1], BundleError)
        assert calls == [[2, 1, 3], [3]]
        assert journaled.indexer.stats.messages_ingested == 3
        journaled.close()

    def test_ids_above_every_pooled_id_are_never_refused(self):
        from dataclasses import replace

        from repro.stream.generator import StreamConfig, StreamGenerator

        # Eviction and size-closed bundles on the way, in 64-message
        # batches: nothing the pool holds can collide.
        config = replace(IndexerConfig.partial_index(pool_size=20),
                         max_bundle_size=6)
        engine = ProvenanceIndexer(config)
        messages = StreamGenerator(StreamConfig(
            seed=7, days=0.01, messages_per_day=60_000, user_count=50,
            events_per_day=240.0)).generate_list()
        for start in range(0, len(messages), 64):
            engine.ingest_batch(messages[start:start + 64])
        assert engine.stats.messages_ingested == len(messages) > 300
        assert engine.stats.bundles_closed > 0
        assert engine.stats.refinements > 0


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

    @mock.patch.object(engine_module, "TRACK_EDGES", False)
    def test_tracking_can_be_disabled(self):
        indexer = ProvenanceIndexer(IndexerConfig())
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

    def test_keyword_only_candidates_are_never_packaged(self):
        """Keyword postings alone cannot lift a bundle to the shipped
        floor (0.2·2 + 0.5 < 1.0), so their candidates stay tallies."""
        import json
        from unittest import mock

        from repro.core.summary_index import SummaryIndex
        from tests.core.selection_golden import GOLDEN

        fetched = packaged = 0
        shipped = SummaryIndex.gather_candidates

        def counted(self, message, keywords):
            nonlocal fetched, packaged
            gather = shipped(self, message, keywords)
            fetched += len(gather)
            packaged += len(gather.ids)
            return gather

        indexer = ProvenanceIndexer(IndexerConfig.partial_index(200))
        with mock.patch.object(SummaryIndex, "gather_candidates", counted):
            indexer.ingest_batch(self._dense_stream())
        golden = json.loads(GOLDEN.read_text())
        assert fetched == golden["dense/plain"]["gathered"]
        assert packaged <= 0.2 * fetched

    @pytest.mark.parametrize("strong_id, keyword_only, kept", [
        (1, {0: 1, 2: 1}, True),   # ties at the cut, smaller id: kept
        (3, {0: 1, 2: 1}, False),  # ties at the cut, larger id: cut
        (1, {0: 3, 2: 3}, False),  # outranked on hits: cut
        (1, {0: 1}, True),         # nothing to cut
    ])
    @mock.patch.object(engine_module, "MAX_CANDIDATES", 2)
    def test_keyword_only_tallies_compete_for_the_cap(
            self, strong_id, keyword_only, kept):
        from unittest import mock

        from repro.core.postings import CandidateGather
        from repro.core.summary_index import SummaryIndex
        from tests.scoring_oracle import exhaustive_scoring

        indexer = ProvenanceIndexer(IndexerConfig())
        for msg_id in range(4):
            assert indexer.ingest(make_message(
                msg_id, f"#t{msg_id}", user=f"u{msg_id}")).created_bundle
        message = make_message(9, "#t1 #t3", user="z", hours=0.1)
        gather = CandidateGather([strong_id], [1], ([1], [0], [0], [0]),
                                 keyword_only)
        with mock.patch.object(SummaryIndex, "gather_candidates",
                               return_value=gather):
            chosen = indexer._select_bundle(message, frozenset())
            assert indexer.last_candidate_fanin == (len(gather), 2)
            with exhaustive_scoring():
                oracle = indexer._select_bundle(message, frozenset())
        assert (chosen is not None) == kept
        assert chosen is oracle


class TestSelectionGolden:
    """Algorithm 1 against the commit before keyword-only candidates
    became tallies (see ``tests/core/selection_golden.py``)."""

    def test_dense_closed_and_reduced_streams_match_the_parent(self):
        import json

        from tests.core.selection_golden import GOLDEN, build

        golden = json.loads(GOLDEN.read_text())
        current = json.loads(json.dumps(build()))
        for section in golden:
            assert current[section] == golden[section], section
        assert current.keys() == golden.keys()


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
