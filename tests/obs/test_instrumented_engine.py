"""Tests for the engine's registry wiring and end-to-end tracing."""

from __future__ import annotations

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer, StageSnapshot, StageTimers
from repro.obs import Observability, Tracer
from tests.conftest import make_message


def run_engine(count: int = 40, **kwargs) -> ProvenanceIndexer:
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15),
                               **kwargs)
    for i in range(count):
        engine.ingest(make_message(i, f"#topic{i % 4} message body {i}",
                                   user=f"u{i % 5}", hours=i * 0.05))
    return engine


class TestEngineCounters:
    def test_callback_counters_mirror_stats(self):
        engine = run_engine()
        value = engine.obs.registry.value
        stats = engine.stats
        assert value("repro_messages_ingested_total") == 40
        assert value("repro_bundles_created_total") == stats.bundles_created
        assert value("repro_bundles_matched_total") == stats.bundles_matched
        assert value("repro_edges_created_total") == stats.edges_created
        assert (stats.bundles_created + stats.bundles_matched == 40)

    def test_stage_histograms_observe_once_per_ingest(self):
        engine = run_engine()
        for stage in ("bundle_match", "message_placement", "index_update"):
            assert engine.timers.histogram(stage).count == 40
        refinements = engine.timers.histogram("memory_refinement").count
        assert refinements == engine.stats.refinements

    def test_pool_and_index_gauges_are_views(self):
        engine = run_engine()
        registry = engine.obs.registry
        assert (registry.value("repro_pool_bundles")
                == len(engine.pool))
        assert (registry.value("repro_pool_memory_bytes")
                == engine.pool.approximate_memory_bytes())
        snap = engine.snapshot()
        assert snap.pool_bytes == engine.pool.approximate_memory_bytes()
        assert (snap.index_bytes
                == engine.summary_index.approximate_memory_bytes())

    def test_disabled_observability_keeps_timers_at_zero(self):
        engine = run_engine(obs=Observability.disabled())
        assert engine.stats.messages_ingested == 40
        assert engine.timers.total == 0.0
        assert engine.obs.registry.families() == []


class TestStageTimersView:
    def test_timers_equal_histogram_sums(self):
        engine = run_engine()
        timers = engine.timers
        assert timers.bundle_match == timers.histogram("bundle_match").sum
        assert timers.total == pytest.approx(sum(
            timers.histogram(stage).sum for stage in StageTimers.STAGES))

    def test_reset_returns_closed_interval_and_zeroes_the_view(self):
        engine = run_engine(count=20)
        closed = engine.timers.reset()
        assert isinstance(closed, StageSnapshot)
        assert closed.total > 0.0
        assert engine.timers.total == 0.0
        # The histograms themselves stay monotonic for Prometheus.
        assert engine.timers.histogram("bundle_match").sum > 0.0

    def test_intervals_tile_the_cumulative_total(self):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15))
        intervals = []
        for chunk in range(3):
            for i in range(15):
                msg_id = chunk * 15 + i
                engine.ingest(make_message(
                    msg_id, f"#t{msg_id % 4} body {msg_id}",
                    hours=msg_id * 0.05))
            intervals.append(engine.timers.reset())
        cumulative = sum(
            engine.timers.histogram(stage).sum
            for stage in StageTimers.STAGES)
        assert sum(s.total for s in intervals) == pytest.approx(cumulative)

    def test_interval_since_snapshot(self):
        timers = StageTimers()
        timers.observe("bundle_match", 1.0)
        before = timers.snapshot()
        timers.observe("bundle_match", 0.25)
        timers.observe("index_update", 0.5)
        delta = timers.interval(before)
        assert delta.bundle_match == pytest.approx(0.25)
        assert delta.index_update == pytest.approx(0.5)
        assert delta.message_placement == 0.0

    def test_standalone_timers_keep_working(self):
        timers = StageTimers()
        timers.observe("memory_refinement", 2.0)
        assert timers.memory_refinement == 2.0
        assert timers.total == 2.0


class TestEndToEndTrace:
    def test_rt_chain_span_tree_matches_ingest_results(self):
        """A 3-message RT chain: the trace tree must tell the same story
        as the engine's own IngestResult records."""
        tracer = Tracer(sample_rate=1.0, seed=0)
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=15),
            obs=Observability(tracer=tracer))
        messages = [
            make_message(1, "breaking: #quake hits the bay area",
                         user="alice", hours=0.0),
            make_message(2, "RT @alice: breaking: #quake hits the bay area",
                         user="bob", hours=0.1),
            make_message(3, "RT @bob: RT @alice: breaking: #quake hits "
                            "the bay area", user="carol", hours=0.2),
        ]
        results = [engine.ingest(message) for message in messages]

        # Algorithm 1's decisions: first message opens a bundle, the two
        # re-shares match into it; Algorithm 2 finds both RT edges.
        assert results[0].created_bundle
        assert not results[1].created_bundle
        assert not results[2].created_bundle
        assert len({r.bundle_id for r in results}) == 1
        assert results[0].edge is None
        assert results[1].edge is not None
        assert results[2].edge is not None

        traces = list(tracer.finished)
        assert [t.tags["msg_id"] for t in traces] == [1, 2, 3]
        for trace, result in zip(traces, results):
            expected_outcome = ("new-bundle" if result.created_bundle
                                else "matched")
            assert trace.outcome == expected_outcome
            assert trace.tags["bundle_id"] == result.bundle_id
            names = [span.name for span in trace.spans]
            assert names[:3] == ["candidate_selection", "placement",
                                 "index_update"]
            placement = trace.spans[1]
            assert placement.tags["edge"] is (result.edge is not None)
            if result.edge is not None:
                assert (placement.tags["parent"]
                        == result.edge.as_pair()[1])
            assert trace.duration >= sum(
                span.duration for span in trace.spans) * 0.0  # non-negative
            assert trace.duration > 0.0

        # Span timing is self-consistent: children start inside the root.
        for trace in traces:
            for span in trace.spans:
                assert 0.0 <= span.start <= trace.duration + 1e-9

        # The first trace saw no candidates; the re-shares saw the bundle.
        assert traces[0].spans[0].tags["candidates"] == 0
        assert traces[1].spans[0].tags["candidates"] >= 1
        assert traces[2].spans[0].tags["candidates"] >= 1

    def test_sampling_counters_are_exported(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        engine = run_engine(count=10, obs=Observability(tracer=tracer))
        registry = engine.obs.registry
        assert registry.value("repro_traces_offered_total") == 10
        assert registry.value("repro_traces_sampled_total") == 10

    def test_refinement_span_appears_when_trigger_fires(self):
        tracer = Tracer(sample_rate=1.0, seed=0, keep=1024)
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=15),
            obs=Observability(tracer=tracer))
        # Disjoint topics: every message opens a fresh bundle, so the
        # pool-size trigger must fire well before 60 messages.
        for i in range(60):
            engine.ingest(make_message(
                i, f"#only{i} standalone story number {i}",
                user=f"u{i}", hours=i * 0.05))
        assert engine.stats.refinements > 0
        refined = [t for t in tracer.finished
                   if any(s.name == "refinement" for s in t.spans)]
        assert len(refined) == engine.stats.refinements
        span = refined[0].spans[-1]
        assert span.tags["removed"] >= 0
        assert span.tags["pool_after"] <= 15
