"""Tests for the ``repro top`` dashboard renderer."""

from __future__ import annotations

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.obs import Observability, Tracer
from repro.obs.dashboard import ANSI_CLEAR, Dashboard
from tests.conftest import make_message


def run_engine(count: int = 40, **kwargs) -> ProvenanceIndexer:
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15),
                               **kwargs)
    for i in range(count):
        engine.ingest(make_message(i, f"#topic{i % 4} message body {i}",
                                   user=f"u{i % 5}", hours=i * 0.05))
    return engine


class TestFrame:
    def test_frame_shows_nonzero_ingest_signals(self):
        engine = run_engine()
        now = [100.0]
        dashboard = Dashboard(engine.obs.registry, clock=lambda: now[0])
        now[0] = 110.0
        frame = dashboard.frame()
        assert "repro top" in frame
        assert "ingested" in frame
        assert "40 msgs" in frame
        assert "4/s now" in frame  # 40 msgs over the 10s window
        assert "bundle match (Alg. 1)" in frame
        assert "whole ingest" not in frame  # no supervisor in this setup
        assert "pool" in frame
        # No overload controller registered its families: no rows.
        for row in ("ladder rung", "latency ewma", "admission",
                    "backlog depth"):
            assert row not in frame

    def test_stage_rows_show_percentiles(self):
        engine = run_engine()
        frame = Dashboard(engine.obs.registry).frame()
        # Every populated stage row renders count + p50/p95/p99 + total.
        for label in ("bundle match (Alg. 1)", "placement (Alg. 2)",
                      "index update"):
            (row,) = [l for l in frame.splitlines() if label in l]
            assert "ms" in row and "s" in row

    def test_rate_window_advances_between_frames(self):
        engine = run_engine()
        now = [0.0]
        dashboard = Dashboard(engine.obs.registry, clock=lambda: now[0])
        now[0] = 10.0
        dashboard.frame()
        now[0] = 20.0
        second = dashboard.frame()
        # No new messages in the second window: instantaneous rate is 0.
        assert "0/s now" in second
        assert "frame 2" in second

    def test_trace_line_present_when_tracer_exports(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        engine = run_engine(obs=Observability(tracer=tracer))
        frame = Dashboard(engine.obs.registry).frame()
        assert "traces: 40 sampled of 40 (100.0%)" in frame

    def test_trace_line_absent_without_tracer(self):
        engine = run_engine()
        assert "traces:" not in Dashboard(engine.obs.registry).frame()

    def test_empty_registry_renders_placeholder_rows(self):
        from repro.obs import MetricsRegistry

        frame = Dashboard(MetricsRegistry()).frame()
        assert "0 msgs" in frame
        assert "—" in frame  # unpopulated stage rows

    def test_live_frame_prefixes_ansi_clear(self):
        engine = run_engine(count=5)
        live = Dashboard(engine.obs.registry).live_frame()
        assert live.startswith(ANSI_CLEAR)


class TestAnatomyPanel:
    def _run_with_anatomy(self) -> ProvenanceIndexer:
        from repro.obs import WorkloadAnatomy

        obs = Observability()
        obs.anatomy = WorkloadAnatomy(obs.registry, sample_every=1)
        engine = run_engine(obs=obs)
        obs.anatomy.publish()
        obs.anatomy.account(engine)
        return engine

    def test_panel_present_after_publish(self):
        engine = self._run_with_anatomy()
        frame = Dashboard(engine.obs.registry).frame()
        assert "workload anatomy" in frame
        assert "fan-in fetched" in frame
        assert "index memory" in frame
        # The engine's hot hashtags show with their sketch weights.
        assert "topic0(" in frame

    def test_panel_absent_without_anatomy(self):
        engine = run_engine()
        frame = Dashboard(engine.obs.registry).frame()
        assert "workload anatomy" not in frame

    def test_shard_labeled_copies_not_double_counted(self):
        from repro.obs import WorkloadAnatomy
        from repro.runtime.telemetry import merge_worker_dumps

        obs = Observability()
        obs.anatomy = WorkloadAnatomy(obs.registry, sample_every=1)
        run_engine(obs=obs)
        obs.anatomy.publish()
        fleet = merge_worker_dumps({0: obs.registry.dump(),
                                    1: obs.registry.dump()})
        frame = Dashboard(fleet).frame()
        panel = frame[frame.index("workload anatomy"):]
        hashtag_row = next(line for line in panel.splitlines()
                           if line.startswith("hashtag"))
        # Two identical shards double the aggregate weight; each term
        # must still appear exactly once in the panel.
        assert hashtag_row.count("topic0(") == 1


class TestFleetFrame:
    def test_renders_only_families_it_holds(self):
        from repro.reliability.overload import OverloadController
        from repro.runtime.telemetry import merge_worker_dumps

        engine = run_engine()
        fleet = merge_worker_dumps({0: engine.obs.registry.dump(),
                                    1: engine.obs.registry.dump()})
        frame = Dashboard(fleet).frame()
        assert "fleet — 2 shards" in frame
        for row in ("ladder rung", "latency ewma", "admission",
                    "backlog"):
            assert row not in frame
        # A registry holding the controller's families shows them all.
        controlled = run_engine()
        OverloadController().attach(controlled)
        frame = Dashboard(controlled.obs.registry).frame()
        for row in ("ladder rung", "latency ewma", "admission",
                    "backlog depth"):
            assert row in frame
