"""Tests for the Prometheus renderer and the JSONL telemetry flusher."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.obs import (MetricsRegistry, TelemetryFlusher, read_jsonl,
                       render_json, render_prometheus)
from repro.obs import exporters
from repro.reliability.supervisor import ResilientIndexer
from repro.storage.wal import JournaledIndexer, MessageJournal
from tests.conftest import make_message


@pytest.fixture
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_demo_total", help="A demo counter").inc(3)
    registry.gauge("repro_demo_depth", unit="bytes").set(17)
    hist = registry.histogram("repro_demo_seconds", unit="seconds",
                              buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestPrometheusFormat:
    def test_counter_and_gauge_lines(self, registry):
        text = render_prometheus(registry)
        assert "# HELP repro_demo_total A demo counter" in text
        assert "# TYPE repro_demo_total counter" in text
        assert "repro_demo_total 3" in text
        assert "# UNIT repro_demo_depth bytes" in text
        assert "repro_demo_depth 17" in text

    def test_histogram_buckets_are_cumulative_with_inf(self, registry):
        lines = render_prometheus(registry).splitlines()
        buckets = [l for l in lines
                   if l.startswith("repro_demo_seconds_bucket")]
        assert buckets == [
            'repro_demo_seconds_bucket{le="0.1"} 1',
            'repro_demo_seconds_bucket{le="1"} 2',
            'repro_demo_seconds_bucket{le="+Inf"} 3',
        ]
        assert "repro_demo_seconds_count 3" in lines
        assert any(l.startswith("repro_demo_seconds_sum") for l in lines)

    def test_labels_render_sorted_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total",
                         labels={"b": 'say "hi"\n', "a": "x\\y"}).inc()
        text = render_prometheus(registry)
        assert 'c_total{a="x\\\\y",b="say \\"hi\\"\\n"} 1' in text

    def test_disabled_registry_renders_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c_total")
        assert render_prometheus(registry) == ""

    def test_render_json_is_the_snapshot(self, registry):
        decoded = json.loads(render_json(registry))
        assert decoded == registry.snapshot()

    def test_engine_metrics_render_end_to_end(self):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=20))
        for i in range(30):
            engine.ingest(make_message(i, f"#topic{i % 3} body {i}",
                                       hours=i * 0.1))
        text = render_prometheus(engine.obs.registry)
        assert "repro_messages_ingested_total 30" in text
        assert 'repro_stage_seconds_bucket{stage="bundle_match",le="+Inf"} 30' in text
        assert "repro_pool_bundles" in text


class TestTelemetryFlusher:
    @mock.patch.object(exporters, "EVERY_TICKS", 5)
    def test_flushes_every_n_ticks(self, tmp_path, registry):
        flusher = TelemetryFlusher(registry, tmp_path / "telemetry.jsonl")
        assert [flusher.tick() for _ in range(12)] == (
            [False] * 4 + [True] + [False] * 4 + [True] + [False] * 2)
        flusher.close()
        records = list(read_jsonl(tmp_path / "telemetry.jsonl"))
        assert [r["seq"] for r in records] == [0, 1, 2]  # close() flushed
        assert records[0]["metrics"]["counters"]["repro_demo_total"] == 3.0

    @mock.patch.multiple(exporters, EVERY_TICKS=1000,
                         MIN_INTERVAL_SECONDS=10.0)
    def test_min_interval_flushes_on_slow_tick_streams(self, tmp_path,
                                                       registry):
        now = [0.0]
        flusher = TelemetryFlusher(registry, tmp_path / "t.jsonl",
                                   clock=lambda: now[0])
        assert flusher.tick() is False
        now[0] = 11.0
        assert flusher.tick() is True
        assert flusher.flushes == 1

    def test_close_writes_a_final_snapshot_even_without_ticks(
            self, tmp_path, registry):
        flusher = TelemetryFlusher(registry, tmp_path / "t.jsonl")
        flusher.close()
        records = list(read_jsonl(tmp_path / "t.jsonl"))
        assert len(records) == 1

    @mock.patch.object(exporters, "EVERY_TICKS", 10)
    def test_supervisor_hook_leaves_flight_recorder(self, tmp_path):
        telemetry_path = tmp_path / "telemetry.jsonl"
        journaled = JournaledIndexer(
            ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15)),
            MessageJournal(tmp_path / "ingest.wal", sync_every=8),
            snapshot_path=tmp_path / "state.json", snapshot_every=10_000)
        flusher = TelemetryFlusher(journaled.indexer.obs.registry,
                                   telemetry_path)
        with ResilientIndexer(journaled, sleep=lambda _: None,
                              telemetry=flusher) as supervisor:
            for i in range(25):
                supervisor.ingest(make_message(
                    i, f"#topic{i % 4} message {i}", hours=i * 0.05))
        records = list(read_jsonl(telemetry_path))
        # 25 ticks / 10 per flush = 2 periodic + 1 final on close.
        assert len(records) == 3
        final = records[-1]["metrics"]
        assert final["counters"]["repro_messages_ingested_total"] == 25.0
        assert final["histograms"][
            "repro_ingest_latency_seconds"]["count"] == 25.0
