"""Tests for ingest-path tracing: sampling determinism and export."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.obs import Tracer, read_jsonl


def decide(rate: float, seed: int, count: int = 400) -> "list[int]":
    """Ids of the messages a fresh tracer samples from ``count`` offers."""
    tracer = Tracer(sample_rate=rate, seed=seed)
    sampled = []
    for trace_id in range(count):
        trace = tracer.begin(trace_id)
        if trace is not None:
            sampled.append(trace_id)
            tracer.finish(trace, duration=0.001, outcome="matched")
    return sampled


class TestSamplingDeterminism:
    def test_same_seed_same_sampled_set(self):
        assert decide(0.1, seed=42) == decide(0.1, seed=42)

    def test_different_seed_different_sampled_set(self):
        assert decide(0.1, seed=1) != decide(0.1, seed=2)

    def test_decision_depends_only_on_arrival_order(self):
        # Interleaving finish() work between begins must not perturb the
        # decision sequence: begin() consumes exactly one RNG draw.
        tracer = Tracer(sample_rate=0.1, seed=42)
        sampled = []
        for trace_id in range(400):
            trace = tracer.begin(trace_id)
            if trace is not None:
                sampled.append(trace_id)
                trace.span("candidate_selection", 0.0, 0.001, candidates=3)
                tracer.finish(trace, duration=0.002, outcome="matched",
                              bundle_id=trace_id % 7)
        assert sampled == decide(0.1, seed=42)

    def test_rate_zero_samples_nothing_but_counts_offers(self):
        tracer = Tracer(sample_rate=0.0, seed=0)
        assert all(tracer.begin(i) is None for i in range(50))
        assert tracer.offered == 50
        assert tracer.sampled == 0

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        assert all(tracer.begin(i) is not None for i in range(50))
        assert tracer.sampled == 50

    def test_fractional_rate_is_roughly_proportional(self):
        sampled = decide(0.25, seed=3, count=2000)
        assert 0.15 < len(sampled) / 2000 < 0.35

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ConfigurationError):
            Tracer(sample_rate=-0.1)


class TestTraceStructure:
    def test_span_tree_and_outcome(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.begin(17)
        trace.span("candidate_selection", 0.0, 0.001, candidates=4)
        trace.span("placement", 0.001, 0.002, edge=True, parent=9)
        tracer.finish(trace, duration=0.003, outcome="matched",
                      msg_id=17, bundle_id=5)
        assert trace.outcome == "matched"
        assert [s.name for s in trace.spans] == ["candidate_selection",
                                                 "placement"]
        record = trace.to_dict()
        assert record["trace_id"] == 17
        assert record["tags"]["bundle_id"] == 5
        assert record["spans"][1]["tags"] == {"edge": True, "parent": 9}

    def test_finished_ring_is_bounded(self):
        tracer = Tracer(sample_rate=1.0, keep=4)
        for trace_id in range(10):
            tracer.finish(tracer.begin(trace_id), outcome="matched")
        assert [t.trace_id for t in tracer.finished] == [6, 7, 8, 9]

    def test_event_records_spanless_outcome(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.event(99, "shed", rung=3)
        (trace,) = tracer.finished
        assert trace.trace_id == 99
        assert trace.outcome == "shed"
        assert trace.tags["rung"] == 3
        assert trace.spans == []

    def test_event_respects_sampling(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.event(99, "shed")
        assert not tracer.finished


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        sink = tmp_path / "traces.jsonl"
        with Tracer(sample_rate=1.0, sink=sink) as tracer:
            for trace_id in range(3):
                trace = tracer.begin(trace_id)
                trace.span("candidate_selection", 0.0, 0.001)
                tracer.finish(trace, duration=0.002, outcome="new-bundle")
            assert tracer.exported == 3
        records = list(read_jsonl(sink))
        assert [r["trace_id"] for r in records] == [0, 1, 2]
        assert all(r["tags"]["outcome"] == "new-bundle" for r in records)
        assert records[0]["spans"][0]["name"] == "candidate_selection"

    def test_read_skips_torn_lines(self, tmp_path):
        sink = tmp_path / "traces.jsonl"
        with Tracer(sample_rate=1.0, sink=sink) as tracer:
            tracer.finish(tracer.begin(1), outcome="matched")
        with sink.open("a", encoding="utf-8") as handle:
            handle.write('{"trace_id": 2, "truncat')  # torn tail
        records = list(read_jsonl(sink))
        assert [r["trace_id"] for r in records] == [1]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert list(read_jsonl(tmp_path / "nope.jsonl")) == []

    def test_close_is_idempotent(self, tmp_path):
        tracer = Tracer(sample_rate=1.0, sink=tmp_path / "t.jsonl")
        tracer.finish(tracer.begin(1), outcome="matched")
        tracer.close()
        tracer.close()
