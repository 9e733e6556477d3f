"""Tests for the continuous profiler and the trace timeline renderer."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import ConfigurationError
from repro.core.message import parse_message
from repro.obs import (Observability, StackSampler, StageCell,
                       render_trace_timeline)

BASE_DATE = 1_249_084_800.0


def stream(count):
    out = []
    for i in range(count):
        user = f"u{i % 23}"
        if i % 3 == 1:
            text = f"RT @u{(i - 1) % 23}: #tag{i % 7} report {i - 1}"
        else:
            text = f"#tag{i % 7} report {i}"
        out.append(parse_message(i, user, BASE_DATE + i * 2.0, text))
    return out


class TestStageCell:
    def test_set_and_clear(self):
        cell = StageCell()
        assert cell.stage == ""
        cell.set("bundle_match")
        assert cell.stage == "bundle_match"
        cell.clear()
        assert cell.stage == ""


class TestStackSampler:
    def test_rejects_bad_hz(self):
        with pytest.raises(ConfigurationError):
            StackSampler(hz=0)
        with pytest.raises(ConfigurationError):
            StackSampler(hz=2000)

    def test_rejects_double_start(self):
        sampler = StackSampler(hz=50)
        sampler.start()
        try:
            with pytest.raises(ConfigurationError):
                sampler.start()
        finally:
            sampler.stop()

    def test_samples_the_calling_thread(self):
        cell = StageCell()
        with StackSampler(hz=200, cell=cell) as sampler:
            cell.set("busy_stage")
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                sum(range(1000))
            cell.clear()
        assert sampler.samples > 0
        assert sampler.stage_samples["busy_stage"] > 0

    def test_empty_cell_bills_idle(self):
        with StackSampler(hz=200) as sampler:
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                sum(range(1000))
        assert sampler.stage_samples.get("idle", 0) == sampler.samples

    def test_collapsed_format(self):
        with StackSampler(hz=200) as sampler:
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                sum(range(1000))
        lines = sampler.collapsed()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert stack
            for frame in stack.split(";"):
                assert "." in frame

    def test_write_collapsed_round_trips(self, tmp_path):
        with StackSampler(hz=200) as sampler:
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                sum(range(1000))
        target = sampler.write_collapsed(tmp_path / "out" / "p.folded")
        written = target.read_text().splitlines()
        assert written == sampler.collapsed()

    def test_stage_table_is_sorted_and_normalised(self):
        sampler = StackSampler(hz=50)
        sampler.stage_samples.update({"a": 3, "b": 7})
        sampler.stage_alloc_blocks.update({"a": 10})
        rows = sampler.stage_table()
        assert [row[0] for row in rows] == ["b", "a"]
        assert rows[0][2] == pytest.approx(0.7)
        assert rows[1][3] == 10

    def test_profiles_another_thread(self):
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(range(1000))

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        sampler = StackSampler(hz=200)
        sampler.start(thread_ident=worker.ident)
        time.sleep(0.3)
        sampler.stop()
        stop.set()
        worker.join(timeout=2.0)
        assert sampler.samples > 0
        assert any("busy" in frame for stack in sampler.stacks
                   for frame in stack)


class TestEngineStageAttribution:
    """The engine's StageCell writes name real pipeline stages."""

    def test_ingest_names_engine_stages(self):
        cell = StageCell()
        obs = Observability(profile=cell)
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=100), obs=obs)
        observed = set()

        class SpyCell(StageCell):
            def __setattr__(self, name, value):
                if name == "stage" and value:
                    observed.add(value)
                super().__setattr__(name, value)

        engine.obs.profile = spy = SpyCell()
        for message in stream(300):
            engine.ingest(message)
        assert spy.stage == ""
        assert {"bundle_match", "message_placement",
                "index_update"} <= observed


class TestTimelineRenderer:
    def _fleet_trace(self, *, dead=False):
        spans = [
            {"name": "route", "start": 0.0, "duration": 0.001,
             "tags": {"kind": "hop", "shard": 1}},
            {"name": "queue_wait", "start": 0.001, "duration": 0.006,
             "tags": {"kind": "hop"}},
            {"name": "service", "start": 0.007, "duration": 0.002,
             "tags": {"kind": "hop", "span_id": "1.1.4"}},
            {"name": "placement", "start": 0.0075, "duration": 0.001,
             "tags": {"kind": "stage", "edge": True}},
            {"name": "ack_transit", "start": 0.009, "duration": 0.001,
             "tags": {"kind": "hop"}},
        ]
        tags = {"outcome": "matched", "shard": 1, "msg_id": 42}
        if dead:
            tags["dead"] = True
        return {"trace_id": 42, "duration": 0.010, "tags": tags,
                "spans": spans}

    def test_hops_render_over_shared_axis(self):
        text = render_trace_timeline(self._fleet_trace())
        lines = text.splitlines()
        assert "trace 42" in lines[0]
        assert "10.000 ms" in lines[0]
        assert "outcome=matched" in lines[0]
        names = [line.split("|")[0].strip() for line in lines[1:]]
        assert names == ["route", "queue_wait", "service", "placement",
                         "ack_transit"]

    def test_stage_spans_indent_under_service(self):
        text = render_trace_timeline(self._fleet_trace())
        stage_line = next(line for line in text.splitlines()
                          if "placement" in line)
        assert stage_line.startswith("    ")

    def test_dead_trace_is_flagged(self):
        text = render_trace_timeline(self._fleet_trace(dead=True))
        assert "DEAD-HOP" in text.splitlines()[0]

    def test_flat_traces_render_without_hops(self):
        trace = {"trace_id": 7, "duration": 0.002,
                 "tags": {"outcome": "new-bundle"},
                 "spans": [{"name": "candidate_selection", "start": 0.0,
                            "duration": 0.001, "tags": {}},
                           {"name": "placement", "start": 0.001,
                            "duration": 0.001, "tags": {}}]}
        lines = render_trace_timeline(trace).splitlines()
        assert len(lines) == 3
        assert "candidate_selection" in lines[1]

    def test_zero_duration_trace_does_not_crash(self):
        text = render_trace_timeline(
            {"trace_id": 1, "duration": 0.0, "tags": {}, "spans": []})
        assert "trace 1" in text
