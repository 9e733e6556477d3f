"""Fleet-wide trace propagation: stitching, crashes, determinism.

The load-bearing property is additivity: every hop boundary in a
stitched trace is a ``time.monotonic()`` stamp shared with its
neighbour, so the hop durations partition the end-to-end latency — the
acceptance bar says within 5%, the construction delivers it exactly.
The crash tests pin the other half of the contract: a SIGKILL mid-batch
yields a trace that *says so* (an explicit dead hop, never a silent
truncation), and the restarted worker's span ids never collide with the
dead boot's (the durable boot counter).
"""

from __future__ import annotations

import time
from unittest import mock

import pytest

from repro.core.message import parse_message
from repro.runtime import ShardedRuntime, WorkerCrash, coordinator

BASE_DATE = 1_249_084_800.0

HOP_CHAIN = ("route", "coordinator_buffer", "queue_wait", "batch_wait",
             "service", "worker_drain", "ack_transit")


def stream(count, start=0):
    out = []
    for i in range(start, start + count):
        user = f"u{i % 23}"
        if i % 3 == 1:
            text = f"RT @u{(i - 1) % 23}: #tag{i % 7} report {i - 1}"
        else:
            text = f"#tag{i % 7} report {i}"
        out.append(parse_message(i, user, BASE_DATE + i * 2.0, text))
    return out


def hops(trace):
    return [s for s in trace.spans if s.tags.get("kind") == "hop"]


def stages(trace):
    return [s for s in trace.spans if s.tags.get("kind") == "stage"]


@pytest.fixture(scope="module")
def traced_fleet(tmp_path_factory):
    """A 2-worker fleet tracing every message, preloaded with 120."""
    root = tmp_path_factory.mktemp("traced-fleet")
    with mock.patch.object(coordinator, "TRACE_KEEP", 512):
        runtime = ShardedRuntime(root, 2, trace_sample=1.0, trace_seed=7)
    runtime.ingest_batch(stream(120), count_only=True)
    yield runtime
    runtime.close()


class TestStitching:
    """One ingest → one multi-process trace with additive hops."""

    def test_every_message_yields_one_trace(self, traced_fleet):
        finished = list(traced_fleet.tracer.finished)
        assert len(finished) == 120
        assert {t.trace_id for t in finished} == set(range(120))

    def test_hop_durations_sum_to_end_to_end_latency(self, traced_fleet):
        for trace in traced_fleet.tracer.finished:
            total = sum(h.duration for h in hops(trace))
            assert trace.duration > 0.0
            # The acceptance bar is 5%; construction makes it exact.
            assert total == pytest.approx(trace.duration, rel=0.05)

    def test_hop_chain_is_complete_and_ordered(self, traced_fleet):
        for trace in traced_fleet.tracer.finished:
            names = tuple(h.name for h in hops(trace))
            assert names == HOP_CHAIN
            starts = [h.start for h in hops(trace)]
            assert starts == sorted(starts)

    def test_consecutive_hops_share_boundaries(self, traced_fleet):
        trace = next(iter(traced_fleet.tracer.finished))
        chain = hops(trace)
        for earlier, later in zip(chain, chain[1:]):
            assert later.start == pytest.approx(
                earlier.start + earlier.duration, abs=1e-9)

    def test_service_hop_carries_worker_span_id(self, traced_fleet):
        for trace in traced_fleet.tracer.finished:
            service = next(h for h in hops(trace) if h.name == "service")
            span_id = str(service.tags["span_id"])
            shard, boot, seq = span_id.split(".")
            assert int(service.tags["shard"]) == int(shard)
            assert int(boot) >= 1
            assert int(seq) >= 1

    def test_engine_stages_nest_inside_service_hop(self, traced_fleet):
        nested = 0
        for trace in traced_fleet.tracer.finished:
            if trace.outcome not in ("matched", "new-bundle"):
                continue
            service = next(h for h in hops(trace) if h.name == "service")
            for stage in stages(trace):
                assert stage.start >= service.start - 1e-9
                assert (stage.start + stage.duration
                        <= service.start + service.duration + 1e-9)
                nested += 1
        assert nested > 0

    def test_traces_carry_outcome_and_shard(self, traced_fleet):
        for trace in traced_fleet.tracer.finished:
            assert trace.outcome in ("matched", "new-bundle")
            assert trace.tags["shard"] in (0, 1)
            assert trace.tags["msg_id"] == trace.trace_id

    def test_a_refused_resend_is_traced_as_dead_lettered(self, tmp_path):
        with ShardedRuntime(tmp_path / "fleet", 2,
                            trace_sample=1.0) as runtime:
            messages = stream(20)
            runtime.ingest_batch(messages, count_only=True)
            assert runtime.ingest_batch(messages[15:]) == []
            resent = list(runtime.tracer.finished)[20:]
        assert sorted(trace.trace_id for trace in resent) == list(
            range(15, 20))
        assert {trace.outcome for trace in resent} == {"dead-lettered"}

    def test_ack_wait_decomposes_into_queue_and_service(self, traced_fleet):
        stats = traced_fleet.stats
        assert stats.queue_wait_seconds > 0.0
        assert stats.service_seconds > 0.0
        exported = stats.as_dict()
        assert exported["queue_wait_seconds"] == pytest.approx(
            stats.queue_wait_seconds, abs=1e-5)
        assert exported["service_seconds"] == pytest.approx(
            stats.service_seconds, abs=1e-5)


class TestDeterministicSampling:
    """The coordinator's seeded decision samples the same messages."""

    def test_same_seed_samples_same_messages(self, tmp_path):
        sampled = []
        for attempt in ("a", "b"):
            with ShardedRuntime(tmp_path / attempt, 2, trace_sample=0.3,
                                trace_seed=11) as runtime:
                runtime.ingest_batch(stream(200), count_only=True)
                sampled.append(sorted(
                    t.trace_id for t in runtime.tracer.finished))
        assert sampled[0] == sampled[1]
        assert 0 < len(sampled[0]) < 200

    def test_different_seed_samples_differently(self, tmp_path):
        sampled = []
        for seed in (1, 2):
            with ShardedRuntime(tmp_path / f"s{seed}", 2,
                                trace_sample=0.3,
                                trace_seed=seed) as runtime:
                runtime.ingest_batch(stream(200), count_only=True)
                sampled.append(sorted(
                    t.trace_id for t in runtime.tracer.finished))
        assert sampled[0] != sampled[1]


class TestCrashTracing:
    """SIGKILL mid-batch: explicit dead hops, no span-id reuse."""

    def test_dead_hop_marks_the_lost_batch(self, tmp_path):
        with ShardedRuntime(tmp_path / "fleet", 2, trace_sample=1.0,
                            trace_seed=7) as runtime:
            # Dispatch a batch big enough that the worker is still
            # indexing when the SIGKILL lands, then collect: the
            # coordinator detects the death, restarts the shard and
            # finishes the riding traces with an explicit dead hop.
            worker = runtime._workers[0]
            batch = stream(3000)
            traces = []
            for position, message in enumerate(batch):
                t0 = time.monotonic()
                trace = runtime.tracer.begin(message.msg_id)
                traces.append((position, trace, t0, time.monotonic()))
            runtime._dispatch(worker, batch, True, None, traces)
            runtime.kill_worker(0)
            runtime.flush()
            assert runtime.stats.restarts == 1
            dead = [t for t in runtime.tracer.finished
                    if t.tags.get("dead")]
            assert dead, "no trace recorded the crash"
            for trace in dead:
                assert trace.outcome == "lost"
                names = [h.name for h in hops(trace)]
                assert names == ["route", "coordinator_buffer", "lost"]
                lost = hops(trace)[-1]
                assert lost.tags["dead"] is True
                total = sum(h.duration for h in hops(trace))
                assert total == pytest.approx(trace.duration, rel=0.05)

    def test_no_duplicate_span_ids_across_restart(self, tmp_path):
        with ShardedRuntime(tmp_path / "fleet", 2, trace_sample=1.0,
                            trace_seed=7) as runtime:
            runtime.ingest_batch(stream(60), count_only=True)
            runtime.kill_worker(0)
            runtime.kill_worker(1)
            # The crash surfaces on the next touch of each shard; the
            # replayed ingest then lands on the restarted workers.
            replayed = stream(60, start=60)
            for attempt in range(6):
                try:
                    runtime.ingest_batch(replayed, count_only=True)
                    break
                except WorkerCrash:
                    continue
            else:
                pytest.fail("workers never came back after restart")
            span_ids = []
            for trace in runtime.tracer.finished:
                for hop in hops(trace):
                    if hop.name == "service" and "span_id" in hop.tags:
                        span_ids.append(str(hop.tags["span_id"]))
            assert len(span_ids) == len(set(span_ids))
            # Both boots are represented: pre-crash spans under boot 1,
            # post-restart spans under a bumped boot counter.
            boots = {tuple(span_id.split(".")[:2])
                     for span_id in span_ids}
            shards_with_two_boots = {
                shard for shard, _ in boots
                if len([b for s, b in boots if s == shard]) > 1}
            assert shards_with_two_boots, boots

    def test_boot_counter_survives_a_crash_mid_bump(self, tmp_path):
        """A crash while the counter is replaced keeps the old count,
        so the next incarnation never reissues a dead boot's span ids."""
        from repro.reliability.faults import (Fault, FaultInjector,
                                              SimulatedCrash)
        from repro.runtime.worker import _bump_boot_counter

        assert _bump_boot_counter(str(tmp_path)) == 1
        assert _bump_boot_counter(str(tmp_path)) == 2
        with FaultInjector([Fault(op="replace", nth=1, kind="crash_before",
                                  path_part="boot.count")]):
            with pytest.raises(SimulatedCrash):
                _bump_boot_counter(str(tmp_path))
        assert (tmp_path / "boot.count").read_text() == "2"
        assert _bump_boot_counter(str(tmp_path)) == 3

    def test_wal_replay_emits_no_traces(self, tmp_path):
        root = tmp_path / "fleet"
        with ShardedRuntime(root, 2, trace_sample=1.0,
                            trace_seed=7) as runtime:
            runtime.ingest_batch(stream(40), count_only=True)
            first = len(runtime.tracer.finished)
            assert first == 40
        # Reopening replays every shard's WAL through the engine; the
        # worker tracer samples at 0.0 with no forced contexts, so the
        # replay contributes nothing to the trace stream.
        with ShardedRuntime(root, 2, trace_sample=1.0,
                            trace_seed=7) as reopened:
            assert len(reopened.tracer.finished) == 0
            reopened.ingest_batch(stream(10, start=40), count_only=True)
            assert len(reopened.tracer.finished) == 10


class TestTraceSink:
    """Finished fleet traces export as JSONL for `repro trace`."""

    def test_sink_round_trips_through_read_jsonl(self, tmp_path):
        from repro.obs import read_jsonl

        sink = tmp_path / "fleet_trace.jsonl"
        with ShardedRuntime(tmp_path / "fleet", 2, trace_sample=1.0,
                            trace_seed=7, trace_sink=sink) as runtime:
            runtime.ingest_batch(stream(30), count_only=True)
        documents = list(read_jsonl(sink))
        assert len(documents) == 30
        for document in documents:
            kinds = [s["tags"].get("kind") for s in document["spans"]]
            assert kinds.count("hop") == len(HOP_CHAIN)
