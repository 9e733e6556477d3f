"""Tests for the workload-anatomy subsystem (sketches, accountant,
fingerprints, capacity projection)."""

from __future__ import annotations

import json
import random
import sys
from unittest import mock

import pytest

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import ConfigurationError
from repro.core.summary_index import INDICANT_KINDS as CORE_KINDS
from repro.obs import Observability, read_jsonl
from repro.obs import anatomy as anatomy_module
from repro.obs.anatomy import (FINGERPRINT_VERSION, INDICANT_KINDS,
                               MemoryAccountant, SpaceSavingSketch,
                               WorkloadAnatomy, capacity_report,
                               deep_size_bytes, diff_fingerprints,
                               render_capacity_report, render_diff,
                               render_fingerprint)
from repro.obs.registry import MetricsRegistry
from repro.stream.generator import StreamConfig, StreamGenerator


def _engine_with_anatomy(sample_every: int = 1,
                         **anatomy_kwargs):
    obs = Observability()
    anatomy = WorkloadAnatomy(obs.registry, sample_every=sample_every,
                              **anatomy_kwargs)
    obs.anatomy = anatomy
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=50),
                               obs=obs)
    return engine, anatomy


def _stream(messages: int, seed: int = 13):
    config = StreamConfig(seed=seed, days=max(messages / 2000, 0.5),
                          messages_per_day=2000)
    return StreamGenerator(config).generate_list()[:messages]


def sketch_of(capacity: int) -> SpaceSavingSketch:
    """A sketch tracking at most ``capacity`` items."""
    with mock.patch.object(anatomy_module, "SKETCH_CAPACITY", capacity):
        return SpaceSavingSketch()


class TestSpaceSavingSketch:
    def test_exact_under_capacity(self):
        sketch = sketch_of(8)
        for item, weight in (("a", 5), ("b", 3), ("a", 2), ("c", 1)):
            sketch.observe(item, weight)
        assert sketch.top() == [("a", 7, 0), ("b", 3, 0), ("c", 1, 0)]
        assert sketch.count("a") == 7
        assert sketch.count("missing") == 0
        assert "a" in sketch and "missing" not in sketch

    def test_capacity_bound_holds(self):
        sketch = sketch_of(4)
        for i in range(100):
            sketch.observe(f"t{i}")
        assert len(sketch) == 4
        assert sketch.observed == 100
        assert sketch.observed_weight == 100

    def test_eviction_error_bound(self):
        # Classic guarantee: count - error <= true weight <= count.
        sketch = sketch_of(3)
        truth: dict[str, int] = {}
        rng = random.Random(5)
        for _ in range(500):
            item = f"t{rng.randrange(12)}"
            truth[item] = truth.get(item, 0) + 1
            sketch.observe(item)
        for item, count, error in sketch.top():
            assert count >= truth.get(item, 0)
            assert count - error <= truth.get(item, 0)

    def test_heavy_hitter_survives_noise(self):
        sketch = sketch_of(8)
        rng = random.Random(3)
        stream = ["hot"] * 300 + [f"noise{i}" for i in range(300)]
        rng.shuffle(stream)
        for item in stream:
            sketch.observe(item)
        assert sketch.top(1)[0][0] == "hot"

    def test_deterministic_across_replays(self):
        def run():
            sketch = sketch_of(8)
            rng = random.Random(11)
            for _ in range(2000):
                sketch.observe(f"t{rng.randrange(64)}",
                               rng.randrange(1, 4))
            return sketch.dump_state()

        assert run() == run()

    def test_dump_merge_round_trip(self):
        left = sketch_of(8)
        right = sketch_of(8)
        for i in range(6):
            left.observe(f"l{i}", i + 1)
            right.observe(f"r{i}", i + 1)
        right.observe("l5", 10)  # shared item: counts must add
        merged = sketch_of(8)
        merged.merge_state(left.dump_state())
        merged.merge_state(right.dump_state())
        assert merged.count("l5") == 6 + 10
        assert len(merged) == 8  # truncated back to capacity
        assert merged.observed == left.observed + right.observed
        assert (merged.observed_weight
                == left.observed_weight + right.observed_weight)
        # Eviction after a merge exercises the stale-heap rebuild path.
        merged.observe("fresh", 100)
        assert merged.count("fresh") >= 100


class TestDeepSize:
    def test_containers_and_slots(self):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = [1, 2, 3]
                self.b = {"k": "v"}

        assert deep_size_bytes(Slotted()) > deep_size_bytes([])
        nested = {"outer": {"inner": list(range(50))}}
        assert deep_size_bytes(nested) > deep_size_bytes({})

    def test_shared_seen_charges_once(self):
        shared = list(range(1000))
        seen: set[int] = set()
        first = deep_size_bytes(["x", shared], seen)
        second = deep_size_bytes(["y", shared], seen)
        # The big list was charged to the first walk only.
        assert second < first / 2

    def test_never_enters_types_or_callables(self):
        # Sizing a class attribute must not drag in the module graph.
        assert deep_size_bytes(dict) < 1024
        assert deep_size_bytes(deep_size_bytes) < 1024


class TestMemoryAccountant:
    def test_measures_and_drifts(self):
        engine, _ = _engine_with_anatomy()
        for message in _stream(400):
            engine.ingest(message)
        account = MemoryAccountant().measure(engine)
        measured = account["measured"]
        assert measured["index"] > 0
        assert measured["pool"] > 0
        assert measured["dedup_cache"] == 0  # no guard attached
        assert measured["guard"] == 0
        assert measured["total"] == sum(
            measured[c] for c in ("index", "pool", "dedup_cache", "guard"))
        # Satellite 1: the calibrated estimates track the measured walk.
        # The fit is CPython-3.11 based; other interpreters shift object
        # headers, so the test bar is looser than the 10% dev target.
        assert abs(account["drift"]["index"]) < 0.25
        assert abs(account["drift"]["pool"]) < 0.25


def _dense_stream(seed: int, messages: int):
    """The layered benchmark's heavy-hitter stream shape."""
    config = StreamConfig(
        seed=seed, days=(messages + 0.5) / 100_000.0,
        messages_per_day=100_000, user_count=max(messages // 25, 200),
        events_per_day=240.0)
    return StreamGenerator(config).generate_list()[:messages]


def _sparse_stream(seed: int, messages: int):
    """The layered benchmark's long-tail stream shape."""
    config = StreamConfig(
        seed=seed, days=(messages + 0.5) / 1750.0, messages_per_day=1750,
        user_count=400, events_per_day=15.0, event_volume_max=400)
    return StreamGenerator(config).generate_list()[:messages]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the byte model is fitted to CPython 3.11 objects")
class TestModelDrift:
    """The Fig. 11 model against the measured walk, at the bar of its fit
    (DESIGN.md §7.4): both streams the constants were fitted on."""

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("shape,pool_size", [
        (_dense_stream, 200), (_sparse_stream, 150)])
    def test_pool_and_index_drift(self, shape, pool_size, seed):
        engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size))
        engine.ingest_batch(shape(seed, 2048), count_only=True)
        drift = MemoryAccountant().measure(engine)["drift"]
        assert abs(drift["pool"]) <= 0.05, drift
        assert abs(drift["index"]) <= 0.03, drift


class TestWorkloadAnatomy:
    def test_kinds_lock_step_with_summary_index(self):
        # anatomy.INDICANT_KINDS is a local mirror (importing the core
        # tuple would close an import cycle); they must never diverge.
        assert INDICANT_KINDS == CORE_KINDS

    def test_stride_sampling(self):
        engine, anatomy = _engine_with_anatomy(sample_every=4)
        for message in _stream(100):
            engine.ingest(message)
        assert anatomy.seen == 100
        assert anatomy.sampled == 25

    def test_sketches_see_ingested_terms(self):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(200):
            engine.ingest(message)
        assert anatomy.sketches["user"].observed == 200
        assert len(anatomy.sketches["keyword"]) > 0

    def test_invalid_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadAnatomy(sample_every=0)

    @mock.patch.object(anatomy_module, "PUBLISH_TOP", 2)
    def test_publish_mirrors_and_zeroes(self):
        registry = MetricsRegistry()
        anatomy = WorkloadAnatomy(registry)
        anatomy.sketches["hashtag"].observe("old", 10)
        anatomy.sketches["hashtag"].observe("stays", 5)
        anatomy.publish()
        assert registry.value("repro_hot_terms",
                              {"kind": "hashtag", "term": "old"}) == 10
        # 'old' falls out of the top-2; its gauge must zero, not linger.
        anatomy.sketches["hashtag"].observe("hotter", 50)
        anatomy.sketches["hashtag"].observe("stays", 50)
        anatomy.publish()
        assert registry.value("repro_hot_terms",
                              {"kind": "hashtag", "term": "old"}) == 0
        assert registry.value("repro_hot_terms",
                              {"kind": "hashtag", "term": "hotter"}) == 50

    def test_account_publishes_gauges(self):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(200):
            engine.ingest(message)
        anatomy.account(engine)
        registry = anatomy.registry
        assert registry.value("repro_memory_measured_bytes",
                              {"component": "index"}) > 0
        drift = registry.find("repro_memory_drift_ratio",
                              {"component": "pool"})
        assert drift is not None

    def test_standalone_without_registry(self):
        anatomy = WorkloadAnatomy()  # no registry: sketches still work
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=50))
        engine.obs.anatomy = anatomy
        for message in _stream(80):
            engine.ingest(message)
        assert anatomy.sampled > 0
        anatomy.publish()  # no-op without a registry


class TestFingerprints:
    def test_schema_and_version(self):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(300):
            engine.ingest(message)
        record = anatomy.fingerprint(engine)
        assert record["version"] == FINGERPRINT_VERSION
        assert record["messages"] == 300
        for section in ("sketches", "postings", "fanin", "eviction",
                        "index", "memory", "growth"):
            assert section in record
        for kind in INDICANT_KINDS:
            assert kind in record["sketches"]
            assert kind in record["postings"]
        assert record["fanin"]["fetched"]["count"] == 300
        json.dumps(record)  # JSON-able throughout

    def test_byte_deterministic_across_replays(self):
        def run() -> str:
            engine, anatomy = _engine_with_anatomy(sample_every=2)
            for message in _stream(600):
                engine.ingest(message)
            return json.dumps(anatomy.fingerprint(engine),
                              sort_keys=True, separators=(",", ":"))

        assert run() == run()

    def test_no_wall_clock_fields(self):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(100):
            engine.ingest(message)
        flat = json.dumps(anatomy.fingerprint(engine)).lower()
        for forbidden in ("timestamp", "wall", "elapsed"):
            assert forbidden not in flat

    def test_write_read_round_trip(self, tmp_path):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(100):
            engine.ingest(message)
        path = tmp_path / "fp.jsonl"
        record = anatomy.fingerprint(engine)
        anatomy.write_fingerprint(path, record)
        anatomy.write_fingerprint(path, record)
        loaded = list(read_jsonl(path))
        assert loaded == [record, record]
        assert list(read_jsonl(tmp_path / "missing.jsonl")) == []

    def test_growth_interval_between_fingerprints(self):
        engine, anatomy = _engine_with_anatomy()
        stream = _stream(400)
        for message in stream[:200]:
            engine.ingest(message)
        anatomy.fingerprint(engine)
        for message in stream[200:]:
            engine.ingest(message)
        second = anatomy.fingerprint(engine)
        interval = second["growth"]["interval"]
        assert interval["messages"] == 200
        # The term dictionary saturates: marginal novelty must not
        # exceed the cumulative average by construction of the stream.
        assert interval["new_terms_per_1k_msgs"] >= 0


class TestCapacityReport:
    def _fingerprint(self):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(800):
            engine.ingest(message)
        return anatomy.fingerprint(engine)

    def test_slab_schedule_brackets_distribution(self):
        record = self._fingerprint()
        report = capacity_report(record)
        for kind, plan in report["slab_schedule"].items():
            stats = record["postings"][kind]
            assert plan["initial_slice"] >= stats["p50"]
            assert plan["max_slice"] >= stats["p99"]
            assert plan["initial_slice"] & (plan["initial_slice"] - 1) == 0
            assert plan["max_slice"] & (plan["max_slice"] - 1) == 0
            assert plan["projected_slab_bytes"] == stats["sum"] * 8
        assert report["recommendations"]

    def test_prune_thresholds_share_bounded(self):
        report = capacity_report(self._fingerprint())
        for rule in report["prune_thresholds"].values():
            assert 0.0 <= rule["hot_fanin_share"] <= 1.0

    def test_empty_fingerprint_degrades(self):
        report = capacity_report({"postings": {}, "sketches": {}})
        assert report["slab_schedule"] == {}
        assert report["recommendations"] == []
        assert "no capacity data" in render_capacity_report(report)


class TestDiffAndRendering:
    def test_diff_tracks_scalars_and_churn(self):
        engine, anatomy = _engine_with_anatomy()
        stream = _stream(600)
        for message in stream[:300]:
            engine.ingest(message)
        before = anatomy.fingerprint(engine)
        for message in stream[300:]:
            engine.ingest(message)
        after = anatomy.fingerprint(engine)
        diff = diff_fingerprints(before, after)
        assert diff["scalars"]["messages"] == {"before": 300,
                                               "after": 600}
        render_diff(diff)  # renders without error

    def test_renderers_cover_fingerprint(self):
        engine, anatomy = _engine_with_anatomy()
        for message in _stream(300):
            engine.ingest(message)
        record = anatomy.fingerprint(engine)
        text = render_fingerprint(record)
        assert "workload fingerprint" in text
        assert "memory attribution" in text
        report = render_capacity_report(capacity_report(record))
        assert "slab slice schedule" in report


class TestEngineIntegration:
    def test_fanin_histograms_and_cap_counter(self):
        engine, _ = _engine_with_anatomy()
        for message in _stream(400):
            engine.ingest(message)
        registry = engine.obs.registry
        fetched = registry.find("repro_candidate_fanin",
                                {"phase": "fetched"})
        scored = registry.find("repro_candidate_fanin",
                               {"phase": "scored"})
        assert fetched.count == 400
        assert scored.count == 400
        assert scored.sum <= fetched.sum  # capping only ever shrinks
        capped = registry.value("repro_candidate_capped_total")
        assert capped >= 0

    def test_eviction_histograms_populate(self):
        # pool_size=50 forces refinement evictions within the stream.
        engine, _ = _engine_with_anatomy()
        for message in _stream(1200):
            engine.ingest(message)
        registry = engine.obs.registry
        size = registry.find("repro_evicted_bundle_size")
        assert size is not None and size.count > 0
        age = registry.find("repro_evicted_bundle_age_seconds")
        assert age is not None and age.count == size.count

    def test_detached_engine_records_nothing(self):
        engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=50))
        for message in _stream(50):
            engine.ingest(message)
        assert engine.obs.anatomy is None
