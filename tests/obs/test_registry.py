"""Tests for the metrics registry: counters, gauges, histograms."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.obs import (DEFAULT_LATENCY_BUCKETS, NULL_COUNTER,
                       NULL_HISTOGRAM, Histogram, MetricsRegistry)
from repro.obs.registry import series_name
from repro.runtime import merge_worker_dumps


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_callback_counter_reads_the_source(self):
        state = {"n": 0}
        counter = MetricsRegistry().counter(
            "c_total", callback=lambda: state["n"])
        assert counter.value == 0.0
        state["n"] = 41
        assert counter.value == 41.0

    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_label_sets_are_distinct_children(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"k": "a"})
        b = registry.counter("c_total", labels={"k": "b"})
        assert a is not b
        a.inc()
        assert registry.value("c_total", {"k": "a"}) == 1.0
        assert registry.value("c_total", {"k": "b"}) == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_callback_gauge_is_a_view(self):
        backing = [100]
        gauge = MetricsRegistry().gauge("g", callback=lambda: backing[0])
        backing[0] = 250
        assert gauge.value == 250.0

    def test_reregistration_refreshes_callback(self):
        registry = MetricsRegistry()
        registry.gauge("g", callback=lambda: 1)
        gauge = registry.gauge("g", callback=lambda: 2)
        assert gauge.value == 2.0


class TestHistogramPercentiles:
    def test_interpolates_inside_the_rank_bucket(self):
        hist = Histogram("h", buckets=(10.0, 20.0, 30.0))
        for value in (12.0, 14.0, 16.0, 18.0, 19.0,
                      21.0, 22.0, 23.0, 24.0, 25.0):
            hist.observe(value)
        # Bucket (10, 20] clamps to [min=12, 20]; (20, 30] to (20, max=25].
        assert hist.percentile(0) == 12.0
        assert hist.percentile(25) == 16.0
        assert hist.percentile(50) == 20.0
        assert hist.percentile(75) == 22.5
        assert hist.percentile(100) == 25.0
        assert hist.mean == pytest.approx(19.4)

    def test_single_observation_is_every_percentile(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.25)
        for q in (0, 50, 95, 99, 100):
            assert hist.percentile(q) == 0.25

    def test_empty_histogram_reads_zero(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0
        assert hist.stats()["min"] == 0.0

    def test_percentile_out_of_range_rejected(self):
        hist = Histogram("h", buckets=(1.0,))
        with pytest.raises(ConfigurationError):
            hist.percentile(101)

    def test_bucket_counts_are_cumulative_in_export_order(self):
        hist = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.cumulative_buckets() == [
            (0.1, 1), (1.0, 3), (10.0, 4), (float("inf"), 5)]

    @given(bounds=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12,
                           unique=True).map(sorted).map(tuple),
           pick=st.integers(0, 11),
           earlier=st.lists(st.floats(-2e6, 2e6), max_size=20))
    def test_a_value_equal_to_a_bound_counts_at_that_le(self, bounds, pick,
                                                         earlier):
        hist = Histogram("h", buckets=bounds)
        for value in earlier:
            hist.observe(value)
        bound = bounds[pick % len(bounds)]
        before = dict(hist.cumulative_buckets())
        hist.observe(bound)
        after = dict(hist.cumulative_buckets())
        assert after[bound] == before[bound] + 1
        assert all(after[le] == before[le] for le in bounds if le < bound)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 0.5))


class TestLabelCardinalityCap:
    def test_overflow_child_absorbs_excess_label_sets(self):
        registry = MetricsRegistry(max_label_sets=3)
        children = [registry.counter("c_total", labels={"k": str(i)})
                    for i in range(3)]
        assert len({id(c) for c in children}) == 3
        overflow_a = registry.counter("c_total", labels={"k": "99"})
        overflow_b = registry.counter("c_total", labels={"k": "1234"})
        assert overflow_a is overflow_b
        assert overflow_a.labels == {"overflow": "true"}
        assert registry.dropped_label_sets == 2

    def test_existing_label_sets_survive_the_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        keep = registry.counter("c_total", labels={"k": "keep"})
        registry.counter("c_total", labels={"k": "other"})
        registry.counter("c_total", labels={"k": "dropped"})
        assert registry.counter("c_total", labels={"k": "keep"}) is keep


class TestDisabledRegistry:
    def test_counters_and_histograms_are_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        hist = registry.histogram("h_seconds")
        assert counter is NULL_COUNTER
        assert hist is NULL_HISTOGRAM
        counter.inc(100)
        hist.observe(1.0)
        assert counter.value == 0.0
        assert hist.count == 0

    def test_gauges_stay_live_when_disabled(self):
        # The overload ladder reads pool memory through a registry
        # gauge; telemetry off must not blind admission control.
        registry = MetricsRegistry(enabled=False)
        gauge = registry.gauge("g", callback=lambda: 123)
        assert gauge.value == 123.0

    def test_families_and_exports_are_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c_total")
        registry.gauge("g").set(5)
        assert registry.families() == []
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestRegistryCatalog:
    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_find_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.find("missing") is None
        assert registry.value("missing", default=-1.0) == -1.0

    def test_value_on_histogram_returns_default(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds").observe(1.0)
        assert registry.value("h_seconds", default=-1.0) == -1.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h_seconds").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["c_total"] == 3.0
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h_seconds"]["count"] == 1.0

    def test_series_name_is_order_stable(self):
        assert (series_name("c", {"b": "2", "a": "1"})
                == series_name("c", {"a": "1", "b": "2"})
                == "c{a=1,b=2}")

    def test_invalid_max_label_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry(max_label_sets=0)


class TestBucketMigration:
    """Merging is bucket-wise addition, so bucket layouts must match.

    Every dump comes from a worker running the same code as the
    coordinator; a dump under any other layout (the older 10 µs-bottom
    one included) is rejected rather than migrated.
    """

    OLD_BUCKETS = DEFAULT_LATENCY_BUCKETS[3:]  # the pre-sub-µs layout

    def test_defaults_bottom_out_below_a_microsecond(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-6
        assert self.OLD_BUCKETS[0] == 1e-5

    def test_non_subset_bounds_still_rejected(self):
        old = Histogram("h_seconds", buckets=(0.015, 1.5))
        new = Histogram("h_seconds")
        with pytest.raises(ConfigurationError):
            new.merge_state(old.dump_state())

    def test_subset_bounds_rejected_too(self):
        old = Histogram("h_seconds", buckets=self.OLD_BUCKETS)
        old.observe(3e-4)
        new = Histogram("h_seconds")
        with pytest.raises(ConfigurationError):
            new.merge_state(old.dump_state())


class TestFleetMerge:
    def test_two_shard_p99_is_the_fleet_tail(self):
        """Shard 0 at 1 ms and shard 1 at 100 ms: the fleet p99 is the
        slow shard's, not the first-merged shard's."""
        dumps = {}
        for shard, seconds in ((0, 0.001), (1, 0.1)):
            registry = MetricsRegistry()
            hist = registry.histogram("repro_stage_seconds",
                                      labels={"stage": "bundle_match"})
            for _ in range(1000):
                hist.observe(seconds)
            dumps[shard] = registry.dump()
        fleet = merge_worker_dumps(dumps).find(
            "repro_stage_seconds", {"stage": "bundle_match"})
        assert fleet.count == 2000
        assert fleet.mean == pytest.approx(0.0505)
        assert fleet.percentile(99) >= 0.05
        assert fleet.percentile(100) == 0.1
        # 1 ms sits on a bucket bound, so the fast half reads exactly it.
        assert fleet.percentile(50) == 0.001
