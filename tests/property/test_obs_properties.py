"""Property-based tests (hypothesis) on telemetry invariants."""

from __future__ import annotations

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry, Tracer
from repro.runtime import merge_worker_dumps

observations = st.lists(
    st.floats(min_value=1e-9, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300)

#: Decade buckets; values are drawn both on and between the bounds.
BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
QUANTILES = (0, 50, 95, 99, 100)
values_near_bounds = st.one_of(
    st.sampled_from(BOUNDS),
    st.floats(min_value=0.0, max_value=1e4,
              allow_nan=False, allow_infinity=False))


@given(values=observations)
@settings(max_examples=60)
def test_percentiles_are_ordered_and_bounded(values):
    """p50 ≤ p95 ≤ p99, and every quantile sits inside [min, max]."""
    hist = Histogram("h", buckets=(0.001, 1.0, 100.0))
    for value in values:
        hist.observe(value)
    p50, p95, p99 = (hist.percentile(q) for q in (50, 95, 99))
    assert p50 <= p95 <= p99
    assert min(values) <= p50
    assert p99 <= max(values)
    assert hist.min == min(values)
    assert hist.max == max(values)


@given(runs=st.lists(st.tuples(values_near_bounds, st.integers(1, 64),
                                st.integers(0, 3)),
                      min_size=1, max_size=40),
       shards=st.integers(1, 4))
@settings(deadline=None)
def test_fleet_merge_equals_one_histogram(runs, shards):
    """A sequence split across 1-4 worker registries and folded by
    ``merge_worker_dumps`` reads exactly like one histogram fed the
    whole sequence: buckets, count, min, max and every percentile."""
    registries = [MetricsRegistry() for _ in range(shards)]
    parts = [registry.histogram("repro_stage_seconds", buckets=BOUNDS,
                                labels={"stage": "bundle_match"})
             for registry in registries]
    whole = Histogram("repro_stage_seconds", buckets=BOUNDS)
    for value, repeats, shard in runs:
        for _ in range(repeats):
            parts[shard % shards].observe(value)
            whole.observe(value)
    fleet = merge_worker_dumps(
        {index: registry.dump() for index, registry in enumerate(registries)})
    merged = fleet.find("repro_stage_seconds", {"stage": "bundle_match"})
    assert merged.bucket_counts == whole.bucket_counts
    assert merged.count == whole.count
    assert (merged.min, merged.max) == (whole.min, whole.max)
    assert merged.sum == pytest.approx(whole.sum, rel=1e-9)
    assert ([merged.percentile(q) for q in QUANTILES]
            == [whole.percentile(q) for q in QUANTILES])


@given(values=st.lists(values_near_bounds, min_size=1, max_size=300),
       extra=st.lists(st.floats(min_value=0.0, max_value=100.0),
                      max_size=8))
@settings(deadline=None)
def test_percentile_is_monotone_inside_the_true_quantile_bucket(values,
                                                                extra):
    """``percentile`` never decreases in q, and it lies inside the
    edges — clamped to [min, max] — of the bucket that holds the
    nearest-rank true quantile."""
    hist = Histogram("h", buckets=BOUNDS)
    for value in values:
        hist.observe(value)
    ordered = sorted(values)
    edges = (float("-inf"), *BOUNDS, float("inf"))
    qs = sorted({*QUANTILES, *extra})
    readings = [hist.percentile(q) for q in qs]
    assert readings == sorted(readings)
    assert readings[0] == ordered[0] and readings[-1] == ordered[-1]
    for q, reading in zip(qs, readings):
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        # Buckets are Prometheus ``le`` intervals (lower, bound].
        bucket = bisect_left(BOUNDS, ordered[rank - 1])
        low = max(edges[bucket], hist.min)
        high = min(edges[bucket + 1], hist.max)
        assert low <= reading <= high


@given(values=observations)
@settings(max_examples=60)
def test_bucket_counts_conserve_observations(values):
    """Cumulative buckets end at the exact observation count and never
    decrease bound to bound."""
    hist = Histogram("h", buckets=(0.001, 1.0, 100.0))
    for value in values:
        hist.observe(value)
    cumulative = hist.cumulative_buckets()
    counts = [count for _, count in cumulative]
    assert counts == sorted(counts)
    assert counts[-1] == len(values)
    assert hist.sum == sum(values)


@given(rate=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(0, 2**16),
       count=st.integers(1, 200))
@settings(max_examples=60)
def test_sampling_replay_is_identical(rate, seed, count):
    """Two tracers with the same (seed, rate) sample the same ids."""
    def sampled_ids() -> "list[int]":
        tracer = Tracer(sample_rate=rate, seed=seed)
        out = []
        for trace_id in range(count):
            trace = tracer.begin(trace_id)
            if trace is not None:
                out.append(trace_id)
                tracer.finish(trace, outcome="matched")
        assert tracer.offered == count
        return out

    first, second = sampled_ids(), sampled_ids()
    assert first == second
    if rate == 0.0:
        assert first == []
    if rate == 1.0:
        assert first == list(range(count))


@given(label_values=st.lists(st.text(alphabet="abcdef", min_size=1,
                                     max_size=4),
                             min_size=1, max_size=40),
       cap=st.integers(1, 8))
@settings(max_examples=60)
def test_label_cardinality_never_exceeds_cap(label_values, cap):
    """However many label sets arrive, a family holds at most ``cap``
    children plus one shared overflow child."""
    registry = MetricsRegistry(max_label_sets=cap)
    for value in label_values:
        registry.counter("c_total", labels={"k": value}).inc()
    (family,) = registry.families()
    assert len(family.children) <= cap
    kept = {key[0][1] for key in family.children}
    # Every call whose label set did not win a child slot was counted.
    assert registry.dropped_label_sets == sum(
        1 for value in label_values if value not in kept)
    if len(set(label_values)) > cap:
        assert family.overflow is not None
    # Every increment landed somewhere: totals are conserved.
    total = sum(child.value for child in family.samples())
    assert total == len(label_values)
