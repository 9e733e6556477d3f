"""Tests for the bundle pool and Algorithm 3 refinement."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import pool as pool_module
from repro.core.bundle import Bundle
from repro.core.config import DAY_SECONDS, IndexerConfig
from repro.core.errors import BundleNotFoundError
from repro.core.pool import BundlePool
from repro.core.summary_index import SummaryIndex
from tests.conftest import BASE_DATE, make_message


class _RecordingSink:
    def __init__(self) -> None:
        self.bundles: list[Bundle] = []

    def append(self, bundle: Bundle) -> None:
        self.bundles.append(bundle)


def fill_bundle(pool: BundlePool, size: int, *, hours: float,
                tag: str) -> Bundle:
    bundle = pool.create_bundle()
    for index in range(size):
        bundle.insert(make_message(
            bundle.bundle_id * 1000 + index, f"#{tag} msg{index}",
            user=f"u{index}", hours=hours + index * 0.01))
    return bundle


class TestPoolBasics:
    def test_create_assigns_sequential_ids(self):
        pool = BundlePool()
        ids = [pool.create_bundle().bundle_id for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_get_and_contains(self):
        pool = BundlePool()
        bundle = pool.create_bundle()
        assert bundle.bundle_id in pool
        assert pool.get(bundle.bundle_id) is bundle

    def test_get_missing_raises(self):
        pool = BundlePool()
        with pytest.raises(BundleNotFoundError):
            pool.get(42)

    def test_try_get_missing_returns_none(self):
        assert BundlePool().try_get(1) is None

    def test_message_count_sums_members(self):
        pool = BundlePool()
        fill_bundle(pool, 3, hours=0, tag="a")
        fill_bundle(pool, 2, hours=0, tag="b")
        assert pool.message_count() == 5

    def test_needs_refinement_uses_trigger(self):
        config = IndexerConfig(max_pool_size=2, refine_trigger=2)
        pool = BundlePool(config)
        pool.create_bundle()
        pool.create_bundle()
        assert not pool.needs_refinement()
        pool.create_bundle()
        assert pool.needs_refinement()

    def test_unbounded_pool_never_needs_refinement(self):
        pool = BundlePool(IndexerConfig.full_index())
        for _ in range(100):
            pool.create_bundle()
        assert not pool.needs_refinement()


class TestRefinement:
    @mock.patch.object(pool_module, "REFINE_AGE", DAY_SECONDS)
    def test_aging_tiny_bundles_deleted(self):
        config = IndexerConfig(max_pool_size=100)
        pool = BundlePool(config)
        tiny_old = fill_bundle(pool, 1, hours=0, tag="old")
        big_old = fill_bundle(pool, 5, hours=0, tag="big")
        now = BASE_DATE + 3 * DAY_SECONDS
        report = pool.refine(now)
        assert report.deleted_tiny == 1
        assert tiny_old.bundle_id not in pool
        assert big_old.bundle_id in pool

    def test_fresh_tiny_bundles_survive(self):
        config = IndexerConfig(max_pool_size=100)
        pool = BundlePool(config)
        fresh_tiny = fill_bundle(pool, 1, hours=0, tag="fresh")
        report = pool.refine(BASE_DATE + 3600.0)
        assert report.deleted_tiny == 0
        assert fresh_tiny.bundle_id in pool

    def test_closed_bundles_dumped_to_sink(self):
        config = IndexerConfig(max_pool_size=100)
        pool = BundlePool(config)
        bundle = fill_bundle(pool, 5, hours=0, tag="x")
        bundle.close()
        sink = _RecordingSink()
        report = pool.refine(BASE_DATE + 10.0, sink=sink)
        assert report.dumped_closed == 1
        assert sink.bundles == [bundle]
        assert bundle.bundle_id not in pool

    def test_ranked_eviction_down_to_target(self):
        config = IndexerConfig(max_pool_size=10, refine_target_fraction=0.5)
        pool = BundlePool(config)
        for index in range(20):
            fill_bundle(pool, 4, hours=index * 0.1, tag=f"t{index}")
        sink = _RecordingSink()
        report = pool.refine(BASE_DATE + 3 * 3600.0, sink=sink)
        assert len(pool) == 5
        assert report.evicted_ranked == 15
        assert len(sink.bundles) == 15

    def test_eviction_prefers_old_and_small(self):
        config = IndexerConfig(max_pool_size=4, refine_target_fraction=0.5)
        pool = BundlePool(config)
        old_small = fill_bundle(pool, 2, hours=0, tag="a")
        new_big = fill_bundle(pool, 8, hours=5, tag="b")
        fill_bundle(pool, 8, hours=5.1, tag="c")
        pool.refine(BASE_DATE + 6 * 3600.0)
        assert old_small.bundle_id not in pool
        assert new_big.bundle_id in pool

    @mock.patch.object(pool_module, "REFINE_AGE", DAY_SECONDS)
    @mock.patch.object(pool_module, "REFINE_TINY_SIZE", 5)
    def test_refine_updates_summary_index(self):
        config = IndexerConfig(max_pool_size=100)
        pool = BundlePool(config)
        bundle = fill_bundle(pool, 2, hours=0, tag="gone")
        index = SummaryIndex()
        for msg_id in bundle.message_ids():
            index.add_message(bundle.bundle_id, bundle.get(msg_id),
                              frozenset())
        pool.refine(BASE_DATE + 3 * DAY_SECONDS, summary_index=index)
        assert index.postings("hashtag", "gone") == {}

    def test_on_evict_callback_fires(self):
        evicted: list[int] = []
        config = IndexerConfig(max_pool_size=1, refine_target_fraction=1.0)
        pool = BundlePool(config, on_evict=lambda b: evicted.append(
            b.bundle_id))
        fill_bundle(pool, 2, hours=0, tag="a")
        fill_bundle(pool, 2, hours=1, tag="b")
        pool.refine(BASE_DATE + 2 * 3600.0)
        assert evicted  # at least one bundle left the pool

    def test_report_counts_are_consistent(self):
        config = IndexerConfig(max_pool_size=4, refine_target_fraction=0.5)
        pool = BundlePool(config)
        for index in range(8):
            fill_bundle(pool, 3, hours=index * 0.1, tag=f"t{index}")
        before = len(pool)
        report = pool.refine(BASE_DATE + 3600.0)
        assert report.scanned == before
        assert before - report.removed == report.pool_size_after
        assert report.pool_size_after == len(pool)

    def test_refinement_count_increments(self):
        pool = BundlePool(IndexerConfig(max_pool_size=10))
        pool.refine(BASE_DATE)
        pool.refine(BASE_DATE)
        assert pool.refinement_count == 2


class TestRefinementPolicies:
    def _pool_with(self, policy: str) -> BundlePool:
        config = IndexerConfig(max_pool_size=2, refine_target_fraction=0.5,
                               refine_policy=policy)
        pool = BundlePool(config)
        # old+large vs new+small: the two policies disagree about these.
        fill_bundle(pool, 10, hours=0, tag="old_large")
        fill_bundle(pool, 2, hours=5, tag="new_small")
        return pool

    def test_age_policy_evicts_oldest(self):
        pool = self._pool_with("age")
        pool.refine(BASE_DATE + 6 * 3600.0)
        assert 1 in pool  # new_small survives

    def test_size_policy_evicts_smallest(self):
        pool = self._pool_with("size")
        pool.refine(BASE_DATE + 6 * 3600.0)
        assert 0 in pool  # old_large survives

    def test_g_policy_balances_both(self):
        # Eq. 6 in hours: old_large scores ~6+0.1, new_small ~1+0.5 —
        # age dominates here, matching the paper's intuition.
        pool = self._pool_with("g")
        pool.refine(BASE_DATE + 6 * 3600.0)
        assert 1 in pool


@mock.patch.object(pool_module, "REFINE_AGE", DAY_SECONDS)
class TestEvictionHistograms:
    def _bound_pool(self) -> BundlePool:
        from repro.obs.registry import MetricsRegistry

        config = IndexerConfig(max_pool_size=4, refine_target_fraction=0.5)
        pool = BundlePool(config)
        pool.bind_registry(MetricsRegistry())
        return pool

    def _histograms(self, pool: BundlePool):
        return pool._evicted_size_hist, pool._evicted_age_hist

    def test_refine_observes_size_and_age(self):
        pool = self._bound_pool()
        for tag in ("a", "b", "c", "d", "e"):
            fill_bundle(pool, 4, hours=0.0, tag=tag)
        pool.refine(BASE_DATE + 3 * 3600.0)
        size_hist, age_hist = self._histograms(pool)
        assert size_hist.count > 0
        assert size_hist.count == age_hist.count
        assert size_hist.min >= 1          # evicted bundles had members
        assert age_hist.min >= 0.0         # age never negative

    def test_tiny_aging_eviction_observed(self):
        pool = self._bound_pool()
        fill_bundle(pool, 1, hours=0.0, tag="tiny")
        pool.refine(BASE_DATE + 2 * DAY_SECONDS)
        size_hist, _ = self._histograms(pool)
        assert size_hist.count == 1
        assert size_hist.max == 1

    def test_shed_observes_evictions(self):
        pool = self._bound_pool()
        for tag in ("a", "b", "c"):
            fill_bundle(pool, 4, hours=0.0, tag=tag)
        pool.shed(BASE_DATE + 3600.0, target_bytes=1)
        size_hist, age_hist = self._histograms(pool)
        assert size_hist.count > 0
        assert age_hist.count == size_hist.count

    def test_unbound_pool_uses_null_histograms(self):
        pool = BundlePool(IndexerConfig(max_pool_size=4,
                                        refine_target_fraction=0.5))
        for tag in ("a", "b", "c", "d", "e"):
            fill_bundle(pool, 4, hours=0.0, tag=tag)
        pool.refine(BASE_DATE + 3 * 3600.0)  # must not raise
