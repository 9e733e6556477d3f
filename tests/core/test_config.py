"""Tests for IndexerConfig validation and the experiment-variant factories."""

from __future__ import annotations

import pytest

from repro.core.config import DAY_SECONDS, IndexerConfig
from repro.core.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        config = IndexerConfig()
        assert config.max_pool_size is None

    @pytest.mark.parametrize("field", [
        "url_weight", "hashtag_weight", "time_weight",
        "keyword_weight", "rt_weight",
    ])
    def test_negative_weights_rejected(self, field):
        with pytest.raises(ConfigurationError):
            IndexerConfig(**{field: -0.1})

    def test_negative_min_match_score_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(min_match_score=-1.0)

    @pytest.mark.parametrize("value", [0, -5])
    def test_nonpositive_pool_size_rejected(self, value):
        with pytest.raises(ConfigurationError):
            IndexerConfig(max_pool_size=value)

    def test_nonpositive_refine_trigger_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_trigger=0)

    def test_nonpositive_refine_age_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_age=0.0)

    def test_negative_tiny_size_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_tiny_size=-1)

    @pytest.mark.parametrize("value", [0.0, 1.5])
    def test_target_fraction_bounds(self, value):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_target_fraction=value)

    def test_target_fraction_one_is_allowed(self):
        assert IndexerConfig(refine_target_fraction=1.0)

    def test_nonpositive_bundle_size_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(max_bundle_size=0)

    def test_nonpositive_max_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(max_candidates=0)

    def test_negative_max_keywords_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(max_keywords=-1)

    def test_nonpositive_alloc_window_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(alloc_window=0)

    def test_postings_layout_is_not_an_option(self):
        # One layout ships; the dict one is tests/postings_oracle.py.
        with pytest.raises(TypeError):
            IndexerConfig(postings_backend="dict")

    def test_unknown_refine_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_policy="lru")

    @pytest.mark.parametrize("policy", ["g", "age", "size"])
    def test_known_policies_accepted(self, policy):
        assert IndexerConfig(refine_policy=policy).refine_policy == policy


class TestFactories:
    def test_full_index_has_no_limits(self):
        config = IndexerConfig.full_index()
        assert config.max_pool_size is None
        assert config.max_bundle_size is None

    def test_partial_index_sets_pool_and_trigger(self):
        config = IndexerConfig.partial_index(pool_size=5000)
        assert config.max_pool_size == 5000
        assert config.refine_trigger == 5000
        assert config.max_bundle_size is None

    def test_bundle_limit_sets_both(self):
        config = IndexerConfig.bundle_limit(pool_size=100, bundle_size=20)
        assert config.max_pool_size == 100
        assert config.max_bundle_size == 20

    def test_factory_accepts_overrides(self):
        config = IndexerConfig.partial_index(pool_size=10, rt_weight=5.0)
        assert config.rt_weight == 5.0

    def test_with_overrides_returns_new_instance(self):
        base = IndexerConfig()
        changed = base.with_overrides(url_weight=3.0)
        assert changed.url_weight == 3.0
        assert base.url_weight == 1.0
        assert changed is not base

    def test_config_is_frozen(self):
        config = IndexerConfig()
        with pytest.raises(AttributeError):
            config.url_weight = 2.0  # type: ignore[misc]

    def test_day_constant(self):
        assert DAY_SECONDS == 86400.0
