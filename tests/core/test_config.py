"""Tests for IndexerConfig validation and the experiment-variant factories."""

from __future__ import annotations

from dataclasses import replace

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

    @pytest.mark.parametrize("value", [0, -5])
    def test_nonpositive_pool_size_rejected(self, value):
        with pytest.raises(ConfigurationError):
            IndexerConfig(max_pool_size=value)

    def test_nonpositive_refine_trigger_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_trigger=0)

    @pytest.mark.parametrize("value", [0.0, 1.5])
    def test_target_fraction_bounds(self, value):
        with pytest.raises(ConfigurationError):
            IndexerConfig(refine_target_fraction=value)

    def test_target_fraction_one_is_allowed(self):
        assert IndexerConfig(refine_target_fraction=1.0)

    def test_nonpositive_bundle_size_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexerConfig(max_bundle_size=0)

    def test_postings_layout_is_not_an_option(self):
        # One layout ships; the dict one is tests/postings_oracle.py.
        with pytest.raises(TypeError):
            IndexerConfig(postings_backend="dict")

    @pytest.mark.parametrize("field", [
        "min_match_score", "alloc_window", "refine_age", "refine_tiny_size",
        "max_candidates", "max_keywords", "keyword_hit_cap",
    ])
    def test_calibration_values_are_not_options(self, field):
        # Module constants beside their readers (core/config.py docstring).
        with pytest.raises(TypeError):
            IndexerConfig(**{field: 1})

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

    def test_replace_returns_a_validated_copy(self):
        base = IndexerConfig()
        changed = replace(base, url_weight=3.0)
        assert changed.url_weight == 3.0
        assert base.url_weight == 1.0
        assert changed is not base
        with pytest.raises(ConfigurationError):
            replace(base, url_weight=-1.0)

    def test_config_is_frozen(self):
        config = IndexerConfig()
        with pytest.raises(AttributeError):
            config.url_weight = 2.0  # type: ignore[misc]

    def test_day_constant(self):
        assert DAY_SECONDS == 86400.0
