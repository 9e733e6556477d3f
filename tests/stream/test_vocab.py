"""Tests for vocabulary models and samplers."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.stream.vocab import (COMMON_WORDS, EMOTIONAL_FRAGMENTS,
                                TOPIC_BANKS, ShortUrlFactory, Vocabulary,
                                ZipfSampler)


class TestZipfSampler:
    def test_requires_items(self):
        with pytest.raises(ValueError):
            ZipfSampler([])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(["a"], s=-1.0)

    def test_samples_come_from_items(self):
        sampler = ZipfSampler(["a", "b", "c"])
        rng = random.Random(1)
        assert set(sampler.sample_many(rng, 100)) <= {"a", "b", "c"}

    def test_rank_skew(self):
        """Rank-0 item must be drawn noticeably more often than rank-9."""
        sampler = ZipfSampler([f"w{i}" for i in range(10)], s=1.2)
        rng = random.Random(2)
        counts = Counter(sampler.sample_many(rng, 5000))
        assert counts["w0"] > 3 * counts["w9"]

    def test_deterministic_under_seed(self):
        sampler = ZipfSampler(list("abcdef"))
        first = sampler.sample_many(random.Random(7), 50)
        second = sampler.sample_many(random.Random(7), 50)
        assert first == second

    def test_uniform_when_s_zero(self):
        sampler = ZipfSampler(["a", "b"], s=0.0)
        rng = random.Random(3)
        counts = Counter(sampler.sample_many(rng, 2000))
        assert abs(counts["a"] - counts["b"]) < 300


class TestWordBanks:
    def test_common_words_nonempty_and_unique(self):
        assert len(COMMON_WORDS) > 100
        assert len(set(COMMON_WORDS)) == len(COMMON_WORDS)

    def test_topic_banks_have_words_and_tags(self):
        for theme, (words, tags) in TOPIC_BANKS.items():
            assert len(words) >= 10, theme
            assert len(tags) >= 2, theme

    def test_emotional_fragments_short(self):
        assert all(len(f) < 40 for f in EMOTIONAL_FRAGMENTS)


class TestVocabulary:
    def test_default_includes_all_themes(self):
        vocabulary = Vocabulary.default()
        assert set(vocabulary.themes) == set(TOPIC_BANKS)

    def test_background_words(self):
        vocabulary = Vocabulary.default()
        words = vocabulary.background_words(random.Random(1), 5)
        assert len(words) == 5
        assert all(w in COMMON_WORDS for w in words)


class TestShortUrlFactory:
    def test_urls_unique(self):
        factory = ShortUrlFactory(random.Random(1))
        pool = factory.new_pool(200)
        assert len(set(pool)) == 200

    def test_url_shape(self):
        factory = ShortUrlFactory(random.Random(2))
        url = factory.new_url()
        host, _, slug = url.partition("/")
        assert host in ShortUrlFactory._HOSTS
        assert len(slug) == 5

    def test_deterministic(self):
        a = ShortUrlFactory(random.Random(9)).new_pool(5)
        b = ShortUrlFactory(random.Random(9)).new_pool(5)
        assert a == b
