"""Tests for Equations 1-6 (scoring functions)."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import scoring
from repro.core.config import HOUR_SECONDS, IndexerConfig
from repro.core.connection import ConnectionType
from repro.core.scoring import (dominant_connection_type, hashtag_overlap,
                                message_similarity, refinement_score,
                                time_closeness, url_overlap)
from tests.conftest import BASE_DATE, make_message
from tests.scoring_oracle import bundle_match_score


class TestUrlOverlap:
    def test_full_overlap(self):
        later = make_message(2, "x http://bit.ly/a", hours=1)
        earlier = make_message(1, "y http://bit.ly/a")
        assert url_overlap(later, earlier) == 1.0

    def test_partial_overlap_uses_later_denominator(self):
        later = make_message(2, "x bit.ly/a bit.ly/b", hours=1)
        earlier = make_message(1, "y bit.ly/a")
        assert url_overlap(later, earlier) == pytest.approx(0.5)

    def test_no_urls_in_later_message(self):
        later = make_message(2, "no links", hours=1)
        earlier = make_message(1, "y bit.ly/a")
        assert url_overlap(later, earlier) == 0.0

    def test_disjoint_urls(self):
        later = make_message(2, "x bit.ly/a", hours=1)
        earlier = make_message(1, "y bit.ly/b")
        assert url_overlap(later, earlier) == 0.0


class TestHashtagOverlap:
    def test_full_overlap(self):
        later = make_message(2, "#redsox", hours=1)
        earlier = make_message(1, "#redsox #mlb")
        assert hashtag_overlap(later, earlier) == 1.0

    def test_partial(self):
        later = make_message(2, "#redsox #yankees", hours=1)
        earlier = make_message(1, "#redsox")
        assert hashtag_overlap(later, earlier) == pytest.approx(0.5)

    def test_no_tags(self):
        later = make_message(2, "plain", hours=1)
        earlier = make_message(1, "#redsox")
        assert hashtag_overlap(later, earlier) == 0.0


class TestTimeCloseness:
    def test_simultaneous_messages_score_one(self):
        a = make_message(1, "a")
        b = make_message(2, "b")
        assert time_closeness(a, b) == 1.0

    def test_one_hour_apart_halves(self):
        a = make_message(1, "a", hours=0)
        b = make_message(2, "b", hours=1)
        assert time_closeness(b, a) == pytest.approx(0.5)

    def test_symmetric(self):
        a = make_message(1, "a", hours=0)
        b = make_message(2, "b", hours=5)
        assert time_closeness(a, b) == time_closeness(b, a)

    def test_monotone_decreasing_in_span(self):
        a = make_message(1, "a", hours=0)
        scores = [time_closeness(make_message(2, "b", hours=h), a)
                  for h in (1, 2, 10, 100)]
        assert scores == sorted(scores, reverse=True)


class TestMessageSimilarity:
    def test_combines_all_components(self):
        config = IndexerConfig(url_weight=1.0, hashtag_weight=0.8,
                               time_weight=0.5, rt_weight=2.0)
        earlier = make_message(1, "#redsox bit.ly/a", user="amalie")
        later = make_message(
            2, "RT @amalie: #redsox bit.ly/a", user="fan", hours=1)
        # U=1, H=1, T=0.5, RT hit.
        expected = 1.0 * 1.0 + 0.8 * 1.0 + 0.5 * 0.5 + 2.0
        assert message_similarity(later, earlier, config) == pytest.approx(
            expected)

    def test_rt_bonus_requires_author_match(self):
        config = IndexerConfig()
        earlier = make_message(1, "hello", user="someoneelse")
        later = make_message(2, "RT @amalie: hello", user="fan", hours=1)
        without_rt = message_similarity(later, earlier, config)
        earlier_match = make_message(1, "hello", user="amalie")
        with_rt = message_similarity(later, earlier_match, config)
        assert with_rt == pytest.approx(without_rt + config.rt_weight)

    def test_zero_weights_silence_components(self):
        config = IndexerConfig(url_weight=0.0, hashtag_weight=0.0,
                               time_weight=0.0, rt_weight=0.0)
        earlier = make_message(1, "#redsox bit.ly/a", user="amalie")
        later = make_message(2, "RT @amalie: #redsox bit.ly/a", hours=1)
        assert message_similarity(later, earlier, config) == 0.0


class TestDominantConnectionType:
    def test_rt_beats_everything(self):
        earlier = make_message(1, "#tag bit.ly/a", user="amalie")
        later = make_message(2, "RT @amalie: #tag bit.ly/a", hours=1)
        assert dominant_connection_type(later, earlier) is ConnectionType.RT

    def test_url_beats_hashtag(self):
        earlier = make_message(1, "#tag bit.ly/a")
        later = make_message(2, "other #tag bit.ly/a", user="b", hours=1)
        assert dominant_connection_type(later, earlier) is ConnectionType.URL

    def test_hashtag_when_only_tags_shared(self):
        earlier = make_message(1, "#tag")
        later = make_message(2, "more #tag", user="b", hours=1)
        assert dominant_connection_type(later, earlier) is (
            ConnectionType.HASHTAG)

    def test_text_fallback(self):
        earlier = make_message(1, "plain words")
        later = make_message(2, "other words", user="b", hours=1)
        assert dominant_connection_type(later, earlier) is ConnectionType.TEXT


class TestBundleMatchScore:
    @mock.patch.object(scoring, "KEYWORD_HIT_CAP", 10)
    def test_counts_not_fractions(self):
        config = IndexerConfig(url_weight=1.0, hashtag_weight=0.8,
                               keyword_weight=0.2, time_weight=0.0)
        message = make_message(1, "x")
        score = bundle_match_score(
            message, shared_urls=2, shared_hashtags=3, shared_keywords=4,
            rt_hit=False, bundle_last_date=message.date, config=config)
        assert score == pytest.approx(2 * 1.0 + 3 * 0.8 + 4 * 0.2)

    def test_fresh_bundle_beats_stale_on_ties(self):
        config = IndexerConfig()
        message = make_message(1, "x", hours=10)
        fresh = bundle_match_score(
            message, shared_urls=0, shared_hashtags=1, shared_keywords=0,
            rt_hit=False, bundle_last_date=BASE_DATE + 9.5 * HOUR_SECONDS,
            config=config)
        stale = bundle_match_score(
            message, shared_urls=0, shared_hashtags=1, shared_keywords=0,
            rt_hit=False, bundle_last_date=BASE_DATE, config=config)
        assert fresh > stale

    def test_rt_hit_adds_rt_weight(self):
        config = IndexerConfig()
        message = make_message(1, "x")
        base = bundle_match_score(
            message, shared_urls=0, shared_hashtags=0, shared_keywords=0,
            rt_hit=False, bundle_last_date=message.date, config=config)
        with_rt = bundle_match_score(
            message, shared_urls=0, shared_hashtags=0, shared_keywords=0,
            rt_hit=True, bundle_last_date=message.date, config=config)
        assert with_rt == pytest.approx(base + config.rt_weight)

    def test_single_keyword_cannot_reach_default_threshold(self):
        """The calibration fact that prevents mega-bundles: one shared
        background keyword plus maximal freshness stays below
        MIN_MATCH_SCORE."""
        config = IndexerConfig()
        message = make_message(1, "x")
        score = bundle_match_score(
            message, shared_urls=0, shared_hashtags=0, shared_keywords=1,
            rt_hit=False, bundle_last_date=message.date, config=config)
        assert score < scoring.MIN_MATCH_SCORE

    def test_keyword_contribution_is_capped(self):
        """Many shared keywords must not beat the cap — this is what
        prevents mega-bundles from attracting every message."""
        config = IndexerConfig()
        message = make_message(1, "x")
        capped = bundle_match_score(
            message, shared_urls=0, shared_hashtags=0,
            shared_keywords=scoring.KEYWORD_HIT_CAP,
            rt_hit=False, bundle_last_date=message.date, config=config)
        flooded = bundle_match_score(
            message, shared_urls=0, shared_hashtags=0, shared_keywords=50,
            rt_hit=False, bundle_last_date=message.date, config=config)
        assert flooded == pytest.approx(capped)
        assert flooded < scoring.MIN_MATCH_SCORE

    def test_single_hashtag_on_live_bundle_reaches_threshold(self):
        config = IndexerConfig()
        message = make_message(1, "x")
        score = bundle_match_score(
            message, shared_urls=0, shared_hashtags=1, shared_keywords=0,
            rt_hit=False, bundle_last_date=message.date, config=config)
        assert score >= scoring.MIN_MATCH_SCORE


class TestRefinementScore:
    def test_older_scores_higher(self):
        now = BASE_DATE + 100 * HOUR_SECONDS
        old = refinement_score(BASE_DATE, 10, now)
        new = refinement_score(now - HOUR_SECONDS, 10, now)
        assert old > new

    def test_smaller_scores_higher_at_same_age(self):
        now = BASE_DATE + 10 * HOUR_SECONDS
        small = refinement_score(BASE_DATE, 1, now)
        big = refinement_score(BASE_DATE, 100, now)
        assert small > big

    def test_eq6_shape(self):
        now = BASE_DATE + 2 * HOUR_SECONDS
        assert refinement_score(BASE_DATE, 4, now) == pytest.approx(
            2.0 + 0.25)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            refinement_score(BASE_DATE, 0, BASE_DATE)
