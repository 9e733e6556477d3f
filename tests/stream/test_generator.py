"""Tests for the synthetic stream generator."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import StreamError
from repro.stream.generator import (StreamConfig, StreamGenerator,
                                    make_event_spec)
from repro.stream.users import UserPool
from repro.stream.vocab import ShortUrlFactory


@pytest.fixture(scope="module")
def stream():
    config = StreamConfig(days=1.0, messages_per_day=1500, seed=5,
                          user_count=300, events_per_day=6.0)
    return StreamGenerator(config).generate_list()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"days": 0},
        {"messages_per_day": 0},
        {"noise_fraction": 1.0},
        {"noise_fraction": -0.1},
        {"user_count": 0},
        {"events_per_day": -1.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(StreamError):
            StreamConfig(**kwargs)

    def test_total_messages(self):
        config = StreamConfig(days=2.0, messages_per_day=100)
        assert config.total_messages == 200

    def test_end_date(self):
        config = StreamConfig(days=1.0)
        assert config.end_date == config.start_date + 86400.0


class TestGeneratedStream:
    def test_exact_message_count(self, stream):
        assert len(stream) == 1500

    def test_date_ordered(self, stream):
        dates = [m.date for m in stream]
        assert dates == sorted(dates)

    def test_ids_sequential(self, stream):
        assert [m.msg_id for m in stream] == list(range(len(stream)))

    def test_dates_within_window(self, stream):
        config = StreamConfig(days=1.0, messages_per_day=1500, seed=5,
                              user_count=300, events_per_day=6.0)
        assert all(config.start_date <= m.date < config.end_date
                   for m in stream)

    def test_deterministic_under_seed(self):
        config = StreamConfig(days=0.5, messages_per_day=400, seed=9,
                              user_count=100)
        first = StreamGenerator(config).generate_list()
        second = StreamGenerator(config).generate_list()
        assert first == second

    def test_different_seeds_differ(self):
        base = dict(days=0.5, messages_per_day=400, user_count=100)
        a = StreamGenerator(StreamConfig(seed=1, **base)).generate_list()
        b = StreamGenerator(StreamConfig(seed=2, **base)).generate_list()
        assert a != b

    def test_noise_fraction_roughly_respected(self, stream):
        unlabelled = sum(1 for m in stream if m.event_id is None)
        fraction = unlabelled / len(stream)
        assert 0.10 < fraction < 0.45  # target 0.25, volumes are stochastic

    def test_retweets_exist_with_ground_truth_parents(self, stream):
        retweets = [m for m in stream if m.parent_id is not None]
        assert retweets
        by_id = {m.msg_id: m for m in stream}
        for message in retweets:
            parent = by_id[message.parent_id]
            assert parent.date <= message.date
            assert parent.event_id == message.event_id

    def test_rt_text_marks_parent_author(self, stream):
        by_id = {m.msg_id: m for m in stream}
        retweets = [m for m in stream if m.parent_id is not None]
        sampled = retweets[:50]
        for message in sampled:
            parent = by_id[message.parent_id]
            assert parent.user in message.rt_users

    def test_event_messages_share_indicants(self, stream):
        """Messages of one event must overlap on hashtags or URLs often
        enough for provenance discovery to have a signal."""
        from collections import defaultdict
        by_event = defaultdict(list)
        for message in stream:
            if message.event_id is not None:
                by_event[message.event_id].append(message)
        big_events = [msgs for msgs in by_event.values() if len(msgs) >= 10]
        assert big_events
        for msgs in big_events:
            tagged = sum(1 for m in msgs if m.hashtags)
            assert tagged / len(msgs) > 0.4

    def test_iter_protocol(self):
        config = StreamConfig(days=0.2, messages_per_day=100, seed=3,
                              user_count=50)
        assert len(list(StreamGenerator(config))) == 20

    def test_event_specs_exposed_after_generation(self, stream):
        config = StreamConfig(days=1.0, messages_per_day=1500, seed=5,
                              user_count=300, events_per_day=6.0)
        generator = StreamGenerator(config)
        generator.generate_list()
        specs = generator.event_specs()
        assert specs
        assert len({spec.event_id for spec in specs}) == len(specs)


class TestMakeEventSpec:
    def _deps(self):
        rng = random.Random(1)
        return rng, UserPool.generate(20, rng), ShortUrlFactory(rng)

    def test_unknown_theme_rejected(self):
        rng, users, urls = self._deps()
        with pytest.raises(StreamError):
            make_event_spec(event_id=0, theme="nope", name="x",
                            start=0.0, duration_hours=1.0, volume=5,
                            rng=rng, users=users, url_factory=urls)

    def test_spec_fields_populated(self):
        rng, users, urls = self._deps()
        spec = make_event_spec(event_id=3, theme="tsunami", name="samoa",
                               start=100.0, duration_hours=2.0, volume=9,
                               rng=rng, users=users, url_factory=urls)
        assert spec.event_id == 3
        assert spec.topic_words and spec.hashtags and spec.urls
        assert spec.core_users
        assert spec.duration == pytest.approx(7200.0)


class TestExtraEvents:
    def test_injected_event_appears_in_stream(self):
        rng = random.Random(1)
        users = UserPool.generate(20, rng)
        urls = ShortUrlFactory(rng)
        config_base = StreamConfig(days=1.0, messages_per_day=500, seed=2,
                                   user_count=100, events_per_day=2.0)
        spec = make_event_spec(
            event_id=900, theme="tsunami", name="samoa-tsunami",
            start=config_base.start_date + 3600.0, duration_hours=5.0,
            volume=40, rng=rng, users=users, url_factory=urls)
        config = StreamConfig(days=1.0, messages_per_day=500, seed=2,
                              user_count=100, events_per_day=2.0,
                              extra_events=(spec,))
        stream = StreamGenerator(config).generate_list()
        labelled = [m for m in stream if m.event_id == 900]
        assert len(labelled) == 40
