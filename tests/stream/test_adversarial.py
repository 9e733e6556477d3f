"""Tests for the seeded adversarial workload scenarios."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.stream import generator
from repro.stream.generator import (ADVERSARIAL_SCENARIOS,
                                    AdversarialConfig,
                                    AdversarialGenerator, StreamConfig,
                                    StreamError, StreamGenerator)

BASE = StreamConfig(seed=11, days=0.5, messages_per_day=800,
                    user_count=120, events_per_day=20.0)


def generate(scenario: str, **kw):
    return AdversarialGenerator(
        AdversarialConfig(scenario=scenario, base=BASE, **kw)
    ).generate_list()


@pytest.mark.parametrize("scenario", ADVERSARIAL_SCENARIOS)
class TestEveryScenario:
    def test_deterministic_by_seed(self, scenario):
        assert generate(scenario, seed=5) == generate(scenario, seed=5)

    def test_seed_changes_the_attack(self, scenario):
        if scenario == "mega-cascade":
            pytest.skip("cascade shape is seeded by the base stream")
        assert generate(scenario, seed=5) != generate(scenario, seed=6)

    def test_ids_unique(self, scenario):
        messages = generate(scenario)
        ids = [message.msg_id for message in messages]
        assert len(ids) == len(set(ids))


class TestInjectionScenarios:
    @pytest.mark.parametrize("scenario", ["spam-flood", "hashtag-hijack",
                                          "near-dup-storm"])
    def test_organic_messages_survive_byte_identical(self, scenario):
        organic = StreamGenerator(BASE).generate_list()
        mixed = generate(scenario)
        by_id = {message.msg_id: message for message in mixed}
        for message in organic:
            assert by_id[message.msg_id] == message

    @pytest.mark.parametrize("scenario", ["spam-flood", "hashtag-hijack",
                                          "near-dup-storm"])
    def test_attacks_carry_no_ground_truth(self, scenario):
        organic_count = len(StreamGenerator(BASE).generate_list())
        attacks = [message for message in generate(scenario)
                   if message.msg_id >= organic_count]
        assert attacks, "the scenario must inject traffic"
        assert all(message.event_id is None for message in attacks)
        assert all(message.parent_id is None for message in attacks)

    def test_intensity_scales_attack_volume(self):
        organic = len(StreamGenerator(BASE).generate_list())
        with mock.patch.object(generator, "INTENSITY", 0.1):
            light = len(generate("spam-flood")) - organic
        with mock.patch.object(generator, "INTENSITY", 0.5):
            heavy = len(generate("spam-flood")) - organic
        assert heavy > light > 0

    def test_merged_stream_is_date_ordered(self):
        messages = generate("spam-flood")
        dates = [message.date for message in messages]
        assert dates == sorted(dates)

    def test_hijack_reuses_trending_hashtags(self):
        from collections import Counter

        organic = StreamGenerator(BASE).generate_list()
        counts = Counter(tag for message in organic
                         for tag in message.hashtags)
        # Tie-robust top-10: everything at least as common as the 10th.
        floor = sorted(counts.values(), reverse=True)[:10][-1]
        trending = {tag for tag, n in counts.items() if n >= floor}
        attacks = [message for message in generate("hashtag-hijack")
                   if message.msg_id >= len(organic)]
        hits = sum(1 for message in attacks
                   if trending & set(message.hashtags))
        assert hits == len(attacks)

    def test_storm_copies_are_undeclared_near_dups(self):
        organic = StreamGenerator(BASE).generate_list()
        attacks = [message for message in generate("near-dup-storm")
                   if message.msg_id >= len(organic)]
        assert attacks
        # Copies must not carry RT markers — the whole point is testing
        # the *undeclared* duplicate path.
        assert all(not message.rt_users for message in attacks)


class TestMegaCascade:
    def test_one_enormous_event_dominates(self):
        from collections import Counter

        messages = generate("mega-cascade")  # CASCADE_FACTOR is 20
        events = Counter(message.event_id for message in messages
                         if message.event_id is not None)
        biggest = max(events.values())
        rest = sorted(events.values())[:-1]
        typical = max(rest) if rest else 1
        assert biggest >= 5 * typical


class TestSkewedClock:
    @mock.patch.object(generator, "SKEW_FRACTION", 0.3)
    def test_stream_arrives_out_of_order(self):
        messages = generate("skewed-clock")
        dates = [message.date for message in messages]
        assert dates != sorted(dates)

    @mock.patch.object(generator, "SKEW_FRACTION", 0.3)
    def test_only_dates_change(self):
        organic = StreamGenerator(BASE).generate_list()
        skewed = generate("skewed-clock")
        assert len(skewed) == len(organic)
        for original, moved in zip(organic, skewed):
            assert moved.msg_id == original.msg_id
            assert moved.text == original.text
            assert moved.event_id == original.event_id
            assert moved.parent_id == original.parent_id


class TestValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(StreamError):
            AdversarialConfig(scenario="zerg-rush", base=BASE)
