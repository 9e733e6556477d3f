"""Tests for shard routing."""

from __future__ import annotations

import pytest

from repro.core.config import IndexerConfig
from repro.core.errors import ConfigurationError
from repro.core.metrics import compare_edge_sets
from repro.core.sharding import make_router, primary_indicant
from tests.conftest import make_message
from tests.sharding_oracle import RoutedEngines


class TestPrimaryIndicant:
    def test_hashtag_wins(self):
        message = make_message(0, "RT @a: text #zeta bit.ly/x", user="me")
        assert primary_indicant(message) == "t:zeta"

    def test_url_second(self):
        message = make_message(0, "RT @a: text bit.ly/x", user="me")
        assert primary_indicant(message) == "u:bit.ly/x"

    def test_rt_user_third(self):
        message = make_message(0, "RT @a: plain text", user="me")
        assert primary_indicant(message) == "a:a"

    def test_author_fallback(self):
        message = make_message(0, "plain text", user="me")
        assert primary_indicant(message) == "a:me"

    def test_stable_tie_break(self):
        first = make_message(0, "#b #a x")
        second = make_message(1, "#a #b y", user="other", hours=1)
        assert primary_indicant(first) == primary_indicant(second) == "t:a"


class TestRouting:
    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            make_router("hash", 0)

    def test_same_topic_same_shard(self):
        router = make_router("hash", 4)
        shards = {router.route(make_message(i, f"#topic msg {i}",
                                            user=f"u{i}", hours=i * 0.1))
                  for i in range(10)}
        assert len(shards) == 1

    def test_topics_spread_across_shards(self):
        router = make_router("hash", 4)
        shards = {router.route(make_message(i, f"#topic{i} msg",
                                            user=f"u{i}", hours=i * 0.1))
                  for i in range(40)}
        assert len(shards) >= 3

    def test_routing_deterministic_across_instances(self):
        first = make_router("hash", 8)
        second = make_router("hash", 8)
        for index in range(20):
            message = make_message(index, f"#t{index} x", user=f"u{index}",
                                   hours=index * 0.1)
            assert first.route(message) == second.route(message)


class TestCooccurrenceRouter:
    def test_invalid_router_rejected(self):
        with pytest.raises(ConfigurationError):
            make_router("random", 2)

    def test_varying_tag_subsets_still_colocate(self):
        """The case the hash router gets wrong: one message carries only
        the event tag, another the event tag plus a broad stem."""
        router = make_router("cooccurrence", 8)
        bridging = make_message(0, "start #samoa0930 #tsunami")
        only_event = make_message(1, "more #samoa0930", user="b", hours=0.1)
        only_stem = make_message(2, "also #tsunami", user="c", hours=0.2)
        shards = {router.route(bridging), router.route(only_event),
                  router.route(only_stem)}
        assert len(shards) == 1

    def test_beats_hash_router_on_edge_coverage(self):
        from repro.core.engine import ProvenanceIndexer

        messages = []
        for index in range(60):
            # alternate between tag subsets of the same 6 events
            event = index % 6
            tags = f"#event{event}" if index % 2 else \
                f"#event{event} #broad{event % 2}"
            messages.append(make_message(index, f"{tags} words here",
                                         user=f"u{index % 7}",
                                         hours=index * 0.05))
        single = ProvenanceIndexer(IndexerConfig())
        for message in messages:
            single.ingest(message)
        reference = single.edge_pairs()

        def coverage(router: str) -> float:
            routed = RoutedEngines(8, router).ingest_each(messages)
            return compare_edge_sets(routed.edge_pairs(),
                                     reference).coverage

        assert coverage("cooccurrence") >= coverage("hash")

    def test_deterministic(self):
        def placements() -> list[int]:
            router = make_router("cooccurrence", 4)
            return [router.route(make_message(
                index, f"#t{index % 3} #x{index % 2} m",
                user=f"u{index}", hours=index * 0.1))
                for index in range(20)]

        assert placements() == placements()
