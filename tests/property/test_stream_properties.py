"""Property-based tests for stream-layer components."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import parse_message
from repro.core.sharding import make_router
from repro.stream.sampling import sample_deterministic, sample_uniform
from repro.stream.window import SlidingWindowMonitor
from tests.sharding_oracle import RoutedEngines

BASE_DATE = 1_249_084_800.0


@st.composite
def ordered_streams(draw, max_size: int = 25, id_start: int = 0):
    count = draw(st.integers(min_value=0, max_value=max_size))
    stream = []
    date = BASE_DATE
    for index in range(count):
        date += draw(st.floats(min_value=0.0, max_value=5000.0,
                               allow_nan=False))
        tag = draw(st.sampled_from(["a", "b", "c"]))
        stream.append(parse_message(
            id_start + index, draw(st.sampled_from(["x", "y"])),
            date, f"#{tag} text {index}"))
    return stream


class TestSamplingProperties:
    @settings(max_examples=30)
    @given(ordered_streams(), st.floats(min_value=0.05, max_value=1.0),
           st.integers(0, 100))
    def test_uniform_sample_is_ordered_subsequence(self, stream, rate,
                                                   seed):
        sampled = list(sample_uniform(stream, rate, seed=seed))
        ids = [m.msg_id for m in sampled]
        assert ids == sorted(ids)
        assert set(ids) <= {m.msg_id for m in stream}

    @settings(max_examples=30)
    @given(ordered_streams(),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=0.9))
    def test_deterministic_subset_monotone_in_rate(self, stream, rate,
                                                   delta):
        low = {m.msg_id for m in
               sample_deterministic(stream, rate * (1 - delta) or 0.01,
                                    salt="s")}
        high = {m.msg_id for m in sample_deterministic(stream, rate,
                                                       salt="s")}
        assert low <= high


class TestWindowProperties:
    @settings(max_examples=30, deadline=None)
    @given(ordered_streams(max_size=40))
    def test_window_counts_conserved(self, stream):
        monitor = SlidingWindowMonitor(short_window=1800.0,
                                       long_window=7200.0)
        for message in stream:
            monitor.observe(message)
            # the long window can never hold more than everything seen
            assert len(monitor) <= len(stream)
            # every retained tag count is positive
            for _, count in monitor.top_hashtags(100):
                assert count > 0


class TestShardingProperties:
    @settings(max_examples=30, deadline=None)
    @given(ordered_streams(max_size=30),
           st.integers(min_value=1, max_value=8),
           st.sampled_from(["hash", "cooccurrence"]))
    def test_every_message_placed_once(self, stream, shards, router):
        routed = RoutedEngines(shards, router)
        for message in stream:
            assert 0 <= routed.ingest(message) < shards
        assert sum(routed.messages_per_shard()) == len(stream)

    @settings(max_examples=30)
    @given(ordered_streams(max_size=30),
           st.integers(min_value=2, max_value=8))
    def test_hash_router_pure(self, stream, shards):
        """The hash router must not depend on ingestion history."""
        fresh = make_router("hash", shards)
        warmed = make_router("hash", shards)
        for message in stream:
            warmed.route(message)
        for message in stream:
            assert fresh.route(message) == warmed.route(message)
