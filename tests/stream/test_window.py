"""Tests for sliding-window monitoring and burst alarms."""

from __future__ import annotations

import pytest

from repro.stream import window
from repro.stream.window import SlidingWindowMonitor
from tests.conftest import make_message

HOUR = 3600.0


def feed(monitor, messages):
    alarms = []
    for message in messages:
        alarms.extend(monitor.observe(message))
    return alarms


class TestValidation:
    def test_short_must_be_less_than_long(self):
        with pytest.raises(ValueError):
            SlidingWindowMonitor(short_window=HOUR, long_window=HOUR)

    def test_positive_windows(self):
        with pytest.raises(ValueError):
            SlidingWindowMonitor(short_window=0, long_window=HOUR)

    def test_burst_ratio_above_one(self):
        # A ratio at or below 1 would alarm on every steady tag.
        assert window.BURST_RATIO > 1.0

    def test_min_count_positive(self):
        with pytest.raises(ValueError):
            SlidingWindowMonitor(min_count=0)


class TestWindowing:
    def test_long_window_expiry(self):
        monitor = SlidingWindowMonitor(short_window=HOUR,
                                       long_window=4 * HOUR)
        feed(monitor, [make_message(i, "x #a", user=f"u{i}", hours=i)
                       for i in range(10)])
        # only messages within the last 4h remain
        assert len(monitor) <= 5

    def test_message_rate(self):
        monitor = SlidingWindowMonitor(short_window=HOUR,
                                       long_window=4 * HOUR)
        feed(monitor, [make_message(i, "x", user=f"u{i}", hours=9 + i * 0.1)
                       for i in range(5)])
        # 5 messages within the last half hour < short window of 1h
        assert monitor.message_rate(per=HOUR) == pytest.approx(5.0)

    def test_top_hashtags(self):
        monitor = SlidingWindowMonitor()
        feed(monitor, [make_message(i, "#hot topic", user=f"u{i}",
                                    hours=i * 0.01) for i in range(4)])
        assert monitor.top_hashtags(1) == [("hot", 4)]


class TestBurstAlarms:
    def _burst_stream(self):
        # 6 hours of background #slow chatter, then a dense #boom burst.
        background = [make_message(i, "chat #slow", user=f"u{i}",
                                   hours=i * 0.5) for i in range(12)]
        burst = [make_message(100 + i, "breaking #boom", user=f"b{i}",
                              hours=6.0 + i * 0.02) for i in range(10)]
        return background + burst

    def test_burst_detected(self):
        monitor = SlidingWindowMonitor(short_window=0.5 * HOUR,
                                       long_window=6 * HOUR,
                                       min_count=5)
        alarms = feed(monitor, self._burst_stream())
        assert any(alarm.hashtag == "boom" for alarm in alarms)

    def test_steady_tag_never_alarms(self):
        monitor = SlidingWindowMonitor(short_window=0.5 * HOUR,
                                       long_window=6 * HOUR,
                                       min_count=5)
        steady = [make_message(i, "chat #slow", user=f"u{i}",
                               hours=i * 0.25) for i in range(48)]
        alarms = feed(monitor, steady)
        assert all(alarm.hashtag != "slow" for alarm in alarms)

    def test_alarm_fires_once_per_burst(self):
        monitor = SlidingWindowMonitor(short_window=0.5 * HOUR,
                                       long_window=6 * HOUR,
                                       min_count=5)
        alarms = feed(monitor, self._burst_stream())
        boom_alarms = [a for a in alarms if a.hashtag == "boom"]
        assert len(boom_alarms) == 1

    def test_alarm_carries_counts(self):
        monitor = SlidingWindowMonitor(short_window=0.5 * HOUR,
                                       long_window=6 * HOUR,
                                       min_count=5)
        alarms = feed(monitor, self._burst_stream())
        alarm = next(a for a in alarms if a.hashtag == "boom")
        assert alarm.short_count >= 5
        assert alarm.ratio > 3.0

    def test_min_count_suppresses_tiny_bursts(self):
        monitor = SlidingWindowMonitor(short_window=0.5 * HOUR,
                                       long_window=6 * HOUR,
                                       min_count=50)
        alarms = feed(monitor, self._burst_stream())
        assert alarms == []
