"""Sliding-window rate statistics and burst alarms over the live stream.

Operational companion to the indexer: tracks message rate in simulated
stream time (the replay clock, not wall clock), per-hashtag momentum, and
raises burst alarms when a tag's short-window rate exceeds a multiple of
its long-window baseline — the "breaking events … are popular and users
monitor them by repeated searches" phenomenon the paper opens with.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from repro.core.message import Message

__all__ = ["BurstAlarm", "SlidingWindowMonitor"]

_HOUR = 3600.0
#: Alarm when a hashtag's short-window rate exceeds this multiple of its
#: long-window baseline (rates normalised per window length).
BURST_RATIO = 3.0


@dataclass(frozen=True, slots=True)
class BurstAlarm:
    """A hashtag whose short-window rate exceeds its baseline."""

    hashtag: str
    date: float
    short_count: int
    long_count: int
    ratio: float


class SlidingWindowMonitor:
    """Two-window (short/long) rate tracking with hashtag burst alarms.

    Parameters
    ----------
    short_window / long_window:
        Window lengths in seconds of simulated stream time; the short
        window must be strictly smaller.
    min_count:
        A hashtag alarms only once its short-window count reaches this,
        and its rate passes :data:`BURST_RATIO` times its baseline.
    """

    def __init__(self, *, short_window: float = 0.5 * _HOUR,
                 long_window: float = 6 * _HOUR,
                 min_count: int = 5) -> None:
        if short_window <= 0 or long_window <= short_window:
            raise ValueError(
                "need 0 < short_window < long_window, got "
                f"{short_window} / {long_window}")
        if min_count <= 0:
            raise ValueError(f"min_count must be positive, got {min_count}")
        self.short_window = short_window
        self.long_window = long_window
        self.min_count = min_count
        self._events: deque[tuple[float, frozenset[str]]] = deque()
        self._short_events: deque[tuple[float, frozenset[str]]] = deque()
        self._short_tags: Counter[str] = Counter()
        self._long_tags: Counter[str] = Counter()
        self._alarmed: set[str] = set()
        self.current_date = float("-inf")

    def __len__(self) -> int:
        """Messages inside the long window."""
        return len(self._events)

    def observe(self, message: Message) -> list[BurstAlarm]:
        """Feed one message (date-ordered); return any new burst alarms.

        A hashtag alarms once per burst: it must fall back below the
        ratio before it can alarm again.
        """
        self.current_date = max(self.current_date, message.date)
        event = (message.date, message.hashtags)
        self._events.append(event)
        self._short_events.append(event)
        self._long_tags.update(message.hashtags)
        self._short_tags.update(message.hashtags)
        self._expire()

        alarms = []
        scale = self.long_window / self.short_window
        for tag in message.hashtags:
            short = self._short_tags[tag]
            long_total = self._long_tags[tag]
            if short < self.min_count:
                continue
            baseline = max(long_total - short, 1)
            ratio = short * (scale - 1.0) / baseline
            if ratio > BURST_RATIO:
                if tag not in self._alarmed:
                    self._alarmed.add(tag)
                    alarms.append(BurstAlarm(
                        hashtag=tag, date=message.date,
                        short_count=short, long_count=long_total,
                        ratio=ratio))
            else:
                self._alarmed.discard(tag)
        return alarms

    def message_rate(self, *, per: float = _HOUR) -> float:
        """Messages per ``per`` seconds over the short window."""
        return len(self._short_events) * per / self.short_window

    def top_hashtags(self, k: int = 10) -> list[tuple[str, int]]:
        """Most frequent hashtags in the long window."""
        return self._long_tags.most_common(k)

    def _expire(self) -> None:
        long_cutoff = self.current_date - self.long_window
        short_cutoff = self.current_date - self.short_window
        while self._events and self._events[0][0] < long_cutoff:
            _, tags = self._events.popleft()
            for tag in tags:
                self._long_tags[tag] -= 1
                if self._long_tags[tag] <= 0:
                    del self._long_tags[tag]
        while self._short_events and self._short_events[0][0] < short_cutoff:
            _, tags = self._short_events.popleft()
            for tag in tags:
                self._short_tags[tag] -= 1
                if self._short_tags[tag] <= 0:
                    del self._short_tags[tag]
