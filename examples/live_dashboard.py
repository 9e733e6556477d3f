#!/usr/bin/env python
"""Live dashboard — what a platform operator sees above the indexer.

Replays a stream hour by hour and renders, at each tick, the views the
other modules provide on top of the provenance index:

* hashtag burst alarms (sliding-window monitor),
* trending bundles by growth velocity,
* continuous-feed deltas for a standing query,
* credible-source and noise-account boards at the end.

Usage::

    python examples/live_dashboard.py
"""

from __future__ import annotations

from repro import IndexerConfig, ProvenanceIndexer
from repro.bench.reporting import ascii_table
from repro.core.credibility import CredibilityTracker
from repro.query import FeedRegistry, trending_bundles
from repro.stream import (SlidingWindowMonitor, StreamConfig,
                          StreamGenerator)

HOUR = 3600.0


def main() -> None:
    messages = StreamGenerator(
        StreamConfig(days=1.5, messages_per_day=4000, seed=47,
                     events_per_day=18.0)
    ).generate_list()

    indexer = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=400))
    monitor = SlidingWindowMonitor(short_window=0.5 * HOUR,
                                   long_window=6 * HOUR, min_count=8)
    feeds = FeedRegistry(indexer)
    feeds.subscribe("health", "flu OR vaccine OR outbreak h1n1")

    next_tick = messages[0].date + 6 * HOUR
    for message in messages:
        indexer.ingest(message)
        for alarm in monitor.observe(message):
            print(f"[{(alarm.date - messages[0].date) / HOUR:5.1f}h] "
                  f"BURST #{alarm.hashtag}: {alarm.short_count} msgs in "
                  f"30min ({alarm.ratio:.0f}x baseline)")
        if message.date >= next_tick:
            next_tick += 6 * HOUR
            hours = (message.date - messages[0].date) / HOUR
            trending = trending_bundles(indexer, k=3, window=6 * HOUR)
            summary = "; ".join(
                f"b{entry.bundle_id} {entry.velocity:.0f}/h "
                f"({', '.join(entry.summary_words[:3])})"
                for entry in trending)
            print(f"[{hours:5.1f}h] trending: {summary or '(quiet)'}")
            for update in feeds.poll_all():
                grown = [f"b{hit.bundle_id}+{hit.size}"
                         for hit in update.grown_bundles]
                fresh = [f"b{hit.bundle_id}(new)"
                         for hit in update.new_bundles]
                print(f"[{hours:5.1f}h] feed {update.feed_name!r}: "
                      f"{' '.join(fresh + grown)}")

    print(f"\nend of stream: {indexer.stats.messages_ingested} messages, "
          f"{len(indexer.pool)} live bundles, "
          f"{indexer.stats.refinements} refinement scans")

    tracker = CredibilityTracker()
    tracker.observe_pool(indexer.bundles())
    print(ascii_table(
        ["rank", "credible source", "score", "noise account", "score"],
        [[position + 1, f"@{top[0]}", f"{top[1]:.2f}",
          f"@{bottom[0]}", f"{bottom[1]:.2f}"]
         for position, (top, bottom) in enumerate(zip(
             tracker.top_users(5, min_messages=5),
             tracker.noise_users(5, min_messages=5)))],
        title="source quality board (provenance feedback)"))


if __name__ == "__main__":
    main()
