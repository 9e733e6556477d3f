"""In-process reference for a routed shard fleet (test oracle only).

What ``repro.runtime``'s worker processes must agree with, and what the
router properties are stated against: route each message with
:func:`~repro.core.sharding.make_router`, hand it to the owning plain
engine, and answer every question by looping over all engines again.
Nothing is batched, cached or pipelined, and there is no serving
surface — one message at a time, every total a fresh sum.
"""

from __future__ import annotations

from repro.api import STATS_KEYS
from repro.core.engine import ProvenanceIndexer
from repro.core.message import Message
from repro.core.sharding import make_router
from repro.query.bundle_search import BundleHit


class RoutedEngines:
    """``shard_count`` default-configured engines behind one router."""

    def __init__(self, shard_count: int, router: str = "hash") -> None:
        self.router = make_router(router, shard_count)
        self.engines = [ProvenanceIndexer() for _ in range(shard_count)]

    def ingest(self, message: Message) -> int:
        """Index ``message`` on the shard it routes to; returns the shard."""
        shard = self.router.route(message)
        self.engines[shard].ingest(message)
        return shard

    def ingest_each(self, messages: "list[Message]") -> "RoutedEngines":
        for message in messages:
            self.ingest(message)
        return self

    def messages_per_shard(self) -> "list[int]":
        return [engine.stats()["messages_ingested"]
                for engine in self.engines]

    def edge_pairs(self) -> "set[tuple[int, int]]":
        pairs: "set[tuple[int, int]]" = set()
        for engine in self.engines:
            pairs |= engine.edge_pairs()
        return pairs

    def stats(self) -> "dict[str, int]":
        totals = {key: sum(engine.stats()[key] for engine in self.engines)
                  for key in STATS_KEYS}
        totals["shard_count"] = len(self.engines)
        return totals

    def search_by_shard(self, raw_query: str, k: int,
                        ) -> "list[tuple[int, BundleHit]]":
        """Every shard's top ``k``, merged: score, then shard, then id."""
        tagged = [(shard, hit)
                  for shard, engine in enumerate(self.engines)
                  for hit in engine.search(raw_query, k=k)]
        tagged.sort(key=lambda pair: (-pair[1].score, pair[0],
                                      pair[1].bundle_id))
        return tagged[:k]
