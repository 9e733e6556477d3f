"""Extension — sharded scale-out: router trade-off measurement.

Sharding must place every message on exactly one engine; the two routers
trade provenance co-location against load balance:

* the stateless **hash** router splits events whose messages carry
  varying indicant subsets (a message tagged only ``#samoa0930`` and one
  tagged ``#samoa0930 #tsunami`` can hash apart), losing the edges that
  cross the cut;
* the **co-occurrence** (union-find) router keeps topics together by
  construction, at the price of coarser components and more skew.

Measured against a single unsharded engine as ground truth.
"""

from __future__ import annotations

from repro.bench.reporting import ascii_table, format_float, human_count
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.metrics import compare_edge_sets
from repro.core.sharding import make_router

SHARD_COUNTS = (2, 4, 8)


def run_sharding(stream):
    single = ProvenanceIndexer(IndexerConfig.full_index())
    for message in stream:
        single.ingest(message)
    reference = single.edge_pairs()

    rows = {}
    for router in ("hash", "cooccurrence"):
        for shard_count in SHARD_COUNTS:
            route = make_router(router, shard_count).route
            engines = [ProvenanceIndexer(IndexerConfig.full_index())
                       for _ in range(shard_count)]
            for message in stream:
                engines[route(message)].ingest(message)
            edges = set().union(*(e.edge_pairs() for e in engines))
            loads = [e.stats.messages_ingested for e in engines]
            # max/mean load ratio (1.0 = perfectly balanced)
            imbalance = max(loads) * shard_count / sum(loads)
            rows[(router, shard_count)] = (
                compare_edge_sets(edges, reference).coverage, imbalance)
    return rows


def test_sharding_router_tradeoff(benchmark, stream, emit):
    sample = stream[: min(10_000, len(stream))]
    rows = benchmark.pedantic(run_sharding, args=(sample,),
                              rounds=1, iterations=1)

    table = ascii_table(
        ["router", "shards", "edge coverage", "load imbalance"],
        [[router, count, format_float(coverage),
          format_float(imbalance, 2)]
         for (router, count), (coverage, imbalance) in rows.items()],
        title=(f"Sharding router trade-off "
               f"({human_count(len(sample))} messages)"))
    emit("sharding_colocation", table)

    for (router, count), (coverage, imbalance) in rows.items():
        assert coverage > 0.6, (router, count)
        assert imbalance < 6.0, (router, count)
    # The trade-off must actually materialise at the widest fan-out:
    # co-occurrence keeps more edges than hash routing...
    hash_cov = rows[("hash", 8)][0]
    coop_cov = rows[("cooccurrence", 8)][0]
    assert coop_cov >= hash_cov - 0.02
    # ...and hash routing is never (meaningfully) less balanced.
    hash_imb = rows[("hash", 8)][1]
    coop_imb = rows[("cooccurrence", 8)][1]
    assert hash_imb <= coop_imb + 0.5
