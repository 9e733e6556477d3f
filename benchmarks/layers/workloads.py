"""The five workloads as a data table: stream, query set, backend.

Each workload names a seeded stream shape, how that stream is cut into
timed ingest calls, how many reads ride beside the writes, and which of
the three shipped serving stacks receives it.  ``BENCHMARK.json`` holds
the one-line reason each workload exists; ``README.md`` holds the table
of which layer each one stresses and which it bypasses.

The driver talks to a backend through the :class:`repro.api.Indexer`
protocol (``search`` / ``snapshot`` / ``edge_pairs`` / ``close``).  The
adapter classes below cover only what the protocol does not spell the
same way everywhere: the ingest call of the fleet, the completion
barrier, arrival accounting, public counters and reopening a root.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.message import Message
from repro.reliability.overload import OverloadConfig
from repro.reliability.supervisor import ResilientIndexer
from repro.runtime import ShardedRuntime
from repro.storage.bundle_store import BundleStore
from repro.stream.generator import (AdversarialConfig, AdversarialGenerator,
                                    StreamConfig, StreamGenerator)
from repro.text.analyzer import Analyzer

#: Top-k of every read.
SEARCH_K = 10
#: Queries per kind (hot hashtag / mid-frequency keyword pair / miss).
QUERIES_PER_KIND = 6


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _dense_config(seed: int, messages: int,
                  events_per_day: float = 240.0) -> StreamConfig:
    """The heavy-hitter shape ``bench_parallel`` / ``bench_hotpath`` use."""
    return StreamConfig(
        seed=seed, days=(messages + 0.5) / 100_000.0,
        messages_per_day=100_000, user_count=max(messages // 25, 200),
        events_per_day=events_per_day)


def dense_stream(seed: int, messages: int) -> list[Message]:
    return StreamGenerator(
        _dense_config(seed, messages)).generate_list()[:messages]


def sparse_stream(seed: int, messages: int) -> list[Message]:
    """The long-tail shape ``bench_anatomy`` uses: small gathers, churn."""
    config = StreamConfig(
        seed=seed, days=(messages + 0.5) / 1750.0, messages_per_day=1750,
        user_count=400, events_per_day=15.0, event_volume_max=400)
    return StreamGenerator(config).generate_list()[:messages]


def hostile_stream(seed: int, messages: int) -> list[Message]:
    """A near-duplicate storm merged into a dense base (+25% arrivals).

    ``messages`` counts the organic base; the attack copies come on top.
    The base is a quarter of the shared dense stream's length (admission
    makes this stack slow), so it gets four times the event rate: the
    same two dozen events, or edge quality would swing with the seed.
    """
    return AdversarialGenerator(AdversarialConfig(
        "near-dup-storm", base=_dense_config(seed, messages, 960.0),
        seed=seed)).generate_list()


def make_queries(stream: list[Message], seed: int) -> list[str]:
    """The fixed read set: hot hashtags, mid keyword pairs, misses.

    One third each, interleaved so any prefix of the list keeps the mix.
    Hot = the stream's most frequent hashtags; mid = pairs drawn from
    the middle band of keyword frequency (every fifth message analysed,
    which is enough to rank a band); miss = consonant strings no
    vocabulary bank contains, so they must return nothing.
    """
    tags = Counter(tag for message in stream for tag in message.hashtags)
    hot = [f"#{tag}" for tag, _ in sorted(
        tags.items(), key=lambda kv: (-kv[1], kv[0]))[:QUERIES_PER_KIND]]
    analyzer = Analyzer()
    words = Counter(word for message in stream[::5]
                    for word in analyzer.keywords(message.text))
    ranked = [word for word, _ in sorted(
        words.items(), key=lambda kv: (-kv[1], kv[0]))]
    band = ranked[len(ranked) // 10: len(ranked) * 4 // 10]
    rng = random.Random(seed)
    mid = [" ".join(rng.sample(band, 2)) for _ in range(QUERIES_PER_KIND)]
    miss = [f"zqxjvk{chr(97 + i)} #wvqzjx{chr(97 + i)}"
            for i in range(QUERIES_PER_KIND)]
    return [query for trio in zip(hot, mid, miss) for query in trio]


def is_miss(query: str) -> bool:
    return query.startswith("zqxjvk")


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class Backend:
    """What the driver needs beyond the :class:`repro.api.Indexer`
    protocol; the defaults suit a single in-process engine."""

    indexer: Any
    #: The in-process engine and its spill store, when there is one.
    engine: "ProvenanceIndexer | None" = None
    store: "BundleStore | None" = None

    def ingest(self, batch: list[Message]) -> None:
        self.indexer.ingest_batch(batch, count_only=True)

    def complete(self) -> None:
        """Make every ingested message durable and searchable."""

    def reconcile(self) -> None:
        """Work between shards that runs asynchronously to ingest."""

    def reopen(self) -> "Backend | None":
        """A backend recovered from the same root after ``close()``."""
        return None

    def accounting(self) -> dict[str, int]:
        """Where every offered arrival went; the values sum to the
        number offered."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative public counters (the driver takes differences)."""
        engine = self.engine
        assert engine is not None
        registry = engine.obs.registry
        return {
            "refinements": engine.stats()["refinements"],
            "capped": registry.value("repro_candidate_capped_total"),
            "wal_syncs": registry.value("repro_wal_syncs_total"),
            "wal_bytes": registry.value("repro_wal_bytes_total"),
            "stage_timer_s": engine.timers.total,
        }

    def observe(self, facts: dict[str, Any], state: dict[str, float],
                problems: list[str]) -> None:
        """End-of-replay readings particular to this kind of backend."""
        assert self.engine is not None
        state["entries"] = self.engine.summary_index.entry_count()
        if self.store is not None and len(self.store):
            state["store_bundles"] = len(self.store)
            state["store_bytes"] = self.store.total_bytes()


class EngineBackend(Backend):
    """The bare Alg. 1-3 engine, optionally spilling evictions to disk."""

    def __init__(self, root: Path, *, pool_size: int, spill: bool) -> None:
        self.store = BundleStore(root / "bundles") if spill else None
        self.indexer = self.engine = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=pool_size),
            store=self.store)

    def accounting(self) -> dict[str, int]:
        return {"indexed": self.indexer.stats()["messages_ingested"]}


class StackBackend(Backend):
    """The default durable stack: WAL, snapshots, spill store, supervisor."""

    def __init__(self, root: Path, **options: Any) -> None:
        self._root = root
        self._options = options
        self.indexer = ResilientIndexer.open(root / "stack", sync_every=512,
                                             **options)
        self.engine = self.indexer.indexer
        # Admission wraps the spill store in a circuit-breaker sink.
        self.store = getattr(self.engine.store, "sink", self.engine.store)

    def complete(self) -> None:
        self.indexer.flush_guard()
        self.indexer.journaled.journal.sync()

    def reopen(self) -> "StackBackend":
        return StackBackend(self._root, **self._options)

    def accounting(self) -> dict[str, int]:
        supervisor = self.indexer
        guard = supervisor.guard.stats if supervisor.guard else None
        folded = guard.folded if guard else 0
        report = supervisor.health_report()
        return {
            # ResilientStats.ingested already includes folds.
            "indexed": supervisor.stats.ingested - folded,
            "folded": folded,
            "quarantined": guard.quarantined if guard else 0,
            "shed": report.admission.dropped if report else 0,
            "deferred": report.queue_depth if report else 0,
            "dead_lettered": supervisor.stats.dead_lettered,
        }

    def observe(self, facts: dict[str, Any], state: dict[str, float],
                problems: list[str]) -> None:
        super().observe(facts, state, problems)
        supervisor = self.indexer
        state["retries"] = supervisor.stats.retries
        report = supervisor.health_report()
        if report is not None:
            state["ladder_transitions"] = len(report.transitions)
            if int(report.state) != 0:
                problems.append(f"ladder ended at {report.state.label}")
        if supervisor.guard is not None:
            guard = supervisor.guard.stats
            facts["fold_ratio"] = guard.folded / guard.screened
            state["quarantine_ratio"] = guard.quarantined / guard.screened


class FleetBackend(Backend):
    """Two worker processes behind the routing coordinator."""

    #: Sub-batch each routed buffer is shipped in.
    BATCH_SIZE = 128

    def __init__(self, root: Path, router: str) -> None:
        self._root = root
        self._router = router
        self.indexer = ShardedRuntime(
            root / "fleet", 2, config=IndexerConfig.partial_index(200),
            router=router, sync_every=512)
        self._repair = {"probed": 0, "repaired": 0}

    def ingest(self, batch: list[Message]) -> None:
        # Returns once every batch is ACKed, and a worker ACKs only
        # after its fsync: complete() has nothing left to make durable.
        self.indexer.ingest_stream(batch, batch_size=self.BATCH_SIZE)

    def reconcile(self) -> None:
        self._repair = self.indexer.repair_until_clean()

    def reopen(self) -> "FleetBackend":
        return FleetBackend(self._root, self._router)

    def accounting(self) -> dict[str, int]:
        shards = self.indexer.shard_stats().values()
        return {
            "indexed": sum(s["unified"]["messages_ingested"]
                           for s in shards),
            "dead_lettered": sum(s["supervisor"]["dead_lettered"]
                                 for s in shards),
            "lost": self.indexer.stats.lost_messages,
        }

    def counters(self) -> dict[str, float]:
        stats = self.indexer.stats
        return {name: getattr(stats, name) for name in (
            "route_seconds", "ack_wait_seconds", "batches_sent",
            "queue_wait_seconds", "service_seconds")}

    def observe(self, facts: dict[str, Any], state: dict[str, float],
                problems: list[str]) -> None:
        shards = [shard["unified"]["messages_ingested"]
                  for shard in self.indexer.shard_stats().values()]
        state["shard_skew"] = max(shards) * len(shards) / sum(shards)
        state["boundary_hints"] = self.indexer.stats.boundary_hints
        state["repaired"] = self._repair["repaired"]
        facts["repair_probes"] = self._repair["probed"]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One row of the workload table."""

    name: str
    stream: Callable[[int, int], list[Message]]
    #: Stream length argument, full and ``--quick``.
    messages: int
    quick_messages: int
    #: Arrivals per timed ingest call.
    unit: int
    #: ``(reads, units)``: issue ``reads`` searches after every
    #: ``units``-th timed ingest call.
    reads: tuple[int, int]
    #: ``backend(root, quick)`` opens a fresh backend under ``root``.
    backend: Callable[[Path, bool], Any]
    #: Check against a bare engine fed the same stream: ``"edges"`` must
    #: be identical, ``"f1"`` must reach 0.98 of its ``truth_f1``.
    reference: str = ""


def _stack_dense(root: Path, quick: bool) -> StackBackend:
    return StackBackend(root, config=IndexerConfig.partial_index(200),
                        snapshot_every=768 if quick else 4096)


def _stack_hostile(root: Path, quick: bool) -> StackBackend:
    # latency_target=1.0 keeps the ladder at NORMAL, so outputs stay a
    # function of the stream alone while admission still runs per arrival.
    return StackBackend(
        root, config=IndexerConfig.bundle_limit(200, 100),
        snapshot_every=768 if quick else 4096, guard=True,
        overload=OverloadConfig(rate_limit=None, latency_target=1.0))


#: engine_dense, stack_dense and fleet2 share one dense stream, so the
#: difference between two of them is the cost of the layers one adds.
DENSE_MESSAGES = 10_240

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("engine_dense", dense_stream, DENSE_MESSAGES, 2048, 128, (4, 1),
             lambda root, quick: EngineBackend(root, pool_size=200,
                                               spill=False)),
    Workload("engine_churn", sparse_stream, 12_800, 2048, 128, (4, 1),
             lambda root, quick: EngineBackend(root, pool_size=150,
                                               spill=True)),
    Workload("stack_dense", dense_stream, DENSE_MESSAGES, 2048, 128, (4, 1),
             _stack_dense, reference="edges"),
    Workload("stack_hostile", hostile_stream, 2048, 640, 128, (4, 1),
             _stack_hostile),
    Workload("fleet2", dense_stream, DENSE_MESSAGES, 2048, 512, (1, 1),
             lambda root, quick: FleetBackend(root, "hash")),
    # In no BENCHMARK.json list, so the harness never gates on it; the
    # default set and the smoke test run it.  Cascade-affine routing
    # plus cross-shard repair: shard skew (1.03-1.35) and boundary-hint
    # volume (780-5298) swing so far with the seed that its throughput
    # spreads 12-21% over ten seeds, too close to the 25% a bound allows.
    Workload("fleet2_repair", dense_stream, DENSE_MESSAGES, 2048, 512,
             (1, 1), lambda root, quick: FleetBackend(root, "cooccurrence"),
             reference="f1"),
)}
