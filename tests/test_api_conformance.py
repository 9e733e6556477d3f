"""Behavioural conformance of every backend to the ``Indexer`` protocol.

One retweet chain, three backends — the in-process engine, the
WAL-supervised stack and the multiprocess runtime — must agree on every
protocol verb: same provenance edges, same search ranking, same unified
stats keys.  The chain shares a single hashtag, so both routers
co-locate it on one shard and the fleet's state is bit-identical to the
single engine's.
"""

from __future__ import annotations

import importlib

import pytest

from repro.api import STATS_KEYS, Indexer, open_indexer
from repro.core.config import IndexerConfig
from repro.core.engine import IngestResult, ProvenanceIndexer
from repro.core.message import parse_message

BACKENDS = ("engine", "resilient", "runtime")

BASE_DATE = 1_249_084_800.0


def rt_chain():
    """Three messages: a post and two retweets, one shared hashtag."""
    return [
        parse_message(0, "alice", BASE_DATE,
                      "#storm flood warning for the coast"),
        parse_message(1, "bob", BASE_DATE + 60.0,
                      "RT @alice: #storm flood warning for the coast"),
        parse_message(2, "carol", BASE_DATE + 120.0,
                      "RT @alice: #storm flood warning stay safe"),
    ]


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One open backend per param, closed after the test."""
    name = request.param
    if name == "resilient":
        indexer = open_indexer(name, root=tmp_path / "resilient")
    elif name == "runtime":
        indexer = open_indexer(name, root=tmp_path / "fleet", workers=2)
    else:
        indexer = open_indexer(name)
    yield indexer
    indexer.close()


@pytest.fixture(scope="module")
def reference():
    """The plain engine's ground truth for the chain."""
    engine = ProvenanceIndexer()
    engine.ingest_batch(rt_chain())
    return {
        "edges": engine.edge_pairs(),
        "hits": [(hit.bundle_id, hit.size, hit.score)
                 for hit in engine.search("#storm flood", k=5)],
        "stats": engine.stats(),
        "message_count": engine.snapshot().message_count,
    }


class TestConformance:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, Indexer)

    def test_ingest_batch_returns_results(self, backend):
        results = backend.ingest_batch(rt_chain())
        assert isinstance(results, list)
        assert len(results) == 3
        assert all(isinstance(result, IngestResult)
                   for result in results)
        assert [result.msg_id for result in results] == [0, 1, 2]

    def test_ingest_batch_count_only(self, backend):
        assert backend.ingest_batch(rt_chain(), count_only=True) == 3

    def test_identical_edges(self, backend, reference):
        backend.ingest_batch(rt_chain())
        assert backend.edge_pairs() == reference["edges"]

    def test_identical_search_hits(self, backend, reference):
        backend.ingest_batch(rt_chain())
        hits = [(hit.bundle_id, hit.size, hit.score)
                for hit in backend.search("#storm flood", k=5)]
        assert hits == reference["hits"]

    def test_unified_stats_keys_and_values(self, backend, reference):
        backend.ingest_batch(rt_chain())
        stats = backend.stats()
        assert set(stats) == STATS_KEYS
        for key in STATS_KEYS - {"shard_count"}:
            assert stats[key] == reference["stats"][key], key
        assert stats["shard_count"] >= 1

    def test_snapshot_accounts_messages(self, backend, reference):
        backend.ingest_batch(rt_chain())
        assert (backend.snapshot().message_count
                == reference["message_count"])

    def test_single_ingest_returns_result(self, backend):
        result = backend.ingest(rt_chain()[0])
        assert isinstance(result, IngestResult)
        assert result.msg_id == 0


@pytest.mark.parametrize("name", BACKENDS)
def test_context_manager(name, tmp_path):
    if name == "resilient":
        options = {"root": tmp_path / "resilient"}
    elif name == "runtime":
        options = {"root": tmp_path / "fleet", "workers": 2}
    else:
        options = {}
    with open_indexer(name, **options) as indexer:
        indexer.ingest_batch(rt_chain(), count_only=True)
        assert indexer.stats()["messages_ingested"] == 3
    # close() is idempotent
    indexer.close()


@pytest.mark.parametrize("name", ["mystery", "concurrent", "sharded"])
def test_open_indexer_rejects_unknown_backend(name):
    with pytest.raises(ValueError, match="unknown backend"):
        open_indexer(name)


@pytest.mark.parametrize("package", ["repro.api", "repro.core",
                                     "repro.runtime"])
def test_every_exported_name_resolves(package):
    """A stale ``__all__`` entry fails here, not in a user's import."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []


class TestPostingsBackendMatrix:
    """The slab postings layout against the dict oracle layout.

    The slab is a pure layout change over ``tests/postings_oracle``:
    same candidate sets, same scores, same placements, same audit
    evidence.  Both cells of the matrix replay the same stream and
    every observable — provenance edges, search ranking, unified stats,
    the audit JSONL *bytes* — must agree.
    """

    POOL = 140  # ~70:1 message:pool ratio for the 10k seeded replay

    @staticmethod
    def _replay(backend, messages, sink):
        from repro.obs import AuditLog, Observability
        from tests.postings_oracle import DictPostingsOracle, postings_layout

        audit = AuditLog(sink=sink)
        with postings_layout(backend):
            engine = ProvenanceIndexer(
                IndexerConfig.partial_index(
                    pool_size=TestPostingsBackendMatrix.POOL),
                obs=Observability(audit=audit))
        assert isinstance(engine.summary_index._storage,
                          DictPostingsOracle) == (backend == "dict")
        engine.ingest_batch(messages, count_only=True)
        outcome = {
            "edges": engine.edge_pairs(),
            "stats": engine.stats(),
            "index_shape": {
                kind: (engine.summary_index.term_count(kind),
                       engine.summary_index.entry_count(kind),
                       sorted(engine.summary_index.postings_lengths(kind)))
                for kind in ("hashtag", "url", "keyword", "user")
            },
        }
        audit.close()
        return engine, outcome

    def _matrix(self, messages, tmp_path, query):
        results = {}
        for backend in ("slab", "dict"):
            sink = tmp_path / f"audit-{backend}.jsonl"
            engine, outcome = self._replay(backend, messages, sink)
            outcome["hits"] = [(hit.bundle_id, hit.size, hit.score)
                               for hit in engine.search(query, k=10)]
            outcome["audit_bytes"] = sink.read_bytes()
            results[backend] = outcome
        assert results["slab"]["audit_bytes"]  # non-empty comparison
        assert sum(terms for terms, _, _
                   in results["dict"]["index_shape"].values()) > 0
        for key in ("edges", "stats", "index_shape", "hits", "audit_bytes"):
            assert results["slab"][key] == results["dict"][key], key
        return results

    def test_rt_chain_byte_identical(self, tmp_path):
        results = self._matrix(rt_chain(), tmp_path, "#storm flood")
        assert results["slab"]["edges"]  # the chain links up

    def test_seeded_10k_replay_byte_identical(self, tmp_path):
        from repro.stream.generator import StreamConfig, StreamGenerator

        messages = StreamGenerator(StreamConfig(
            seed=11, days=2.0, messages_per_day=5000, user_count=400,
            events_per_day=15.0, event_volume_max=400)).generate_list()
        assert len(messages) >= 10_000
        results = self._matrix(messages, tmp_path, "#topic news")
        assert results["slab"]["stats"]["messages_ingested"] == len(messages)
