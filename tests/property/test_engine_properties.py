"""Property-based tests wiring hypothesis to the invariant checker.

The strongest correctness statement the library makes is "after any
ingest sequence, every structural invariant holds".  These tests generate
arbitrary message streams and configurations and assert exactly that via
:mod:`repro.core.validation`, plus round-trip properties for the
persistence layers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.message import parse_message
from repro.core.validation import check_bundle, check_engine
from repro.query.bundle_search import BundleSearchEngine
from repro.storage.snapshot import load_snapshot, save_snapshot

BASE_DATE = 1_249_084_800.0

words = st.text(alphabet="abcdefghij", min_size=2, max_size=6)


@st.composite
def streams(draw, max_size: int = 35):
    count = draw(st.integers(min_value=0, max_value=max_size))
    tags = ["red", "blue", "green"]
    users = ["ann", "bob", "cyd"]
    stream = []
    date = BASE_DATE
    for msg_id in range(count):
        date += draw(st.floats(min_value=0.0, max_value=20_000.0,
                               allow_nan=False))
        pieces = [draw(words)]
        if draw(st.booleans()):
            pieces.append("#" + draw(st.sampled_from(tags)))
        if draw(st.booleans()):
            pieces.append("bit.ly/" + draw(st.sampled_from("abc")))
        if draw(st.booleans()):
            pieces.insert(0, "RT @" + draw(st.sampled_from(users)) + ":")
        stream.append(parse_message(
            msg_id, draw(st.sampled_from(users)), date, " ".join(pieces)))
    return stream


@st.composite
def configs(draw):
    bounded = draw(st.booleans())
    if not bounded:
        return IndexerConfig.full_index()
    pool = draw(st.integers(min_value=2, max_value=12))
    if draw(st.booleans()):
        return IndexerConfig.bundle_limit(
            pool_size=pool,
            bundle_size=draw(st.integers(min_value=2, max_value=8)))
    return IndexerConfig.partial_index(pool_size=pool)


class TestEngineInvariants:
    @settings(max_examples=40, deadline=None)
    @given(streams(), configs())
    def test_all_invariants_after_any_stream(self, stream, config):
        indexer = ProvenanceIndexer(config)
        for message in stream:
            indexer.ingest(message)
        assert check_engine(indexer) == []

    @settings(max_examples=25, deadline=None)
    @given(streams(max_size=25))
    def test_snapshot_restore_preserves_invariants(self, stream):
        import tempfile
        from pathlib import Path

        indexer = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=6))
        for message in stream:
            indexer.ingest(message)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snap.json"
            save_snapshot(indexer, path)
            restored = load_snapshot(path)
        assert check_engine(restored) == []
        assert restored.edge_pairs() == indexer.edge_pairs()

    @settings(max_examples=25, deadline=None)
    @given(streams(max_size=25), st.text(
        alphabet="abcdefghij #", min_size=1, max_size=20))
    def test_search_never_crashes_and_scores_ordered(self, stream, query):
        indexer = ProvenanceIndexer(IndexerConfig())
        for message in stream:
            indexer.ingest(message)
        engine = BundleSearchEngine(indexer)
        from repro.core.errors import QueryError

        try:
            hits = engine.search(query, k=5)
        except QueryError:
            return  # empty/blank queries may be rejected; that's the API
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)
        assert len(hits) <= 5

    @settings(max_examples=20, deadline=None)
    @given(streams(max_size=20))
    def test_store_round_trip_bundles_pass_checks(self, stream):
        import tempfile

        from repro.storage.bundle_store import BundleStore

        indexer = ProvenanceIndexer(IndexerConfig.full_index())
        for message in stream:
            indexer.ingest(message)
        with tempfile.TemporaryDirectory() as tmp:
            store = BundleStore(tmp)
            for bundle in indexer.pool:
                store.append(bundle)
            for bundle in store.iter_bundles():
                assert check_bundle(bundle) == []


#: Operations the ledger property interleaves; see the test for each.
LEDGER_OPS = ("journaled", "batch", "fold", "refine", "shed", "snapshot",
              "reopen", "operators")


class TestMemoryLedger:
    """The maintained Fig. 11 totals equal a from-scratch recount."""

    @settings(max_examples=30, deadline=None)
    @given(streams(max_size=40), configs(),
           st.lists(st.tuples(st.sampled_from(LEDGER_OPS),
                              st.integers(min_value=1, max_value=6)),
                    min_size=1, max_size=14))
    def test_ledger_equals_recount_after_any_interleaving(
            self, stream, config, ops):
        import tempfile

        from repro.core.operators import merge_bundles, rebuild_bundle
        from repro.reliability.supervisor import ResilientIndexer
        from tests.memory_oracle import (assert_ledger_exact,
                                         recompute_bundle_bytes)

        pending = list(stream)
        with tempfile.TemporaryDirectory() as root:
            stack = ResilientIndexer.open(root, config=config,
                                          snapshot_every=7)
            try:
                for op, n in ops:
                    engine = stack.indexer
                    pool = engine.pool
                    chunk, pending = pending[:n], pending[n:]
                    if op == "journaled":
                        stack.ingest_batch(chunk)
                    elif op == "batch":
                        engine.ingest_batch(chunk)
                    elif op == "fold":
                        # Fold each message into the n-th pooled bundle,
                        # as a duplicate of its first member (the engine
                        # falls back to a full ingest if it is closed).
                        for message in chunk:
                            bundles = list(pool)
                            if not bundles:
                                engine.ingest(message)
                                continue
                            target = bundles[n % len(bundles)]
                            stack.journaled.ingest_folded(
                                message, target.bundle_id,
                                target.message_ids()[0])
                    elif op == "refine":
                        pool.refine(engine.current_date,
                                    engine.summary_index, engine.store)
                    elif op == "shed":
                        pool.shed(
                            engine.current_date,
                            target_bytes=pool.approximate_memory_bytes() // 2,
                            summary_index=engine.summary_index,
                            sink=engine.store)
                    elif op == "snapshot":
                        path = f"{root}/roundtrip.json"
                        save_snapshot(engine, path)
                        assert_ledger_exact(load_snapshot(path).pool)
                    elif op == "reopen":
                        # Snapshot load + WAL-tail replay on the same root.
                        stack.close()
                        stack = ResilientIndexer.open(
                            root, config=config, snapshot_every=7)
                    elif op == "operators":
                        bundles = list(pool)
                        derived = [
                            rebuild_bundle(10_000, b, b.message_ids()[::2])
                            for b in bundles]
                        derived += [
                            merge_bundles(10_001, a, b)
                            for a, b in zip(bundles, bundles[1:])]
                        for bundle in derived:
                            assert (bundle.approximate_memory_bytes()
                                    == recompute_bundle_bytes(bundle))
                    assert_ledger_exact(stack.indexer.pool)
            finally:
                stack.close()
