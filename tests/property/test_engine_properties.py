"""Property-based tests wiring hypothesis to the invariant checker.

The strongest correctness statement the library makes is "after any
ingest sequence, every structural invariant holds".  These tests generate
arbitrary message streams and configurations and assert exactly that via
:mod:`repro.core.validation`, plus round-trip properties for the
persistence layers.
"""

from __future__ import annotations

import pytest
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


# ---------------------------------------------------------------------------
# Max-score pruning is lossless: shipped selection == exhaustive argmax
# ---------------------------------------------------------------------------

WEIGHTS = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0, 2.0]),
                    st.floats(min_value=0.0, max_value=4.0,
                              allow_nan=False))
VOCAB = ["storm", "flood", "river", "coast", "alert", "rescue", "night"]
TAGS = ["red", "blue", "green", "gold"]
USERS = ["ann", "bob", "cyd", "dee"]


@st.composite
def scoring_messages(draw, max_size: int = 40):
    """Arrivals that stress the pruning preconditions.

    Dates either ascend (with many exact ties and the odd late
    straggler) or jump around; ids
    either ascend with arrival or are shuffled; every message carries
    0-3 hashtags, URLs and RT users from tiny vocabularies, so bundles
    grow past small ``alloc_window``s and probes overlap heavily.
    """
    count = draw(st.integers(min_value=1, max_value=max_size))
    ids = list(range(count))
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    ordered = draw(st.booleans())
    gaps = st.sampled_from([0.0, 0.0, 1.0, 30.0, 900.0, 7200.0, 90_000.0])
    lateness = st.sampled_from([0.0] * 6 + [30.0, 7200.0])
    messages = []
    clock = BASE_DATE
    for msg_id in ids:
        if ordered:
            # The odd straggler lands in a still-monotone bundle.
            clock += draw(gaps)
            date = max(BASE_DATE, clock - draw(lateness))
        else:
            date = BASE_DATE + 900.0 * draw(st.integers(0, 12))
        pieces = ["RT @" + user + ":" for user in draw(st.lists(
            st.sampled_from(USERS), max_size=3))]
        pieces += draw(st.lists(st.sampled_from(VOCAB), min_size=1,
                                max_size=4))
        pieces += ["#" + tag for tag in draw(st.lists(
            st.sampled_from(TAGS), max_size=3))]
        pieces += ["bit.ly/" + key for key in draw(st.lists(
            st.sampled_from("abcd"), max_size=3))]
        messages.append(parse_message(
            msg_id, draw(st.sampled_from(USERS)), date, " ".join(pieces)))
    return messages


@st.composite
def scoring_configs(draw):
    pool = draw(st.sampled_from([None, 3, 8]))
    return IndexerConfig(
        url_weight=draw(WEIGHTS), hashtag_weight=draw(WEIGHTS),
        time_weight=draw(WEIGHTS), keyword_weight=draw(WEIGHTS),
        rt_weight=draw(WEIGHTS),
        min_match_score=draw(st.sampled_from([0.0, 0.4, 1.0, 1.5])),
        alloc_window=draw(st.sampled_from([1, 4, 64])),
        max_pool_size=pool, refine_trigger=pool,
        max_bundle_size=draw(st.sampled_from([None, 3, 6])),
        max_candidates=draw(st.sampled_from([1, 2, 64])))


def _replay(config, candidate_cap, audited, messages, ops):
    """Drive one engine through the script; return everything decided."""
    import tempfile
    from itertools import count

    from repro.obs import Observability
    from repro.obs.audit import AuditLog

    def attach_audit(engine):
        if audited:
            engine.obs.audit = AuditLog(
                sink=f"{tmp}/audit-{next(sink_ids)}.jsonl")
            engine.obs.audit.bind(engine.pool)

    def harvest(engine):
        if audited:
            transcript.extend(record.to_dict() for record
                              in engine.obs.audit.tail(len(messages)))
            engine.obs.audit.close()
            # The JSONL bytes: numpy scalars leaking into a record
            # would serialise differently (or not at all).
            sink = engine.obs.audit.sink
            transcript.append(sink.read_bytes() if sink.exists() else b"")

    with tempfile.TemporaryDirectory() as tmp:
        sink_ids = count()
        transcript: list = []
        engine = ProvenanceIndexer(config, obs=Observability())
        engine.candidate_cap = candidate_cap
        attach_audit(engine)
        for message, (op, pick) in zip(messages, ops):
            if op == "snapshot":
                harvest(engine)
                save_snapshot(engine, f"{tmp}/snap.json")
                engine = load_snapshot(f"{tmp}/snap.json")
                engine.candidate_cap = candidate_cap
                attach_audit(engine)
            bundles = list(engine.pool)
            if op == "fold" and bundles:
                target = bundles[pick % len(bundles)]
                result = engine.ingest_folded(message, target.bundle_id,
                                              target.message_ids()[0])
            else:
                result = engine.ingest(message)
            edge = result.edge
            transcript.append((
                result.msg_id, result.bundle_id, result.created_bundle,
                None if edge is None else
                (edge.dst_id, edge.kind, edge.score.hex())))
        harvest(engine)
    transcript.append(sorted(engine.edge_pairs()))
    transcript.append(engine.stats())
    transcript.append([(hit.bundle_id, hit.size, hit.score.hex())
                       for hit in engine.search("storm #red", k=10)])
    return transcript


class TestPruningIsLossless:
    """Bound-and-skip Alg. 1 / Alg. 2 against ``tests/scoring_oracle``."""

    OPS = st.tuples(st.sampled_from(["ingest"] * 6 + ["fold", "snapshot"]),
                    st.integers(min_value=0, max_value=7))

    @settings(deadline=None)
    @given(scoring_configs(), st.sampled_from(["slab", "dict"]),
           st.sampled_from([None, 1, 3]), st.booleans(),
           scoring_messages(), st.data())
    def test_shipped_selection_equals_exhaustive_argmax(
            self, config, layout, candidate_cap, audited, messages, data):
        from tests.postings_oracle import postings_layout
        from tests.scoring_oracle import exhaustive_scoring

        ops = data.draw(st.lists(self.OPS, min_size=len(messages),
                                 max_size=len(messages)))
        with postings_layout(layout):
            shipped = _replay(config, candidate_cap, audited, messages, ops)
            with exhaustive_scoring():
                oracle = _replay(config, candidate_cap, audited, messages,
                                 ops)
        assert shipped == oracle

    def test_numpy_selection_equals_scalar_oracle(self):
        """The numpy gather + Eq. 1 kernel against dict layout + argmax.

        With the cutoff at zero every non-empty slab gather comes back
        as arrays, so ``_select_vectorised`` decides every placement the
        oracle engine (list gathers only, exhaustive loops) decides by
        the scalar route.
        """
        pytest.importorskip("numpy")
        from unittest import mock

        from repro.core import postings
        from tests.postings_oracle import dict_postings
        from tests.scoring_oracle import exhaustive_scoring

        calls = {"vectorised": 0, "scalar": 0}

        def counted(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        @settings(deadline=None)
        @given(scoring_configs(), st.sampled_from([None, 1, 3]),
               st.booleans(), scoring_messages(), st.data())
        def differential(config, candidate_cap, audited, messages, data):
            ops = data.draw(st.lists(self.OPS, min_size=len(messages),
                                     max_size=len(messages)))
            with (mock.patch.object(postings, "SMALL_GATHER_CUTOFF", 0),
                  mock.patch.object(
                      ProvenanceIndexer, "_select_vectorised",
                      counted("vectorised",
                              ProvenanceIndexer._select_vectorised)),
                  mock.patch.object(
                      ProvenanceIndexer, "_select_scalar",
                      counted("scalar", ProvenanceIndexer._select_scalar))):
                shipped = _replay(config, candidate_cap, audited, messages,
                                  ops)
            with dict_postings(), exhaustive_scoring():
                oracle = _replay(config, candidate_cap, audited, messages,
                                 ops)
            assert shipped == oracle

        differential()
        assert calls["vectorised"] > 0
        assert calls["scalar"] == 0
