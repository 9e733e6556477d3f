"""Property-based tests wiring hypothesis to the invariant checker.

The strongest correctness statement the library makes is "after any
ingest sequence, every structural invariant holds".  These tests generate
arbitrary message streams and configurations and assert exactly that via
:mod:`repro.core.validation`, plus round-trip properties for the
persistence layers.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import bundle as bundle_module
from repro.core import engine as engine_module
from repro.core import pool as pool_module
from repro.core import scoring
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
                            stack.journaled.ingest(message, fold=(
                                target.bundle_id, target.message_ids()[0]))
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
    grow past small ``ALLOC_WINDOW``s and probes overlap heavily.
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


#: Tie-heavy weights: members on different dates reach equal Eq. 5
#: scores, which Alg. 2's tie search must tell apart by date.
TIE_WEIGHTS = st.sampled_from([0.0, 0.8])


@st.composite
def scoring_configs(draw):
    """A config and the calibration constants to patch with it, as
    ``{module: {name: value}}`` (see :func:`patched`)."""
    pool = draw(st.sampled_from([None, 3, 8]))
    weights = draw(st.sampled_from([WEIGHTS, TIE_WEIGHTS]))
    config = IndexerConfig(
        url_weight=draw(weights), hashtag_weight=draw(weights),
        time_weight=draw(weights), keyword_weight=draw(weights),
        rt_weight=draw(weights),
        max_pool_size=pool, refine_trigger=pool,
        max_bundle_size=draw(st.sampled_from([None, 3, 6])))
    constants = {
        scoring: {
            "MIN_MATCH_SCORE": draw(st.sampled_from([0.0, 0.4, 1.0, 1.5])),
            "KEYWORD_HIT_CAP": draw(st.sampled_from([0, 1, 2, 5]))},
        bundle_module: {"ALLOC_WINDOW": draw(st.sampled_from([1, 4, 64]))},
        pool_module: {
            "REFINE_AGE": draw(st.sampled_from([3600.0, 172_800.0])),
            "REFINE_TINY_SIZE": draw(st.sampled_from([0, 3]))},
        engine_module: {
            "MAX_CANDIDATES": draw(st.sampled_from([1, 2, 64])),
            "MAX_KEYWORDS": draw(st.sampled_from([1, 6]))},
    }
    return config, constants


def patched(constants) -> ExitStack:
    """``mock.patch.multiple`` each module's drawn constants."""
    stack = ExitStack()
    for module, values in constants.items():
        stack.enter_context(mock.patch.multiple(module, **values))
    return stack


def _replay(config, candidate_cap, audited, messages, ops):
    """Drive one engine through the script; return everything decided.

    Audit records enter the transcript as dicts: each ringed record's
    ``to_dict()``, then every line the JSONL sink wrote, parsed.
    """
    import json
    import tempfile
    from itertools import count

    from repro.obs import Observability
    from repro.obs.audit import AuditLog

    def attach_audit(engine):
        if audited:
            engine.obs.audit = AuditLog(
                sink=f"{tmp}/audit-{next(sink_ids)}.jsonl")

    def harvest(engine):
        if audited:
            transcript.extend(record.to_dict() for record
                              in engine.obs.audit.tail(len(messages)))
            engine.obs.audit.close()
            sink = engine.obs.audit.sink
            lines = sink.read_text().splitlines() if sink.exists() else []
            transcript.append(len(lines))
            transcript.extend(map(json.loads, lines))

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


def _take_candidates(transcript):
    """Pop every decision's Eq. 1 rows out of a :func:`_replay`
    transcript; return them with the record's threshold, in order."""
    taken = []
    for entry in transcript:
        if isinstance(entry, dict) and entry.get("type") == "decision":
            taken.append((entry.pop("candidates"), entry["threshold"]))
    return taken


def _row_key(row):
    """A candidate row with its score's exact bits."""
    return (row["bundle_id"], row["shared_urls"], row["shared_hashtags"],
            row["shared_keywords"], row["rt_hit"], row["score"].hex(),
            row["selected"])


class TestPruningIsLossless:
    """Bound-and-skip Alg. 1 / Alg. 2 against ``tests/scoring_oracle``."""

    OPS = st.tuples(st.sampled_from(["ingest"] * 6 + ["fold", "snapshot"]),
                    st.integers(min_value=0, max_value=7))

    def test_shipped_selection_equals_exhaustive_argmax(self):
        """Shipped engine against the oracle on the same postings layout.

        The oracle re-packages every gather naively, so it scores the
        slab's keyword-only tallies as full rows.  The run must land on
        both sides of the kind-level bound: configs where keyword-only
        candidates cannot reach ``MIN_MATCH_SCORE`` (never scored) and
        configs where they can.  One pinned example on each side
        guarantees both, whatever the random draws.  The oracle reaches
        the engine through its ``bundle_match_scores`` seam, so it must
        be called.

        Audited, the shipped record holds the candidates the pruned
        loop looked up and the oracle's every capped live candidate:
        every other field is equal, the shipped rows are a subset of
        the oracle's with bit-identical scores, and each row only the
        oracle has scores strictly below ``max(winner,
        MIN_MATCH_SCORE)``.  A third pinned example prunes a candidate
        on that bound, so the subset check is never vacuous.
        """
        from unittest import mock

        from tests import scoring_oracle
        from tests.postings_oracle import postings_layout
        from tests.scoring_oracle import exhaustive_scoring

        sides = {"keyword_only_pruned": 0, "keyword_only_scored": 0,
                 "oracle_selects": 0, "rows_pruned": 0}
        oracle_select = scoring_oracle.select

        def counted_select(*args):
            sides["oracle_selects"] += 1
            return oracle_select(*args)

        scripts = scoring_messages().flatmap(lambda messages: st.tuples(
            st.just(messages), st.lists(self.OPS, min_size=len(messages),
                                        max_size=len(messages))))
        # Arrivals that share keywords only: keyword-only candidates.
        shared_words = [parse_message(msg_id, user, BASE_DATE + 60.0 * msg_id,
                                      "storm flood river")
                        for msg_id, user in enumerate(USERS)]
        pinned = (shared_words, [("ingest", 0)] * len(shared_words))
        # Bundle 0 shares two tags with the third arrival and is visited
        # first; bundle 1's bound (one tag) falls below its score.
        two_bundles = [parse_message(msg_id, user, BASE_DATE + 60.0 * msg_id,
                                     text)
                       for msg_id, (user, text) in enumerate([
                           ("ann", "storm #red #blue"),
                           ("bob", "flood #green"),
                           ("cyd", "river #red #blue #green")])]
        pruning = (two_bundles, [("ingest", 0)] * len(two_bundles))

        @settings(deadline=None)
        @given(scoring_configs(), st.sampled_from(["slab", "dict"]),
               st.sampled_from([None, 1, 3]), st.booleans(), scripts)
        # 0.2 * 2 + 0.0 < 1.0: keyword-only candidates are never scored.
        @example((IndexerConfig(keyword_weight=0.2, time_weight=0.0),
                  {scoring: {"MIN_MATCH_SCORE": 1.0, "KEYWORD_HIT_CAP": 2}}),
                 "slab", None, False, pinned)
        # 0.5 * 2 + 0.2 >= 0.4: keyword-only candidates compete.
        @example((IndexerConfig(keyword_weight=0.5, time_weight=0.2),
                  {scoring: {"MIN_MATCH_SCORE": 0.4, "KEYWORD_HIT_CAP": 2}}),
                 "dict", None, True, pinned)
        # 0.8 * 1 + 0.5 < 0.8 * 2 + 0.5 / (2 min + 1): bundle 1 skipped.
        @example((IndexerConfig(),
                  {scoring: {"MIN_MATCH_SCORE": 1.0, "KEYWORD_HIT_CAP": 2}}),
                 "slab", None, True, pruning)
        def differential(drawn, layout, candidate_cap, audited, script):
            config, constants = drawn
            messages, ops = script
            with patched(constants), postings_layout(layout):
                pruned = (config.keyword_weight * scoring.KEYWORD_HIT_CAP
                          + config.time_weight < scoring.MIN_MATCH_SCORE)
                sides["keyword_only_pruned" if pruned
                      else "keyword_only_scored"] += 1
                shipped = _replay(config, candidate_cap, audited, messages,
                                  ops)
                with exhaustive_scoring():
                    oracle = _replay(config, candidate_cap, audited,
                                     messages, ops)
            kept_rows = _take_candidates(shipped)
            every_rows = _take_candidates(oracle)
            assert shipped == oracle
            assert len(kept_rows) == len(every_rows)
            for (kept, threshold), (every, _) in zip(kept_rows, every_rows):
                ids = [row["bundle_id"] for row in kept]
                assert ids == sorted(set(ids))
                kept_keys = set(map(_row_key, kept))
                assert kept_keys <= set(map(_row_key, every))
                bar = max([row["score"] for row in every] + [threshold])
                omitted = [row for row in every
                           if _row_key(row) not in kept_keys]
                assert all(row["score"] < bar for row in omitted), omitted
                sides["rows_pruned"] += len(omitted)

        with mock.patch.object(scoring_oracle, "select", counted_select):
            differential()
        assert all(sides.values()), sides

    def test_alg2_walk_equals_exhaustive_argmax(self):
        """Alg. 2 alone: one bundle, shipped walk against the exhaustive
        member argmax after every insert.

        Ids ascend and dates never fall, in steps of 0, 1 or 90 minutes,
        so every walk is bounded and its date groups interleave URL / RT
        sharers (scored up front) with tag and keyword sharers.  With no
        time term, members on different dates tie on Eq. 5: the shape
        under which the tie search needs its date guard.  Routed through
        the engine the same shape is rare, because Alg. 1 has to keep
        such arrivals in one bundle first, so the engine-level test
        alone seldom catches a missing guard.
        """
        from repro.core.bundle import Bundle
        from tests.scoring_oracle import insert as exhaustive_insert

        arrivals = st.lists(st.tuples(
            st.sampled_from([0.0, 0.0, 60.0, 5400.0]),
            st.sampled_from(USERS),
            st.lists(st.sampled_from(USERS), max_size=1),
            st.lists(st.sampled_from(TAGS[:2]), max_size=2),
            st.lists(st.sampled_from("ab"), max_size=1),
            st.frozensets(st.sampled_from(VOCAB[:3]), max_size=2)),
            min_size=1, max_size=30)

        @settings(deadline=None)
        @given(st.lists(TIE_WEIGHTS, min_size=3, max_size=3),
               st.sampled_from([4, 64]), arrivals)
        def differential(weights, window, rows):
            url, hashtag, rt = weights
            config = IndexerConfig(url_weight=url, hashtag_weight=hashtag,
                                   time_weight=0.0, rt_weight=rt)
            shipped, oracle = Bundle(0, config), Bundle(0, config)
            date = BASE_DATE
            with patched({bundle_module: {"ALLOC_WINDOW": window}}):
                for msg_id, (step, user, rts, tags, urls, words) in (
                        enumerate(rows)):
                    date += step
                    message = parse_message(msg_id, user, date, " ".join(
                        ["RT @" + name + ":" for name in rts] + ["word"]
                        + ["#" + tag for tag in tags]
                        + ["bit.ly/" + key for key in urls]))
                    edges = [None if edge is None else
                             (edge.dst_id, edge.kind, edge.score.hex())
                             for edge in (
                                 Bundle.insert(shipped, message, words),
                                 exhaustive_insert(oracle, message, words))]
                    assert edges[0] == edges[1], msg_id

        differential()
