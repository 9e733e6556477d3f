"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.graph import cascade_stats, roots
from repro.core.message import (extract_hashtags, extract_urls,
                                parse_message)
from repro.core.metrics import compare_edge_sets
from repro.core.scoring import (hashtag_overlap, message_similarity,
                                time_closeness, url_overlap)
from repro.storage.serializer import bundle_from_dict, bundle_to_dict
from repro.stream.stats import histogram
from repro.text.analyzer import MIN_LENGTH, Analyzer, light_stem
from repro.text.tokenizer import tokenize

BASE_DATE = 1_249_084_800.0

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=10)

message_texts = st.lists(
    st.one_of(
        words,
        words.map(lambda w: "#" + w),
        words.map(lambda w: "bit.ly/" + w),
        words.map(lambda w: "RT @" + w + ":"),
    ),
    min_size=0, max_size=12,
).map(" ".join)


@st.composite
def message_streams(draw, max_size: int = 30):
    """Arrival-ordered lists of parsed messages with bounded vocab."""
    count = draw(st.integers(min_value=1, max_value=max_size))
    tags = ["alpha", "beta", "gamma", "delta"]
    stream = []
    date = BASE_DATE
    for msg_id in range(count):
        date += draw(st.floats(min_value=0.0, max_value=7200.0,
                               allow_nan=False))
        tag = draw(st.sampled_from(tags))
        extra = draw(words)
        text = f"#{tag} {extra} message"
        user = draw(st.sampled_from(["ann", "bob", "cyd", "dee"]))
        stream.append(parse_message(msg_id, user, date, text))
    return stream


# ---------------------------------------------------------------------------
# Parsing / text properties
# ---------------------------------------------------------------------------


class TestParsingProperties:
    @given(message_texts)
    def test_parse_never_crashes(self, text):
        message = parse_message(0, "user", BASE_DATE, text)
        assert message.text == text

    @given(message_texts)
    def test_extracted_hashtags_are_lowercase(self, text):
        assert all(tag == tag.lower() for tag in extract_hashtags(text))

    @given(message_texts)
    def test_urls_have_no_scheme(self, text):
        assert not any(url.startswith("http")
                       for url in extract_urls(text))

    @given(st.text(max_size=200))
    def test_tokenize_total_function(self, text):
        tokens = tokenize(text)
        positions = [t.position for t in tokens]
        assert positions == sorted(positions)

    @given(words)
    def test_light_stem_never_longer(self, word):
        stemmed = light_stem(word)
        assert len(stemmed) <= len(word) + 1  # ies->y can keep length-1+1

    @given(st.text(max_size=140))
    def test_analyzer_terms_are_clean(self, text):
        analyzer = Analyzer()
        for term in analyzer.analyze(text):
            assert term == term.lower()
            assert len(term) >= MIN_LENGTH - 1  # stem may shorten


# ---------------------------------------------------------------------------
# Scoring properties
# ---------------------------------------------------------------------------


class TestScoringProperties:
    @given(message_streams(max_size=6))
    def test_overlaps_bounded(self, stream):
        for later in stream[1:]:
            earlier = stream[0]
            assert 0.0 <= url_overlap(later, earlier) <= 1.0
            assert 0.0 <= hashtag_overlap(later, earlier) <= 1.0
            assert 0.0 < time_closeness(later, earlier) <= 1.0

    @given(message_streams(max_size=6))
    def test_similarity_non_negative(self, stream):
        config = IndexerConfig()
        for later in stream[1:]:
            assert message_similarity(later, stream[0], config) >= 0.0


# ---------------------------------------------------------------------------
# Bundle forest invariants
# ---------------------------------------------------------------------------


class TestBundleProperties:
    @settings(max_examples=40)
    @given(message_streams(max_size=25))
    def test_bundle_forest_invariants(self, stream):
        """Inserting any arrival-ordered stream into one bundle yields an
        acyclic forest whose edges point strictly backwards."""
        bundle = Bundle(0, IndexerConfig())
        analyzer = Analyzer()
        for message in stream:
            bundle.insert(message, frozenset(analyzer.keywords(message.text)))
        assert len(bundle) == len(stream)
        member_ids = set(bundle.message_ids())
        for edge in bundle.edges():
            assert edge.src_id in member_ids
            assert edge.dst_id in member_ids
            assert edge.dst_id < edge.src_id
        stats = cascade_stats(bundle)  # raises on cycle
        assert stats.root_count >= 1
        assert stats.edge_count + stats.root_count == len(bundle)
        assert roots(bundle)

    @settings(max_examples=30)
    @given(message_streams(max_size=20))
    def test_serializer_round_trip(self, stream):
        bundle = Bundle(3, IndexerConfig())
        for message in stream:
            bundle.insert(message)
        restored = bundle_from_dict(bundle_to_dict(bundle))
        assert restored.messages() == bundle.messages()
        assert restored.edge_pairs() == bundle.edge_pairs()
        assert restored.hashtag_counts == bundle.hashtag_counts


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(message_streams(max_size=30),
           st.integers(min_value=2, max_value=8))
    def test_pool_bound_always_holds_after_refinement(self, stream, bound):
        indexer = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=bound))
        for message in stream:
            indexer.ingest(message)
            assert len(indexer.pool) <= bound + 1  # +1 before trigger fires

    @settings(max_examples=25, deadline=None)
    @given(message_streams(max_size=30))
    def test_each_message_assigned_exactly_once(self, stream):
        indexer = ProvenanceIndexer(IndexerConfig.full_index())
        for message in stream:
            indexer.ingest(message)
        seen: set[int] = set()
        for bundle in indexer.pool:
            for msg_id in bundle.message_ids():
                assert msg_id not in seen
                seen.add(msg_id)
        assert seen == {m.msg_id for m in stream}

    @settings(max_examples=25, deadline=None)
    @given(message_streams(max_size=25))
    def test_edge_count_below_message_count(self, stream):
        indexer = ProvenanceIndexer(IndexerConfig.full_index())
        for message in stream:
            indexer.ingest(message)
        assert len(indexer.edge_pairs()) < len(stream) or not stream


# ---------------------------------------------------------------------------
# Metrics properties
# ---------------------------------------------------------------------------

edge_sets = st.sets(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30)


class TestMetricsProperties:
    @given(edge_sets, edge_sets)
    def test_accuracy_and_coverage_bounded(self, candidate, reference):
        cmp = compare_edge_sets(candidate, reference)
        assert 0.0 <= cmp.accuracy <= 1.0
        assert 0.0 <= cmp.coverage <= 1.0
        assert 0.0 <= cmp.f1 <= 1.0

    @given(edge_sets)
    def test_self_comparison_perfect(self, edges):
        cmp = compare_edge_sets(edges, edges)
        assert cmp.accuracy == 1.0
        assert cmp.coverage == 1.0

    @given(edge_sets, edge_sets)
    def test_matched_bounded_by_both(self, candidate, reference):
        cmp = compare_edge_sets(candidate, reference)
        assert cmp.matched <= min(cmp.candidate_size, cmp.reference_size)


class TestHistogramProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), max_size=100),
           st.lists(st.integers(-100, 100), min_size=2, max_size=10,
                    unique=True).map(sorted))
    def test_histogram_conserves_count(self, values, edges):
        counts = histogram(values, edges)
        assert sum(counts) == len(values)
        assert len(counts) == len(edges) - 1
