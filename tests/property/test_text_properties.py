"""Property-based tests for the text retrieval substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.analyzer import Analyzer, light_stem
from repro.text.highlight import find_spans, highlight
from repro.text.inverted_index import InvertedIndex
from repro.text.scoring import BM25Scorer, TfIdfScorer

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3,
                max_size=9)
documents = st.lists(
    st.lists(words, min_size=1, max_size=15).map(" ".join),
    min_size=1, max_size=12)


def build_index(texts: "list[str]") -> InvertedIndex:
    index = InvertedIndex(Analyzer())
    for doc_id, text in enumerate(texts):
        index.add_document(doc_id, text)
    return index


class TestAnalyzerProperties:
    @given(words)
    def test_stemming_idempotent(self, word):
        once = light_stem(word)
        assert light_stem(once) == once or len(light_stem(once)) <= len(once)

    @given(st.lists(words, max_size=20).map(" ".join))
    def test_analyze_deterministic(self, text):
        analyzer = Analyzer()
        assert analyzer.analyze(text) == analyzer.analyze(text)

    @given(st.lists(words, max_size=20).map(" ".join))
    def test_keywords_subset_of_terms(self, text):
        analyzer = Analyzer()
        keywords = set(analyzer.keywords(text))
        assert keywords <= set(analyzer.analyze(text))


class TestWordTokens:
    """``word_tokens`` reads the regex directly; ``tokenize`` is its spec."""

    @given(st.lists(st.sampled_from(
        list("abzAZ09_'#@.,;:!?)\"/ \u00e9\u00df\u4e2d") + ["http://", "bit.ly/"]),
        max_size=60).map("".join))
    def test_equals_the_word_and_hashtag_tokens_of_tokenize(self, text):
        from repro.text.tokenizer import TokenType, tokenize, word_tokens

        expected = [
            token.text.lstrip("#").lower() for token in tokenize(text)
            if token.kind in (TokenType.WORD, TokenType.HASHTAG)]
        assert list(word_tokens(text)) == expected


class TestIndexProperties:
    @settings(max_examples=40)
    @given(documents)
    def test_doc_frequencies_bounded(self, texts):
        index = build_index(texts)
        for term in index.terms():
            df = index.doc_frequency(term)
            assert 1 <= df <= len(texts)

    @settings(max_examples=40)
    @given(documents)
    def test_total_length_equals_sum(self, texts):
        index = build_index(texts)
        total = sum(index.doc_length(doc_id)
                    for doc_id in range(len(texts)))
        assert index.average_doc_length * index.doc_count == \
            pytest.approx(total)

    @settings(max_examples=30)
    @given(documents, st.integers(min_value=0, max_value=11))
    def test_remove_then_stats_consistent(self, texts, victim):
        index = build_index(texts)
        victim = victim % len(texts)
        index.remove_document(victim)
        assert victim not in index
        assert index.doc_count == len(texts) - 1
        for term in index.terms():
            assert index.doc_frequency(term) >= 1


class TestScorerProperties:
    @settings(max_examples=40)
    @given(documents)
    def test_bm25_scores_non_negative(self, texts):
        index = build_index(texts)
        scorer = BM25Scorer(index)
        some_terms = list(index.terms())[:3]
        for score in scorer.score_all(some_terms).values():
            assert score >= 0.0

    @settings(max_examples=40)
    @given(documents)
    def test_scorers_agree_on_match_set(self, texts):
        """TF-IDF and BM25 must retrieve the same documents (scores
        differ, the boolean match set must not)."""
        index = build_index(texts)
        terms = list(index.terms())[:3]
        if not terms:
            return
        bm25 = set(BM25Scorer(index).score_all(terms))
        tfidf = set(TfIdfScorer(index).score_all(terms))
        assert bm25 == tfidf

    @settings(max_examples=30)
    @given(documents)
    def test_idf_monotone_in_rarity(self, texts):
        index = build_index(texts)
        scorer = BM25Scorer(index)
        terms = sorted(index.terms(),
                       key=lambda t: index.doc_frequency(t))
        for rare, common in zip(terms, terms[1:]):
            if index.doc_frequency(rare) < index.doc_frequency(common):
                assert scorer.idf(rare) >= scorer.idf(common)


class TestHighlightProperties:
    @settings(max_examples=40)
    @given(st.lists(words, min_size=1, max_size=10).map(" ".join),
           st.lists(words, max_size=3))
    def test_highlight_preserves_text_content(self, text, query):
        marked = highlight(text, query, prefix="<", suffix=">")
        assert marked.replace("<", "").replace(">", "") == text

    @settings(max_examples=40)
    @given(st.lists(words, min_size=1, max_size=10).map(" ".join),
           st.lists(words, max_size=3))
    def test_spans_within_bounds_and_ordered(self, text, query):
        spans = find_spans(text, query)
        previous_end = 0
        for span in spans:
            assert 0 <= span.start < span.end <= len(text)
            assert span.start >= previous_end
            previous_end = span.end
