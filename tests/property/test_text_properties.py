"""Property-based tests for the text retrieval substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.analyzer import Analyzer, light_stem
from repro.text.inverted_index import InvertedIndex
from repro.text.scoring import BM25Scorer

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
        total = sum(index.internal_doc_length(index.internal_id(doc_id))
                    for doc_id in range(len(texts)))
        assert index.average_doc_length * index.doc_count == \
            pytest.approx(total)

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
    def test_match_set_is_the_documents_holding_a_term(self, texts):
        """BM25 retrieves exactly the documents whose postings hold a
        query term: the boolean match set the scores rank."""
        index = build_index(texts)
        terms = list(index.terms())[:3]
        if not terms:
            return
        holding = {posting.doc_id for term in terms
                   for posting in index.postings(term)}
        assert set(BM25Scorer(index).score_all(terms)) == holding

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
