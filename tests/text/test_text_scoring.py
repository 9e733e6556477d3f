"""Tests for BM25 ranking."""

from __future__ import annotations

import pytest

from repro.text.analyzer import Analyzer
from repro.text.inverted_index import InvertedIndex
from repro.text.scoring import BM25Scorer


@pytest.fixture
def index() -> InvertedIndex:
    index = InvertedIndex(Analyzer())
    index.add_document(0, "yankees win game tonight stadium")
    index.add_document(1, "yankees yankees yankees parade")
    index.add_document(2, "market rally stocks earnings")
    index.add_document(3, "game tonight plans dinner")
    return index


def external_ranking(index: InvertedIndex, scores: dict[int, float]) -> list[int]:
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])
    return [index.external_id(doc) for doc, _ in ranked]


class TestBM25:
    def test_scores_positive(self, index):
        scores = BM25Scorer(index).score_all(["yankee", "game"])
        assert scores and all(v > 0 for v in scores.values())

    def test_term_frequency_saturates(self, index):
        """Doc 1 has tf=3 for 'yankee' but must not score 3x doc 0."""
        scorer = BM25Scorer(index)
        scores = scorer.score_all(["yankee"])
        by_external = {index.external_id(k): v for k, v in scores.items()}
        assert by_external[1] < 3 * by_external[0]
        assert by_external[1] > by_external[0]  # but still more

    def test_idf_non_negative(self, index):
        scorer = BM25Scorer(index)
        for term in ("yankee", "game", "parade", "zzz"):
            assert scorer.idf(term) >= 0.0

    def test_matching_docs_scored(self, index):
        assert len(BM25Scorer(index).score_all(["yankee"])) == 2

    def test_idf_zero_for_unseen(self, index):
        assert BM25Scorer(index).idf("zzz") == 0.0

    def test_rare_term_scores_higher_than_common(self, index):
        scorer = BM25Scorer(index)
        rare = max(scorer.score_all(["parade"]).values())
        common = max(scorer.score_all(["game"]).values())
        assert rare > common

    def test_unseen_query_returns_empty(self, index):
        assert BM25Scorer(index).score_all(["zzz"]) == {}

    def test_repeated_query_terms_scale_score(self, index):
        scorer = BM25Scorer(index)
        single = max(scorer.score_all(["parade"]).values())
        double = max(scorer.score_all(["parade", "parade"]).values())
        assert double == pytest.approx(2 * single)

    def test_multi_term_beats_single_term_match(self, index):
        scorer = BM25Scorer(index)
        scores = scorer.score_all(["game", "stadium"])
        ranking = external_ranking(index, scores)
        assert ranking[0] == 0  # matches both terms

    def test_empty_query(self, index):
        assert BM25Scorer(index).score_all([]) == {}
