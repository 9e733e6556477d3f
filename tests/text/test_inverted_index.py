"""Tests for the document-level inverted index."""

from __future__ import annotations

import pytest

from repro.text.analyzer import Analyzer
from repro.text.inverted_index import InvertedIndex


@pytest.fixture
def index() -> InvertedIndex:
    return InvertedIndex(Analyzer())


class TestAddDocument:
    def test_add_and_stats(self, index):
        length = index.add_document(100, "yankees win the game")
        assert length == 3  # 'the' is a stopword
        assert index.doc_count == 1
        assert 100 in index

    def test_doc_frequency(self, index):
        index.add_document(1, "game tonight")
        index.add_document(2, "game tomorrow")
        assert index.doc_frequency("game") == 2
        assert index.doc_frequency("tonight") == 1
        assert index.doc_frequency("unseen") == 0

    def test_duplicate_external_id_rejected(self, index):
        index.add_document(1, "x game")
        with pytest.raises(ValueError):
            index.add_document(1, "y game")

    def test_average_doc_length(self, index):
        index.add_document(1, "game tonight stadium")   # 3 terms
        index.add_document(2, "game")                    # 1 term
        assert index.average_doc_length == pytest.approx(2.0)

    def test_empty_index_average_is_zero(self, index):
        assert index.average_doc_length == 0.0


class TestIdMapping:
    def test_round_trip(self, index):
        index.add_document(77, "hello world")
        internal = index.internal_id(77)
        assert index.external_id(internal) == 77

    def test_internal_id_missing(self, index):
        assert index.internal_id(123) is None

    def test_doc_length_by_external(self, index):
        index.add_document(4, "stadium crowd ovation")
        assert index.internal_doc_length(index.internal_id(4)) == 3
        assert index.internal_id(999) is None

    def test_terms_iterable(self, index):
        index.add_document(1, "alpha beta")
        assert sorted(index.terms()) == ["alpha", "beta"]
