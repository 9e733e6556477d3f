"""Tests for the keyword search engine (the Fig. 1 baseline)."""

from __future__ import annotations

import pytest

from repro.text.search import SearchEngine


@pytest.fixture
def engine(sample_messages) -> SearchEngine:
    engine = SearchEngine()
    engine.add_all(sample_messages)
    return engine


class TestIndexing:
    def test_add_all_counts(self, sample_messages):
        engine = SearchEngine()
        assert engine.add_all(sample_messages) == len(sample_messages)
        assert len(engine) == len(sample_messages)

    def test_get_by_id(self, engine, sample_messages):
        assert engine.get(0) == sample_messages[0]
        assert engine.get(999) is None


class TestRankedSearch:
    def test_returns_relevant_messages(self, engine):
        hits = engine.search("yankee redsox")
        assert hits
        assert all("redsox" in h.message.text.lower()
                   or "yankee" in h.message.text.lower() for h in hits)

    def test_scores_descending(self, engine):
        hits = engine.search("yankee stadium redsox")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits_results(self, engine):
        assert len(engine.search("redsox", k=2)) == 2

    def test_empty_query(self, engine):
        assert engine.search("") == []
        assert engine.search("the a an") == []  # all stopwords

    def test_no_match(self, engine):
        assert engine.search("quantum chromodynamics") == []
