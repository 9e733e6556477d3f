"""Tests for postings lists."""

from __future__ import annotations

import pytest

from repro.text.postings import Posting, PostingsList


def build(doc_ids: list[int]) -> PostingsList:
    plist = PostingsList()
    for doc_id in doc_ids:
        plist.add(doc_id)
    return plist


class TestPosting:
    def test_add_occurrence_counts(self):
        posting = Posting(1)
        posting.add_occurrence()
        posting.add_occurrence()
        assert posting.term_freq == 2

    def test_occurrence_without_position(self):
        posting = Posting(1)
        posting.add_occurrence()
        assert posting.term_freq == 1


class TestPostingsList:
    def test_add_in_order(self):
        plist = build([1, 3, 7])
        assert [p.doc_id for p in plist] == [1, 3, 7]
        assert plist.doc_freq == 3

    def test_readd_same_doc_bumps_freq(self):
        plist = PostingsList()
        plist.add(1)
        plist.add(1)
        assert plist.doc_freq == 1
        assert plist.get(1).term_freq == 2

    def test_out_of_order_rejected(self):
        plist = build([5])
        with pytest.raises(ValueError):
            plist.add(3)

    def test_contains(self):
        plist = build([1, 2])
        assert 1 in plist and 9 not in plist

    def test_iteration_yields_postings(self):
        plist = build([1, 2])
        assert [p.doc_id for p in plist] == [1, 2]
