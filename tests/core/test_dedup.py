"""Tests for near-duplicate detection."""

from __future__ import annotations

import pytest

from repro.core.dedup import DuplicateDetector, jaccard, shingles
from tests.conftest import make_message


class TestShingles:
    def test_basic_shingles(self):
        grams = shingles("the quick brown fox jumps", width=3)
        assert "the quick brown" in grams
        assert "brown fox jumps" in grams
        assert len(grams) == 3

    def test_short_text_single_shingle(self):
        assert shingles("two words", width=3) == frozenset({"two words"})

    def test_empty_text(self):
        assert shingles("", width=3) == frozenset()

    def test_entities_stripped(self):
        grams = shingles("breaking news #tag http://bit.ly/x", width=2)
        assert all("http" not in g and "#" not in g for g in grams)

    def test_case_insensitive(self):
        assert shingles("Breaking News Today") == shingles(
            "breaking news today")

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            shingles("x", width=0)


class TestJaccard:
    def test_identical(self):
        grams = shingles("a b c d e")
        assert jaccard(grams, grams) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({"a b"}), frozenset({"c d"})) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_one_empty(self):
        assert jaccard(frozenset({"a"}), frozenset()) == 0.0

    def test_partial(self):
        assert jaccard(frozenset({"a", "b"}),
                       frozenset({"b", "c"})) == pytest.approx(1 / 3)


class TestDuplicateDetector:
    def test_exact_copy_detected(self):
        detector = DuplicateDetector()
        original = make_message(0, "breaking: tsunami warning for the "
                                   "entire coast issued this morning")
        copy = make_message(1, "breaking: tsunami warning for the entire "
                               "coast issued this morning", user="b",
                            hours=1)
        assert detector.check_and_add(original) is None
        assert detector.check_and_add(copy) == 0

    def test_near_copy_detected(self):
        detector = DuplicateDetector(threshold=0.5)
        detector.check_and_add(make_message(
            0, "huge earthquake strikes the coast this morning says agency"))
        result = detector.check_and_add(make_message(
            1, "huge earthquake strikes the coast this morning says office",
            user="b", hours=1))
        assert result == 0

    def test_unrelated_not_flagged(self):
        detector = DuplicateDetector()
        detector.check_and_add(make_message(0, "totally about baseball "
                                               "games and stadium crowds"))
        result = detector.check_and_add(make_message(
            1, "market rally pushes stocks higher on earnings", user="b",
            hours=1))
        assert result is None

    def test_earliest_duplicate_returned(self):
        detector = DuplicateDetector()
        text = "identical viral content spreading around the network now"
        for index in range(3):
            detector.check_and_add(make_message(index, text,
                                                user=f"u{index}",
                                                hours=index * 0.1))
        result = detector.check_and_add(
            make_message(9, text, user="late", hours=1))
        assert result == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DuplicateDetector(threshold=0.0)

    def test_threshold_never_below_the_index_threshold(self):
        with pytest.raises(ValueError):
            DuplicateDetector(threshold=0.6, index_threshold=0.65)
        detector = DuplicateDetector(threshold=0.8, index_threshold=0.65)
        detector.threshold = 0.65
        with pytest.raises(ValueError):
            detector.threshold = 0.6
        assert detector.threshold == 0.65

    def test_lowered_threshold_reaches_pairs_indexed_before(self):
        # 10 shingles against 7 of them: jaccard 0.7.  The arrival's
        # 3-shingle prefix misses the first set's 3-shingle prefix (its
        # length at 0.8) and meets only the 4th shingle, which indexing
        # at 0.65 posts.
        words = [f"r95x{i}" for i in range(12)]
        detector = DuplicateDetector(threshold=0.8, index_threshold=0.65)
        assert detector.check_and_add(
            make_message(5, " ".join(words))) is None
        detector.threshold = 0.65
        assert detector.check_and_add(
            make_message(3, " ".join(words[:9]), hours=1)) == 5

    def test_empty_texts_match_each_other_only(self):
        detector = DuplicateDetector(threshold=0.8)
        assert detector.check_and_add(make_message(4, "http://a.b")) is None
        assert detector.check_and_add(make_message(2, "")) == 4
        assert detector.check_and_add(make_message(9, "a b c d")) is None
        assert detector.check_and_add(make_message(7, "http://x.y")) == 2
        assert len(detector) == 4

    def test_rt_variants_collapse(self):
        """The real use case: RT copies of one message are duplicates."""
        detector = DuplicateDetector(threshold=0.5)
        detector.check_and_add(make_message(
            0, "lester getting an ovation from the stadium crowd tonight",
            user="amalie"))
        result = detector.check_and_add(make_message(
            1, "RT @amalie: lester getting an ovation from the stadium "
               "crowd tonight", user="fan", hours=0.5))
        assert result == 0
