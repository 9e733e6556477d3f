"""Tests for bundle-level provenance operators."""

from __future__ import annotations

import pytest

from repro.core.bundle import Bundle
from repro.core.errors import BundleError
from repro.core.graph import roots
from repro.core.operators import (bundle_difference, extract_cascade,
                                  filter_bundle, merge_bundles,
                                  rebuild_bundle, slice_bundle,
                                  split_bundle_at)
from tests.conftest import BASE_DATE, make_message


@pytest.fixture
def story() -> Bundle:
    """A two-phase story: a chain at hours 0-1, a follow-up at hours 5-6."""
    bundle = Bundle(0)
    bundle.insert(make_message(0, "origin #story", user="src"))
    bundle.insert(make_message(1, "RT @src: origin #story", user="a",
                               hours=0.5))
    bundle.insert(make_message(2, "RT @a: RT @src: origin #story", user="b",
                               hours=1.0))
    bundle.insert(make_message(3, "follow-up #story detail", user="c",
                               hours=5.0))
    bundle.insert(make_message(4, "RT @c: follow-up #story detail",
                               user="d", hours=6.0))
    return bundle


class TestRebuild:
    def test_subset_preserves_internal_edges(self, story):
        result = rebuild_bundle(9, story, {0, 1, 2})
        assert result.bundle_id == 9
        assert result.message_ids() == [0, 1, 2]
        assert result.edge_pairs() == {(1, 0), (2, 1)}

    def test_cross_boundary_edges_dropped(self, story):
        result = rebuild_bundle(9, story, {1, 2})
        # 1's parent (0) is outside: 1 becomes a root.
        assert result.parent_of(1) is None
        assert result.edge_pairs() == {(2, 1)}

    def test_summaries_rebuilt(self, story):
        result = rebuild_bundle(9, story, {3, 4})
        assert result.hashtag_counts["story"] == 2
        assert result.user_counts == {"c": 1, "d": 1}

    def test_empty_selection(self, story):
        result = rebuild_bundle(9, story, set())
        assert len(result) == 0


class TestMerge:
    def _two_bundles(self):
        first = Bundle(0)
        first.insert(make_message(0, "news #alpha", user="src"))
        first.insert(make_message(1, "RT @src: news #alpha", user="a",
                                  hours=0.2))
        second = Bundle(1)
        second.insert(make_message(10, "more #alpha talk", user="x",
                                   hours=1.0))
        second.insert(make_message(11, "RT @x: more #alpha talk", user="y",
                                   hours=1.2))
        return first, second

    def test_merge_preserves_all_members(self):
        first, second = self._two_bundles()
        merged = merge_bundles(5, first, second)
        assert set(merged.message_ids()) == {0, 1, 10, 11}

    def test_merge_preserves_internal_edges(self):
        first, second = self._two_bundles()
        merged = merge_bundles(5, first, second)
        assert {(1, 0), (11, 10)} <= merged.edge_pairs()

    def test_merge_realigns_second_roots(self):
        first, second = self._two_bundles()
        merged = merge_bundles(5, first, second)
        # message 10 (second's root) shares #alpha with first's members.
        assert merged.parent_of(10) in {0, 1}

    def test_merge_realigns_on_a_shared_keyword_alone(self):
        first = Bundle(0)
        first.insert(make_message(0, "lester ovation", user="src"),
                     keywords=frozenset({"lester", "ovation"}))
        second = Bundle(1)
        second.insert(make_message(10, "standing ovation", user="x",
                                   hours=1.0),
                      keywords=frozenset({"standing", "ovation"}))
        merged = merge_bundles(5, first, second)
        assert merged.parent_of(10) == 0

    def test_merge_overlapping_rejected(self):
        first, _ = self._two_bundles()
        with pytest.raises(BundleError):
            merge_bundles(5, first, first)

    def test_merge_unrelated_stays_forest(self):
        first = Bundle(0)
        first.insert(make_message(0, "news #alpha", user="src"))
        second = Bundle(1)
        second.insert(make_message(10, "#zeta unrelated", user="x",
                                   hours=1.0))
        merged = merge_bundles(5, first, second)
        assert len(roots(merged)) == 2


class TestSplitAndSlice:
    def test_split_at_gap(self, story):
        cut = BASE_DATE + 3 * 3600.0
        before, after = split_bundle_at(story, cut, before_id=10,
                                        after_id=11)
        assert set(before.message_ids()) == {0, 1, 2}
        assert set(after.message_ids()) == {3, 4}
        assert before.edge_pairs() == {(1, 0), (2, 1)}
        assert after.edge_pairs() == {(4, 3)}

    def test_split_all_before(self, story):
        before, after = split_bundle_at(
            story, BASE_DATE + 100 * 3600.0, before_id=10, after_id=11)
        assert len(before) == 5 and len(after) == 0

    def test_slice_window(self, story):
        result = slice_bundle(story, BASE_DATE + 0.4 * 3600.0,
                              BASE_DATE + 5.5 * 3600.0, bundle_id=12)
        assert set(result.message_ids()) == {1, 2, 3}

    def test_slice_invalid_window(self, story):
        with pytest.raises(BundleError):
            slice_bundle(story, BASE_DATE + 10.0, BASE_DATE, bundle_id=1)


class TestExtractCascade:
    # The story fixture is one chain 0<-1<-2<-3<-4: message 3 aligns with
    # 2 through the shared #story hashtag.
    def test_cascade_from_root(self, story):
        result = extract_cascade(story, 0, bundle_id=13)
        assert set(result.message_ids()) == {0, 1, 2, 3, 4}

    def test_cascade_from_middle(self, story):
        result = extract_cascade(story, 3, bundle_id=13)
        assert set(result.message_ids()) == {3, 4}

    def test_cascade_from_leaf(self, story):
        result = extract_cascade(story, 4, bundle_id=13)
        assert result.message_ids() == [4]

    def test_cascade_unknown_message(self, story):
        with pytest.raises(BundleError):
            extract_cascade(story, 99, bundle_id=13)


class TestFilter:
    def test_filter_contracts_through_removed(self, story):
        # Remove the middle of the chain 0 <- 1 <- 2: edge 2->1 must be
        # re-stitched to 2->0.
        result = filter_bundle(story, lambda m: m.msg_id != 1, bundle_id=14)
        assert 1 not in result
        assert result.parent_of(2) == 0

    def test_filter_by_user(self, story):
        result = filter_bundle(story, lambda m: m.user != "d", bundle_id=14)
        assert set(result.message_ids()) == {0, 1, 2, 3}

    def test_filter_keeps_edge_kind(self, story):
        result = filter_bundle(story, lambda m: m.msg_id != 1, bundle_id=14)
        edge = next(e for e in result.edges() if e.src_id == 2)
        original = next(e for e in story.edges() if e.src_id == 2)
        assert edge.kind == original.kind

    def test_filter_everything(self, story):
        result = filter_bundle(story, lambda m: False, bundle_id=14)
        assert len(result) == 0


class TestDifference:
    def test_growth_diff(self, story):
        early = rebuild_bundle(20, story, {0, 1})
        diff = bundle_difference(story, early)
        assert diff.added_messages == {2, 3, 4}
        assert diff.added_edges == {(2, 1), (3, 2), (4, 3)}
        assert not diff.removed_messages
        assert not diff.unchanged

    def test_identical_bundles(self, story):
        assert bundle_difference(story, story).unchanged

    def test_removed_direction(self, story):
        early = rebuild_bundle(20, story, {0, 1})
        diff = bundle_difference(early, story)
        assert diff.removed_messages == {2, 3, 4}
        assert not diff.added_messages
