"""Tests for Bundle (Definition 3) and Algorithm 2 allocation."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import bundle as bundle_module
from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.connection import ConnectionType
from repro.core.errors import BundleClosedError, BundleError
from tests.conftest import make_message


@pytest.fixture
def bundle() -> Bundle:
    return Bundle(0, IndexerConfig())


class TestInsertion:
    def test_first_message_is_root(self, bundle):
        edge = bundle.insert(make_message(1, "#tag start"))
        assert edge is None
        assert bundle.parent_of(1) is None
        assert len(bundle) == 1

    def test_second_message_connects_to_first(self, bundle):
        bundle.insert(make_message(1, "#tag start"))
        edge = bundle.insert(make_message(2, "#tag more", user="b", hours=1))
        assert edge is not None
        assert edge.src_id == 2 and edge.dst_id == 1
        assert edge.kind is ConnectionType.HASHTAG

    def test_rt_connects_to_author_even_if_older(self, bundle):
        bundle.insert(make_message(1, "#tag news", user="mlb"))
        bundle.insert(make_message(2, "#tag chatter", user="x", hours=0.1))
        edge = bundle.insert(
            make_message(3, "RT @mlb: #tag news", user="fan", hours=0.2))
        assert edge is not None
        assert edge.dst_id == 1
        assert edge.kind is ConnectionType.RT

    def test_max_scored_prior_wins(self, bundle):
        # URL + hashtag beats hashtag alone.
        bundle.insert(make_message(1, "#tag plain"))
        bundle.insert(make_message(2, "#tag rich bit.ly/a", user="b",
                                   hours=0.1))
        edge = bundle.insert(
            make_message(3, "#tag follow bit.ly/a", user="c", hours=0.2))
        assert edge is not None
        assert edge.dst_id == 2
        assert edge.kind is ConnectionType.URL

    def test_keyword_only_match_uses_text_kind(self, bundle):
        bundle.insert(make_message(1, "baseball tonight"),
                      keywords=frozenset({"baseball", "tonight"}))
        edge = bundle.insert(
            make_message(2, "baseball game", user="b", hours=1),
            keywords=frozenset({"baseball", "game"}))
        assert edge is not None
        assert edge.kind is ConnectionType.TEXT

    def test_no_overlap_falls_back_to_latest_member(self, bundle):
        bundle.insert(make_message(1, "#one alpha"))
        bundle.insert(make_message(2, "#one beta", user="b", hours=1))
        edge = bundle.insert(make_message(3, "#zzz unrelated", user="c",
                                          hours=2))
        assert edge is not None
        assert edge.dst_id == 2  # most recent member

    def test_duplicate_member_rejected(self, bundle):
        bundle.insert(make_message(1, "x"))
        with pytest.raises(BundleError):
            bundle.insert(make_message(1, "x again"))

    def test_closed_bundle_rejects_insert(self, bundle):
        bundle.insert(make_message(1, "x"))
        bundle.close()
        with pytest.raises(BundleClosedError):
            bundle.insert(make_message(2, "y", hours=1))

    def test_time_window_widens(self, bundle):
        bundle.insert(make_message(1, "#t a", hours=5))
        bundle.insert(make_message(2, "#t b", hours=2))
        bundle.insert(make_message(3, "#t c", hours=9))
        assert bundle.time_span == pytest.approx(7 * 3600.0)
        assert bundle.last_update == make_message(3, "x", hours=9).date


class TestSummaries:
    def test_counters_accumulate(self, bundle):
        bundle.insert(make_message(1, "#tag one bit.ly/a"),
                      keywords=frozenset({"one"}))
        bundle.insert(make_message(2, "#tag two bit.ly/a", user="b", hours=1),
                      keywords=frozenset({"two"}))
        assert bundle.hashtag_counts["tag"] == 2
        assert bundle.url_counts["bit.ly/a"] == 2
        assert bundle.keyword_counts["one"] == 1
        assert bundle.user_counts["alice"] == 1

    def test_summary_words_ranked_by_frequency(self, bundle):
        for index in range(3):
            bundle.insert(
                make_message(index, "#redsox game", user=f"u{index}",
                             hours=index * 0.1),
                keywords=frozenset({"game"}))
        words = bundle.summary_words(2)
        assert set(words) == {"redsox", "game"}

    def test_keywords_of_members(self, bundle):
        bundle.insert(make_message(1, "x"), keywords=frozenset({"alpha"}))
        assert set(bundle.keywords_of(1)) == {"alpha"}
        assert not bundle.keywords_of(999)

    def test_keywords_kept_as_tuple_in_arrival_order(self, bundle):
        # The stored tuple iterates as the arrival set did, so the
        # keyword counter and postings see today's insertion order.
        arrival = frozenset(f"word{index}" for index in range(12))
        bundle.insert(make_message(1, "x"), keywords=arrival)
        stored = bundle.keywords_of(1)
        assert type(stored) is tuple
        assert stored == tuple(arrival)
        assert list(bundle.keyword_counts) == list(arrival)


class TestStructure:
    def test_iteration_in_arrival_order(self, bundle):
        for index in (3, 1, 2):
            bundle.insert(make_message(index, f"#t {index}",
                                       user=f"u{index}", hours=index * 0.1))
        assert [m.msg_id for m in bundle] == [3, 1, 2]
        assert bundle.message_ids() == [3, 1, 2]

    def test_edge_pairs(self, bundle):
        bundle.insert(make_message(1, "#t a"))
        bundle.insert(make_message(2, "#t b", user="b", hours=0.1))
        assert bundle.edge_pairs() == {(2, 1)}

    def test_contains_and_get(self, bundle):
        message = make_message(1, "x")
        bundle.insert(message)
        assert 1 in bundle
        assert bundle.get(1) == message
        assert bundle.get(2) is None

    @mock.patch.object(bundle_module, "ALLOC_WINDOW", 2)
    def test_alloc_window_caps_candidates(self):
        bundle = Bundle(0, IndexerConfig())
        for index in range(10):
            bundle.insert(make_message(index, "#t same",
                                       user=f"u{index}", hours=index * 0.01))
        # With window 2 the newest message can only see the 2 most recent
        # sharers, so its edge target must be one of ids {8, 9}.
        edge = bundle.insert(make_message(10, "#t same", user="new",
                                          hours=0.2))
        assert edge is not None
        assert edge.dst_id in {8, 9}

    def test_memory_estimate_grows_with_members(self, bundle):
        bundle.insert(make_message(1, "#tag hello bit.ly/a"))
        small = bundle.approximate_memory_bytes()
        bundle.insert(make_message(2, "#tag more text here", user="b",
                                   hours=1))
        assert bundle.approximate_memory_bytes() > small


class TestEarlyStopPreconditions:
    """Hand-built windows where stopping Alg. 2's walk early would be wrong.

    Each case is also replayed on ``tests/scoring_oracle.insert`` — the
    exhaustive loop the early stop must agree with.
    """

    @staticmethod
    def _both(config, members, arrival):
        """The arrival's shipped edge (checked against the oracle's) and
        the number of members the shipped insert scored."""
        from unittest import mock

        from repro.core import bundle as bundle_module
        from tests.scoring_oracle import insert as exhaustive_insert

        edges = []
        for place in (Bundle.insert, exhaustive_insert):
            bundle = Bundle(0, config)
            for member in members:
                place(bundle, member, frozenset({"word"}))
            with mock.patch.object(
                    bundle_module, "message_similarity",
                    wraps=bundle_module.message_similarity) as similarity:
                edges.append(place(bundle, arrival, frozenset({"word"})))
            if place is Bundle.insert:
                scored = similarity.call_count
        shipped, oracle = edges
        assert shipped == oracle
        return shipped, scored

    def test_late_arrival_scores_the_whole_window(self):
        # Monotone bundle, but the arrival is older than its newest
        # member: time closeness rises, then falls, along the walk, so a
        # low ceiling at the newest member proves nothing about older
        # ones.  The URL sharer (weight 0) is merely the first incumbent.
        config = IndexerConfig(url_weight=0.0, rt_weight=0.0)
        members = [
            make_message(1, "word bit.ly/a", user="a", hours=0.0),
            make_message(2, "word", user="b", hours=2.0),
            make_message(3, "word", user="c", hours=50.0),
        ]
        edge, _ = self._both(config, members,
                          make_message(4, "word bit.ly/a", user="d",
                                       hours=2.0))
        assert edge.dst_id == 2

    def test_equal_dates_tie_break_on_the_smaller_id(self):
        # Three same-second members score identically; the walk may not
        # stop at the newest, because the oldest wins the tie.
        members = [make_message(index, "#t word", user=f"u{index}")
                   for index in (1, 2, 3)]
        edge, _ = self._both(IndexerConfig(), members,
                          make_message(4, "#t word", user="new", hours=1.0))
        assert edge.dst_id == 1

    def test_same_date_tie_jumps_to_the_oldest_windowed_member(self):
        # A hundred same-second members tie on Eq. 5; the 64-window's
        # oldest wins.  The walk scores the newest, sees the next one's
        # ceiling equal the incumbent on its date, and jumps down to the
        # window's start instead of scoring all 64.
        members = [make_message(index, "#t word", user=f"u{index}")
                   for index in range(100)]
        edge, scored = self._both(
            IndexerConfig(), members,
            make_message(100, "#t word", user="new", hours=1.0))
        assert edge.dst_id == 36
        assert scored <= 4

    def test_equal_ceiling_on_another_date_keeps_walking(self):
        # Only the tag term counts.  The URL sharer 2 is scored first and
        # ties 3 and 4 on score, but they are newer, so 4 displaces it
        # and 3 then wins the (D + 60 s) tie.  Entering the tie search
        # on the ceiling alone, at 4, would search 2's date and return 1.
        config = IndexerConfig(url_weight=0.0, rt_weight=0.0,
                               time_weight=0.0)
        minute = 60.0 / 3600.0
        members = [
            make_message(1, "#t word", user="a"),
            make_message(2, "#t word bit.ly/x", user="b"),
            make_message(3, "#t word", user="c", hours=minute),
            make_message(4, "#t word", user="d", hours=minute),
        ]
        edge, _ = self._both(config, members,
                             make_message(5, "#t word bit.ly/x", user="e",
                                          hours=2 * minute))
        assert edge.dst_id == 3

    def test_shuffled_ids_score_the_whole_window(self):
        # Ids do not follow arrival, so the id-sorted window is not
        # date-sorted: the closest member sits in the middle of the walk.
        members = [
            make_message(5, "word", user="a", hours=0.0),
            make_message(9, "word", user="b", hours=1.0),
            make_message(2, "word", user="c", hours=9.0),
        ]
        edge, _ = self._both(IndexerConfig(), members,
                          make_message(10, "word", user="d", hours=9.5))
        assert edge.dst_id == 2

    def test_partial_tag_overlap_keeps_walking(self):
        # The bundle covers both tags but no single member does until
        # the oldest: the ceiling must use the bundle's coverage.
        members = [
            make_message(1, "#x #y word", user="a", hours=0.0),
            make_message(2, "#x word", user="b", hours=0.1),
            make_message(3, "#y word", user="c", hours=0.2),
        ]
        edge, _ = self._both(IndexerConfig(), members,
                          make_message(4, "#x #y word", user="d", hours=0.3))
        assert edge.dst_id == 1

    def test_fallback_tracks_the_latest_member_by_sort_key(self):
        # No indicant overlaps; the latest member by (date, id) is not
        # the last one inserted.
        bundle = Bundle(0, IndexerConfig())
        bundle.insert(make_message(1, "#one alpha", hours=5.0))
        bundle.insert(make_message(2, "#one beta", user="b", hours=1.0))
        edge = bundle.insert(make_message(3, "#zzz unrelated", user="c",
                                          hours=6.0))
        assert edge is not None
        assert edge.dst_id == 1
