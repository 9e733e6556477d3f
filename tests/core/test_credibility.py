"""Tests for the user-credibility tracker."""

from __future__ import annotations

from unittest import mock

from repro.core import credibility
from repro.core.bundle import Bundle
from repro.core.credibility import CredibilityTracker
from tests.conftest import make_message


def reshared_source_bundle() -> Bundle:
    """@writer's post re-shared three times."""
    bundle = Bundle(0)
    bundle.insert(make_message(0, "scoop from the stadium", user="writer"))
    for index in (1, 2, 3):
        bundle.insert(make_message(index, "RT @writer: scoop from the "
                                          "stadium", user=f"fan{index}",
                                   hours=0.1 * index))
    return bundle


def singleton_bundle(msg_id: int, user: str) -> Bundle:
    bundle = Bundle(msg_id + 100)
    bundle.insert(make_message(msg_id, f"isolated fragment {msg_id}",
                               user=user))
    return bundle


class TestTracking:
    def test_unseen_user_neutral(self):
        assert CredibilityTracker().score("nobody") == 0.5

    def test_reshared_source_gains(self):
        tracker = CredibilityTracker()
        tracker.observe_bundle(reshared_source_bundle())
        assert tracker.score("writer") > 0.5

    def test_isolated_user_drops(self):
        tracker = CredibilityTracker()
        for index in range(6):
            tracker.observe_bundle(singleton_bundle(index, "noisy"))
        assert tracker.score("noisy") < 0.5

    def test_counters(self):
        tracker = CredibilityTracker()
        tracker.observe_bundle(reshared_source_bundle())
        record = tracker.record("writer")
        assert record.messages == 1
        assert record.reshared == 3
        assert record.sources == 1
        assert record.isolated == 0

    def test_singleton_counters(self):
        tracker = CredibilityTracker()
        tracker.observe_bundle(singleton_bundle(0, "lone"))
        record = tracker.record("lone")
        assert record.isolated == 1
        assert record.sources == 0  # singleton roots don't count

    @mock.patch.object(credibility, "PRIOR", 1.0)
    def test_score_bounded(self):
        tracker = CredibilityTracker()
        for _ in range(5):
            tracker.observe_bundle(reshared_source_bundle())
        assert 0.0 < tracker.score("writer") <= 1.0
        assert 0.0 < tracker.score("fan1") <= 1.0


class TestRankings:
    def _tracker(self) -> CredibilityTracker:
        tracker = CredibilityTracker()
        for _ in range(4):
            tracker.observe_bundle(reshared_source_bundle())
        for index in range(4):
            tracker.observe_bundle(singleton_bundle(index, "noisy"))
        return tracker

    def test_top_users(self):
        tracker = self._tracker()
        top = tracker.top_users(k=1, min_messages=3)
        assert top[0][0] == "writer"

    def test_noise_users(self):
        tracker = self._tracker()
        worst = tracker.noise_users(k=1, min_messages=3)
        assert worst[0][0] == "noisy"

    def test_min_messages_filters(self):
        tracker = CredibilityTracker()
        tracker.observe_bundle(reshared_source_bundle())  # writer: 1 msg
        assert tracker.top_users(min_messages=2) == []

    def test_observe_pool(self):
        tracker = CredibilityTracker()
        tracker.observe_pool([reshared_source_bundle(),
                              singleton_bundle(0, "x")])
        assert "writer" in tracker and "x" in tracker
        assert len(tracker) == 5  # writer + 3 fans + x
