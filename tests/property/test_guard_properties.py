"""Property-based tests for the guard's duplicate join and spam score.

* ``DuplicateDetector`` — the prefix-filtered join must return, verdict
  for verdict, what a brute-force scan of every earlier shingle set
  returns (``tests/dedup_oracle.py``), also while the threshold switches
  between the guard's normal and tightened values, and two detectors fed
  the same stream must agree (the join is rebuilt from scratch on every
  restart);
* ``CredibilityTracker`` — the spam score must be monotone in observed
  duplicates, stay inside ``[0, 1]``, and decay toward the neutral 0.5
  prior rather than past it.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import credibility
from repro.core.credibility import CredibilityTracker
from repro.core.dedup import DuplicateDetector, _size_bounds
from tests.conftest import make_message
from tests.dedup_oracle import BruteForceDetector

words = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
texts = st.lists(words, min_size=1, max_size=30).map(" ".join)


#: One long word run: windows of it are subsets of each other's
#: shingles, so exact-boundary pairs (jaccard == t, t·|x| an integer:
#: 4 of 5 or 16 of 20 shingles at 0.8, 13 of 20 at 0.65) come up often.
RUN = [f"w{i}" for i in range(26)]


@st.composite
def arrivals(draw):
    """``(msg_id, text, tightened)`` triples: unique ids in any order."""
    texts = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ("window", "window", "window", "edited", "short", "empty")))
        if kind == "empty":
            texts.append(draw(st.sampled_from(("", "  ", "http://t.co/x"))))
            continue
        if kind == "short":
            words = draw(st.lists(st.sampled_from(RUN[:4]), min_size=1,
                                  max_size=2))
        else:
            start = draw(st.integers(0, len(RUN) - 1))
            length = draw(st.integers(1, len(RUN) - start))
            words = RUN[start:start + length]
            if kind == "edited":
                at = draw(st.integers(0, len(words) - 1))
                words = words[:at] + [f"x{at}"] + words[at + 1:]
        texts.append(" ".join(words))
    ids = draw(st.permutations(range(len(texts))))
    tightened = draw(st.lists(st.booleans(), min_size=len(texts),
                              max_size=len(texts)))
    return list(zip(ids, texts, tightened))


class TestJoinEqualsOracle:
    @given(stream=arrivals())
    @settings(deadline=None)
    def test_join_equals_brute_force(self, stream):
        join = DuplicateDetector(threshold=0.8, index_threshold=0.65)
        naive = BruteForceDetector(threshold=0.8)
        for msg_id, text, tightened in stream:
            join.threshold = naive.threshold = 0.65 if tightened else 0.8
            message = make_message(msg_id, text)
            assert join.check_and_add(message) == \
                naive.check_and_add(message), (msg_id, text)
        assert len(join) == len(naive)

    def test_size_bounds_solve_the_float_comparison(self):
        # ceil(t * n) and floor(n / t) are one off wherever t * n or n / t
        # rounds across an integer (0.55 * 100 == 55.000000000000007);
        # the bounds must be the ones jaccard's float division implies.
        for threshold in (0.8, 0.65, 0.55, 0.7, 0.3, 0.1, 1.0):
            for size in range(1, 401):
                least, most = _size_bounds(size, threshold)
                assert least == min(o for o in range(1, size + 1)
                                    if o / size >= threshold)
                assert most == max(m for m in range(size, 12 * size)
                                   if size / m >= threshold)


class TestBandDeterminism:
    @given(body=texts, ids=st.lists(st.integers(0, 10_000), min_size=2,
                                    max_size=8, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_detector_verdicts_reproducible(self, body, ids):
        # Two detectors fed the same stream must agree on every verdict
        # — a join rebuilt on restart may never change what folds.
        stream = [make_message(msg_id, body + f" tail{i % 3}",
                              hours=i * 0.1)
                  for i, msg_id in enumerate(sorted(ids))]
        first = DuplicateDetector(threshold=0.5)
        second = DuplicateDetector(threshold=0.5)
        for message in stream:
            assert first.check_and_add(message) == \
                second.check_and_add(message)

    @given(text=texts)
    @settings(max_examples=60, deadline=None)
    def test_exact_copy_is_always_caught(self, text):
        detector = DuplicateDetector(threshold=0.99)
        detector.check_and_add(make_message(1, text))
        assert detector.check_and_add(
            make_message(2, text, hours=0.1)) == 1


def tracker_with_prior(prior: float) -> CredibilityTracker:
    """A tracker whose neutral pseudo-count mass is ``prior``."""
    with mock.patch.object(credibility, "PRIOR", prior):
        return CredibilityTracker()


class TestSpamScore:
    @given(dups=st.integers(0, 40), clean=st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_score_bounded_and_monotone_in_duplicates(self, dups, clean):
        tracker = tracker_with_prior(2.0)
        for _ in range(clean):
            tracker.note_message("u")
        previous = tracker.spam_score("u")
        assert 0.0 <= previous <= 1.0
        for _ in range(dups):
            tracker.note_duplicate("u")
            score = tracker.spam_score("u")
            assert score >= previous, \
                "another duplicate must never lower the spam score"
            assert 0.0 <= score <= 1.0
            previous = score

    @given(clean=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_clean_history_scores_below_neutral(self, clean):
        tracker = tracker_with_prior(2.0)
        for _ in range(clean):
            tracker.note_message("u")
        assert tracker.spam_score("u") < 0.5
        assert tracker.spam_score("unseen-user") == 0.5

    @given(dups=st.integers(1, 30), clean=st.integers(0, 30),
           factor=st.floats(0.1, 0.9),
           rounds=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_decay_moves_score_toward_neutral(self, dups, clean, factor,
                                              rounds):
        tracker = tracker_with_prior(2.0)
        for _ in range(clean):
            tracker.note_message("u")
        for _ in range(dups):
            tracker.note_duplicate("u")
        score = tracker.spam_score("u")
        for _ in range(rounds):
            decayed = tracker.decay(factor) or tracker.spam_score("u")
            # Each decay round shrinks the evidence, pulling the score
            # strictly toward (never past) the 0.5 prior.
            if score > 0.5:
                assert 0.5 <= decayed <= score + 1e-12
            else:
                assert score - 1e-12 <= decayed <= 0.5
            score = decayed
        # Exposure decays with the counters, so a reformed user also
        # drops back under any judgment gate eventually.
        assert tracker.exposure("u") <= dups + clean
