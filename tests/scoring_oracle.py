"""Exhaustive Alg. 1 / Alg. 2 argmax loops (test oracle only).

These are the loops the engine ran before selection learnt to skip
candidates that cannot win: every capped candidate bundle gets a full
Eq. 1 score (:func:`bundle_match_score`, the per-candidate naive twin
of the shipped kernel), every windowed member a full Eq. 5 score, and
the best is the plain maximum.  The shipped bound-and-skip code must
agree with them on every placement, edge, tie-break and float bit;
:func:`exhaustive_scoring` swaps them in so one script can be replayed
against both.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping
from unittest import mock

from repro.core import bundle as bundle_module
from repro.core import engine, scoring
from repro.core.bundle import Bundle
from repro.core.config import HOUR_SECONDS, IndexerConfig
from repro.core.connection import Connection
from repro.core.errors import BundleClosedError, BundleError
from repro.core.message import Message
from repro.core.postings import CandidateGather
from repro.core.scoring import dominant_connection_type, message_similarity
from repro.obs.audit import _RawAllocation
from tests.postings_oracle import full_gather


def bundle_match_score(
    message: Message,
    *,
    shared_urls: int,
    shared_hashtags: int,
    shared_keywords: int,
    rt_hit: bool,
    bundle_last_date: float,
    config: IndexerConfig,
) -> float:
    """Eq. 1 — relevance of an incoming message to one candidate bundle.

    ``S(t, B) = α·|url(t)∩url(B)| + β·|tag(t)∩tag(B)| + γ·T(date) + …``
    with the keyword count capped at ``KEYWORD_HIT_CAP`` and the RT bonus
    on top, as :func:`repro.core.scoring.bundle_match_scores` scores it.
    """
    span_hours = abs(message.date - bundle_last_date) / HOUR_SECONDS
    freshness = 1.0 / (span_hours + 1.0)
    score = (config.url_weight * shared_urls
             + config.hashtag_weight * shared_hashtags
             + config.keyword_weight * min(shared_keywords,
                                           scoring.KEYWORD_HIT_CAP)
             + config.time_weight * freshness)
    if rt_hit:
        score += config.rt_weight
    return score


def select(message: Message, gather: CandidateGather, cap: int,
           live: "Mapping[int, Bundle]", config: IndexerConfig,
           collect: "list | None") -> "Bundle | None":
    """Alg. 1: score every capped candidate, keep the maximum.

    Keyword-only candidates get rows and scores like every other one:
    the gather is re-packaged naively first.
    """
    gather = full_gather(gather)
    ids = gather.ids
    hits = gather.hits
    order = sorted(range(len(ids)),
                   key=lambda index: (-hits[index], ids[index]))[:cap]
    tag_hits, url_hits, kw_hits, user_hits = gather.kind_hits
    best_bundle: "Bundle | None" = None
    best_score = float("-inf")
    for position in order:
        bundle = live.get(ids[position])
        if bundle is None or bundle.closed:
            continue
        score = bundle_match_score(
            message,
            shared_urls=url_hits[position],
            shared_hashtags=tag_hits[position],
            shared_keywords=kw_hits[position],
            rt_hit=user_hits[position] > 0,
            bundle_last_date=bundle.last_update,
            config=config,
        )
        if collect is not None:
            collect.append((bundle.bundle_id, url_hits[position],
                            tag_hits[position], kw_hits[position],
                            user_hits[position] > 0, score))
        if score > best_score or (
                score == best_score and best_bundle is not None
                and bundle.bundle_id < best_bundle.bundle_id):
            best_bundle = bundle
            best_score = score
    if best_bundle is None or best_score < scoring.MIN_MATCH_SCORE:
        return None
    return best_bundle


def candidate_members(bundle: Bundle, message: Message,
                      keywords: "frozenset[str]") -> "list[Message]":
    """Alg. 2 lines 1-5, with the latest member found by a full scan."""
    window = bundle_module.ALLOC_WINDOW
    candidate_ids: "set[int]" = set()
    for index, terms in ((bundle._author_members, message.rt_users),
                         (bundle._tag_members, message.hashtags),
                         (bundle._url_members, message.urls),
                         (bundle._keyword_members, keywords)):
        for term in terms:
            candidate_ids.update(index.get(term, ())[-window:])
    if not candidate_ids and bundle._order:
        candidate_ids.add(max(
            bundle._order,
            key=lambda msg_id: bundle._messages[msg_id].sort_key()))
    recent = sorted(candidate_ids)[-window:]
    return [bundle._messages[msg_id] for msg_id in recent]


def insert(self: Bundle, message: Message,
           keywords: "frozenset[str]" = frozenset(), *,
           collect: "list | None" = None) -> "Connection | None":
    """Alg. 2: score every windowed member, keep the maximum."""
    if self.closed:
        raise BundleClosedError(
            f"bundle {self.bundle_id} is closed to new messages")
    if message.msg_id in self._messages:
        raise BundleError(
            f"message {message.msg_id} already in bundle {self.bundle_id}")
    edge = None
    candidates = candidate_members(self, message, keywords)
    if candidates:
        best = candidates[0]
        best_key = (message_similarity(message, best, self.config),
                    best.date, -best.msg_id)
        for prior in candidates[1:]:
            key = (message_similarity(message, prior, self.config),
                   prior.date, -prior.msg_id)
            if key > best_key:
                best, best_key = prior, key
        if collect is not None:
            collect.append(_RawAllocation(
                message, [prior.msg_id for prior in candidates],
                self._messages, best, best_key[0], self.config,
                self.AUDIT_TOP_K))
        kind = dominant_connection_type(message, best)
        edge = Connection(message.msg_id, best.msg_id, kind, best_key[0])
    self._register_member(message, keywords, edge)
    return edge


@contextmanager
def exhaustive_scoring() -> Iterator[None]:
    """Run every engine and bundle on the exhaustive loops meanwhile."""
    with (mock.patch.object(engine, "bundle_match_scores", select),
          mock.patch.object(Bundle, "insert", insert)):
        yield
