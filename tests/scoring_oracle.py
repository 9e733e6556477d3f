"""Exhaustive Alg. 1 / Alg. 2 argmax loops (test oracle only).

These are the loops the engine ran before selection learnt to skip
candidates that cannot win: every capped candidate bundle gets a full
Eq. 1 score, every windowed member a full Eq. 5 score, and the best is
the plain maximum.  The shipped bound-and-skip code must agree with them
on every placement, edge, tie-break and float bit;
:func:`exhaustive_scoring` swaps them in so one script can be replayed
against both.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.bundle import Bundle
from repro.core.connection import Connection
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import BundleClosedError, BundleError
from repro.core.message import Message
from repro.core.postings import CandidateGather
from repro.core.scoring import (bundle_match_score, dominant_connection_type,
                                message_similarity)
from repro.obs.audit import _RawAllocation, _RawCandidates


def select_scalar(self: ProvenanceIndexer, message: Message,
                  keywords: "frozenset[str]", gather: CandidateGather,
                  cap: int, collect: "list | None") -> "Bundle | None":
    """Alg. 1: score every capped candidate, keep the maximum."""
    ids = gather.ids
    hits = gather.hits
    fetched = len(ids)
    order = sorted(range(fetched),
                   key=lambda index: (-hits[index], ids[index]))[:cap]
    self.last_candidate_fanin = (fetched, len(order))
    tag_hits, url_hits, kw_hits, user_hits = gather.kind_hits
    live = self.pool.live()
    best_bundle: "Bundle | None" = None
    best_score = float("-inf")
    kept_positions: "list[int]" = []
    kept_scores: "list[float]" = []
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
            config=self.config,
        )
        kept_positions.append(position)
        kept_scores.append(score)
        if score > best_score or (
                score == best_score and best_bundle is not None
                and bundle.bundle_id < best_bundle.bundle_id):
            best_bundle = bundle
            best_score = score
    if collect is not None and kept_positions:
        collect.append(_RawCandidates(gather, kept_positions, kept_scores))
    if best_bundle is None or best_score < self.config.min_match_score:
        return None
    return best_bundle


def candidate_members(bundle: Bundle, message: Message,
                      keywords: "frozenset[str]") -> "list[Message]":
    """Alg. 2 lines 1-5, with the latest member found by a full scan."""
    window = bundle.config.alloc_window
    index = bundle._member_index
    candidate_ids: "set[int]" = set()
    for user in message.rt_users:
        candidate_ids.update(index.get("a:" + user, ())[-window:])
    for tag in message.hashtags:
        candidate_ids.update(index.get("t:" + tag, ())[-window:])
    for url in message.urls:
        candidate_ids.update(index.get("u:" + url, ())[-window:])
    for keyword in keywords:
        candidate_ids.update(index.get("k:" + keyword, ())[-window:])
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
                message, tuple(candidates), best, best_key[0],
                self.config, self.AUDIT_TOP_K))
        kind = dominant_connection_type(message, best)
        edge = Connection(message.msg_id, best.msg_id, kind, best_key[0])
    self._register_member(message, keywords, edge)
    return edge


@contextmanager
def exhaustive_scoring() -> Iterator[None]:
    """Run every engine and bundle on the exhaustive loops meanwhile."""
    shipped = (ProvenanceIndexer._select_scalar, Bundle.insert)
    ProvenanceIndexer._select_scalar = select_scalar  # type: ignore[method-assign]
    Bundle.insert = insert  # type: ignore[method-assign]
    try:
        yield
    finally:
        ProvenanceIndexer._select_scalar, Bundle.insert = shipped  # type: ignore[method-assign]
