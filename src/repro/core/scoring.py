"""Similarity and ranking functions (Equations 1–6 of the paper).

Three scoring layers live here:

* **message ↔ message** similarity used by Algorithm 2 to align a new
  message inside its chosen bundle — Eq. 2 (URL overlap ``U``), Eq. 3
  (hashtag overlap ``H``), Eq. 4 (time closeness ``T``) and their weighted
  combination Eq. 5 (``S``);
* **message ↔ bundle** relevance used by Algorithm 1 to pick the best
  candidate bundle — Eq. 1, extended with keyword and RT indicants exactly
  as the paper's trailing "…" invites;
* **bundle aging** score ``G(B)`` of Eq. 6 that drives pool refinement.

All functions are pure, save that the Eq. 1 argmax appends its audit
capture to the list it is handed; weights come from
:class:`~repro.core.config.IndexerConfig`.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.config import HOUR_SECONDS, IndexerConfig
from repro.core.connection import ConnectionType
from repro.core.message import Message
from repro.core.postings import CandidateGather

if TYPE_CHECKING:
    from repro.core.bundle import Bundle

__all__ = [
    "url_overlap",
    "hashtag_overlap",
    "time_closeness",
    "message_similarity",
    "similarity_components",
    "dominant_connection_type",
    "bundle_match_scores",
    "refinement_score",
]

#: Eq. 1's "no suitable bundle" threshold: a candidate bundle must reach
#: this score to absorb the new message, otherwise a fresh bundle is
#: created.  Calibrated against the default weights so that freshness
#: plus any number of shared keywords — at most ``keyword_weight *
#: KEYWORD_HIT_CAP + time_weight`` = 0.9 — can never merge a message,
#: while one shared hashtag or URL on a live bundle can.
MIN_MATCH_SCORE = 1.0
#: Eq. 1 counts at most this many shared keywords per candidate bundle.
#: Keywords are the weakest Table II connection; capping their aggregate
#: contribution below ``MIN_MATCH_SCORE`` keeps them assistive-only and
#: prevents the mega-bundle attractor (a huge bundle eventually contains
#: every common keyword, so an uncapped count would merge arbitrary
#: messages into it).
KEYWORD_HIT_CAP = 2


def url_overlap(later: Message, earlier: Message) -> float:
    """Eq. 2 — fraction of ``later``'s URLs shared with ``earlier``.

    ``U(t_i, t_j) = |url(t_i) ∩ url(t_j)| / |url(t_i)|`` with the incoming
    message in the numerator's perspective; 0.0 when it carries no URL.
    """
    if not later.urls:
        return 0.0
    return len(later.urls & earlier.urls) / len(later.urls)


def hashtag_overlap(later: Message, earlier: Message) -> float:
    """Eq. 3 — fraction of ``later``'s hashtags shared with ``earlier``."""
    if not later.hashtags:
        return 0.0
    return len(later.hashtags & earlier.hashtags) / len(later.hashtags)


def time_closeness(later: Message, earlier: Message, *,
                   scale: float = HOUR_SECONDS) -> float:
    """Eq. 4 — inverse time span, ``T = 1 / (|Δdate| + 1)``.

    The paper leaves the time unit implicit; we measure the span in hours
    (``scale``) so that messages a few hours apart still score visibly
    above zero while week-old ones vanish — matching the bundle time-span
    statistics of Fig. 6b.
    """
    span = abs(later.date - earlier.date) / scale
    return 1.0 / (span + 1.0)


def message_similarity(later: Message, earlier: Message,
                       config: IndexerConfig) -> float:
    """Eq. 5 — ``S = α·U + β·H + γ·T``, plus the RT bonus.

    An explicit re-share of ``earlier``'s author is the strongest
    provenance evidence (Table II lists RT first), so it contributes
    ``rt_weight`` on top of the lexical overlaps.
    """
    # Hot path (called per candidate per insertion): inline the overlap
    # fractions instead of delegating to url_overlap/hashtag_overlap.
    score = 0.0
    later_urls = later.urls
    if later_urls:
        score += (config.url_weight
                  * len(later_urls & earlier.urls) / len(later_urls))
    later_tags = later.hashtags
    if later_tags:
        score += (config.hashtag_weight
                  * len(later_tags & earlier.hashtags) / len(later_tags))
    span = abs(later.date - earlier.date) / HOUR_SECONDS
    score += config.time_weight / (span + 1.0)
    if earlier.user in later.rt_users:
        score += config.rt_weight
    return score


def similarity_components(
        later: Message, earlier: Message,
) -> tuple[float, float, float, bool]:
    """The raw, unweighted Eq. 2–4 inputs of :func:`message_similarity`.

    Returns ``(U, H, T, rt_hit)``.  The audit layer records these per
    allocation candidate so ``repro explain`` can show *which* indicant
    carried a placement; weighting them per the active config recovers
    the Eq. 5 score exactly.
    """
    return (
        url_overlap(later, earlier),
        hashtag_overlap(later, earlier),
        time_closeness(later, earlier),
        earlier.user in later.rt_users,
    )


def dominant_connection_type(later: Message, earlier: Message) -> ConnectionType:
    """The strongest Table II connection type holding between two messages.

    Order of precedence mirrors the table: RT > URL > hashtag > text.
    Falls back to TEXT when only weak evidence (time/keywords) linked them.
    """
    if earlier.user in later.rt_users:
        return ConnectionType.RT
    if later.urls & earlier.urls:
        return ConnectionType.URL
    if later.hashtags & earlier.hashtags:
        return ConnectionType.HASHTAG
    return ConnectionType.TEXT


def bundle_match_scores(
    message: Message,
    gather: CandidateGather,
    cap: int,
    live: "Mapping[int, Bundle]",
    config: IndexerConfig,
    collect: "list[object] | None",
) -> "Bundle | None":
    """Eq. 1 argmax — Algorithm 1's best candidate bundle, or ``None``.

    ``S(t, B) = α·|url(t)∩url(B)| + β·|tag(t)∩tag(B)| + γ·T(date) + …``
    where the trailing terms are the keyword overlap and the RT hit the
    paper's summary index also stores (Fig. 5).  The raw counts (not
    fractions) follow the equation as printed and are read off the
    gather's per-kind rows; the time term reuses Eq. 4's inverse-span
    shape so fresher bundles win ties, which is the stated intuition
    ("under similar overlapping conditions … a fresh bundle is more
    suitable").  The keyword count is capped at :data:`KEYWORD_HIT_CAP`
    so the weakest indicant stays assistive-only.

    Only the ``cap`` candidates with the most postings hits compete
    (ties to the smaller bundle id); the best score wins, ties again to
    the smaller bundle id, and a winner below :data:`MIN_MATCH_SCORE` is
    ``None``.  A candidate missing from ``live`` or closed is skipped.

    The search is exact max-score pruning.  A score is a static
    indicant part plus the time term ``γ·T`` with ``T <= 1``, so
    ``static + time_weight (+ rt_weight)`` bounds it from above — float
    addition and multiplication are monotone — and a candidate whose
    bound is *strictly* below ``max(best so far, MIN_MATCH_SCORE)`` can
    neither win nor tie: it is skipped before its bundle is even looked
    up.  Per kind, the bound settles keyword-only tallies wholesale:
    below ``MIN_MATCH_SCORE`` at ``keyword_weight * KEYWORD_HIT_CAP +
    time_weight``, they only compete for the cap.

    Candidates are visited in ascending bundle id, whichever way the
    cap was cut, so the looked-up set does not depend on how the gather
    was packaged.

    ``collect``, when given, receives one ``(bundle_id, urls, tags,
    keywords, rt_hit, score)`` row per candidate the loop looked up and
    scored — the same loop, so recording a decision changes neither
    the decision nor its cost beyond the capture.
    """
    fetched = len(gather)
    url_weight = config.url_weight
    hashtag_weight = config.hashtag_weight
    keyword_weight = config.keyword_weight
    keyword_hit_cap = KEYWORD_HIT_CAP
    time_weight = config.time_weight
    rt_weight = config.rt_weight
    floor = MIN_MATCH_SCORE
    if gather.keyword_only and (
            keyword_weight * keyword_hit_cap + time_weight >= floor):
        gather = gather.packaged()
    ids = gather.ids
    hits = gather.hits
    weak = gather.keyword_only
    # Positions ascend with bundle id.  The argmax does not depend on
    # the visiting order (ties go to the smaller bundle id), but which
    # candidates the bound skips does, so every branch keeps id order.
    order: "Sequence[int]" = range(len(ids))
    if weak and fetched > cap and ids:
        # Keep the packaged rows ranking in the top ``cap`` by (hits
        # descending, id ascending) over every candidate: the cut is
        # the cap-th key, ``(edge, last)``.
        ranked = sorted(chain(hits, weak.values()), reverse=True)
        edge = ranked[cap - 1]
        last = sorted(chain(
            compress(ids, map(edge.__eq__, hits)),
            compress(weak, map(edge.__eq__, weak.values())),
        ))[cap - 1 - ranked.index(edge)]
        order = [p for p in order if hits[p] > edge
                 or (hits[p] == edge and ids[p] <= last)]
    elif fetched > cap:
        # A stable descending sort on hit count breaks count ties on
        # the smaller bundle id; the kept positions go back to id order.
        order = sorted(sorted(order, key=hits.__getitem__,
                              reverse=True)[:cap])
    tag_hits, url_hits, kw_hits, user_hits = gather.kind_hits
    date = message.date
    best_bundle: "Bundle | None" = None
    best_score = float("-inf")
    for position in order:
        shared_keywords = kw_hits[position]
        if shared_keywords > keyword_hit_cap:
            shared_keywords = keyword_hit_cap
        static = (url_weight * url_hits[position]
                  + hashtag_weight * tag_hits[position]
                  + keyword_weight * shared_keywords)
        rt_hit = user_hits[position] > 0
        bound = static + time_weight
        if rt_hit:
            bound += rt_weight
        if bound < floor:
            continue
        bundle = live.get(ids[position])
        if bundle is None or bundle.closed:
            continue
        span_hours = abs(date - bundle.last_update) / HOUR_SECONDS
        freshness = 1.0 / (span_hours + 1.0)
        score = static + time_weight * freshness
        if rt_hit:
            score += rt_weight
        if collect is not None:
            # Flat scalars: the cyclic GC untracks a tuple of them, and
            # the record keeps no reference to the gather alive.
            collect.append((bundle.bundle_id, url_hits[position],
                            tag_hits[position], kw_hits[position],
                            rt_hit, score))
        if score > best_score or (
                score == best_score and best_bundle is not None
                and bundle.bundle_id < best_bundle.bundle_id):
            best_bundle = bundle
            best_score = score
            if score > floor:
                floor = score
    if best_bundle is None or best_score < MIN_MATCH_SCORE:
        return None
    return best_bundle


def refinement_score(bundle_last_date: float, bundle_size: int,
                     current_date: float, *,
                     scale: float = HOUR_SECONDS) -> float:
    """Eq. 6 — ``G(B) = (curr − date(B)) + 1/|B|``.

    Higher means *less* likely to receive future updates, hence evicted
    first.  Age is measured in hours (``scale``) so that the ``1/|B|``
    size term acts as the intra-hour tie-break the paper intends rather
    than being crushed by raw seconds.
    """
    if bundle_size <= 0:
        raise ValueError(f"bundle_size must be positive, got {bundle_size}")
    age = (current_date - bundle_last_date) / scale
    return age + 1.0 / bundle_size
