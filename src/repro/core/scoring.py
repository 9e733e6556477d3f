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

All functions are pure; weights come from
:class:`~repro.core.config.IndexerConfig`.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import HOUR_SECONDS, IndexerConfig
from repro.core.connection import ConnectionType
from repro.core.lazy_numpy import numpy
from repro.core.message import Message

__all__ = [
    "url_overlap",
    "hashtag_overlap",
    "time_closeness",
    "message_similarity",
    "similarity_components",
    "dominant_connection_type",
    "bundle_match_score",
    "bundle_match_scores",
    "refinement_score",
]


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
    """Eq. 1 — relevance of an incoming message to a candidate bundle.

    ``S(t, B) = α·|url(t)∩url(B)| + β·|tag(t)∩tag(B)| + γ·T(date) + …``
    where the trailing terms are the keyword overlap and the RT hit the
    paper's summary index also stores (Fig. 5).  The raw counts (not
    fractions) follow the equation as printed; the time term reuses Eq. 4's
    inverse-span shape so fresher bundles win ties, which is the stated
    intuition ("under similar overlapping conditions … a fresh bundle is
    more suitable").  The keyword count is capped at ``keyword_hit_cap``
    so the weakest indicant stays assistive-only (see
    :class:`~repro.core.config.IndexerConfig`).
    """
    span_hours = abs(message.date - bundle_last_date) / HOUR_SECONDS
    freshness = 1.0 / (span_hours + 1.0)
    score = (config.url_weight * shared_urls
             + config.hashtag_weight * shared_hashtags
             + config.keyword_weight * min(shared_keywords,
                                           config.keyword_hit_cap)
             + config.time_weight * freshness)
    if rt_hit:
        score += config.rt_weight
    return score


def bundle_match_scores(
    message_date: float,
    *,
    shared_urls: Any,
    shared_hashtags: Any,
    shared_keywords: Any,
    rt_hits: Any,
    bundle_last_dates: Any,
    config: IndexerConfig,
) -> Any:
    """Vectorised Eq. 1 over aligned per-candidate arrays (numpy).

    Element ``i`` equals ``bundle_match_score(...)`` for candidate ``i``
    *bit-for-bit*: the float64 expression tree mirrors the scalar
    function term by term (same left-associated additions, same
    ``min``-then-multiply shape, RT bonus added only where it applies
    via ``where`` so untouched lanes keep their exact bits).  That
    identity is what lets the audit log and the candidate tie-breaks
    stay byte-deterministic across the scalar and batched paths —
    asserted by the dict-vs-slab conformance matrix.

    Requires numpy, imported by the first call (the engine makes it
    only for array gathers, which exist only where numpy does).
    """
    np = numpy()
    if np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError("bundle_match_scores requires numpy")
    span_hours = np.abs(message_date - bundle_last_dates) / HOUR_SECONDS
    freshness = 1.0 / (span_hours + 1.0)
    scores = (config.url_weight * shared_urls
              + config.hashtag_weight * shared_hashtags
              + config.keyword_weight * np.minimum(shared_keywords,
                                                   config.keyword_hit_cap)
              + config.time_weight * freshness)
    return np.where(rt_hits, scores + config.rt_weight, scores)


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
