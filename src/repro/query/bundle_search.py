"""Bundle-based retrieval (Section V-C, Eq. 7).

A query returns ranked *bundles* instead of isolated messages.  The
relevance of bundle ``B`` for query ``q`` is

    ``r(q, B) = α · s(q, B) + β · i(q, B) + (1 − α − β) · t(B)``

where ``s`` is lexical similarity between the query terms and the bundle's
aggregated text, ``i`` is indicant closeness (query hashtags/URLs hitting
the bundle's summary), and ``t`` is bundle freshness.  Candidates come from
the same summary index the ingest path maintains, so retrieval needs no
second index structure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Generic, NamedTuple, TypeVar

from repro.core.bundle import Bundle
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import QueryError
from repro.core.message import extract_hashtags, extract_urls, strip_entities

__all__ = ["BundleHit", "BundleQuery", "BundleSearchEngine", "HitRow",
           "SearchOutcome", "hit_row"]

_HOUR = 3600.0


@dataclass(frozen=True, slots=True)
class BundleQuery:
    """A parsed query: free-text terms plus explicit indicants."""

    terms: tuple[str, ...]
    hashtags: frozenset[str]
    urls: frozenset[str]

    @property
    def is_empty(self) -> bool:
        """True when nothing at all was extracted from the raw query."""
        return not (self.terms or self.hashtags or self.urls)


@dataclass(frozen=True, slots=True)
class BundleHit:
    """One ranked retrieval result (a Fig. 2a row).

    ``summary_words`` and ``last_post`` mirror the demo site's columns:
    the bundle id, its summary terms, its size and its latest post time.
    """

    bundle: Bundle
    score: float
    text_score: float
    indicant_score: float
    freshness: float

    @property
    def bundle_id(self) -> int:
        """Id of the matched bundle."""
        return self.bundle.bundle_id

    @property
    def size(self) -> int:
        """Messages inside the matched bundle."""
        return len(self.bundle)

    @property
    def summary_words(self) -> list[str]:
        """Top indicant words of the bundle."""
        return self.bundle.summary_words(10)

    @property
    def last_post(self) -> float:
        """Date of the bundle's newest message."""
        return self.bundle.end_time


class HitRow(NamedTuple):
    """One ranked result as plain values: a fleet worker's search reply.

    The read surface of :class:`BundleHit` without the live bundle — the
    Fig. 2a columns and Eq. 7's parts — so a shard ships about 130
    pickled bytes per hit instead of the bundle and all its members.
    ``summary_words`` is the same ten words, as a tuple.
    """

    bundle_id: int
    size: int
    last_post: float
    summary_words: tuple[str, ...]
    score: float
    text_score: float
    indicant_score: float
    freshness: float


def hit_row(hit: BundleHit) -> HitRow:
    """The row of ``hit``, with its summary words computed now."""
    return HitRow(hit.bundle_id, hit.size, hit.last_post,
                  tuple(hit.summary_words), hit.score, hit.text_score,
                  hit.indicant_score, hit.freshness)


#: An in-process :class:`BundleHit` (lazy, with its live bundle) or a
#: fleet's :class:`HitRow`.
HitT = TypeVar("HitT", BundleHit, HitRow)


@dataclass(frozen=True, slots=True)
class SearchOutcome(Generic[HitT]):
    """A deadline-aware search result: hits plus an explicit partial flag.

    Under overload a query is given a time budget; when it expires the
    engine ranks whatever it scored so far and says so, instead of
    blocking the caller or silently pretending the ranking was complete.
    """

    hits: "list[HitT]"
    partial: bool
    candidates_total: int
    candidates_scored: int
    elapsed_seconds: float
    #: The owning shard of each hit, aligned with :attr:`hits`, when a
    #: fleet answered (empty for a single engine).
    shards: "tuple[int, ...]" = ()

    @property
    def coverage(self) -> float:
        """Fraction of the candidate set that was actually scored."""
        if self.candidates_total == 0:
            return 1.0
        return self.candidates_scored / self.candidates_total


#: Eq. 7's default weights for text similarity (α) and indicant
#: closeness (β).
ALPHA = 0.6
BETA = 0.3


class BundleSearchEngine:
    """Eq. 7 retrieval over an engine's live bundle pool.

    Parameters
    ----------
    indexer:
        The provenance indexer whose pool and summary index to query.
    alpha / beta:
        Eq. 7 weights for text similarity and indicant closeness; the
        freshness weight is the remainder ``1 - α - β``.
    """

    def __init__(self, indexer: ProvenanceIndexer, *,
                 alpha: float = ALPHA, beta: float = BETA) -> None:
        if alpha < 0 or beta < 0 or alpha + beta > 1.0:
            raise QueryError(
                f"need α, β >= 0 and α + β <= 1; got α={alpha}, β={beta}")
        self.indexer = indexer
        self.alpha = alpha
        self.beta = beta
        registry = indexer.obs.registry
        self._partials = registry.counter(
            "repro_search_partials_total",
            help="Queries whose deadline expired before full scoring")
        self._latency = registry.histogram(
            "repro_search_seconds", unit="seconds",
            help="End-to-end query latency")

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    def parse(self, raw_query: str) -> BundleQuery:
        """Split a raw query into analyzed terms and explicit indicants."""
        if not raw_query or not raw_query.strip():
            raise QueryError("empty query")
        hashtags = extract_hashtags(raw_query)
        urls = extract_urls(raw_query)
        terms = tuple(
            self.indexer.analyzer.analyze(strip_entities(raw_query)))
        return BundleQuery(terms=terms, hashtags=hashtags, urls=urls)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def search(self, raw_query: str, k: int = 10) -> list[BundleHit]:
        """Top-``k`` bundles for ``raw_query`` by Eq. 7."""
        return self.search_within(raw_query, k, budget_seconds=None).hits

    def search_within(self, raw_query: str, k: int = 10, *,
                      budget_seconds: "float | None",
                      clock: Callable[[], float] = time.perf_counter,
                      ) -> "SearchOutcome[BundleHit]":
        """Deadline-bounded Eq. 7 search.

        Candidates are scored in descending posting-hit order (most
        promising first), so an expired budget still yields the best
        available ranking; the outcome flags itself ``partial`` and
        reports how much of the candidate set was covered.
        ``budget_seconds=None`` scores everything, exactly like
        :meth:`search`.
        """
        if budget_seconds is not None and budget_seconds <= 0:
            raise QueryError(
                f"budget_seconds must be positive, got {budget_seconds}")
        started = clock()
        query = self.parse(raw_query)
        if query.is_empty:
            elapsed = clock() - started
            self._latency.observe(elapsed)
            return SearchOutcome([], False, 0, 0, elapsed)
        candidates = self._candidate_bundles(query)
        deadline = (None if budget_seconds is None
                    else started + budget_seconds)
        hits: list[BundleHit] = []
        scored = 0
        partial = False
        for bundle in candidates:
            if deadline is not None and clock() >= deadline:
                partial = True
                break
            hits.append(self._score(query, bundle))
            scored += 1
        hits.sort(key=lambda hit: (-hit.score, hit.bundle_id))
        elapsed = clock() - started
        self._latency.observe(elapsed)
        if partial:
            self._partials.inc()
        return SearchOutcome(hits[:k], partial, len(candidates), scored,
                             elapsed)

    def _candidate_bundles(self, query: BundleQuery) -> list[Bundle]:
        """Candidate bundles, strongest posting hits first.

        The ordering makes deadline-bounded search graceful: the budget
        is spent on the bundles most likely to rank, so a partial
        outcome approximates the full one from the top.
        """
        index = self.indexer.summary_index
        weights: dict[int, int] = {}
        for term in query.terms:
            for bundle_id in index.postings("keyword", term):
                weights[bundle_id] = weights.get(bundle_id, 0) + 1
            for bundle_id in index.postings("hashtag", term):
                weights[bundle_id] = weights.get(bundle_id, 0) + 1
        for tag in query.hashtags:
            for bundle_id in index.postings("hashtag", tag):
                weights[bundle_id] = weights.get(bundle_id, 0) + 1
        for url in query.urls:
            for bundle_id in index.postings("url", url):
                weights[bundle_id] = weights.get(bundle_id, 0) + 1
        ranked = sorted(weights.items(),
                        key=lambda pair: (-pair[1], pair[0]))
        bundles = []
        for bundle_id, _ in ranked:
            bundle = self.indexer.pool.try_get(bundle_id)
            if bundle is not None:
                bundles.append(bundle)
        return bundles

    def _score(self, query: BundleQuery, bundle: Bundle) -> BundleHit:
        text = self._text_similarity(query, bundle)
        indicant = self._indicant_closeness(query, bundle)
        freshness = self._freshness(bundle)
        score = (self.alpha * text + self.beta * indicant
                 + (1.0 - self.alpha - self.beta) * freshness)
        return BundleHit(bundle, score, text, indicant, freshness)

    # -- Eq. 7 components ------------------------------------------------

    def _text_similarity(self, query: BundleQuery, bundle: Bundle) -> float:
        """``s(q, B)``: idf-weighted term hits, normalised to [0, 1].

        Term frequency within the bundle's keyword/hashtag counters plays
        the tf role; the number of pool bundles containing the term plays
        the df role.  The per-term contribution is squashed with
        ``tf / (tf + 1)`` so one giant bundle cannot dominate on raw bulk.
        """
        if not query.terms:
            return 0.0
        index = self.indexer.summary_index
        pool_size = max(len(self.indexer.pool), 1)
        total = 0.0
        for term in query.terms:
            tf = (bundle.keyword_counts.get(term, 0)
                  + bundle.hashtag_counts.get(term, 0))
            if tf == 0:
                continue
            df = max(len(index.postings("keyword", term))
                     + len(index.postings("hashtag", term)), 1)
            idf = math.log(1.0 + pool_size / df)
            total += (tf / (tf + 1.0)) * idf
        # Normalise by the maximum achievable (all terms present, tf→∞).
        max_idf = math.log(1.0 + pool_size)
        return total / (len(query.terms) * max_idf)

    def _indicant_closeness(self, query: BundleQuery,
                            bundle: Bundle) -> float:
        """``i(q, B)``: fraction of explicit query indicants the bundle
        carries (hashtags and URLs count equally)."""
        wanted = len(query.hashtags) + len(query.urls)
        if wanted == 0:
            return 0.0
        found = sum(1 for tag in query.hashtags
                    if tag in bundle.hashtag_counts)
        found += sum(1 for url in query.urls if url in bundle.url_counts)
        return found / wanted

    def _freshness(self, bundle: Bundle) -> float:
        """``t(B)``: inverse age of the bundle's last post, in hours."""
        age = max(self.indexer.current_date - bundle.last_update, 0.0)
        return 1.0 / (age / _HOUR + 1.0)
