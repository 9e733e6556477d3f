"""Lexical ranking: Okapi BM25.

:class:`BM25Scorer` operates on an
:class:`~repro.text.inverted_index.InvertedIndex` and ranks documents for
a bag of query terms; :class:`~repro.text.search.SearchEngine` ranks with
it.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.text.inverted_index import InvertedIndex

__all__ = ["BM25Scorer", "K1", "B"]

#: BM25's term-frequency saturation and length normalization.
K1 = 1.2
B = 0.75


class BM25Scorer:
    """Okapi BM25 with the standard :data:`K1` / :data:`B` parameters.

    ``score(d, q) = Σ_t idf_t · tf·(k1+1) / (tf + k1·(1-b+b·|d|/avgdl))``
    with the non-negative idf variant
    ``idf_t = log(1 + (N - df + 0.5)/(df + 0.5))``.
    """

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index

    def idf(self, term: str) -> float:
        """BM25's smoothed, non-negative idf."""
        df = self.index.doc_frequency(term)
        if df == 0:
            return 0.0
        n = self.index.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score_all(self, query_terms: list[str]) -> dict[int, float]:
        """Score every matching document; keys are *internal* doc ids."""
        scores: dict[int, float] = defaultdict(float)
        avgdl = self.index.average_doc_length or 1.0
        for term, query_tf in Counter(query_terms).items():
            plist = self.index.postings(term)
            if plist is None:
                continue
            idf = self.idf(term)
            for posting in plist:
                tf = posting.term_freq
                length = self.index.internal_doc_length(posting.doc_id)
                denom = tf + K1 * (1.0 - B + B * length / avgdl)
                scores[posting.doc_id] += (
                    query_tf * idf * tf * (K1 + 1.0) / denom)
        return dict(scores)
