"""Keyword search over micro-blog messages (the Fig. 1 baseline).

:class:`SearchEngine` indexes :class:`~repro.core.message.Message` objects
and answers ranked keyword queries the way the paper's "common micro-blog
message search" does: a flat, recency-ordered or relevance-ordered list of
individual messages.  The provenance-based bundle search of
:mod:`repro.query.bundle_search` is evaluated against this baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.message import Message
from repro.text.analyzer import Analyzer
from repro.text.inverted_index import InvertedIndex
from repro.text.scoring import BM25Scorer

__all__ = ["SearchHit", "SearchEngine"]


@dataclass(frozen=True, slots=True)
class SearchHit:
    """One ranked result: the message and its lexical score."""

    message: Message
    score: float


class SearchEngine:
    """Ranked keyword search over messages, scored by BM25.

    ``analyzer`` is the shared analysis chain (also used for queries).
    """

    def __init__(self, analyzer: Analyzer | None = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self.index = InvertedIndex(self.analyzer)
        self._messages: dict[int, Message] = {}
        self._scorer = BM25Scorer(self.index)

    def __len__(self) -> int:
        return len(self._messages)

    def add(self, message: Message) -> None:
        """Index one message (id must be new)."""
        self.index.add_document(message.msg_id, message.text)
        self._messages[message.msg_id] = message

    def add_all(self, messages: Iterable[Message]) -> int:
        """Index many messages; return how many were added."""
        count = 0
        for message in messages:
            self.add(message)
            count += 1
        return count

    def get(self, msg_id: int) -> Message | None:
        """Fetch an indexed message by id."""
        return self._messages.get(msg_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(self, query: str, k: int = 10) -> list[SearchHit]:
        """Top-``k`` messages by lexical relevance, recency as tie-break.

        This mirrors Fig. 1: each hit is an isolated message with no
        provenance context.
        """
        terms = self.analyzer.analyze(query)
        if not terms:
            return []
        scores = self._scorer.score_all(terms)
        ranked = sorted(
            scores.items(),
            key=lambda kv: (-kv[1], -self._date_of_internal(kv[0])),
        )[:k]
        return [
            SearchHit(self._messages[self.index.external_id(doc)], score)
            for doc, score in ranked
        ]

    def _date_of_internal(self, internal_id: int) -> float:
        message = self._messages[self.index.external_id(internal_id)]
        return message.date

