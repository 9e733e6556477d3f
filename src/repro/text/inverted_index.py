"""Document-level inverted index.

This is the core retrieval structure of the Lucene-substitute: it maps terms
to :class:`~repro.text.postings.PostingsList` objects and keeps per-document
lengths for length-normalised ranking.  Documents are arbitrary external ids
mapped to dense internal ids so postings stay merge-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.text.analyzer import Analyzer
from repro.text.postings import PostingsList

__all__ = ["DocumentStats", "InvertedIndex"]


@dataclass(slots=True)
class DocumentStats:
    """Per-document bookkeeping needed by the scorers."""

    external_id: int
    length: int  # number of index terms


class InvertedIndex:
    """An in-memory, append-only inverted index with TF/DF statistics.

    Parameters
    ----------
    analyzer:
        The text-to-terms pipeline; defaults to the standard
        :class:`~repro.text.analyzer.Analyzer`.
    """

    def __init__(self, analyzer: Analyzer | None = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self._postings: dict[str, PostingsList] = {}
        self._docs: dict[int, DocumentStats] = {}   # internal id -> stats
        self._internal_by_external: dict[int, int] = {}
        self._next_internal_id = 0
        self._total_length = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, external_id: int) -> bool:
        return external_id in self._internal_by_external

    @property
    def doc_count(self) -> int:
        """Number of indexed documents."""
        return len(self._docs)

    @property
    def term_count(self) -> int:
        """Number of distinct terms in the dictionary."""
        return len(self._postings)

    @property
    def average_doc_length(self) -> float:
        """Mean document length in terms (0.0 on an empty index)."""
        if not self._docs:
            return 0.0
        return self._total_length / len(self._docs)

    def doc_frequency(self, term: str) -> int:
        """Number of documents containing ``term`` (0 if unseen)."""
        plist = self._postings.get(term)
        return plist.doc_freq if plist else 0

    def postings(self, term: str) -> PostingsList | None:
        """The postings list of ``term`` or ``None``."""
        return self._postings.get(term)

    def terms(self) -> Iterator[str]:
        """Iterate over the dictionary."""
        return iter(self._postings)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_document(self, external_id: int, text: str) -> int:
        """Index ``text`` under ``external_id``; return the term count.

        Re-adding an existing external id raises ``ValueError`` — micro-blog
        messages are immutable, so updates are a caller bug.
        """
        if external_id in self._internal_by_external:
            raise ValueError(f"document {external_id} already indexed")
        internal = self._next_internal_id
        self._next_internal_id += 1
        terms = self.analyzer.analyze(text)
        for term in terms:
            plist = self._postings.get(term)
            if plist is None:
                plist = self._postings[term] = PostingsList()
            plist.add(internal)
        self._docs[internal] = DocumentStats(external_id, len(terms))
        self._internal_by_external[external_id] = internal
        self._total_length += len(terms)
        return len(terms)

    # ------------------------------------------------------------------
    # Lookup helpers used by the search layer
    # ------------------------------------------------------------------

    def external_id(self, internal_id: int) -> int:
        """Map a postings doc id back to the caller's document id."""
        return self._docs[internal_id].external_id

    def internal_id(self, external_id: int) -> int | None:
        """Map an external id to the postings doc id (or ``None``)."""
        return self._internal_by_external.get(external_id)

    def internal_doc_length(self, internal_id: int) -> int:
        """Term count of a document by internal id."""
        return self._docs[internal_id].length
