"""Postings lists for the inverted index.

A :class:`PostingsList` maps document ids to term frequencies, kept in
insertion order (document ids are assigned monotonically by the index, so
insertion order is id order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Posting", "PostingsList"]


@dataclass(slots=True)
class Posting:
    """Occurrences of one term in one document."""

    doc_id: int
    term_freq: int = 0

    def add_occurrence(self) -> None:
        """Record one more occurrence."""
        self.term_freq += 1


class PostingsList:
    """All postings of a single term, ordered by ascending document id."""

    __slots__ = ("_postings", "_by_doc")

    def __init__(self) -> None:
        self._postings: list[Posting] = []
        self._by_doc: dict[int, Posting] = {}

    def __len__(self) -> int:
        return len(self._postings)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self._postings)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._by_doc

    @property
    def doc_freq(self) -> int:
        """Number of distinct documents containing the term."""
        return len(self._postings)

    def add(self, doc_id: int) -> Posting:
        """Record an occurrence of the term in ``doc_id``.

        Documents must be added in non-decreasing id order (the index
        assigns ids monotonically); re-adding the current last document
        only bumps its frequency.
        """
        posting = self._by_doc.get(doc_id)
        if posting is None:
            if self._postings and doc_id < self._postings[-1].doc_id:
                raise ValueError(
                    f"doc ids must be non-decreasing: got {doc_id} after "
                    f"{self._postings[-1].doc_id}")
            posting = Posting(doc_id)
            self._postings.append(posting)
            self._by_doc[doc_id] = posting
        posting.add_occurrence()
        return posting

    def get(self, doc_id: int) -> Posting | None:
        """The posting for ``doc_id`` or ``None``."""
        return self._by_doc.get(doc_id)
