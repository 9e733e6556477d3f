"""The summary index (Fig. 5): indicants → candidate bundles.

The index keeps one inverted map per indicant kind (hashtag, URL, keyword,
author-for-RT); each term maps to the bundles whose members carry it,
together with an occurrence count — exactly the ``{id, count}`` items the
paper draws in Fig. 5.  It supports the three phases of Algorithm 1:
candidate fetching, and incremental updates on insertion and eviction.

How the postings are laid out in memory is delegated to
:class:`~repro.core.postings.SlabPostingsStorage`, the slab-allocated
arena layout.  The index's public surface is layout-free:
:meth:`postings` and :meth:`iter_terms` return read-only views, and the
candidate-fetch step returns a
:class:`~repro.core.postings.CandidateGather` carrying the per-kind hit
counts Eq. 1 needs, so the engine never reaches into postings
containers.
"""

from __future__ import annotations

from typing import Collection, Iterator, Mapping

from repro.core.bundle import Bundle
from repro.core.message import Message
from repro.core.postings import (INDICANT_KINDS, CandidateGather,
                                 SlabPostingsStorage)

__all__ = ["SummaryIndex", "INDICANT_KINDS"]


class SummaryIndex:
    """Inverted index from bundle indicants to bundle ids with counts.

    ``storage`` is the test seam: the conformance suites pass the
    nested-dict oracle (``tests/postings_oracle.py``) to check the slab
    against it.
    """

    __slots__ = ("_storage",)

    def __init__(self, *,
                 storage: "SlabPostingsStorage | None" = None) -> None:
        self._storage = (
            storage if storage is not None else SlabPostingsStorage())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def term_count(self, kind: "str | None" = None) -> int:
        """Distinct indexed terms, total or for one indicant kind."""
        return self._storage.term_count(kind)

    def entry_count(self, kind: "str | None" = None) -> int:
        """Total (term, bundle) entries, overall or for one kind."""
        return self._storage.entry_count(kind)

    def postings(self, kind: str, term: str) -> "Mapping[int, int]":
        """Read-only ``{bundle_id: count}`` view of one term.

        Empty mapping when the term is unseen.  The view is immutable
        (mutating it raises ``TypeError``) and a snapshot of the term's
        extent — treat it as ephemeral and re-read after index updates.
        """
        return self._storage.postings(kind, term)

    def iter_terms(self, kind: str) -> "Iterator[str]":
        """Iterate the dictionary of one indicant kind."""
        return self._storage.terms(kind)

    def postings_length(self, kind: str, term: str) -> int:
        """Length of one term's postings list (0 if unseen).

        This is the candidate fan-in the term contributes to
        Algorithm 1 — the workload-anatomy sketches weight hot terms
        by it.
        """
        return self._storage.postings_length(kind, term)

    def postings_lengths(self, kind: str) -> "list[int]":
        """Every postings-list length of one kind (insertion order).

        The full population, so fingerprint quantiles are exact — the
        slab slice schedule is sized from these.
        """
        return self._storage.postings_lengths(kind)

    def approximate_memory_bytes(self) -> int:
        """Deterministic footprint estimate (feeds Fig. 11a).

        The cheap fallback; the measured truth is the anatomy
        accountant's deep-size walk over :meth:`memory_root`, with
        drift exported as ``repro_memory_drift_ratio{component="index"}``.
        """
        return self._storage.approximate_memory_bytes()

    def memory_root(self) -> object:
        """The storage object the memory accountant's deep walk sizes."""
        return self._storage.memory_root()

    # ------------------------------------------------------------------
    # Algorithm 1, step 1 — candidate fetching
    # ------------------------------------------------------------------

    def gather_candidates(self, message: Message,
                          keywords: "Collection[str]") -> CandidateGather:
        """Candidate bundles with per-kind postings-hit counts.

        The batch-first fetch: one call returns everything Eq. 1 needs
        (``kind_hits`` rows are exactly the shared-indicant counts), so
        the engine scores candidates without intersecting per-bundle
        summaries.  The candidates that only keyword postings reach
        come back as ``keyword_only`` hit tallies instead of rows.
        """
        return self._storage.gather((("hashtag", message.hashtags),
                                     ("url", message.urls),
                                     ("keyword", keywords),
                                     ("user", message.rt_users)))

    # ------------------------------------------------------------------
    # Algorithm 1, step 3 — index updating
    # ------------------------------------------------------------------

    def add_message(self, bundle_id: int, message: Message,
                    keywords: "Collection[str]") -> None:
        """Register one inserted message's indicants under its bundle."""
        storage = self._storage
        storage.bump("hashtag", message.hashtags, bundle_id)
        storage.bump("url", message.urls, bundle_id)
        storage.bump("keyword", keywords, bundle_id)
        storage.bump("user", (message.user,), bundle_id)

    def remove_bundle(self, bundle: Bundle) -> None:
        """Erase every index entry pointing at ``bundle`` (on eviction)."""
        bundle_id = bundle.bundle_id
        storage = self._storage
        storage.drop("hashtag", bundle.hashtag_counts, bundle_id)
        storage.drop("url", bundle.url_counts, bundle_id)
        storage.drop("keyword", bundle.keyword_counts, bundle_id)
        storage.drop("user", bundle.user_counts, bundle_id)
