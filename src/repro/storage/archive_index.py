"""Searchable archive over the on-disk bundle store.

The paper's framework (Fig. 4) flushes finished bundles to disk and never
looks at them again; a production platform must also answer queries about
*last week's* stories.  :class:`ArchiveIndex` maintains a compact on-disk
inverted index over archived bundles' summary indicants, updated on every
append, so retrieval can span the live pool *and* the archive without
rescanning segments.

Layout: one journal (``archive-index.log``) of per-bundle summary
records next to the store's segments, each a CRC-framed line
``<crc32:8 hex> <json>`` — a :class:`~repro.reliability.fsio.FramedLog`,
so a torn tail is skipped and terminated like every framed log's, and
each record is handed to the OS before :meth:`ArchiveIndex.add` returns.
On open the intact records (pre-CRC plain JSON lines too) are replayed
into memory (latest record per bundle wins, mirroring the store's
semantics); lookups then resolve bundle ids through the store.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.core.bundle import Bundle
from repro.reliability.fsio import FramedLog, read_framed
from repro.storage.bundle_store import BundleStore

__all__ = ["ArchiveIndex", "ArchiveHit", "ArchivedBundleStore"]

_JOURNAL_NAME = "archive-index.log"


@dataclass(frozen=True, slots=True)
class ArchiveHit:
    """One archived-bundle match."""

    bundle_id: int
    score: float
    size: int
    last_update: float
    summary_words: tuple[str, ...]


@dataclass(slots=True)
class _SummaryRecord:
    """In-memory digest of one archived bundle."""

    bundle_id: int
    size: int
    last_update: float
    terms: dict[str, int]  # namespaced: "t:"/"u:"/"k:" like Bundle's map
    summary_words: tuple[str, ...]


def _digest(bundle: Bundle) -> _SummaryRecord:
    terms: dict[str, int] = {}
    for tag, count in bundle.hashtag_counts.items():
        terms["t:" + tag] = count
    for url, count in bundle.url_counts.items():
        terms["u:" + url] = count
    for keyword, count in bundle.keyword_counts.items():
        terms["k:" + keyword] = count
    return _SummaryRecord(
        bundle_id=bundle.bundle_id,
        size=len(bundle),
        last_update=bundle.last_update,
        terms=terms,
        summary_words=tuple(bundle.summary_words(10)),
    )


def _parse_record(payload: str) -> _SummaryRecord:
    raw = json.loads(payload)
    return _SummaryRecord(
        bundle_id=int(raw["id"]),
        size=int(raw["size"]),
        last_update=float(raw["last"]),
        terms={str(k): int(v) for k, v in raw["terms"].items()},
        summary_words=tuple(raw.get("words", ())),
    )


class ArchiveIndex(FramedLog):
    """On-disk inverted index over archived bundle summaries."""

    flush_each = True

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)
        super().__init__(self.directory / _JOURNAL_NAME)
        self._records: dict[int, _SummaryRecord] = {}
        self._postings: dict[str, set[int]] = {}
        for record in read_framed(self.path, _parse_record, unframed=True):
            self._install(record)

    def _install(self, record: _SummaryRecord) -> None:
        previous = self._records.get(record.bundle_id)
        if previous is not None:
            for term in previous.terms:
                bucket = self._postings.get(term)
                if bucket is not None:
                    bucket.discard(record.bundle_id)
                    if not bucket:
                        del self._postings[term]
        self._records[record.bundle_id] = record
        for term in record.terms:
            self._postings.setdefault(term, set()).add(record.bundle_id)

    def add(self, bundle: Bundle) -> None:
        """Index one archived bundle (append to journal + memory)."""
        record = _digest(bundle)
        self.append_payload(json.dumps({
            "id": record.bundle_id,
            "size": record.size,
            "last": record.last_update,
            "terms": record.terms,
            "words": list(record.summary_words),
        }, separators=(",", ":"), sort_keys=True))
        self._install(record)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, bundle_id: int) -> bool:
        return bundle_id in self._records

    def term_count(self) -> int:
        """Distinct indexed (namespaced) terms."""
        return len(self._postings)

    def search(self, *, terms: "frozenset[str] | set[str]" = frozenset(),
               hashtags: "frozenset[str] | set[str]" = frozenset(),
               urls: "frozenset[str] | set[str]" = frozenset(),
               k: int = 10) -> list[ArchiveHit]:
        """Ranked archived bundles for keyword / hashtag / URL criteria.

        Score = matched-term count weighted by per-bundle term frequency
        (hashtags and URLs count double — they are precise indicants),
        with recency as tie-break.
        """
        wanted = ([("k:" + term, 1.0) for term in terms]
                  + [("t:" + tag, 2.0) for tag in hashtags]
                  + [("u:" + url, 2.0) for url in urls])
        if not wanted:
            return []
        scores: Counter[int] = Counter()
        for namespaced, weight in wanted:
            for bundle_id in self._postings.get(namespaced, ()):
                record = self._records[bundle_id]
                tf = record.terms.get(namespaced, 0)
                scores[bundle_id] += weight * min(tf, 5)
        ranked = sorted(
            scores.items(),
            key=lambda kv: (-kv[1], -self._records[kv[0]].last_update,
                            kv[0]))
        return [
            ArchiveHit(
                bundle_id=bundle_id,
                score=score,
                size=self._records[bundle_id].size,
                last_update=self._records[bundle_id].last_update,
                summary_words=self._records[bundle_id].summary_words,
            )
            for bundle_id, score in ranked[:k]
        ]


class ArchivedBundleStore:
    """A :class:`BundleStore` with a co-maintained :class:`ArchiveIndex`.

    Drop-in replacement sink for the engine: ``append`` persists the
    bundle *and* indexes its summary, so evicted stories stay findable.
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.store = BundleStore(directory)
        self.index = ArchiveIndex(directory)

    def __len__(self) -> int:
        return len(self.store)

    def append(self, bundle: Bundle) -> None:
        """Persist and index one bundle (BundleSink protocol)."""
        self.store.append(bundle)
        self.index.add(bundle)

    def load(self, bundle_id: int) -> Bundle:
        """Read one archived bundle back."""
        return self.store.load(bundle_id)

    def close(self) -> None:
        """Release the store's segment and the index journal."""
        self.store.close()
        self.index.close()

    def search(self, raw_query: str, *, k: int = 10) -> list[ArchiveHit]:
        """Free-text archive search (terms + #hashtags + URLs)."""
        from repro.core.message import extract_hashtags, extract_urls, \
            strip_entities
        from repro.text.analyzer import Analyzer

        analyzer = Analyzer()
        return self.index.search(
            terms=analyzer.term_set(strip_entities(raw_query)),
            hashtags=extract_hashtags(raw_query),
            urls=extract_urls(raw_query),
            k=k,
        )
