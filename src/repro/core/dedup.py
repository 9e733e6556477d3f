"""Near-duplicate message detection (exact shingle Jaccard).

Micro-blog streams are full of near-copies: bare retweets, copy-pasted
breaking news, spam templates.  The paper's quality discussion ("noise
exists in micro-blog services") motivates separating genuine development
from verbatim repetition.  This module provides:

* :func:`shingles` / :func:`jaccard` — exact word-shingle similarity,
* :class:`DuplicateDetector` — an exact streaming Jaccard self-join
  (prefix filter under a global token order, size filter, exact
  verification; De Francisci Morales & Gionis, *Streaming Similarity
  Self-Join*).

Used by the ingest guard to fold undeclared copies, and usable upstream
to collapse duplicates before indexing.
"""

from __future__ import annotations

import functools
import math
import zlib

from repro.core.message import Message, strip_entities

__all__ = ["shingles", "jaccard", "DuplicateDetector"]


@functools.lru_cache(maxsize=1 << 14)
def _cached_shingles(normalized: str, width: int) -> frozenset[str]:
    """Shingle a normalized text (see :func:`shingles` for the contract).

    Cached on the *stripped, lowered* text: a verbatim retweet
    normalizes to the same content words as its origin, so streaming
    dedup re-shingles each piece of copied content only once.
    """
    words = normalized.split()
    if not words:
        return frozenset()
    if len(words) < width:
        return frozenset({" ".join(words)})
    return frozenset(
        " ".join(words[i:i + width])
        for i in range(len(words) - width + 1)
    )


@functools.lru_cache(maxsize=1 << 14)
def _shingles_of_raw(text: str, width: int) -> frozenset[str]:
    """Front cache keyed on the *raw* text.

    Exact copies (spam floods, verbatim reposts) skip entity stripping
    entirely; prefixed copies ("RT @user: …") miss here but still land
    on the same :func:`_cached_shingles` entry after normalizing.
    """
    return _cached_shingles(strip_entities(text).lower(), width)


def shingles(text: str, width: int = 3) -> frozenset[str]:
    """Word ``width``-shingles of ``text`` (entities stripped, lowered).

    Texts shorter than ``width`` words yield a single shingle with all of
    their words, so very short messages still compare.
    """
    if width <= 0:
        raise ValueError(f"shingle width must be positive, got {width}")
    return _shingles_of_raw(text, width)


def jaccard(first: frozenset[str], second: frozenset[str]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not first and not second:
        return 1.0
    if not first or not second:
        return 0.0
    return len(first & second) / len(first | second)


def _token_rank(token: str) -> "tuple[int, str]":
    """A shingle's place in the global token order.

    CRC-32 is process-independent (unlike ``hash``), so the prefixes a
    restarted detector builds are the ones it built before; ties break
    on the shingle itself, so the order is total.
    """
    return zlib.crc32(token.encode("utf-8")), token


@functools.lru_cache(maxsize=1 << 12)
def _size_bounds(size: int, threshold: float) -> "tuple[int, int]":
    """``(least, most)`` for a nonempty shingle set of ``size`` items.

    ``least`` is the smallest overlap ``o`` with ``o / size >= threshold``
    and ``most`` the largest partner size ``m`` with
    ``size / m >= threshold``.  Both are solved in the float division
    :func:`jaccard` compares with, not in exact arithmetic: at
    ``threshold=0.55`` and ``size=100``, ``ceil(0.55 * 100)`` is 56
    while ``55 / 100 >= 0.55`` holds, and a prefix one token short
    would miss a pair the verification accepts.
    """
    least = math.ceil(threshold * size)
    while least > 1 and (least - 1) / size >= threshold:
        least -= 1
    while least / size < threshold:
        least += 1
    most = math.floor(size / threshold)
    while size / (most + 1) >= threshold:
        most += 1
    while size / most < threshold:
        most -= 1
    return least, most


class DuplicateDetector:
    """Streaming near-duplicate detection: an exact Jaccard self-join.

    Each arrival's shingle set is ordered by :func:`_token_rank`.  Two
    sets with ``jaccard >= t`` share at least ``least`` shingles (see
    :func:`_size_bounds`), so their first ``size - least + 1`` shingles
    in that order intersect: an arrival probes the postings of its
    prefix at the live :attr:`threshold`, keeps the candidates whose
    size can reach ``t`` at all, and confirms each with :func:`jaccard`.
    The verdict is the smallest confirmed ``msg_id`` — the same one a
    scan of every earlier set would return.

    Prefixes are indexed at ``index_threshold`` (default: the
    threshold), the lowest :attr:`threshold` the detector may later be
    set to: a lower threshold needs a longer prefix, so indexing at the
    floor keeps every later probe exact.  All empty shingle sets match
    each other (``jaccard`` of two empty sets is 1).  ``msg_id`` values
    must be unique; they need not ascend.
    """

    def __init__(self, *, threshold: float = 0.7,
                 index_threshold: "float | None" = None) -> None:
        if index_threshold is None:
            index_threshold = threshold
        if not 0.0 < index_threshold <= 1.0:
            raise ValueError(
                f"index_threshold must be in (0, 1], got {index_threshold}")
        self.index_threshold = index_threshold
        self.threshold = threshold
        self._postings: "dict[str, list[int]]" = {}
        self._shingles: "dict[int, frozenset[str]]" = {}
        self._first_empty: "int | None" = None

    @property
    def threshold(self) -> float:
        """The live Jaccard threshold (never below ``index_threshold``)."""
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        if not self.index_threshold <= value <= 1.0:
            raise ValueError(
                f"threshold must be in [index_threshold="
                f"{self.index_threshold}, 1], got {value}")
        self._threshold = value

    def __len__(self) -> int:
        return len(self._shingles)

    def check_and_add(self, message: Message) -> int | None:
        """Register ``message``; return a prior near-duplicate id or None.

        The smallest confirmed duplicate id is returned — pointing to
        the probable origin of the copied content.
        """
        grams = shingles(message.text)
        msg_id = message.msg_id
        if not grams:
            first = self._first_empty
            if first is None or msg_id < first:
                self._first_empty = msg_id
            self._shingles[msg_id] = grams
            return first
        size = len(grams)
        ordered = sorted(grams, key=_token_rank)
        threshold = self._threshold
        least, most = _size_bounds(size, threshold)
        postings = self._postings
        candidates: "set[int]" = set()
        for token in ordered[:size - least + 1]:
            posted = postings.get(token)
            if posted:
                candidates.update(posted)
        best: int | None = None
        if candidates:
            known = self._shingles
            for candidate in sorted(candidates):
                other = known[candidate]
                if (least <= len(other) <= most
                        and jaccard(grams, other) >= threshold):
                    best = candidate
                    break
        indexed = size - _size_bounds(size, self.index_threshold)[0] + 1
        for token in ordered[:indexed]:
            posted = postings.get(token)
            if posted is None:
                postings[token] = [msg_id]
            else:
                posted.append(msg_id)
        self._shingles[msg_id] = grams
        return best
