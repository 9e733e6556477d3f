"""Near-duplicate message detection (shingle Jaccard + MinHash).

Micro-blog streams are full of near-copies: bare retweets, copy-pasted
breaking news, spam templates.  The paper's quality discussion ("noise
exists in micro-blog services") motivates separating genuine development
from verbatim repetition.  This module provides:

* :func:`shingles` / :func:`jaccard` — exact word-shingle similarity,
* :class:`MinHasher` — fixed-permutation MinHash signatures for cheap
  approximate Jaccard,
* :class:`DuplicateDetector` — streaming near-duplicate lookup using an
  LSH band index over signatures.

Used by the quality layer to discount repetition, and usable upstream to
collapse duplicates before indexing.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import defaultdict

from repro.core.lazy_numpy import numpy
from repro.core.message import Message, strip_entities

__all__ = ["shingles", "jaccard", "MinHasher", "DuplicateDetector"]

_MASK64 = (1 << 64) - 1


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


@functools.lru_cache(maxsize=1 << 16)
def _stable_hash(value: str) -> int:
    """64-bit stable hash (process-independent, unlike ``hash``)."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return struct.unpack(">Q", digest)[0]


class MinHasher:
    """MinHash signatures with ``num_hashes`` fixed affine permutations.

    Each permutation is ``h -> (a*h + b) mod 2**64`` with an odd ``a`` —
    a bijection on the 64-bit hash space whose wraparound is native in
    both numpy uint64 and masked Python ints, so the vectorized and
    fallback paths produce identical signatures.  Parameters are derived
    deterministically from the index, so signatures are reproducible
    across processes and sessions.  numpy (optional: it vectorizes the
    signature hot path ~20x) is imported by the first construction.
    """

    def __init__(self, num_hashes: int = 64) -> None:
        if num_hashes <= 0:
            raise ValueError(
                f"num_hashes must be positive, got {num_hashes}")
        self.num_hashes = num_hashes
        self._params = [
            (_stable_hash(f"a{i}") | 1, _stable_hash(f"b{i}"))
            for i in range(num_hashes)
        ]
        # Packed-signature memo: verbatim copies (the streaming-dedup
        # common case) normalize to the identical shingle set — and
        # _cached_shingles returns the *same* frozenset instance for
        # them, so the lookup is near-free.
        self._packed: "dict[frozenset[str], bytes]" = {}
        np = numpy()
        if np is not None:
            self._a = np.array([a for a, _ in self._params],
                               dtype=np.uint64)[:, None]
            self._b = np.array([b for _, b in self._params],
                               dtype=np.uint64)[:, None]

    def signature(self, items: frozenset[str]) -> tuple[int, ...]:
        """The MinHash signature of a shingle set (empty set → all-max)."""
        if not items:
            return tuple([_MASK64] * self.num_hashes)
        hashed = [_stable_hash(item) for item in items]
        np = numpy()
        if np is not None:
            mins = (self._a * np.array(hashed, dtype=np.uint64)
                    + self._b).min(axis=1)
            return tuple(map(int, mins))
        return tuple(
            min((a * h + b) & _MASK64 for h in hashed)
            for a, b in self._params
        )

    def signature_bytes(self, items: frozenset[str]) -> bytes:
        """The signature packed as little-endian u64 — cheap band keys.

        Avoids materializing ``num_hashes`` Python ints per message on
        the streaming dedup hot path; slices of the packed form serve as
        LSH band keys directly.
        """
        if not items:
            return b"\xff" * (8 * self.num_hashes)
        packed = self._packed.get(items)
        if packed is not None:
            return packed
        hashed = [_stable_hash(item) for item in items]
        np = numpy()
        if np is not None:
            scaled = self._a * np.fromiter(hashed, dtype=np.uint64,
                                           count=len(hashed))
            scaled += self._b
            packed = scaled.min(axis=1).astype("<u8",
                                               copy=False).tobytes()
        else:
            packed = struct.pack(
                f"<{self.num_hashes}Q",
                *(min((a * h + b) & _MASK64 for h in hashed)
                  for a, b in self._params))
        if len(self._packed) >= 1 << 14:
            self._packed.clear()
        self._packed[items] = packed
        return packed

    @staticmethod
    def estimate(first: tuple[int, ...], second: tuple[int, ...]) -> float:
        """Estimated Jaccard from two signatures (agreement fraction)."""
        if len(first) != len(second):
            raise ValueError("signatures must have equal length")
        if not first:
            return 0.0
        agree = sum(1 for a, b in zip(first, second) if a == b)
        return agree / len(first)


class DuplicateDetector:
    """Streaming near-duplicate detection with banded LSH.

    ``bands × rows`` must equal the hasher's signature length.  A message
    is a *candidate* duplicate of a prior one when any band of its
    signature collides; candidates are confirmed against the exact
    shingle Jaccard threshold.
    """

    def __init__(self, *, threshold: float = 0.7, num_hashes: int = 64,
                 bands: int = 16, shingle_width: int = 3) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if num_hashes % bands != 0:
            raise ValueError(
                f"bands ({bands}) must divide num_hashes ({num_hashes})")
        self.threshold = threshold
        self.shingle_width = shingle_width
        self.hasher = MinHasher(num_hashes)
        self.rows = num_hashes // bands
        self.bands = bands
        self._band_bytes = 8 * self.rows
        self._band_index: list[dict[bytes, list[int]]] = [
            defaultdict(list) for _ in range(bands)
        ]
        self._shingles: dict[int, frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self._shingles)

    def _bands_of(self, signature: bytes):
        width = self._band_bytes
        for band in range(self.bands):
            start = band * width
            yield band, signature[start:start + width]

    def check_and_add(self, message: Message) -> int | None:
        """Register ``message``; return a prior near-duplicate id or None.

        The earliest confirmed duplicate is returned — pointing to the
        probable origin of the copied content.
        """
        grams = shingles(message.text, self.shingle_width)
        signature = self.hasher.signature_bytes(grams)
        candidates: set[int] = set()
        width = self._band_bytes
        index = self._band_index
        msg_id = message.msg_id
        start = 0
        for band in range(self.bands):
            bucket = index[band][signature[start:start + width]]
            start += width
            if bucket:
                candidates.update(bucket)
            bucket.append(msg_id)
        best: int | None = None
        if candidates:
            threshold = self.threshold
            # The earliest candidate is usually the origin of the copied
            # content; confirming it first skips the sort on the common
            # path.
            earliest = min(candidates)
            if jaccard(grams, self._shingles[earliest]) >= threshold:
                best = earliest
            else:
                candidates.discard(earliest)
                for candidate in sorted(candidates):
                    if jaccard(grams,
                               self._shingles[candidate]) >= threshold:
                        best = candidate
                        break
        self._shingles[message.msg_id] = grams
        return best
