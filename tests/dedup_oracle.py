"""Brute-force near-duplicate lookup (test oracle only).

The naive twin of :class:`~repro.core.dedup.DuplicateDetector`: every
arrival is compared with every earlier shingle set, and the verdict is
the smallest earlier ``msg_id`` whose :func:`~repro.core.dedup.jaccard`
reaches the live threshold.  No token order, prefix or size filter
stands between the two sets, so the shipped join must agree with it
verdict for verdict.
"""

from __future__ import annotations

from repro.core.dedup import jaccard, shingles
from repro.core.message import Message


class BruteForceDetector:
    """Scans every earlier set; same ``threshold`` / ``check_and_add``."""

    def __init__(self, *, threshold: float, shingle_width: int = 3) -> None:
        self.threshold = threshold
        self.shingle_width = shingle_width
        self._seen: "list[tuple[int, frozenset[str]]]" = []

    def __len__(self) -> int:
        return len(self._seen)

    def check_and_add(self, message: Message) -> "int | None":
        grams = shingles(message.text, self.shingle_width)
        matches = [msg_id for msg_id, other in self._seen
                   if jaccard(grams, other) >= self.threshold]
        self._seen.append((message.msg_id, grams))
        return min(matches, default=None)
