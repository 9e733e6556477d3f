"""Adversarial ingest hardening: the guard stage in front of the indexer.

Production micro-blog ingest faces hostile traffic the paper's organic
cascades never model: spam floods, near-duplicate storms, hashtag
hijacking, and clock-skewed / out-of-order arrivals.  The
:class:`IngestGuard` screens every arrival *before* it reaches the
resilient indexer and returns one verdict per message:

``PASS``
    Clean, in-order traffic — full Algorithm 1 ingest.
``FOLD``
    An undeclared near-duplicate (an exact shingle-Jaccard join over
    every earlier arrival).  Folded straight into the bundle holding its
    original — no candidate scoring, and the decision is journaled in a
    CRC-framed *fold log* so WAL replay reproduces the placement.
``QUARANTINE``
    Probable spam (per-user duplicate-heavy behaviour with decayed
    priors) or an impossible future timestamp.  Quarantine is *not*
    drop: the full message is appended — durable before any caller can
    observe the verdict — to a crash-safe, CRC-framed quarantine log
    next to the DLQ, replayable by ``repro doctor``.
``LATE``
    Dated before the reorder watermark.  Ingested immediately through a
    deterministic late-path (the engine floors the receiving bundle's
    ``last_update`` at the stream clock) instead of corrupting pool
    eviction order.
``BUFFERED``
    Out of order but within the reorder window: held in a bounded
    min-heap and released in ``(date, msg_id)`` order once the
    watermark passes (or the buffer overflows / flushes).

The guard is cheap per message — one sorted shingle prefix, a few
postings probes, exact verification of the candidates that survive the
size filter and two counter updates — so it survives on the hot path (cf.
Asadi & Lin's real-time search budgets).  The per-user spam score decays
every :data:`DECAY_EVERY` screens so reformed users drift back to
neutral.  While the overload ladder sits at REDUCED or worse the guard
swaps in its tightened thresholds, so hostile traffic is folded or
quarantined before honest traffic is shed.  The screen also exposes a
*toxicity* fraction (hostile share of the last
:data:`TOXICITY_WINDOW` screens) as a gauge and in the fleet worker's
stats.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from repro.core.credibility import CredibilityTracker
from repro.core.dedup import DuplicateDetector
from repro.core.message import Message, decode_row, encode_row
from repro.obs.registry import MetricsRegistry
from repro.reliability.fsio import (FramedLog, escape_field, read_framed,
                                    unescape_field)

__all__ = [
    "GuardAction",
    "GuardStats",
    "Screened",
    "QuarantineLog",
    "FoldLog",
    "IngestGuard",
]


class GuardAction(str, Enum):
    """The guard's verdict vocabulary (mirrors audit outcomes)."""

    PASS = "pass"
    FOLD = "fold"
    QUARANTINE = "quarantine"
    LATE = "late"
    BUFFERED = "buffered"


class Screened(NamedTuple):
    """One screened arrival: the message plus its verdict.

    ``bundle_id`` is the fold target and ``duplicate_of`` the member it
    near-duplicates (``FOLD`` only — the fold path reuses the origin's
    keywords instead of re-analyzing copied text); ``reason`` names the
    quarantine cause (``"spam"`` / ``"clock-skew"``).
    """

    message: Message
    action: GuardAction
    bundle_id: "int | None" = None
    reason: "str | None" = None
    duplicate_of: "int | None" = None


#: Exact-Jaccard confirmation threshold for the near-dup screen.
DEDUP_THRESHOLD = 0.8
#: Quarantine a user's messages once their spam score passes this …
SPAM_THRESHOLD = 0.6
#: … but only after this much observed message mass (cold users are at
#: the neutral 0.5 and must not be judged on nothing).
SPAM_MIN_MESSAGES = 8.0
#: Reordering window in stream seconds: arrivals dated within
#: ``max_seen - REORDER_WINDOW`` are buffered and re-emitted in date
#: order; older ones take the deterministic late-path.
REORDER_WINDOW = 900.0
REORDER_CAPACITY = 2048
#: A date further than this *ahead* of the stream clock is a clock bomb
#: (it would drag ``current_date`` forward and mass-evict honest
#: bundles) — quarantined, and the watermark never advances.
MAX_FUTURE_SKEW = 6 * 3600.0
#: The thresholds that replace the two above while the overload ladder
#: sits at REDUCED or worse: the guard gets *more* suspicious exactly
#: when capacity is scarce, so hostile traffic is folded/quarantined
#: before honest traffic is shed.
TIGHTENED_DEDUP_THRESHOLD = 0.65
TIGHTENED_SPAM_THRESHOLD = 0.45


@dataclass(slots=True)
class GuardStats:
    """Verdict counters; conservation is checked by :meth:`reconciles`."""

    screened: int = 0
    passed: int = 0
    folded: int = 0
    quarantined: int = 0
    late: int = 0
    buffered: int = 0      # ever entered the reorder buffer
    released: int = 0      # left the buffer (reordered into the stream)
    decays: int = 0

    def reconciles(self, buffer_depth: int) -> bool:
        """Every screened arrival is accounted for exactly once."""
        return self.screened == (self.passed + self.folded
                                 + self.quarantined + self.late
                                 + buffer_depth)


class QuarantineLog(FramedLog):
    """Crash-safe custody log for quarantined messages.

    Quarantine is not drop: every verdict appends the *full* message,
    and the record is on disk before any caller can observe the verdict
    — fsynced before :meth:`append` returns, or at the exit of the
    :func:`~repro.reliability.fsio.commit_scope` a batch entry point
    holds — because an acknowledged message must never be lost.
    ``repro doctor`` replays the log to restore every quarantined id.
    """

    durable = True

    def append(self, message: Message, reason: str) -> None:
        self.append_payload(f"{encode_row(message)}\t{escape_field(reason)}")

    @staticmethod
    def parse_payload(payload: str) -> "tuple[Message, str]":
        """Decode one record, the message row and then the reason;
        ``ValueError`` if malformed (the rule ``repro doctor`` checks)."""
        row, _, reason = payload.rpartition("\t")
        return decode_row(row), unescape_field(reason)

    @staticmethod
    def replay(path: "str | os.PathLike[str]",
               ) -> "Iterator[tuple[Message, str]]":
        """Yield ``(message, reason)`` in append order, skipping damage."""
        return read_framed(path, QuarantineLog.parse_payload)


class FoldLog(FramedLog):
    """Durable ``msg_id → (bundle_id, duplicate_of)`` fold decisions.

    A hint is appended (and pushed to the OS) immediately *before* the
    message's WAL append, so after a process crash every WAL record that
    was live-folded has its hint on disk; a hint without a WAL record is
    harmless (the replay lookup simply never fires).  fsync piggybacks
    on the supervisor's durability boundaries rather than per-append —
    process-crash ordering only needs the write-before-write.
    """

    flush_each = True

    def append(self, msg_id: int, bundle_id: int,
               duplicate_of: int) -> None:
        self.append_payload(f"{msg_id}\t{bundle_id}\t{duplicate_of}")

    @staticmethod
    def load(path: "str | os.PathLike[str]",
             ) -> "dict[int, tuple[int, int]]":
        """All intact hints (later entries win), skipping damage."""
        return dict(read_framed(path, FoldLog._parse))

    @staticmethod
    def _parse(payload: str) -> "tuple[int, tuple[int, int]]":
        msg_id, bundle_id, duplicate_of = map(int, payload.split("\t"))
        return msg_id, (bundle_id, duplicate_of)


#: Decay the per-user spam counters every N screens by this factor.
DECAY_EVERY = 1024
DECAY_FACTOR = 0.5
#: Sliding window (screens) of the toxicity fraction.
TOXICITY_WINDOW = 256


class IngestGuard:
    """The adversarial screen in front of :class:`ResilientIndexer`.

    :meth:`admit` turns one arrival into zero-or-more :class:`Screened`
    entries ready for ingestion *now* (reordering may release buffered
    messages ahead of it, or hold the arrival itself back).  The caller
    ingests entries in the returned order; after each successful ingest
    it reports the placement back via :meth:`note_result` so the guard
    learns which bundle future near-duplicates fold into.
    """

    def __init__(self, *,
                 quarantine_path: "str | os.PathLike[str] | None" = None,
                 fold_path: "str | os.PathLike[str] | None" = None,
                 tracker: "CredibilityTracker | None" = None) -> None:
        # Prefixes are indexed at the tightened threshold, the lowest the
        # guard switches to, so set_tightened keeps the join exact.
        self.detector = DuplicateDetector(
            threshold=DEDUP_THRESHOLD,
            index_threshold=TIGHTENED_DEDUP_THRESHOLD)
        self.tracker = tracker or CredibilityTracker()
        self.quarantine = QuarantineLog(quarantine_path)
        self.folds = FoldLog(fold_path)
        #: Both side logs, for a caller's pre-ACK ``commit_scope``.
        self.logs = (self.quarantine, self.folds)
        self.stats = GuardStats()
        self.tightened = False
        self._buffer: "list[tuple[float, int, Message]]" = []
        self._max_seen = float("-inf")
        self._bundle_of: "dict[int, int]" = {}
        self._hostile: "deque[bool]" = deque(maxlen=TOXICITY_WINDOW)
        self._since_decay = 0

    # -- observability ------------------------------------------------------

    @property
    def buffer_depth(self) -> int:
        return len(self._buffer)

    def toxicity(self) -> float:
        """Hostile fraction of the last :data:`TOXICITY_WINDOW` screens."""
        if not self._hostile:
            return 0.0
        return sum(self._hostile) / len(self._hostile)

    @property
    def watermark(self) -> float:
        return self._max_seen - REORDER_WINDOW

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Export the verdict counters, the side logs' fsyncs, the
        reorder buffer's depth and the toxicity (``repro_guard_*``)."""
        stats = self.stats
        for name, field_name, help_text in (
                ("repro_guard_screened_total", "screened",
                 "Arrivals screened by the ingest guard"),
                ("repro_guard_passed_total", "passed",
                 "Arrivals passed clean through the guard"),
                ("repro_guard_folded_total", "folded",
                 "Near-duplicates folded into their origin bundle"),
                ("repro_guard_quarantined_total", "quarantined",
                 "Messages quarantined to the guard log "
                 "(spam / clock-skew)"),
                ("repro_guard_late_total", "late",
                 "Arrivals routed through the deterministic late-path"),
                ("repro_guard_reordered_total", "released",
                 "Buffered out-of-order arrivals re-emitted in date order"),
        ):
            registry.counter(
                name, help=help_text,
                callback=(lambda f=field_name: getattr(stats, f)))
        registry.counter(
            "repro_guard_log_syncs_total",
            help="fsyncs issued on the guard's quarantine and fold logs",
            callback=lambda: sum(log.syncs for log in self.logs))
        registry.gauge(
            "repro_guard_buffer_depth",
            help="Messages held in the guard's reordering buffer",
            callback=lambda: self.buffer_depth)
        registry.gauge(
            "repro_guard_toxicity",
            help="Hostile fraction of recently screened arrivals",
            callback=self.toxicity)

    # -- admission ----------------------------------------------------------

    def admit(self, message: Message) -> "list[Screened]":
        """Screen one arrival; returns entries ready for ingestion now."""
        self.stats.screened += 1
        date = message.date
        ready: "list[Screened]" = []
        if (self._max_seen != float("-inf")
                and date > self._max_seen + MAX_FUTURE_SKEW):
            ready.append(self._quarantine(message, "clock-skew"))
            return ready
        if date >= self._max_seen:
            # In order: advance the stream clock, release everything the
            # new watermark now covers (oldest first), then this one.
            self._max_seen = date
            ready.extend(self._release(self.watermark))
            ready.append(self._screen(message, late=False))
            return ready
        if date < self.watermark:
            # Too old to reorder — the deterministic late-path.
            ready.append(self._screen(message, late=True))
            return ready
        # Out of order but within the window: hold for reordering.
        heapq.heappush(self._buffer, (date, message.msg_id, message))
        self.stats.buffered += 1
        while len(self._buffer) > REORDER_CAPACITY:
            ready.append(self._pop_buffered())
        ready.append(Screened(message, GuardAction.BUFFERED))
        return ready

    def flush(self) -> "list[Screened]":
        """Release every buffered message (drain / shutdown path)."""
        ready = []
        while self._buffer:
            ready.append(self._pop_buffered())
        return ready

    def note_result(self, message: Message, bundle_id: "int | None",
                    ) -> None:
        """Learn where ``message`` landed (fold target for future dups)."""
        if bundle_id is not None:
            self._bundle_of[message.msg_id] = bundle_id

    def set_tightened(self, tightened: bool) -> None:
        """Swap normal/tightened thresholds (REDUCED-mode wiring)."""
        if tightened == self.tightened:
            return
        self.tightened = tightened
        self.detector.threshold = (TIGHTENED_DEDUP_THRESHOLD
                                   if tightened else DEDUP_THRESHOLD)

    def close(self) -> None:
        for log in self.logs:
            log.close()

    # -- internals ----------------------------------------------------------

    def _release(self, watermark: float) -> "list[Screened]":
        ready = []
        while self._buffer and self._buffer[0][0] <= watermark:
            ready.append(self._pop_buffered())
        return ready

    def _pop_buffered(self) -> Screened:
        _, _, message = heapq.heappop(self._buffer)
        self.stats.released += 1
        return self._screen(message, late=False)

    def _screen(self, message: Message, *, late: bool) -> Screened:
        self._since_decay += 1
        if self._since_decay >= DECAY_EVERY:
            self.tracker.decay(DECAY_FACTOR)
            self.stats.decays += 1
            self._since_decay = 0
        duplicate_of = self.detector.check_and_add(message)
        declared_rt = bool(message.rt_users)
        # An undeclared near-copy is the spam signal.  Declared RTs are
        # legitimate provenance and never count against a user.
        exposure, spam_score = self.tracker.observe_screen(
            message.user,
            duplicate=duplicate_of is not None and not declared_rt)
        spam_threshold = (TIGHTENED_SPAM_THRESHOLD if self.tightened
                          else SPAM_THRESHOLD)
        if (exposure >= SPAM_MIN_MESSAGES
                and spam_score >= spam_threshold):
            return self._quarantine(message, "spam")
        if duplicate_of is not None:
            target = self._bundle_of.get(duplicate_of)
            if target is not None:
                self.stats.folded += 1
                self._note(hostile=not declared_rt)
                return Screened(message, GuardAction.FOLD, target,
                                None, duplicate_of)
        self._note(hostile=False)
        if late:
            self.stats.late += 1
            return Screened(message, GuardAction.LATE)
        self.stats.passed += 1
        return Screened(message, GuardAction.PASS)

    def _quarantine(self, message: Message, reason: str) -> Screened:
        self.stats.quarantined += 1
        self._note(hostile=True)
        self.quarantine.append(message, reason)
        return Screened(message, GuardAction.QUARANTINE, None, reason)

    def _note(self, *, hostile: bool) -> None:
        self._hostile.append(hostile)
