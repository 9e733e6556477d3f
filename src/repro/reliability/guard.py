"""Adversarial ingest hardening: the guard stage in front of the indexer.

Production micro-blog ingest faces hostile traffic the paper's organic
cascades never model: spam floods, near-duplicate storms, hashtag
hijacking, and clock-skewed / out-of-order arrivals.  The
:class:`IngestGuard` screens every arrival *before* it reaches the
resilient indexer and returns one verdict per message:

``PASS``
    Clean, in-order traffic — full Algorithm 1 ingest.
``FOLD``
    An undeclared near-duplicate (MinHash/LSH screen, confirmed by
    exact Jaccard).  Folded straight into the bundle holding its
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

The guard is O(1)-ish per message — one MinHash signature, a band-dict
probe and two counter updates — so it survives on the hot path (cf.
Asadi & Lin's real-time search budgets).  The per-user spam score decays
periodically so reformed users drift back to neutral, and the whole
screen exposes a *toxicity* fraction the overload controller feeds into
its degradation ladder: REDUCED mode tightens the guard thresholds
before honest traffic is shed.
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
from repro.core.message import Message, parse_message
from repro.reliability.fsio import (FramedLog, escape_field, read_framed,
                                    unescape_field)

__all__ = [
    "GuardAction",
    "GuardConfig",
    "GuardStats",
    "Screened",
    "QuarantineLog",
    "FoldLog",
    "IngestGuard",
    "parse_quarantine_payload",
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


@dataclass(frozen=True, slots=True)
class GuardConfig:
    """Tuning knobs for the ingest guard.

    The ``tightened_*`` thresholds replace their normal counterparts
    while the overload ladder sits at REDUCED or worse — the guard gets
    *more* suspicious exactly when capacity is scarce, so hostile
    traffic is folded/quarantined before honest traffic is shed.
    """

    #: Exact-Jaccard confirmation threshold for the near-dup screen.
    dedup_threshold: float = 0.8
    #: 32 hashes in 8 bands of 4 rows: candidate recall at the 0.8
    #: threshold is still ≈0.985 per registered near-copy (and every
    #: candidate is confirmed against exact Jaccard anyway), at half
    #: the per-message signature cost of the classic 64/16 layout —
    #: the guard screens *every* arrival, so this is the hot path.
    dedup_num_hashes: int = 32
    dedup_bands: int = 8
    shingle_width: int = 3
    #: Quarantine a user's messages once their spam score passes this …
    spam_threshold: float = 0.6
    #: … but only after this much observed message mass (cold users are
    #: at the neutral 0.5 and must not be judged on nothing).
    spam_min_messages: float = 8.0
    spam_prior: float = 4.0
    #: Decay the per-user counters every N screens by this factor.
    decay_every: int = 1024
    decay_factor: float = 0.5
    #: Reordering window in stream seconds: arrivals dated within
    #: ``max_seen - reorder_window`` are buffered and re-emitted in
    #: date order; older ones take the deterministic late-path.
    reorder_window: float = 900.0
    reorder_capacity: int = 2048
    #: A date further than this *ahead* of the stream clock is a clock
    #: bomb (it would drag ``current_date`` forward and mass-evict
    #: honest bundles) — quarantined, and the watermark never advances.
    max_future_skew: float = 6 * 3600.0
    tightened_dedup_threshold: float = 0.65
    tightened_spam_threshold: float = 0.45
    #: Sliding window (messages) for the toxicity fraction.
    toxicity_window: int = 256

    def __post_init__(self) -> None:
        for name in ("dedup_threshold", "spam_threshold",
                     "tightened_dedup_threshold",
                     "tightened_spam_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.tightened_dedup_threshold > self.dedup_threshold:
            raise ValueError("tightened_dedup_threshold must not exceed "
                             "dedup_threshold (tightening means catching "
                             "more duplicates)")
        if self.tightened_spam_threshold > self.spam_threshold:
            raise ValueError("tightened_spam_threshold must not exceed "
                             "spam_threshold")
        for name in ("dedup_num_hashes", "dedup_bands", "shingle_width",
                     "decay_every", "reorder_capacity", "toxicity_window"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("spam_min_messages", "spam_prior", "reorder_window",
                     "max_future_skew"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor must be in (0, 1], "
                             f"got {self.decay_factor}")


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


def parse_quarantine_payload(payload: str) -> "tuple[Message, str] | None":
    """Decode one quarantine-log payload; ``None`` if malformed.

    Shared with ``repro doctor``'s quarantine scan so the CLI and the
    guard can never disagree about what a valid record is.
    """
    fields = payload.split("\t", 6)
    if len(fields) != 7:
        return None
    msg_id, user, date, event, parent, text, reason = fields
    try:
        message = parse_message(
            int(msg_id), user, float(date), unescape_field(text),
            event_id=int(event) if event else None,
            parent_id=int(parent) if parent else None)
    except ValueError:
        return None
    return message, unescape_field(reason)


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
        event = "" if message.event_id is None else str(message.event_id)
        parent = ("" if message.parent_id is None
                  else str(message.parent_id))
        payload = (f"{message.msg_id}\t{message.user}\t{message.date!r}\t"
                   f"{event}\t{parent}\t{escape_field(message.text)}\t"
                   f"{escape_field(reason)}")
        self.append_payload(payload)

    @staticmethod
    def replay(path: "str | os.PathLike[str]",
               ) -> "Iterator[tuple[Message, str]]":
        """Yield ``(message, reason)`` in append order, skipping damage."""
        return read_framed(path, parse_quarantine_payload)


class FoldLog(FramedLog):
    """Durable ``msg_id → (bundle_id, duplicate_of)`` fold decisions.

    A hint is appended (and pushed to the OS) immediately *before* the
    message's WAL append, so after a process crash every WAL record that
    was live-folded has its hint on disk; a hint without a WAL record is
    harmless (the replay lookup simply never fires).  fsync piggybacks
    on the supervisor's durability boundaries rather than per-append —
    process-crash ordering only needs the write-before-write.
    """

    def append(self, msg_id: int, bundle_id: int,
               duplicate_of: int) -> None:
        self.append_payload(f"{msg_id}\t{bundle_id}\t{duplicate_of}")
        if self._handle is not None:
            self._handle.flush()

    @staticmethod
    def load(path: "str | os.PathLike[str]",
             ) -> "dict[int, tuple[int, int]]":
        """All intact hints (later entries win), skipping damage."""
        return dict(read_framed(path, FoldLog._parse))

    @staticmethod
    def _parse(payload: str) -> "tuple[int, tuple[int, int]]":
        msg_id, bundle_id, duplicate_of = map(int, payload.split("\t"))
        return msg_id, (bundle_id, duplicate_of)


class IngestGuard:
    """The adversarial screen in front of :class:`ResilientIndexer`.

    :meth:`admit` turns one arrival into zero-or-more :class:`Screened`
    entries ready for ingestion *now* (reordering may release buffered
    messages ahead of it, or hold the arrival itself back).  The caller
    ingests entries in the returned order; after each successful ingest
    it reports the placement back via :meth:`note_result` so the guard
    learns which bundle future near-duplicates fold into.
    """

    def __init__(self, config: "GuardConfig | None" = None, *,
                 quarantine_path: "str | os.PathLike[str] | None" = None,
                 fold_path: "str | os.PathLike[str] | None" = None,
                 tracker: "CredibilityTracker | None" = None) -> None:
        self.config = config or GuardConfig()
        cfg = self.config
        self.detector = DuplicateDetector(
            threshold=cfg.dedup_threshold,
            num_hashes=cfg.dedup_num_hashes,
            bands=cfg.dedup_bands,
            shingle_width=cfg.shingle_width)
        self.tracker = tracker or CredibilityTracker(prior=cfg.spam_prior)
        self.quarantine = QuarantineLog(quarantine_path)
        self.folds = FoldLog(fold_path)
        #: Both side logs, for a caller's pre-ACK ``commit_scope``.
        self.logs = (self.quarantine, self.folds)
        self.stats = GuardStats()
        self.tightened = False
        self._buffer: "list[tuple[float, int, Message]]" = []
        self._max_seen = float("-inf")
        self._bundle_of: "dict[int, int]" = {}
        self._hostile: "deque[bool]" = deque(maxlen=cfg.toxicity_window)
        self._since_decay = 0

    # -- observability ------------------------------------------------------

    @property
    def buffer_depth(self) -> int:
        return len(self._buffer)

    def toxicity(self) -> float:
        """Hostile fraction of the last ``toxicity_window`` screens."""
        if not self._hostile:
            return 0.0
        return sum(self._hostile) / len(self._hostile)

    @property
    def watermark(self) -> float:
        return self._max_seen - self.config.reorder_window

    # -- admission ----------------------------------------------------------

    def admit(self, message: Message) -> "list[Screened]":
        """Screen one arrival; returns entries ready for ingestion now."""
        self.stats.screened += 1
        cfg = self.config
        date = message.date
        ready: "list[Screened]" = []
        if (self._max_seen != float("-inf")
                and date > self._max_seen + cfg.max_future_skew):
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
        while len(self._buffer) > cfg.reorder_capacity:
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
        cfg = self.config
        self.detector.threshold = (cfg.tightened_dedup_threshold
                                   if tightened else cfg.dedup_threshold)

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
        cfg = self.config
        self._since_decay += 1
        if self._since_decay >= cfg.decay_every:
            self.tracker.decay(cfg.decay_factor)
            self.stats.decays += 1
            self._since_decay = 0
        duplicate_of = self.detector.check_and_add(message)
        declared_rt = bool(message.rt_users)
        # An undeclared near-copy is the spam signal.  Declared RTs are
        # legitimate provenance and never count against a user.
        exposure, spam_score = self.tracker.observe_screen(
            message.user,
            duplicate=duplicate_of is not None and not declared_rt)
        spam_threshold = (cfg.tightened_spam_threshold if self.tightened
                          else cfg.spam_threshold)
        if (exposure >= cfg.spam_min_messages
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
