"""Decision audit: why each message landed where it did.

The metrics layer says *how fast* and the tracer says *how long*, but
neither answers the operator question the paper's algorithms raise:
*which* bundle did message *m* join, what were the alternatives, and
what happened to that bundle afterwards?  :class:`AuditLog` keeps one
:class:`DecisionRecord` per ingest —

* the Algorithm 1 candidate set with the per-indicant Eq. 1 scores,
* the Algorithm 2 in-bundle allocation (chosen parent plus the Eq. 2–5
  component scores of the top-k alternatives),
* Algorithm 3 refinement / eviction events with their ``G(B)`` values,
* shed / deferred outcomes with the admission-ladder rung attached —

in a first-in first-out ring of at most ``capacity`` records, plus an
optional JSONL sink.  A record is what the shipped selection did: the
Eq. 1 rows are the candidates the pruned argmax looked up and scored,
and ``fetched`` says how many the gather returned, so the rest are
exactly the ones the max-score bound settled without a lookup.

The contract mirrors the metrics registry: an engine without an audit
log pays a single ``is None`` check per ingest, and the JSONL output is
byte-deterministic for a fixed seed (no wall-clock fields, sorted
keys), which CI exploits to pin replay determinism.
"""

from __future__ import annotations

import enum
import json
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, NamedTuple

from repro.obs.exporters import read_jsonl

__all__ = [
    "IngestOutcome",
    "CandidateScore",
    "AllocationScore",
    "RefinementEvent",
    "DecisionRecord",
    "Explanation",
    "AuditLog",
    "explain_from_jsonl",
]

#: Ladder rung labels, by ``int(HealthState)`` value.
RUNG_LABELS = ("normal", "reduced", "skeleton", "shed_only")


def rung_label(rung: int) -> str:
    """Human name of an admission-ladder rung."""
    if 0 <= rung < len(RUNG_LABELS):
        return RUNG_LABELS[rung]
    return str(rung)


class IngestOutcome(str, enum.Enum):
    """The one outcome vocabulary traces and audit records share.

    The values are exactly the span outcome tags the tracer emits, so a
    trace and an audit record of the same ingest can never disagree by
    construction.
    """

    NEW_BUNDLE = "new-bundle"
    MATCHED = "matched"
    SHED = "shed"
    DEFERRED = "deferred"
    #: Guard verdicts (PR 7): quarantined to the crash-safe guard log,
    #: folded into a near-duplicate's bundle without Alg. 1 scoring, or
    #: admitted through the deterministic late-path past the reorder
    #: watermark.
    QUARANTINED = "quarantined"
    FOLDED = "folded"
    LATE = "late"


class CandidateScore(NamedTuple):
    """One Algorithm 1 candidate bundle with its Eq. 1 inputs.

    Built when a record is read, from the flat tuple the Eq. 1 argmax
    captured for a candidate it looked up (the same fields in the same
    order, plus ``selected``, which flags the bundle the ingest joined).
    """

    bundle_id: int
    shared_urls: int
    shared_hashtags: int
    shared_keywords: int
    rt_hit: bool
    score: float
    selected: bool = False

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "shared_urls": self.shared_urls,
            "shared_hashtags": self.shared_hashtags,
            "shared_keywords": self.shared_keywords,
            "rt_hit": self.rt_hit,
            "score": self.score,
            "selected": self.selected,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateScore":
        return cls(
            bundle_id=int(data["bundle_id"]),
            shared_urls=int(data["shared_urls"]),
            shared_hashtags=int(data["shared_hashtags"]),
            shared_keywords=int(data["shared_keywords"]),
            rt_hit=bool(data["rt_hit"]),
            score=float(data["score"]),
            selected=bool(data.get("selected", False)),
        )


class AllocationScore(NamedTuple):
    """One Algorithm 2 parent candidate with its Eq. 2–5 components.

    ``url`` / ``hashtag`` / ``time`` are the raw (unweighted) Eq. 2–4
    values; ``score`` is the weighted Eq. 5 total actually compared,
    RT bonus included.  A ``NamedTuple`` for the same hot-path reason
    as :class:`CandidateScore`.
    """

    member_id: int
    url: float
    hashtag: float
    time: float
    rt_hit: bool
    score: float
    chosen: bool = False

    def to_dict(self) -> dict:
        return {
            "member_id": self.member_id,
            "url": self.url,
            "hashtag": self.hashtag,
            "time": self.time,
            "rt_hit": self.rt_hit,
            "score": self.score,
            "chosen": self.chosen,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationScore":
        return cls(
            member_id=int(data["member_id"]),
            url=float(data["url"]),
            hashtag=float(data["hashtag"]),
            time=float(data["time"]),
            rt_hit=bool(data["rt_hit"]),
            score=float(data["score"]),
            chosen=bool(data.get("chosen", False)),
        )


class _RawAllocation(NamedTuple):
    """Deferred Algorithm 2 capture: the ingredients, not the rows.

    ``Bundle.insert`` appends exactly one of these per recorded insert
    — a handful of references, nothing per-member — and
    :meth:`materialize` rebuilds the Eq. 2–5 breakdown only when the
    record is actually read.  A bundle only ever gains members, so the
    window's ids still name the same messages in ``members`` then; the
    records of one bundle share its member map instead of each holding
    a copy of its window.  ``message_similarity`` and
    ``similarity_components`` are pure, so re-deriving the alternatives
    later is bit-identical to what the selection loop compared; the
    chosen parent's score is the captured one, never recomputed.
    """

    message: object          # the inserted Message
    window: list             # candidate member ids, ascending
    members: dict            # the bundle's msg_id -> Message map
    chosen: object           # the winning member Message (or None)
    chosen_score: float
    config: object           # the bundle's IndexerConfig (weights)
    top_k: int

    def materialize(self) -> "list[AllocationScore]":
        # Late import: repro.core.bundle imports this module.
        from repro.core.scoring import (message_similarity,
                                        similarity_components)
        decorated = []
        for prior in map(self.members.__getitem__, self.window):
            score = (self.chosen_score if prior is self.chosen
                     else message_similarity(self.message, prior,
                                             self.config))
            decorated.append((-score, -prior.date, prior.msg_id, prior))
        decorated.sort()
        top = decorated[:self.top_k]
        if (self.chosen is not None
                and all(entry[3] is not self.chosen for entry in top)):
            top.append(next(entry for entry in decorated
                            if entry[3] is self.chosen))
        rows = []
        for neg_score, _, _, prior in top:
            url, hashtag, time_c, rt_hit = similarity_components(
                self.message, prior)
            rows.append(AllocationScore(
                prior.msg_id, url, hashtag, time_c, rt_hit,
                -neg_score, prior is self.chosen))
        return rows


@dataclass(slots=True)
class RefinementEvent:
    """One bundle leaving the pool under Algorithm 3 (or forced shed).

    ``reason`` is the pool's eviction vocabulary — ``tiny`` / ``closed``
    / ``ranked`` / ``shed`` — and ``g_score`` the Eq. 6 ``G(B)`` value
    (eviction priority) at the moment of removal.
    """

    reason: str
    bundle_id: int
    g_score: float
    size: int

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "bundle_id": self.bundle_id,
            "g_score": self.g_score,
            "size": self.size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RefinementEvent":
        return cls(
            reason=str(data["reason"]),
            bundle_id=int(data["bundle_id"]),
            g_score=float(data["g_score"]),
            size=int(data["size"]),
        )


@dataclass(slots=True)
class DecisionRecord:
    """The full decision narrative of one ingest.

    A refused arrival (shed / deferred at admission) has
    ``bundle_id is None`` and empty score lists; a deferred message that
    later drained into the pipeline gets a fresh placement record with
    ``deferred_first=True``.
    """

    seq: int
    msg_id: int
    outcome: IngestOutcome
    rung: int = 0
    bundle_id: "int | None" = None
    parent_id: "int | None" = None
    edge_kind: "str | None" = None
    skeleton: bool = False
    candidate_cap: "int | None" = None
    threshold: "float | None" = None
    #: Candidate bundles Alg. 1's gather returned; ``candidates`` holds
    #: the ones the pruned argmax looked up and scored.
    fetched: int = 0
    candidates: "list[CandidateScore]" = field(default_factory=list)
    allocation: "list[AllocationScore]" = field(default_factory=list)
    refinement: "list[RefinementEvent]" = field(default_factory=list)
    deferred_first: bool = False
    late_arrival: bool = False

    @property
    def placed(self) -> bool:
        """Whether the message actually reached a bundle."""
        return self.bundle_id is not None

    def materialize(self) -> "DecisionRecord":
        """Turn lazily-captured score rows into their final form.

        The ingest hot path stores one flat ``(bundle_id, urls, tags,
        keywords, rt_hit, score)`` tuple per candidate the Eq. 1 argmax
        looked up (Alg. 1) plus one :class:`_RawAllocation` (Alg. 2);
        every read path goes through here first.  Idempotent —
        already-materialized records pass through untouched.
        """
        candidates = self.candidates
        if candidates and not isinstance(candidates[0], CandidateScore):
            # Rows go in ascending bundle id, whatever order the loop
            # visited them in.  The selected row is the one the ingest
            # landed in (a fresh-bundle record selects none).
            winner = (self.bundle_id
                      if self.outcome is IngestOutcome.MATCHED else None)
            self.candidates = [CandidateScore(*row, row[0] == winner)
                               for row in sorted(candidates)]
        allocation = self.allocation
        if allocation and isinstance(allocation[0], _RawAllocation):
            self.allocation = allocation[0].materialize()
        return self

    def to_dict(self) -> dict:
        self.materialize()
        return {
            "type": "decision",
            "seq": self.seq,
            "msg_id": self.msg_id,
            "outcome": self.outcome.value,
            "rung": self.rung,
            "bundle_id": self.bundle_id,
            "parent_id": self.parent_id,
            "edge_kind": self.edge_kind,
            "skeleton": self.skeleton,
            "candidate_cap": self.candidate_cap,
            "threshold": self.threshold,
            "fetched": self.fetched,
            "candidates": [c.to_dict() for c in self.candidates],
            "allocation": [a.to_dict() for a in self.allocation],
            "refinement": [r.to_dict() for r in self.refinement],
            "deferred_first": self.deferred_first,
            "late_arrival": self.late_arrival,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionRecord":
        return cls(
            seq=int(data["seq"]),
            msg_id=int(data["msg_id"]),
            outcome=IngestOutcome(data["outcome"]),
            rung=int(data.get("rung", 0)),
            bundle_id=(int(data["bundle_id"])
                       if data.get("bundle_id") is not None else None),
            parent_id=(int(data["parent_id"])
                       if data.get("parent_id") is not None else None),
            edge_kind=data.get("edge_kind"),
            skeleton=bool(data.get("skeleton", False)),
            candidate_cap=(int(data["candidate_cap"])
                           if data.get("candidate_cap") is not None
                           else None),
            threshold=(float(data["threshold"])
                       if data.get("threshold") is not None else None),
            fetched=int(data.get("fetched", 0)),
            candidates=[CandidateScore.from_dict(c)
                        for c in data.get("candidates", ())],
            allocation=[AllocationScore.from_dict(a)
                        for a in data.get("allocation", ())],
            refinement=[RefinementEvent.from_dict(r)
                        for r in data.get("refinement", ())],
            deferred_first=bool(data.get("deferred_first", False)),
            late_arrival=bool(data.get("late_arrival", False)),
        )


@dataclass(slots=True)
class Explanation:
    """A decision record plus everything that happened to it afterwards."""

    record: DecisionRecord
    later_events: "list[tuple[int, RefinementEvent]]" = field(
        default_factory=list)

    def render(self) -> str:
        """The human narrative ``repro explain`` prints."""
        # Imported lazily: repro.bench pulls the engine at package init,
        # and the engine's bundle module imports this one.
        from repro.bench.reporting import ascii_table

        record = self.record
        lines: "list[str]" = []
        rung = rung_label(record.rung)
        if not record.placed:
            lines.append(
                f"message {record.msg_id} was {record.outcome.value} at "
                f"admission (rung {rung}, seq {record.seq}); it never "
                "reached the indexing pipeline")
            return "\n".join(lines)
        headline = (f"message {record.msg_id} -> bundle "
                    f"{record.bundle_id} ({record.outcome.value}, "
                    f"rung {rung}, seq {record.seq})")
        if record.deferred_first:
            headline += " [deferred at admission, drained from backlog]"
        if record.late_arrival:
            headline += (" [late arrival, past the reorder watermark; "
                         "placed via the deterministic late-path]")
        lines.append(headline)
        mode_bits = [f"skeleton={'yes' if record.skeleton else 'no'}"]
        if record.candidate_cap is not None:
            mode_bits.append(f"candidate cap={record.candidate_cap}")
        if record.threshold is not None:
            mode_bits.append(f"match threshold={record.threshold:g}")
        lines.append("mode: " + ", ".join(mode_bits))
        lines.append("")
        if record.candidates:
            lines.append(ascii_table(
                ["bundle", "urls", "tags", "kws", "rt", "Eq.1 score",
                 "picked"],
                [[c.bundle_id, c.shared_urls, c.shared_hashtags,
                  c.shared_keywords, "yes" if c.rt_hit else "-",
                  f"{c.score:.4f}", "*" if c.selected else ""]
                 for c in record.candidates],
                title="Algorithm 1 - candidate bundles (Eq. 1)"))
        if record.outcome is IngestOutcome.FOLDED:
            lines.append("Algorithm 1 - skipped: the ingest guard folded "
                         "this near-duplicate into its original's bundle")
        elif record.fetched:
            scored = len(record.candidates)
            line = (f"Algorithm 1 - {scored} of {record.fetched} fetched "
                    "candidates scored")
            if scored < record.fetched:
                capped = (record.candidate_cap is not None
                          and record.fetched > record.candidate_cap)
                line += ("; the rest "
                         + ("fell past the candidate cap, " if capped
                            else "")
                         + "were closed or could not reach "
                           "max(best, threshold)")
            lines.append(line)
        else:
            lines.append("Algorithm 1 - no candidate bundle fetched")
        if record.outcome is IngestOutcome.NEW_BUNDLE:
            lines.append(f"opened fresh bundle {record.bundle_id}")
        lines.append("")
        if record.allocation:
            lines.append(ascii_table(
                ["member", "U (Eq.2)", "H (Eq.3)", "T (Eq.4)", "rt",
                 "S (Eq.5)", "chosen"],
                [[a.member_id, f"{a.url:.3f}", f"{a.hashtag:.3f}",
                  f"{a.time:.3f}", "yes" if a.rt_hit else "-",
                  f"{a.score:.4f}", "*" if a.chosen else ""]
                 for a in record.allocation],
                title="Algorithm 2 - in-bundle allocation (Eq. 2-5)"))
        else:
            lines.append("Algorithm 2 - first member: no prior message "
                         "to align with (root of the bundle)")
        lines.append("")
        if record.parent_id is not None:
            chosen = next((a for a in record.allocation if a.chosen), None)
            score_text = (f" (S={chosen.score:.4f})"
                          if chosen is not None else "")
            lines.append(f"placement: connected to parent "
                         f"{record.parent_id} via {record.edge_kind} "
                         f"edge{score_text}")
        else:
            lines.append("placement: root message (no provenance edge)")
        if record.refinement:
            lines.append("refinement triggered by this ingest:")
            for event in record.refinement:
                lines.append(f"  - bundle {event.bundle_id} {event.reason} "
                             f"(G={event.g_score:.3f}, "
                             f"size {event.size})")
        for seq, event in self.later_events:
            lines.append(f"afterwards: bundle {event.bundle_id} left the "
                         f"pool at seq {seq} ({event.reason}, "
                         f"G={event.g_score:.3f}, size {event.size})")
        return "\n".join(lines)


#: Buffered JSONL lines per write to the audit sink.
FLUSH_EVERY = 64


class AuditLog:
    """First-in first-out ring of ingest decision records.

    Parameters
    ----------
    capacity:
        Ring bound.  When full, the oldest record is evicted (counted in
        ``dropped``), and the eviction history that only it could still
        explain goes with it, so memory stays proportional to
        ``capacity``.
    sink:
        Optional JSONL path.  Records are buffered and appended in
        batches of :data:`FLUSH_EVERY` (the supervisor also flushes through
        the :class:`~repro.obs.TelemetryFlusher` cadence); lines carry
        no wall-clock fields, so two seeded runs produce byte-identical
        files.
    """

    def __init__(self, *, capacity: int = 4096,
                 sink: "str | os.PathLike[str] | None" = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.sink = Path(sink) if sink is not None else None
        self.recorded = 0
        self.dropped = 0  # records evicted from the ring
        self._ring: "deque[DecisionRecord]" = deque()
        self._index: "dict[int, DecisionRecord]" = {}
        self._evictions: "deque[tuple[int, RefinementEvent]]" = deque()
        self._seq = 0
        self._buffer: "list[str]" = []
        self._handle: "IO[str] | None" = None

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording ----------------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def record_decision(self, *, msg_id: int, outcome: IngestOutcome,
                        rung: int = 0,
                        bundle_id: "int | None" = None,
                        parent_id: "int | None" = None,
                        edge_kind: "str | None" = None,
                        skeleton: bool = False,
                        candidate_cap: "int | None" = None,
                        threshold: "float | None" = None,
                        fetched: int = 0,
                        candidates: "list[CandidateScore] | None" = None,
                        allocation: "list[AllocationScore] | None" = None,
                        refinement: "list[RefinementEvent] | None" = None,
                        ) -> DecisionRecord:
        """Record one placement (or refusal) decision."""
        deferred_first = False
        late_arrival = False
        ring = self._ring
        prior = self._index.get(msg_id)
        if prior is not None and not prior.placed:
            if prior.outcome is IngestOutcome.DEFERRED:
                # The admission refusal resolved into a real placement:
                # the placement record supersedes it, flagged as
                # backlog-drained.
                deferred_first = True
            elif prior.outcome is IngestOutcome.LATE:
                # The guard's late-path verdict resolved into a real
                # placement the same way.
                late_arrival = True
            if deferred_first or late_arrival:
                ring.remove(prior)  # indexed, so still ringed
        seq = self._next_seq()
        # Built positionally, in field order: matching sixteen keywords
        # costs three times the construction itself.  Score lists are
        # stored as tuples: tuples of immutables get untracked by the
        # cyclic GC, which matters when thousands of records sit in the
        # ring across collector generations.
        record = DecisionRecord(
            seq, msg_id, outcome, rung, bundle_id, parent_id, edge_kind,
            skeleton, candidate_cap, threshold, fetched,
            tuple(candidates) if candidates else (),
            tuple(allocation) if allocation else (),
            tuple(refinement) if refinement else (),
            deferred_first, late_arrival)
        ring.append(record)
        self._index[msg_id] = record
        self.recorded += 1
        if refinement:
            for event in refinement:
                self._evictions.append((seq, event))
        if self.sink is not None:  # to_dict is not free; skip unsinked
            self._emit(record.to_dict())
        if len(ring) > self.capacity:
            victim = ring.popleft()
            self.dropped += 1
            if self._index.get(victim.msg_id) is victim:
                del self._index[victim.msg_id]
            # explain() reads only evictions after a ringed record.
            oldest = ring[0].seq
            evictions = self._evictions
            while evictions and evictions[0][0] <= oldest:
                evictions.popleft()
        return record

    def record_refusal(self, msg_id: int, outcome: IngestOutcome,
                       rung: int) -> DecisionRecord:
        """Record an arrival refused at admission (shed or deferred)."""
        return self.record_decision(msg_id=msg_id, outcome=outcome,
                                    rung=rung)

    def record_evictions(self, events: "list[RefinementEvent]",
                         *, rung: int = 0) -> None:
        """Record bundle evictions outside an ingest (watermark sheds)."""
        if not events:
            return
        seq = self._next_seq()
        for event in events:
            self._evictions.append((seq, event))
            if self.sink is None:
                continue
            payload = event.to_dict()
            payload["type"] = "refinement"
            payload["seq"] = seq
            payload["rung"] = rung
            self._emit(payload)

    def record_alert(self, payload: dict) -> None:
        """Stamp a quality alert payload with a ``seq`` and sink it."""
        payload["seq"] = self._next_seq()
        self._emit(payload)

    # -- queries ------------------------------------------------------------

    def record_for(self, msg_id: int) -> "DecisionRecord | None":
        """The (latest) decision record of one message, if still ringed."""
        record = self._index.get(msg_id)
        return record.materialize() if record is not None else None

    def tail(self, n: int = 20) -> "list[DecisionRecord]":
        """The most recent ``n`` records, oldest first."""
        if n <= 0:
            return []
        start = max(len(self._ring) - n, 0)
        return [record.materialize()
                for record in islice(self._ring, start, None)]

    def filter(self, *, outcome: "IngestOutcome | str | None" = None,
               rung: "int | None" = None,
               bundle_id: "int | None" = None,
               limit: "int | None" = None) -> "list[DecisionRecord]":
        """Records matching every given criterion, oldest first."""
        wanted = (IngestOutcome(outcome)
                  if outcome is not None else None)
        matched = [
            record for record in self._ring
            if (wanted is None or record.outcome is wanted)
            and (rung is None or record.rung == rung)
            and (bundle_id is None or record.bundle_id == bundle_id)
        ]
        if limit is not None and limit >= 0:
            matched = matched[max(len(matched) - limit, 0):]
        return [record.materialize() for record in matched]

    def explain(self, msg_id: int) -> "Explanation | None":
        """The decision narrative of one message (``None`` if unringed)."""
        record = self._index.get(msg_id)
        if record is None:
            return None
        later = [(seq, event) for seq, event in self._evictions
                 if seq > record.seq and record.bundle_id is not None
                 and event.bundle_id == record.bundle_id]
        return Explanation(record=record.materialize(), later_events=later)

    # -- JSONL sink ---------------------------------------------------------

    def _emit(self, payload: dict) -> None:
        if self.sink is None:
            return
        self._buffer.append(json.dumps(payload, sort_keys=True))
        if len(self._buffer) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Write buffered lines to the sink (no-op without one)."""
        if self.sink is None or not self._buffer:
            return
        if self._handle is None:
            self.sink.parent.mkdir(parents=True, exist_ok=True)
            # Truncate: the sink is this log's transcript, not a shared
            # append target — re-running a seeded replay must reproduce
            # the file byte-for-byte, not double it.
            self._handle = self.sink.open("w", encoding="utf-8")
        self._handle.write("\n".join(self._buffer) + "\n")
        self._handle.flush()
        self._buffer.clear()

    def close(self) -> None:
        """Final flush + close (idempotent)."""
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def explain_from_jsonl(path: "str | os.PathLike[str]",
                       msg_id: int) -> "Explanation | None":
    """Rebuild one message's :class:`Explanation` from a JSONL audit log.

    Uses the *last* decision line for the message (a deferred arrival
    followed by its drained placement yields two lines; the placement
    wins) plus every later eviction touching its bundle — whether
    recorded inline in other decisions or as standalone refinement
    lines.
    """
    record: "DecisionRecord | None" = None
    events: "list[tuple[int, RefinementEvent]]" = []
    for data in read_jsonl(path):
        kind = data.get("type")
        if kind == "decision":
            if data.get("msg_id") == msg_id:
                record = DecisionRecord.from_dict(data)
            for event_data in data.get("refinement", ()):
                events.append((int(data["seq"]),
                               RefinementEvent.from_dict(event_data)))
        elif kind == "refinement":
            events.append((int(data["seq"]),
                           RefinementEvent.from_dict(data)))
    if record is None:
        return None
    later = [(seq, event) for seq, event in events
             if seq > record.seq and record.bundle_id is not None
             and event.bundle_id == record.bundle_id]
    return Explanation(record=record, later_events=later)
