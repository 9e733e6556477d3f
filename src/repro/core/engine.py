"""The provenance indexing engine (Algorithm 1 + system framework, Fig. 4).

:class:`ProvenanceIndexer` wires together the in-memory processing unit
(summary index + bundle pool), the optional on-disk back-end and the text
analyzer, and exposes the single streaming entry point :meth:`ingest`:

1. **bundle match** — fetch candidate bundles from the summary index,
   score them with Eq. 1, pick the best (or create a fresh bundle),
2. **message placement** — Algorithm 2 inside the chosen bundle,
3. **index update** — register the message's indicants,
4. **memory refinement** — Algorithm 3 when the pool trigger fires.

Every per-stage duration is observed into the engine's
:class:`~repro.obs.MetricsRegistry` (``repro_stage_seconds{stage=…}``),
and :class:`StageTimers` is a *view* over those histograms' sums — the
registry is the one source of truth behind Fig. 12/13, ``repro top``,
the Prometheus export and the overload ladder.  When the engine's
:class:`~repro.obs.Observability` carries a tracer, sampled messages
additionally record a span trace of the pipeline (see
``docs/observability.md`` for the schema).  The ground-truth edge
ledger backs the accuracy/return evaluation of Section VI-B.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

from repro.core import scoring
from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.connection import Connection
from repro.core.errors import (POISON_ERRORS, BundleError,
                               BundleNotFoundError)
from repro.core.message import Message
from repro.core.pool import BundlePool, BundleSink, RefinementReport
from repro.core.scoring import bundle_match_scores, message_similarity
from repro.core.summary_index import SummaryIndex
from repro.obs import (COUNT_BUCKETS, DEFAULT_LATENCY_BUCKETS, Histogram,
                       Observability)
from repro.obs.audit import IngestOutcome, RefinementEvent
from repro.text.analyzer import Analyzer

if TYPE_CHECKING:
    from repro.query.bundle_search import BundleHit, BundleSearchEngine

__all__ = [
    "ProvenanceIndexer",
    "IngestResult",
    "StageTimers",
    "StageSnapshot",
    "EngineStats",
    "MemorySnapshot",
]

#: Keep the cumulative ``(src, dst)`` edge ledger the Section VI-B
#: evaluation reads (one set entry per message).
TRACK_EDGES = True
#: Cap on the candidate bundles fully scored per incoming message (the
#: highest-postings-count candidates are kept).  Keeps Alg. 1 step 2
#: bounded under hot hashtags.
MAX_CANDIDATES = 64
#: Plain-text keywords extracted per message as summary-index indicants.
MAX_KEYWORDS = 6


@dataclass(frozen=True, slots=True)
class StageSnapshot:
    """Immutable per-stage accumulated seconds at one point in time."""

    bundle_match: float = 0.0
    message_placement: float = 0.0
    index_update: float = 0.0
    memory_refinement: float = 0.0

    @property
    def total(self) -> float:
        """Total maintenance time across the four stages."""
        return (self.bundle_match + self.message_placement
                + self.index_update + self.memory_refinement)

    def delta(self, earlier: "StageSnapshot") -> "StageSnapshot":
        """Per-stage seconds accumulated since ``earlier``."""
        return StageSnapshot(*(
            getattr(self, stage) - getattr(earlier, stage)
            for stage in StageTimers.STAGES))


class StageTimers:
    """Accumulated wall-clock seconds per processing stage (Fig. 13).

    A read-only *view* over the engine's ``repro_stage_seconds``
    histograms: each property returns the histogram's running sum minus
    the baseline set by the last :meth:`reset`, so long-lived indexers
    can report per-interval stage costs instead of only cumulative
    totals.  Constructed bare (no histograms) it owns private ones, so
    ``StageTimers()`` keeps working standalone.
    """

    STAGES = ("bundle_match", "message_placement", "index_update",
              "memory_refinement")

    __slots__ = ("_histograms", "_baseline")

    def __init__(self, histograms: "Mapping[str, Histogram] | None" = None,
                 ) -> None:
        if histograms is None:
            histograms = {
                stage: Histogram("repro_stage_seconds",
                                 labels={"stage": stage},
                                 buckets=DEFAULT_LATENCY_BUCKETS)
                for stage in self.STAGES
            }
        self._histograms = dict(histograms)
        self._baseline = dict.fromkeys(self.STAGES, 0.0)

    def observe(self, stage: str, seconds: float) -> None:
        """Record one stage execution (also feeds the latency buckets)."""
        self._histograms[stage].observe(seconds)

    def histogram(self, stage: str) -> Histogram:
        """The underlying latency histogram of one stage."""
        return self._histograms[stage]

    def _value(self, stage: str) -> float:
        return self._histograms[stage].sum - self._baseline[stage]

    @property
    def bundle_match(self) -> float:
        """Seconds in Algorithm 1 candidate fetch + Eq. 1 scoring."""
        return self._value("bundle_match")

    @property
    def message_placement(self) -> float:
        """Seconds in Algorithm 2 placement."""
        return self._value("message_placement")

    @property
    def index_update(self) -> float:
        """Seconds updating the summary index."""
        return self._value("index_update")

    @property
    def memory_refinement(self) -> float:
        """Seconds in Algorithm 3 refinement scans."""
        return self._value("memory_refinement")

    @property
    def total(self) -> float:
        """Total maintenance time (Fig. 12's series)."""
        return self.snapshot().total

    # -- interval accounting ------------------------------------------------

    def snapshot(self) -> StageSnapshot:
        """Immutable copy of the current (since-reset) accumulations."""
        return StageSnapshot(*map(self._value, self.STAGES))

    def interval(self, since: StageSnapshot) -> StageSnapshot:
        """Per-stage seconds accumulated after ``since`` was taken."""
        return self.snapshot().delta(since)

    def reset(self) -> StageSnapshot:
        """Start a new reporting interval; returns the one just closed.

        The underlying histograms are never cleared (their bucket
        counts stay monotonic for the Prometheus export); only this
        view's baseline moves.
        """
        closing = self.snapshot()
        for stage in self.STAGES:
            self._baseline[stage] = self._histograms[stage].sum
        return closing


@dataclass(slots=True)
class EngineStats:
    """Counters the benchmarks and examples report.

    The registry exports each field as a callback-backed counter
    (``repro_messages_ingested_total`` …), so reading the metric and
    reading the field can never disagree.

    Calling the instance returns the unified counter mapping of the
    :class:`repro.api.Indexer` protocol, so ``indexer.stats()`` works on
    every backend while ``indexer.stats.messages_ingested`` keeps
    working on the engine.
    """

    messages_ingested: int = 0
    bundles_created: int = 0
    bundles_matched: int = 0
    edges_created: int = 0
    refinements: int = 0
    bundles_closed: int = 0
    skeleton_ingests: int = 0

    FIELDS = ("messages_ingested", "bundles_created", "bundles_matched",
              "edges_created", "refinements", "bundles_closed",
              "skeleton_ingests")

    def as_dict(self) -> dict[str, int]:
        """The unified ``stats()`` mapping (``repro.api.STATS_KEYS``)."""
        out = {name: getattr(self, name) for name in EngineStats.FIELDS}
        out["shard_count"] = 1
        return out

    def __call__(self) -> dict[str, int]:
        return self.as_dict()


@dataclass(frozen=True, slots=True)
class IngestResult:
    """Outcome of ingesting one message."""

    msg_id: int
    bundle_id: int
    created_bundle: bool
    edge: Connection | None
    refinement: RefinementReport | None = None


class ProvenanceIndexer:
    """Streaming provenance discovery over micro-blog messages.

    Parameters
    ----------
    config:
        Weights and limits; use the
        :class:`~repro.core.config.IndexerConfig` factories to get the
        paper's three experiment variants.
    analyzer:
        Keyword extraction chain; shared with retrieval layers.
    store:
        Optional :class:`~repro.core.pool.BundleSink` receiving evicted /
        closed bundles (the on-disk back-end of Fig. 4).
    obs:
        The engine's :class:`~repro.obs.Observability` (metrics registry
        + optional tracer).  Defaults to a fresh enabled registry with
        tracing off; pass ``Observability.disabled()`` for
        pure-throughput runs (stage timers then read zero).
    """

    def __init__(self, config: IndexerConfig | None = None, *,
                 analyzer: Analyzer | None = None,
                 store: BundleSink | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config or IndexerConfig()
        self.analyzer = analyzer or Analyzer()
        self.store = store
        self.obs = obs or Observability()
        self.summary_index = SummaryIndex()
        self.pool = BundlePool(self.config)
        self.stats = EngineStats()
        self.current_date = 0.0
        self.track_edges = TRACK_EDGES
        self._edge_ledger: set[tuple[int, int]] = set()
        #: Candidate fan-in of the most recent Algorithm 1 run:
        #: ``(bundles hit by postings, bundles fully scored)``.
        self.last_candidate_fanin: tuple[int, int] = (0, 0)
        # Degradation knobs, driven by the overload ladder
        # (:mod:`repro.reliability.overload`).  ``candidate_cap`` tightens
        # the bundle-match fan-in below ``MAX_CANDIDATES`` (REDUCED
        # mode); ``skeleton_matching`` skips keyword extraction and
        # keyword-similarity scoring entirely, matching on the exact
        # indicants only — RT ancestry, URLs, hashtags (SKELETON mode).
        self.candidate_cap: int | None = None
        self.skeleton_matching: bool = False
        #: The admission ladder's current rung as an ``int`` (0=NORMAL),
        #: pushed by :meth:`OverloadController.apply_mode` so every
        #: audit record carries the mode it was decided under.
        self.current_rung: int = 0
        self._searcher: "BundleSearchEngine | None" = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Wire this engine's signals into its registry.

        Counters are callback-backed over :class:`EngineStats` (zero
        hot-path cost); the pool and summary index register their own
        gauges; stage latencies are real histograms observed per ingest.
        """
        registry = self.obs.registry
        stats = self.stats
        for name, field_name, help_text in (
                ("repro_messages_ingested_total", "messages_ingested",
                 "Messages routed through Algorithm 1"),
                ("repro_bundles_created_total", "bundles_created",
                 "Fresh bundles allocated (no candidate matched)"),
                ("repro_bundles_matched_total", "bundles_matched",
                 "Messages placed into an existing bundle"),
                ("repro_edges_created_total", "edges_created",
                 "Provenance connections discovered (Algorithm 2)"),
        ):
            registry.counter(
                name, help=help_text,
                callback=(lambda f=field_name: getattr(stats, f)))
        self._stage_histograms = {
            stage: registry.histogram(
                "repro_stage_seconds", unit="seconds",
                help="Per-stage maintenance latency (Fig. 13's signals)",
                labels={"stage": stage}, buckets=DEFAULT_LATENCY_BUCKETS)
            for stage in StageTimers.STAGES
        }
        self.timers = StageTimers(self._stage_histograms)
        # Candidate fan-in shape: how many bundles Algorithm 1 fetched
        # vs actually scored per ingest.  The gap is what the candidate
        # cap (REDUCED rung included) cut — the scaling wall ROADMAP
        # item 3's prefix-filter pruning attacks.
        fanin_help = ("Per-ingest Algorithm 1 candidate bundles, by "
                      "phase (fetched = postings hits, scored = after "
                      "the candidate cap)")
        self._fanin_fetched_hist = registry.histogram(
            "repro_candidate_fanin", help=fanin_help,
            labels={"phase": "fetched"}, buckets=COUNT_BUCKETS)
        self._fanin_scored_hist = registry.histogram(
            "repro_candidate_fanin", help=fanin_help,
            labels={"phase": "scored"}, buckets=COUNT_BUCKETS)
        self._fanin_capped = registry.counter(
            "repro_candidate_capped_total",
            help="Ingests whose candidate set was cut by the cap")
        self.pool.bind_registry(registry)
        self._pool_memory_gauge = registry.gauge(
            "repro_pool_memory_bytes",
            callback=self.pool.approximate_memory_bytes)
        self._index_memory_gauge = registry.gauge(
            "repro_index_memory_bytes",
            callback=self.summary_index.approximate_memory_bytes)
        if self.store is not None and hasattr(self.store, "bind_registry"):
            self.store.bind_registry(registry)
        tracer = self.obs.tracer
        if tracer is not None:
            registry.counter("repro_traces_offered_total",
                             help="Messages considered for tracing",
                             callback=lambda: tracer.offered)
            registry.counter("repro_traces_sampled_total",
                             help="Messages actually traced",
                             callback=lambda: tracer.sampled)
        audit = self.obs.audit
        if audit is not None:
            registry.counter("repro_audit_dropped_total",
                             help="Audit records evicted from the ring",
                             callback=lambda: audit.dropped)

    # ------------------------------------------------------------------
    # Ingestion — Algorithm 1
    # ------------------------------------------------------------------

    def ingest(self, message: Message) -> IngestResult:
        """Route one incoming message into the provenance index.

        A thin batch-of-one wrapper over :meth:`ingest_batch` (the
        primary ingest spelling); the result is identical to the
        message's entry in a larger batch.  The stream replays in date
        order; the latest message's date becomes the simulated current
        date (Section VI-A).
        """
        results = self.ingest_batch((message,))
        assert isinstance(results, list)
        return results[0]

    def _ingest_one(self, message: Message,
                    keywords: "Collection[str] | None" = None,
                    bundle: "Bundle | None" = None) -> IngestResult:
        """The per-message pipeline — the only copy of it.

        ``keywords`` carries the batch-hoisted analyzer output; ``None``
        (the batch-of-one path, or SKELETON mode where extraction is
        skipped) analyses inline.  Either way the downstream stages see
        exactly the same keywords in the same order (a folded copy
        receives its origin's stored tuple, which iterates in the order
        of the set the origin arrived with).

        ``bundle`` is a destination chosen before the engine saw the
        message (:meth:`ingest_folded`): Algorithm 1 is skipped — no
        ``bundle_match`` stage, timer or fan-in observation (zeros would
        pollute that distribution); outcome ``folded``; audit
        ``candidate_cap=0`` and no candidate rows.  Nothing else differs.

        A message already pooled is refused (:class:`BundleError`)
        before any pool, index, stats or trace change: bundles never
        overlap (Definition 3).  The author's postings list every
        pooled bundle that holds one of the author's messages.
        """
        for bundle_id in self.summary_index.postings("user", message.user):
            holder = self.pool.try_get(bundle_id)
            if holder is not None and message.msg_id in holder:
                raise BundleError(f"message {message.msg_id} already in "
                                  f"bundle {bundle_id}")
        tracer = self.obs.tracer
        trace = (tracer.begin(message.msg_id)
                 if tracer is not None else None)
        cell = self.obs.profile
        audit = self.obs.audit
        candidate_scores: "list | None" = [] if audit is not None else None
        allocation_scores: "list | None" = [] if audit is not None else None
        refinement_events: "list[RefinementEvent] | None" = None
        if self.skeleton_matching:
            # SKELETON mode: keyword extraction and keyword scoring are
            # the expensive, fuzzy part of Eq. 1; under overload the
            # engine falls back to the cheap exact indicants.  Messages
            # ingested this way register no keyword postings — the
            # measurable accuracy cost of the mode.
            keywords = ()
            self.stats.skeleton_ingests += 1
        elif keywords is None:
            keywords = frozenset(
                self.analyzer.keywords(message.text, MAX_KEYWORDS))

        folded = bundle is not None
        created = False
        if bundle is not None:
            self.last_candidate_fanin = (0, 0)
            self.stats.bundles_matched += 1
            t0 = t1 = time.perf_counter()
        else:
            # -- Step 1+2a: fetch candidates, pick the max-scored bundle.
            if cell is not None:
                cell.stage = "bundle_match"
            t0 = time.perf_counter()
            bundle = self._select_bundle(message, keywords,
                                         collect=candidate_scores)
            if bundle is None:
                created = True
                bundle = self.pool.create_bundle()
                self.stats.bundles_created += 1
            else:
                self.stats.bundles_matched += 1
            t1 = time.perf_counter()
            self.timers.observe("bundle_match", t1 - t0)
            fetched, scored = self.last_candidate_fanin
            self._fanin_fetched_hist.observe(fetched)
            self._fanin_scored_hist.observe(scored)
            if scored < fetched:
                self._fanin_capped.inc()

        # -- Step 2b: allocation inside the bundle (Algorithm 2).
        if cell is not None:
            cell.stage = "message_placement"
        edge = bundle.insert(message, keywords, collect=allocation_scores)
        if edge is not None:
            self.stats.edges_created += 1
            if self.track_edges:
                self._edge_ledger.add(edge.as_pair())
        t2 = time.perf_counter()
        self.timers.observe("message_placement", t2 - t1)

        # -- Step 3: update the summary index.
        if cell is not None:
            cell.stage = "index_update"
        self.summary_index.add_message(bundle.bundle_id, message, keywords)
        if (self.config.max_bundle_size is not None
                and len(bundle) >= self.config.max_bundle_size
                and not bundle.closed):
            bundle.close()
            self.stats.bundles_closed += 1
        t3 = time.perf_counter()
        self.timers.observe("index_update", t3 - t2)
        anatomy = self.obs.anatomy
        if anatomy is not None:
            # Post-index-update so touched postings lengths include the
            # message just placed (a brand-new term observes length 1).
            anatomy.observe_ingest(message, keywords, self.summary_index)

        self.current_date = max(self.current_date, message.date)
        # Arrival floor: an out-of-order (late) message must not leave
        # the receiving bundle timestamped in the past — Algorithm 3's
        # G(B) ranks by last_update, so a stale-dated insert (worst: a
        # late message opening a *fresh* bundle) would make the bundle
        # instant eviction bait.  For date-ordered streams
        # current_date == message.date here, so this is a no-op.
        if bundle.last_update < self.current_date:
            bundle.last_update = self.current_date
        self.stats.messages_ingested += 1

        # -- Memory refinement (Algorithm 3) when the trigger fires.
        report = None
        t4 = t3
        if self.pool.needs_refinement():
            if cell is not None:
                cell.stage = "memory_refinement"
            if audit is not None:
                refinement_events = []
            report = self.pool.refine(
                self.current_date, self.summary_index, self.store,
                collect=refinement_events)
            self.stats.refinements += 1
            t4 = time.perf_counter()
            self.timers.observe("memory_refinement", t4 - t3)
        if cell is not None:
            cell.stage = ""

        outcome = (IngestOutcome.FOLDED if folded
                   else IngestOutcome.NEW_BUNDLE if created
                   else IngestOutcome.MATCHED)
        if trace is not None:
            if not folded:
                trace.span("candidate_selection", 0.0, t1 - t0,
                           candidates=fetched, scored=scored,
                           skeleton=self.skeleton_matching)
            placement = trace.span("placement", t1 - t0, t2 - t1,
                                   edge=edge is not None,
                                   parent=(edge.as_pair()[1]
                                           if edge is not None else None))
            if folded:
                placement.tags["folded"] = True
            trace.span("index_update", t2 - t0, t3 - t2,
                       closed=bundle.closed)
            if report is not None:
                trace.span("refinement", t3 - t0, t4 - t3,
                           removed=report.removed,
                           pool_after=report.pool_size_after)
            assert tracer is not None
            tracer.finish(
                trace, duration=t4 - t0,
                msg_id=message.msg_id,
                outcome=outcome.value,
                bundle_id=bundle.bundle_id)

        if audit is not None:
            audit.record_decision(
                msg_id=message.msg_id,
                outcome=outcome,
                rung=self.current_rung,
                bundle_id=bundle.bundle_id,
                parent_id=(edge.dst_id if edge is not None else None),
                edge_kind=(edge.kind.value if edge is not None else None),
                skeleton=self.skeleton_matching,
                candidate_cap=0 if folded else self._scoring_cap(),
                threshold=scoring.MIN_MATCH_SCORE,
                fetched=self.last_candidate_fanin[0],
                candidates=candidate_scores,
                allocation=allocation_scores,
                refinement=refinement_events)

        result = IngestResult(
            msg_id=message.msg_id,
            bundle_id=bundle.bundle_id,
            created_bundle=created,
            edge=edge,
            refinement=report,
        )
        quality = self.obs.quality
        if quality is not None:
            quality.observe(message, result)
        return result

    def ingest_folded(self, message: Message, bundle_id: int,
                      duplicate_of: "int | None" = None) -> IngestResult:
        """Ingest a message whose bundle was chosen before it arrived.

        The ingest guard's near-duplicate join already picked the destination
        (the bundle holding the message this one near-duplicates), so
        Algorithm 1 is skipped; everything after it is the normal
        pipeline (:meth:`_ingest_one`) — Algorithm 2 still aligns the
        message *inside* the bundle, so a duplicate that declares an RT
        keeps its edge.  While ``duplicate_of`` is a member, its
        registered keywords stand in for the copy's (same content by
        construction; skipping the re-analysis is most of the fold's
        speedup).  A target evicted or closed in the meantime degrades
        to the full :meth:`ingest` — deterministically, so WAL replay
        of a journaled fold reproduces the placement: pool state at the
        same sequence number is identical, and snapshots persist
        per-member keywords verbatim.
        """
        bundle = self.pool.try_get(bundle_id)
        if bundle is None or bundle.closed:
            return self.ingest(message)
        keywords = None
        if duplicate_of is not None and not self.skeleton_matching:
            # An origin without registered keywords (or no longer a
            # member) leaves None: _ingest_one analyses the text.
            keywords = bundle.keywords_of(duplicate_of) or None
        return self._ingest_one(message, keywords, bundle)

    #: Messages analysed per hoisted keyword-extraction chunk in
    #: :meth:`ingest_batch` — bounds the buffered slice of a streaming
    #: iterable while amortising the text-analysis stage.
    BATCH_CHUNK = 512

    def ingest_batch(self, messages: "Iterable[Message]", *,
                     count_only: bool = False,
                     ) -> "list[IngestResult] | int":
        """Ingest a date-ordered batch — the primary ingest spelling.

        Returns the per-message results in input order, or just the
        count when ``count_only=True`` (the hot path: no result list is
        accumulated).

        The batch is processed in :data:`BATCH_CHUNK` slices: keyword
        extraction (the stateless analyzer stage) is hoisted and run
        for the whole slice up front, then each message runs
        :meth:`_ingest_one`.  Placement itself stays sequential by
        construction — message *i+1*'s candidate set depends on the
        index and pool updates of message *i* — so results are
        identical to one-at-a-time ingestion, which the conformance
        suite asserts.

        Rejection: the engine refuses a message whose ``msg_id`` is
        already pooled (:class:`BundleError`, pool and index
        untouched).  The batch stops at a refused message (or any
        per-message poison error), with the messages before it placed;
        the error's ``settled`` is what the call would have returned for
        them (their results, or their count under ``count_only``), so a
        caller resumes after it and loses no result.
        """
        results: "list[IngestResult]" = []
        count = 0
        iterator = iter(messages)
        analyze = self.analyzer.keywords
        max_keywords = MAX_KEYWORDS
        while True:
            chunk = list(islice(iterator, self.BATCH_CHUNK))
            if not chunk:
                break
            if self.skeleton_matching:
                # SKELETON mode skips extraction; _ingest_one handles it.
                batch_keywords: "list[frozenset[str] | None]" = (
                    [None] * len(chunk))
            else:
                batch_keywords = [
                    frozenset(analyze(message.text, max_keywords))
                    for message in chunk
                ]
            for message, keywords in zip(chunk, batch_keywords):
                try:
                    result = self._ingest_one(message, keywords)
                except POISON_ERRORS as refused:
                    refused.settled = count if count_only else results
                    raise
                if count_only:
                    count += 1
                else:
                    results.append(result)
        return count if count_only else results

    def _select_bundle(self, message: Message,
                       keywords: Collection[str], *,
                       collect: "list[object] | None" = None,
                       ) -> Bundle | None:
        """Algorithm 1 steps 1-2: best candidate bundle above threshold.

        One :meth:`~repro.core.summary_index.SummaryIndex.
        gather_candidates` call returns every candidate with its
        per-kind postings-hit counts — which *are* the Eq. 1 shared
        counts, because the index keeps one posting per (term, bundle)
        in lockstep with the pool — and one
        :func:`~repro.core.scoring.bundle_match_scores` call picks the
        best of the capped candidates.

        ``collect``, when given, receives the Eq. 1 evidence the audit
        layer records: one flat row per candidate the pruned argmax
        looked up, which ``DecisionRecord.materialize`` turns into
        :class:`~repro.obs.audit.CandidateScore` rows on first read.
        """
        gather = self.summary_index.gather_candidates(message, keywords)
        fetched = len(gather)
        if not fetched:
            self.last_candidate_fanin = (0, 0)
            return None
        cap = self._scoring_cap()
        self.last_candidate_fanin = (fetched, min(fetched, cap))
        return bundle_match_scores(message, gather, cap, self.pool.live(),
                                   self.config, collect)

    def _scoring_cap(self) -> int:
        """Candidates fully scored per message: :data:`MAX_CANDIDATES`,
        tightened by the REDUCED rung's ``candidate_cap``."""
        cap = MAX_CANDIDATES
        return cap if self.candidate_cap is None else min(
            cap, self.candidate_cap)

    # ------------------------------------------------------------------
    # Inspection used by retrieval, metrics and benchmarks
    # ------------------------------------------------------------------

    def bundle(self, bundle_id: int) -> Bundle:
        """Fetch a pooled bundle by id (raises if evicted)."""
        bundle = self.pool.try_get(bundle_id)
        if bundle is None:
            raise BundleNotFoundError(
                f"bundle {bundle_id} is not in the pool (evicted or unknown)")
        return bundle

    def bundles(self) -> "list[Bundle]":
        """All bundles currently pooled in memory."""
        return list(self.pool)

    def edge_pairs(self) -> set[tuple[int, int]]:
        """Cumulative (src, dst) connection pairs this engine discovered.

        Includes edges inside bundles that were later evicted or closed —
        Section VI-B compares what each method *found*, and eviction does
        not un-find a connection.
        """
        return set(self._edge_ledger)

    # ------------------------------------------------------------------
    # Cross-shard edge repair hooks (:mod:`repro.runtime.repair`)
    # ------------------------------------------------------------------

    def best_alignment(self, message: Message,
                       ) -> "tuple[float, float, int] | None":
        """Probe: this engine's best provenance parent for ``message``.

        Runs Algorithm 1 bundle selection followed by Algorithm 2
        candidate-member alignment *without mutating any state* — the
        read side of asynchronous cross-shard edge repair.  Only members
        strictly earlier than ``message`` (by ``(date, msg_id)``) are
        eligible, so probing a peer shard can never produce a
        time-travelling edge.  Returns the winner as
        ``(similarity, member_date, member_msg_id)`` — comparable with
        ``(score, date, -msg_id)`` max-keys after negating the id — or
        ``None`` when no bundle clears Eq. 1 or no member shares an
        indicant.
        """
        keywords = frozenset(
            self.analyzer.keywords(message.text, MAX_KEYWORDS))
        bundle = self._select_bundle(message, keywords)
        if bundle is None:
            return None
        best_key: "tuple[float, float, int] | None" = None
        probe = (message.date, message.msg_id)
        for member in map(bundle._messages.__getitem__,
                          bundle._window_ids(message, keywords)):
            if (member.date, member.msg_id) >= probe:
                continue
            key = (message_similarity(message, member, self.config),
                   member.date, -member.msg_id)
            if best_key is None or key > best_key:
                best_key = key
        if best_key is None:
            return None
        return (best_key[0], best_key[1], -best_key[2])

    def has_edge(self, src_id: int, dst_id: int) -> bool:
        """Ledger membership probe (O(1); used by idempotent repair)."""
        return (src_id, dst_id) in self._edge_ledger

    def repair_edge(self, src_id: int, old_dst: "int | None",
                    new_dst: int) -> bool:
        """Replace ``src_id``'s ledger edge — idempotent, match-on-old.

        The mutation side of asynchronous cross-shard edge repair: flips
        the ledger entry ``(src, old_dst) -> (src, new_dst)`` (or
        installs a fresh edge when ``old_dst`` is ``None``).  Returns
        ``True`` when the ledger changed; a no-op ``False`` means the
        repair was already applied (journal replay, duplicate RPC) or
        superseded by a later one — exactly the idempotence the repair
        journal's replay relies on.  Only the ledger moves: bundle
        membership and the summary index stay untouched, so repeated
        ingest of the stream still reproduces the same placements.
        """
        if not self.track_edges:
            return False
        pair = (src_id, new_dst)
        if pair in self._edge_ledger:
            return False
        if old_dst is not None:
            if (src_id, old_dst) not in self._edge_ledger:
                return False
            self._edge_ledger.discard((src_id, old_dst))
        self._edge_ledger.add(pair)
        return True

    def snapshot(self) -> "MemorySnapshot":
        """Deterministic memory accounting for Fig. 11.

        Reads through the registry's callback gauges — the same series
        ``repro top``, ``repro health`` and the Prometheus export show —
        so the CLI and the benchmarks can never disagree.
        """
        return MemorySnapshot(
            pool_bytes=int(self._pool_memory_gauge.value),
            index_bytes=int(self._index_memory_gauge.value),
            message_count=self.pool.message_count(),
            bundle_count=len(self.pool),
        )

    def search(self, raw_query: str, k: int = 10) -> "list[BundleHit]":
        """Ranked Eq. 7 retrieval over this engine's live pool.

        Lazily constructs one :class:`~repro.query.bundle_search.
        BundleSearchEngine` on first use (a local import — the query
        layer imports this module).
        """
        if self._searcher is None:
            from repro.query.bundle_search import BundleSearchEngine
            self._searcher = BundleSearchEngine(self)
        return self._searcher.search(raw_query, k=k)

    def close(self) -> None:
        """Release resources (:class:`repro.api.Indexer`); idempotent.

        The bare engine owns no OS handles — its optional store sink is
        closed by whoever opened it — so this only drops the lazy
        searcher.
        """
        self._searcher = None

    def __enter__(self) -> "ProvenanceIndexer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True, slots=True)
class MemorySnapshot:
    """Point-in-time memory accounting (Fig. 11a/11b series)."""

    pool_bytes: int
    index_bytes: int
    message_count: int
    bundle_count: int

    @property
    def total_bytes(self) -> int:
        """Pool plus summary-index footprint."""
        return self.pool_bytes + self.index_bytes
