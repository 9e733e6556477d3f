"""Tests for the decision-audit layer (AuditLog + DecisionRecord)."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.core import engine as engine_module
from repro.core import scoring
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.obs import AuditLog, IngestOutcome, Observability, Tracer
from repro.obs.audit import (CandidateScore, DecisionRecord, Explanation,
                             RefinementEvent, explain_from_jsonl, rung_label)
from repro.reliability.overload import (REDUCED_CANDIDATE_CAP, HealthState,
                                        OverloadController)
from tests.conftest import make_message


def rt_chain():
    """The canonical 3-message retweet chain of the acceptance test."""
    return [
        make_message(1, "breaking: #quake hits the bay area",
                     user="alice", hours=0.0),
        make_message(2, "RT @alice: breaking: #quake hits the bay area",
                     user="bob", hours=0.1),
        make_message(3, "RT @bob: RT @alice: breaking: #quake hits "
                        "the bay area", user="carol", hours=0.2),
    ]


def audited_engine(**kwargs):
    audit = kwargs.pop("audit", None)
    if audit is None:  # not `or`: an empty AuditLog is falsy (len 0)
        audit = AuditLog()
    obs = Observability(audit=audit, tracer=kwargs.pop("tracer", None))
    engine = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=15),
                               obs=obs, **kwargs)
    return engine, audit


class TestRTChainAcceptance:
    """The audit record of each ingest must match its IngestResult exactly."""

    def test_records_mirror_ingest_results(self):
        engine, audit = audited_engine()
        messages = rt_chain()
        results = [engine.ingest(message) for message in messages]

        assert audit.recorded == 3
        for message, result in zip(messages, results):
            record = audit.record_for(message.msg_id)
            assert record is not None
            assert record.msg_id == result.msg_id
            assert record.bundle_id == result.bundle_id
            expected = (IngestOutcome.NEW_BUNDLE if result.created_bundle
                        else IngestOutcome.MATCHED)
            assert record.outcome is expected
            if result.edge is None:
                assert record.parent_id is None
                assert record.edge_kind is None
            else:
                assert record.parent_id == result.edge.as_pair()[1]
                assert record.edge_kind == result.edge.kind.value
            assert record.rung == 0
            assert not record.skeleton
            assert record.candidate_cap == engine_module.MAX_CANDIDATES
            assert record.threshold == scoring.MIN_MATCH_SCORE

    @mock.patch.object(engine_module, "MAX_CANDIDATES", 5)
    @mock.patch.object(scoring, "MIN_MATCH_SCORE", 1.25)
    def test_records_read_the_constants_selection_reads(self):
        engine, audit = audited_engine()
        for message in rt_chain():
            engine.ingest(message)
        assert {(record.candidate_cap, record.threshold)
                for record in audit.tail(3)} == {(5, 1.25)}

    def test_algorithm_evidence_in_records(self):
        engine, audit = audited_engine()
        results = [engine.ingest(message) for message in rt_chain()]

        first = audit.record_for(1)
        assert not first.candidates     # empty index: nothing scored
        assert not first.allocation     # root member: nothing to align

        for msg_id, result in ((2, results[1]), (3, results[2])):
            record = audit.record_for(msg_id)
            # Algorithm 1: the joined bundle is among the scored
            # candidates and is the (only) selected row.
            selected = [c for c in record.candidates if c.selected]
            assert [c.bundle_id for c in selected] == [result.bundle_id]
            assert all(isinstance(c, CandidateScore)
                       for c in record.candidates)
            # Algorithm 2: the chosen parent row matches the edge, and
            # its Eq. 5 score is the edge's recorded score exactly.
            chosen = [a for a in record.allocation if a.chosen]
            assert len(chosen) == 1
            assert chosen[0].member_id == result.edge.as_pair()[1]
            assert chosen[0].score == result.edge.score
            assert chosen[0].score == max(
                a.score for a in record.allocation)

    def test_trace_and_audit_share_the_outcome_vocabulary(self):
        tracer = Tracer(sample_rate=1.0, seed=0)
        engine, audit = audited_engine(tracer=tracer)
        for message in rt_chain():
            engine.ingest(message)
        traces = list(tracer.finished)
        records = audit.tail(3)
        assert len(traces) == len(records) == 3
        for trace, record in zip(traces, records):
            assert trace.tags["msg_id"] == record.msg_id
            # Same enum value on both sides — they cannot disagree.
            assert trace.outcome == record.outcome.value
            assert trace.tags["bundle_id"] == record.bundle_id

    def test_explain_renders_the_full_narrative(self):
        engine, audit = audited_engine()
        results = [engine.ingest(message) for message in rt_chain()]
        text = audit.explain(2).render()
        assert (f"message 2 -> bundle {results[1].bundle_id}"
                in text)
        assert "Algorithm 1" in text and "Eq. 1" in text
        assert "Algorithm 2" in text and "Eq. 2-5" in text
        assert f"connected to parent {results[1].edge.as_pair()[1]}" in text
        root = audit.explain(1).render()
        assert "no candidate bundle fetched" in root
        assert "opened fresh bundle" in root
        assert "root message (no provenance edge)" in root
        assert audit.explain(999) is None


class TestDegradedRungRecording:
    """Regression: REDUCED / SKELETON decisions carry their rung."""

    def ingest_at(self, state: HealthState):
        engine, audit = audited_engine()
        controller = OverloadController()
        controller.ladder.state = state
        assert controller.apply_mode(engine) is state
        for message in rt_chain():
            engine.ingest(message)
        return engine, audit

    def test_reduced_rung_recorded_with_tightened_cap(self):
        engine, audit = self.ingest_at(HealthState.REDUCED)
        records = audit.tail(3)
        assert all(r.rung == int(HealthState.REDUCED) for r in records)
        assert all(not r.skeleton for r in records)
        cap = min(engine_module.MAX_CANDIDATES, REDUCED_CANDIDATE_CAP)
        assert all(r.candidate_cap == cap for r in records)
        assert rung_label(records[0].rung) == "reduced"

    def test_skeleton_rung_recorded_with_flag(self):
        engine, audit = self.ingest_at(HealthState.SKELETON)
        records = audit.tail(3)
        assert all(r.rung == int(HealthState.SKELETON) for r in records)
        assert all(r.skeleton for r in records)
        assert engine.stats.skeleton_ingests == 3
        assert rung_label(records[0].rung) == "skeleton"
        # The RT ancestry is an exact indicant: the chain still matches.
        matched = [r for r in records
                   if r.outcome is IngestOutcome.MATCHED]
        assert matched, "skeleton mode keeps RT matching alive"

    def test_rung_filter_splits_normal_from_degraded(self):
        engine, audit = audited_engine()
        engine.ingest(make_message(1, "#alpha start", hours=0.0))
        controller = OverloadController()
        controller.ladder.state = HealthState.REDUCED
        controller.apply_mode(engine)
        engine.ingest(make_message(2, "#alpha follow-up", hours=0.1))
        assert [r.msg_id for r in audit.filter(rung=0)] == [1]
        assert [r.msg_id for r in audit.filter(
            rung=int(HealthState.REDUCED))] == [2]


class TestRefusalRecords:
    def test_shed_and_deferred_records(self):
        audit = AuditLog()
        audit.record_refusal(7, IngestOutcome.SHED,
                             int(HealthState.SHED_ONLY))
        audit.record_refusal(8, IngestOutcome.DEFERRED,
                             int(HealthState.REDUCED))
        assert [(r.msg_id, r.placed) for r in audit.tail(2)] == [
            (7, False), (8, False)]
        shed = audit.record_for(7)
        assert not shed.placed
        assert shed.outcome is IngestOutcome.SHED
        assert shed.rung == int(HealthState.SHED_ONLY)
        text = audit.explain(7).render()
        assert "shed at admission" in text
        assert "never reached the indexing pipeline" in text

    def test_drained_placement_supersedes_the_deferral(self):
        engine, audit = audited_engine()
        audit.record_refusal(1, IngestOutcome.DEFERRED,
                             int(HealthState.REDUCED))
        engine.ingest(make_message(1, "#alpha finally admitted",
                                   hours=0.0))
        record = audit.record_for(1)
        assert record.placed
        assert record.deferred_first
        assert record.outcome is IngestOutcome.NEW_BUNDLE
        # The refusal line left the ring; one record per message.
        assert sum(1 for r in audit.tail(100) if r.msg_id == 1) == 1
        assert "deferred at admission, drained from backlog" in (
            audit.explain(1).render())


class TestRingEviction:
    def test_capacity_evicts_the_oldest_records(self):
        audit = AuditLog(capacity=8)
        engine, _ = audited_engine(audit=audit)
        # Disjoint topics: fresh bundle each, pool_size=15 forces
        # refinement to evict old bundles as the stream runs.
        for i in range(80):
            engine.ingest(make_message(
                i, f"#only{i} standalone story number {i}",
                user=f"u{i}", hours=i * 0.05))
        assert len(audit) == 8
        assert audit.dropped == 72
        assert [r.msg_id for r in audit.tail(100)] == list(range(72, 80))
        assert audit.record_for(71) is None
        assert audit.explain(71) is None
        assert engine.obs.registry.value("repro_audit_dropped_total") == 72

    def test_hot_topic_ring_holds_capacity_records(self):
        audit = AuditLog(capacity=2)
        engine, _ = audited_engine(audit=audit)
        # One hot topic: everything lands in one pooled bundle, and the
        # ring still keeps only the newest two records.
        for i in range(6):
            engine.ingest(make_message(i, f"#hot shared topic {i}",
                                       user=f"u{i}", hours=i * 0.01))
        assert len(engine.pool) == 1
        assert len(audit) == 2
        assert audit.dropped == 4
        assert [r.msg_id for r in audit.tail(6)] == [4, 5]

    def test_eviction_history_is_trimmed_with_the_ring(self):
        audit = AuditLog(capacity=4)
        engine, _ = audited_engine(audit=audit)
        for i in range(300):
            engine.ingest(make_message(
                i, f"#only{i} standalone story number {i}",
                user=f"u{i}", hours=i * 0.05))
        assert engine.stats.refinements > 0
        oldest = audit.tail(1 + len(audit))[0].seq
        assert audit._evictions
        assert all(seq > oldest for seq, _ in audit._evictions)
        # Each event is one bundle leaving a pool of at most 15 after
        # the oldest ringed ingest, or one a later ingest created.
        assert len(audit._evictions) <= 15 + len(audit)

    def test_refinement_events_reach_records_and_explanations(self):
        engine, audit = audited_engine()
        for i in range(60):
            engine.ingest(make_message(
                i, f"#only{i} standalone story number {i}",
                user=f"u{i}", hours=i * 0.05))
        assert engine.stats.refinements > 0
        refined = [r for r in audit.tail(60) if r.refinement]
        assert len(refined) == engine.stats.refinements
        event = refined[0].refinement[0]
        assert isinstance(event, RefinementEvent)
        assert event.reason in {"tiny", "closed", "ranked", "shed"}
        # A message whose bundle was later evicted explains the loss.
        evicted_bundles = {e.bundle_id
                           for r in refined for e in r.refinement}
        explained = [audit.explain(r.msg_id) for r in audit.tail(60)
                     if r.bundle_id in evicted_bundles
                     and r.placed]
        narratives = [e.render() for e in explained if e is not None
                      and e.later_events]
        assert narratives
        assert "left the pool" in narratives[0]


class TestBoundSettlement:
    """The record says what the max-score bound settled."""

    @pytest.fixture(scope="class")
    def dense_records(self):
        from tests.core.selection_golden import dense_stream

        audit = AuditLog(capacity=10_000)
        engine = ProvenanceIndexer(IndexerConfig.partial_index(200),
                                   obs=Observability(audit=audit))
        engine.ingest_batch(dense_stream(), count_only=True)
        return audit.tail(len(audit))

    def test_pruned_candidates_are_counted_not_scored(self, dense_records):
        records = dense_records
        record = next(r for r in records
                      if r.outcome is IngestOutcome.MATCHED
                      and 0 < len(r.candidates) < r.fetched
                      <= r.candidate_cap)
        text = Explanation(record).render()
        assert (f"Algorithm 1 - {len(record.candidates)} of "
                f"{record.fetched} fetched candidates scored; the rest "
                "were closed or could not reach max(best, threshold)"
                ) in text
        assert "candidate bundles (Eq. 1)" in text
        assert record.to_dict()["fetched"] == record.fetched
        assert DecisionRecord.from_dict(
            record.to_dict()).fetched == record.fetched

    def test_every_candidate_pruned_reads_as_settled(self, dense_records):
        records = dense_records
        record = next(r for r in records
                      if not r.candidates and r.fetched)
        assert record.outcome is IngestOutcome.NEW_BUNDLE
        text = Explanation(record).render()
        assert (f"Algorithm 1 - 0 of {record.fetched} fetched candidates "
                "scored") in text
        assert f"opened fresh bundle {record.bundle_id}" in text
        assert "no candidate bundle" not in text

    def test_fully_scored_gather_names_no_rest(self, dense_records):
        records = dense_records
        record = next(r for r in records
                      if 0 < len(r.candidates) == r.fetched)
        text = Explanation(record).render()
        assert (f"Algorithm 1 - {record.fetched} of {record.fetched} "
                "fetched candidates scored\n") in text
        assert "the rest" not in text

    def test_folded_record_says_selection_was_skipped(self):
        engine, audit = audited_engine()
        first, second, _ = rt_chain()
        placed = engine.ingest(first)
        engine.ingest_folded(second, placed.bundle_id, first.msg_id)
        record = audit.record_for(second.msg_id)
        assert record.outcome is IngestOutcome.FOLDED
        assert record.fetched == 0
        text = audit.explain(second.msg_id).render()
        assert "Algorithm 1 - skipped" in text
        assert "opened fresh bundle" not in text

    def test_capped_gather_names_the_cap(self, dense_records):
        records = dense_records
        record = next(r for r in records if r.fetched > r.candidate_cap)
        assert ("the rest fell past the candidate cap, were closed or "
                "could not reach max(best, threshold)") in (
            Explanation(record).render())


class TestMaterializeSemantics:
    def test_materialize_is_idempotent_and_lazy(self):
        engine, audit = audited_engine()
        for message in rt_chain():
            engine.ingest(message)
        raw = audit._ring[-1]
        # The hot path stored raw tuples, not row objects.
        assert isinstance(raw.candidates, tuple)
        first = raw.materialize()
        assert first is raw
        rows = first.candidates
        assert all(isinstance(c, CandidateScore) for c in rows)
        assert raw.materialize().candidates is rows  # second pass: no-op

    def test_new_bundle_record_selects_no_candidate(self):
        engine, audit = audited_engine()
        engine.ingest(make_message(1, "#alpha topic one", hours=0.0))
        # Unrelated message: candidates may score, none above threshold.
        engine.ingest(make_message(2, "completely different #beta story",
                                   user="x", hours=0.1))
        record = audit.record_for(2)
        if record.outcome is IngestOutcome.NEW_BUNDLE:
            assert not any(c.selected for c in record.candidates)


class TestJsonlSink:
    def test_round_trip_preserves_every_field(self, tmp_path):
        sink = tmp_path / "audit.jsonl"
        audit = AuditLog(sink=sink)
        engine, _ = audited_engine(audit=audit)
        results = [engine.ingest(message) for message in rt_chain()]
        audit.close()
        lines = [json.loads(line)
                 for line in sink.read_text().splitlines()]
        decisions = [d for d in lines if d["type"] == "decision"]
        assert len(decisions) == 3
        for data, result in zip(decisions, results):
            rebuilt = DecisionRecord.from_dict(data)
            original = audit.record_for(result.msg_id)
            assert rebuilt.to_dict() == original.to_dict()

    def test_two_seeded_runs_are_byte_identical_determinism(self, tmp_path):
        def run(path):
            audit = AuditLog(sink=path)
            engine, _ = audited_engine(audit=audit)
            for i in range(120):
                engine.ingest(make_message(
                    i, f"#topic{i % 7} message body {i} "
                       f"http://e.com/{i % 11}",
                    user=f"u{i % 13}", hours=i * 0.01))
            audit.close()
            return path.read_bytes()

        first = run(tmp_path / "a.jsonl")
        second = run(tmp_path / "b.jsonl")
        assert first == second
        assert first  # non-empty: the comparison is meaningful

    def test_rerunning_the_same_sink_truncates(self, tmp_path):
        sink = tmp_path / "audit.jsonl"
        for _ in range(2):
            audit = AuditLog(sink=sink)
            engine, _ = audited_engine(audit=audit)
            for message in rt_chain():
                engine.ingest(message)
            audit.close()
        decisions = [line for line in sink.read_text().splitlines()
                     if json.loads(line)["type"] == "decision"]
        assert len(decisions) == 3  # not doubled

    def test_explain_from_jsonl_matches_the_ring(self, tmp_path):
        sink = tmp_path / "audit.jsonl"
        audit = AuditLog(sink=sink)
        engine, _ = audited_engine(audit=audit)
        for message in rt_chain():
            engine.ingest(message)
        audit.close()
        offline = explain_from_jsonl(sink, 3)
        online = audit.explain(3)
        assert offline is not None
        assert offline.render() == online.render()
        assert explain_from_jsonl(sink, 999) is None


class TestValidation:
    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            AuditLog(capacity=0)

    def test_audit_metrics_are_exported(self):
        engine, audit = audited_engine()
        for message in rt_chain():
            engine.ingest(message)
        value = engine.obs.registry.value
        assert value("repro_audit_dropped_total") == 0
