"""Out-of-order arrivals must not disturb pool eviction ordering.

Regression suite for the late-arrival bug: a message dated far in the
stream's past used to stamp its receiving bundle with that old date,
making a *freshly touched* bundle look idle to Algorithm 3 — instant
eviction bait (tiny deletion, or top ``G(B)`` eviction priority).  The
engine now floors ``bundle.last_update`` at the stream clock on every
insert, in-order streams unaffected, and the floor survives snapshot
round-trips.
"""

from __future__ import annotations

from unittest import mock

from repro.core import pool as pool_module
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.storage.snapshot import load_snapshot, save_snapshot
from tests.conftest import make_message


def config() -> IndexerConfig:
    return IndexerConfig.partial_index(pool_size=10)


class TestArrivalFloor:
    def test_late_new_bundle_is_floored_at_stream_clock(self):
        engine = ProvenanceIndexer(config())
        for i in range(5):
            engine.ingest(make_message(
                i, f"fresh story number {i} about topic{i}", hours=100 + i))
        result = engine.ingest(make_message(
            99, "an ancient unrelated dispatch finally arriving",
            hours=0.0))
        bundle = engine.pool.get(result.bundle_id)
        # The message keeps its (old) date; the bundle does not.
        assert bundle.get(99).date < engine.current_date
        assert bundle.last_update == engine.current_date

    def test_late_match_into_existing_bundle_is_floored(self):
        engine = ProvenanceIndexer(config())
        first = engine.ingest(make_message(
            1, "#quake tremors reported downtown near the harbor",
            hours=0.0))
        engine.ingest(make_message(
            2, "totally different gardening chat about tulips",
            hours=50.0))
        result = engine.ingest(make_message(
            3, "#quake tremors reported downtown near the harbor again",
            hours=1.0))
        assert result.bundle_id == first.bundle_id
        bundle = engine.pool.get(result.bundle_id)
        assert bundle.last_update == engine.current_date

    def test_in_order_streams_are_unchanged(self):
        engine = ProvenanceIndexer(config())
        for i in range(6):
            result = engine.ingest(make_message(
                i, f"steady story number {i} about topic{i % 2}",
                hours=float(i)))
            bundle = engine.pool.get(result.bundle_id)
            # In order, the floor is a no-op: last member date wins.
            assert bundle.last_update == engine.current_date


class TestEvictionOrdering:
    @mock.patch.object(pool_module, "REFINE_AGE", 3600.0)
    def test_late_arrival_is_not_tiny_deletion_bait(self):
        # REFINE_AGE of one hour: anything idle longer than that and
        # smaller than REFINE_TINY_SIZE dies at the next scan.  A late
        # message dated 99 hours back lands a *new* bundle — which must
        # still count as just-touched, not 99 hours idle.
        engine = ProvenanceIndexer(config())
        for i in range(3):
            engine.ingest(make_message(
                i, f"warmup story number {i} about topic{i}",
                hours=99.0 + i * 0.01))
        result = engine.ingest(make_message(
            50, "an ancient unrelated dispatch finally arriving",
            hours=0.0))
        report = engine.pool.refine(engine.current_date,
                                    summary_index=engine.summary_index)
        assert report.deleted_tiny == 0
        assert result.bundle_id in engine.pool

    def test_late_arrival_does_not_jump_eviction_queue(self):
        # Overfilled pool: ranked eviction removes the *stalest* bundle.
        # The bundle just touched by a late message must rank fresher
        # than one untouched for hours, not older.
        engine = ProvenanceIndexer(config())
        stale = engine.ingest(make_message(
            1, "stale topic nobody mentions again ever", hours=0.0))
        for i in range(2, 6):
            engine.ingest(make_message(
                i, f"filler story number {i} about topic{i}",
                hours=40.0 + i))
        late = engine.ingest(make_message(
            60, "a late unrelated dispatch from long ago", hours=1.0))
        assert late.bundle_id != stale.bundle_id
        pool = engine.pool
        late_score = pool._policy_score(pool.get(late.bundle_id),
                                        engine.current_date)
        stale_score = pool._policy_score(pool.get(stale.bundle_id),
                                         engine.current_date)
        assert late_score < stale_score


class TestSnapshotRoundTrip:
    def test_floored_last_update_survives_snapshot(self, tmp_path):
        engine = ProvenanceIndexer(config())
        for i in range(4):
            engine.ingest(make_message(
                i, f"fresh story number {i} about topic{i}",
                hours=100 + i))
        result = engine.ingest(make_message(
            77, "an ancient unrelated dispatch finally arriving",
            hours=0.0))
        path = tmp_path / "state.json"
        save_snapshot(engine, path)
        restored = load_snapshot(path)
        bundle = restored.pool.get(result.bundle_id)
        assert bundle.last_update == engine.current_date
        # And the round trip is exact for every bundle.
        for original in engine.pool:
            twin = restored.pool.get(original.bundle_id)
            assert twin.last_update == original.last_update
