"""Tests for whole-indexer snapshot/restore."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import StorageError
from repro.storage.serializer import bundle_to_json
from repro.storage.snapshot import (load_snapshot, load_snapshot_with_meta,
                                    save_snapshot)
from tests import snapshot_oracle
from tests.conftest import make_message


def build_indexer() -> ProvenanceIndexer:
    indexer = ProvenanceIndexer(IndexerConfig.partial_index(pool_size=50))
    for index in range(30):
        indexer.ingest(make_message(index, f"#topic{index % 4} message",
                                    user=f"u{index % 6}", hours=index * 0.1))
    return indexer


class TestSnapshotRoundTrip:
    def test_bundle_count_preserved(self, tmp_path):
        indexer = build_indexer()
        path = tmp_path / "state.json"
        saved = save_snapshot(indexer, path)
        restored = load_snapshot(path)
        assert saved == len(indexer.pool)
        assert len(restored.pool) == len(indexer.pool)

    def test_edges_preserved(self, tmp_path):
        indexer = build_indexer()
        path = tmp_path / "state.json"
        save_snapshot(indexer, path)
        restored = load_snapshot(path)
        assert restored.edge_pairs() == indexer.edge_pairs()

    def test_stats_preserved(self, tmp_path):
        indexer = build_indexer()
        path = tmp_path / "state.json"
        save_snapshot(indexer, path)
        restored = load_snapshot(path)
        assert restored.stats == indexer.stats

    def test_clock_preserved(self, tmp_path):
        indexer = build_indexer()
        path = tmp_path / "state.json"
        save_snapshot(indexer, path)
        assert load_snapshot(path).current_date == indexer.current_date

    def test_config_preserved(self, tmp_path):
        indexer = build_indexer()
        path = tmp_path / "state.json"
        save_snapshot(indexer, path)
        assert load_snapshot(path).config == indexer.config

    def test_restored_indexer_continues_identically(self, tmp_path):
        """The critical property: restore is behaviourally transparent."""
        indexer = build_indexer()
        path = tmp_path / "state.json"
        save_snapshot(indexer, path)
        restored = load_snapshot(path)

        follow_up = [make_message(100 + i, f"#topic{i % 4} follow-up",
                                  user=f"v{i}", hours=4 + i * 0.1)
                     for i in range(10)]
        for message in follow_up:
            original_result = indexer.ingest(message)
            restored_result = restored.ingest(message)
            assert original_result.bundle_id == restored_result.bundle_id
            assert original_result.edge == restored_result.edge
        assert restored.edge_pairs() == indexer.edge_pairs()

    def test_bundle_id_sequence_continues(self, tmp_path):
        indexer = build_indexer()
        path = tmp_path / "state.json"
        save_snapshot(indexer, path)
        restored = load_snapshot(path)
        fresh = restored.pool.create_bundle()
        assert fresh.bundle_id not in {
            b.bundle_id for b in indexer.pool}


# Written by ``save_snapshot`` at the last commit that still had
# ``IndexerConfig.postings_backend`` (by a ``"dict"`` engine): the field
# was never serialised, so removing it changed nothing on disk.
_PARENT_SNAPSHOT = (
    '{"bundles":[{"closed":false,"edges":[{"dst":0,"kind":"rt",'
    '"score":3.1333333333333333,"src":1}],"id":0,"keywords":{"0":["flood",'
    '"storm","warn"],"1":["flood","storm","warn"]},'
    '"last_update":1249086600.0,"messages":[{"date":1249084800.0,"id":0,'
    '"rt":[],"tags":["storm"],"text":"#storm flood warning","urls":[],'
    '"user":"alice"},{"date":1249086600.0,"id":1,"rt":["alice"],'
    '"tags":["storm"],"text":"RT @alice: #storm flood warning","urls":[],'
    '"user":"bob"}],"v":1}],"config":{"alloc_window":64,'
    '"hashtag_weight":0.8,"keyword_hit_cap":2,"keyword_weight":0.2,'
    '"max_bundle_size":null,"max_candidates":64,"max_keywords":6,'
    '"max_pool_size":50,"min_match_score":1.0,"refine_age":172800.0,'
    '"refine_policy":"g","refine_target_fraction":0.8,"refine_tiny_size":3,'
    '"refine_trigger":50,"rt_weight":2.0,"time_weight":0.5,'
    '"url_weight":1.0},"current_date":1249086600.0,"edges":[[1,0]],'
    '"next_bundle_id":1,"stats":{"bundles_closed":0,"bundles_created":1,'
    '"bundles_matched":1,"edges_created":1,"messages_ingested":2,'
    '"refinements":0},"v":1}')

# The same state saved in format 2: the config block holds the
# IndexerConfig fields only.
_RESAVED_SNAPSHOT = (
    '{"bundles":[{"closed":false,"edges":[{"dst":0,"kind":"rt",'
    '"score":3.1333333333333333,"src":1}],"id":0,"keywords":{"0":["flood",'
    '"storm","warn"],"1":["flood","storm","warn"]},'
    '"last_update":1249086600.0,"messages":[{"date":1249084800.0,"id":0,'
    '"rt":[],"tags":["storm"],"text":"#storm flood warning","urls":[],'
    '"user":"alice"},{"date":1249086600.0,"id":1,"rt":["alice"],'
    '"tags":["storm"],"text":"RT @alice: #storm flood warning","urls":[],'
    '"user":"bob"}],"v":1}],"config":{"hashtag_weight":0.8,'
    '"keyword_weight":0.2,"max_bundle_size":null,"max_pool_size":50,'
    '"refine_policy":"g","refine_target_fraction":0.8,"refine_trigger":50,'
    '"rt_weight":2.0,"time_weight":0.5,"url_weight":1.0},'
    '"current_date":1249086600.0,"edges":[[1,0]],'
    '"next_bundle_id":1,"stats":{"bundles_closed":0,"bundles_created":1,'
    '"bundles_matched":1,"edges_created":1,"messages_ingested":2,'
    '"refinements":0},"v":2}')


class TestParentSnapshot:
    def test_snapshot_from_before_the_layout_verdict_loads(self, tmp_path):
        path = tmp_path / "parent.json"
        path.write_text(_PARENT_SNAPSHOT)
        restored = load_snapshot(path)
        assert restored.config == IndexerConfig.partial_index(pool_size=50)
        assert restored.edge_pairs() == {(1, 0)}
        assert dict(restored.summary_index.postings("hashtag", "storm")) \
            == {0: 2}
        resaved = tmp_path / "resaved.json"
        save_snapshot(restored, resaved)
        assert resaved.read_text() == _RESAVED_SNAPSHOT
        assert load_snapshot(resaved).edge_pairs() == {(1, 0)}

    def test_format_1_with_another_calibration_value_is_refused(
            self, tmp_path):
        from repro.reliability.doctor import scan_snapshot

        path = tmp_path / "parent.json"
        path.write_text(_PARENT_SNAPSHOT.replace('"max_candidates":64',
                                                 '"max_candidates":3'))
        with pytest.raises(StorageError, match="max_candidates"):
            load_snapshot(path)
        scan = scan_snapshot(path)
        assert not scan.ok
        assert "max_candidates" in scan.error


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_snapshot(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(StorageError):
            load_snapshot(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"v": 99}')
        with pytest.raises(StorageError):
            load_snapshot(path)


# Vocabulary for the differential below: separate hashtags make many
# bundles (ids >= 10), the rest exercises JSON escaping, non-ASCII text,
# a decoy ``"id":`` inside a message and keyword-free members.  The
# second shape piles 17+ messages onto one hashtag: a bundle of more
# messages than one encoder call takes.
_EXTRAS = ["http://t.co/a", "RT @amalie:", "stadium ovation", "the a an",
           'say "id":99', "back\\slash", "tab\there", "line\nbreak",
           "naïve café", "日本語 テスト", "😀", " ", "\x01"]


def _arrivals(tokens, **size):
    return st.lists(
        st.tuples(st.lists(tokens, min_size=1, max_size=5).map(" ".join),
                  st.integers(0, 5), st.floats(0.0, 50.0)), **size)


_ARRIVALS = (
    _arrivals(st.sampled_from([f"#t{n}" for n in range(14)] + _EXTRAS),
              max_size=40)
    | _arrivals(st.sampled_from(_EXTRAS), min_size=17,
                max_size=40).map(lambda rows: [
                    (f"#t0 {text}", user, hours)
                    for text, user, hours in rows]))


class TestStreamedEqualsWholeState:
    """``save_snapshot`` streams per record; the file must equal the
    one-``json.dump`` writer in ``tests/snapshot_oracle.py`` byte for
    byte, and load back to a state that saves to the same bytes."""

    @settings(deadline=None)
    @given(arrivals=_ARRIVALS, first_id=st.sampled_from([0, 8, 95]),
           pool_size=st.sampled_from([3, 12, 100]),
           applied_seq=st.none() | st.integers(0, 10**12),
           data=st.data())
    def test_bytes_and_round_trip(self, arrivals, first_id, pool_size,
                                  applied_seq, data):
        indexer = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=pool_size))
        for offset, (text, user, hours) in enumerate(arrivals):
            # Hours are not sorted: late arrivals raise last_update
            # above the member maximum.
            indexer.ingest(make_message(first_id + offset, text,
                                        user=f"u{user}", hours=hours))
        for bundle in indexer.pool:
            if data.draw(st.booleans(), label=f"close {bundle.bundle_id}"):
                bundle.close()
            assert bundle_to_json(bundle) == snapshot_oracle.bundle_json(
                bundle)

        with tempfile.TemporaryDirectory() as scratch:
            streamed = Path(scratch) / "streamed.json"
            whole = Path(scratch) / "whole.json"
            again = Path(scratch) / "again.json"
            assert save_snapshot(indexer, streamed,
                                 applied_seq=applied_seq) == len(indexer.pool)
            snapshot_oracle.write_snapshot(indexer, whole,
                                           applied_seq=applied_seq)
            assert streamed.read_bytes() == whole.read_bytes()

            restored, meta = load_snapshot_with_meta(streamed)
            assert meta["applied_seq"] == applied_seq
            save_snapshot(restored, again, applied_seq=applied_seq)
            assert again.read_bytes() == streamed.read_bytes()
