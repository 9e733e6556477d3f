"""Tests for bundle-store compaction."""

from __future__ import annotations

import pytest

from repro.core.bundle import Bundle
from repro.core.errors import StorageError
from repro.storage.bundle_store import BundleStore
from repro.storage.compaction import (compact_store, dead_bytes_fraction)
from tests.conftest import make_message


def build_bundle(bundle_id: int, size: int) -> Bundle:
    bundle = Bundle(bundle_id)
    for index in range(size):
        bundle.insert(make_message(bundle_id * 100 + index,
                                   f"#t{bundle_id} msg {index}",
                                   user=f"u{index}", hours=index * 0.1))
    return bundle


class TestDeadBytesFraction:
    def test_empty_store(self, tmp_path):
        assert dead_bytes_fraction(BundleStore(tmp_path / "s")) == 0.0

    def test_no_superseded_records(self, tmp_path):
        store = BundleStore(tmp_path / "s")
        store.append(build_bundle(1, 2))
        assert dead_bytes_fraction(store) == 0.0

    def test_reappends_counted(self, tmp_path):
        store = BundleStore(tmp_path / "s")
        store.append(build_bundle(1, 2))
        store.append(build_bundle(1, 3))
        assert dead_bytes_fraction(store) == pytest.approx(0.5)


class TestCompaction:
    def test_latest_records_survive(self, tmp_path):
        store = BundleStore(tmp_path / "s")
        store.append(build_bundle(1, 2))
        store.append(build_bundle(2, 3))
        store.append(build_bundle(1, 5))  # supersedes the first record
        compacted, report = compact_store(store)
        assert report.bundles_kept == 2
        assert report.records_dropped == 1
        assert len(compacted.load(1)) == 5
        assert len(compacted.load(2)) == 3

    def test_bytes_reclaimed(self, tmp_path):
        store = BundleStore(tmp_path / "s")
        for _ in range(5):
            store.append(build_bundle(1, 4))
        compacted, report = compact_store(store)
        assert report.bytes_reclaimed > 0
        assert compacted.total_bytes() < report.bytes_before

    def test_directory_path_preserved(self, tmp_path):
        directory = tmp_path / "s"
        store = BundleStore(directory)
        store.append(build_bundle(1, 2))
        compacted, _ = compact_store(store)
        assert compacted.directory == directory
        # no leftover temp dirs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s"]

    def test_compacted_store_reopens(self, tmp_path):
        directory = tmp_path / "s"
        store = BundleStore(directory)
        store.append(build_bundle(1, 2))
        store.append(build_bundle(1, 4))
        compact_store(store)
        reopened = BundleStore(directory)
        assert reopened.bundle_ids() == [1]
        assert len(reopened.load(1)) == 4

    def test_empty_store_compaction(self, tmp_path):
        store = BundleStore(tmp_path / "s")
        compacted, report = compact_store(store)
        assert report.bundles_kept == 0
        assert len(compacted) == 0

    def test_leftover_directories_rejected(self, tmp_path):
        directory = tmp_path / "s"
        store = BundleStore(directory)
        (tmp_path / "s.compact").mkdir()
        with pytest.raises(StorageError):
            compact_store(store)

    def test_multi_segment_compaction(self, tmp_path):
        store = BundleStore(tmp_path / "s", max_segment_bytes=1500)
        for bundle_id in range(6):
            store.append(build_bundle(bundle_id, 3))
            store.append(build_bundle(bundle_id, 4))
        assert store.segment_count() > 1
        compacted, report = compact_store(store)
        assert report.bundles_kept == 6
        assert all(len(compacted.load(i)) == 4 for i in range(6))

    def test_no_segment_is_left_open_across_the_swap(self, tmp_path):
        store = BundleStore(tmp_path / "s")
        store.append(build_bundle(1, 2))
        store.append(build_bundle(1, 3))
        assert store._handle is not None
        compacted, _ = compact_store(store)
        assert store._handle is None
        # The returned store appends into the swapped-in directory.
        compacted.append(build_bundle(2, 2))
        assert BundleStore(tmp_path / "s").bundle_ids() == [1, 2]
