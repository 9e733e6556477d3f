"""Tests for the on-disk bundle store."""

from __future__ import annotations

import pytest

from repro.core.bundle import Bundle
from repro.core.errors import (BundleNotFoundError, CorruptSegmentError,
                               StorageError)
from repro.reliability.doctor import repair_store, scan_store
from repro.reliability.faults import Fault, FaultInjector, SimulatedCrash
from repro.reliability.fsio import FileSystem, set_filesystem
from repro.storage.bundle_store import BundleStore
from tests.conftest import make_message


def build_bundle(bundle_id: int, size: int = 3) -> Bundle:
    bundle = Bundle(bundle_id)
    for index in range(size):
        bundle.insert(make_message(
            bundle_id * 100 + index, f"#topic{bundle_id} message {index}",
            user=f"u{index}", hours=index * 0.1))
    return bundle


class TestAppendAndLoad:
    def test_round_trip(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        bundle = build_bundle(1)
        store.append(bundle)
        loaded = store.load(1)
        assert loaded.message_ids() == bundle.message_ids()
        assert loaded.edge_pairs() == bundle.edge_pairs()

    def test_contains_and_len(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        store.append(build_bundle(1))
        store.append(build_bundle(2))
        assert len(store) == 2
        assert 1 in store and 3 not in store

    def test_load_missing_raises(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        with pytest.raises(BundleNotFoundError):
            store.load(9)

    def test_reappend_keeps_latest(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        store.append(build_bundle(1, size=2))
        store.append(build_bundle(1, size=5))
        assert len(store) == 1
        assert len(store.load(1)) == 5
        assert store.append_count == 2

    def test_iter_bundles_ascending(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        for bundle_id in (3, 1, 2):
            store.append(build_bundle(bundle_id))
        assert [b.bundle_id for b in store.iter_bundles()] == [1, 2, 3]

    def test_bundle_ids(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        store.append(build_bundle(5))
        assert store.bundle_ids() == [5]

    def test_invalid_segment_size_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            BundleStore(tmp_path / "store", max_segment_bytes=0)


class TestRotation:
    def test_segments_rotate(self, tmp_path):
        store = BundleStore(tmp_path / "store", max_segment_bytes=2000)
        for bundle_id in range(10):
            store.append(build_bundle(bundle_id, size=4))
        assert store.segment_count() > 1
        # every bundle still readable across segments
        for bundle_id in range(10):
            assert store.load(bundle_id).bundle_id == bundle_id

    def test_total_bytes_positive(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        store.append(build_bundle(1))
        assert store.total_bytes() > 0


class TestRecovery:
    def test_reopen_recovers_offsets(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory, max_segment_bytes=2000)
        for bundle_id in range(8):
            store.append(build_bundle(bundle_id))
        reopened = BundleStore(directory, max_segment_bytes=2000)
        assert len(reopened) == 8
        assert reopened.load(5).bundle_id == 5

    def test_reopen_continues_appending(self, tmp_path):
        directory = tmp_path / "store"
        BundleStore(directory).append(build_bundle(1))
        reopened = BundleStore(directory)
        reopened.append(build_bundle(2))
        assert sorted(reopened.bundle_ids()) == [1, 2]

    def test_corrupt_crc_detected_on_open(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        segment = next(directory.glob("segment-*.log"))
        data = segment.read_bytes()
        segment.write_bytes(b"00000000" + data[8:])
        with pytest.raises(CorruptSegmentError):
            BundleStore(directory)

    def test_truncated_record_detected(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        segment = next(directory.glob("segment-*.log"))
        segment.write_bytes(segment.read_bytes()[:5])
        with pytest.raises(CorruptSegmentError):
            BundleStore(directory)

    def test_empty_directory_is_fine(self, tmp_path):
        store = BundleStore(tmp_path / "fresh")
        assert len(store) == 0
        assert store.segment_count() == 1


class TestTolerantMode:
    def _corrupt_first_record(self, directory) -> None:
        segment = sorted(directory.glob("segment-*.log"))[0]
        data = segment.read_bytes()
        segment.write_bytes(b"00000000" + data[8:])

    def test_strict_open_still_raises(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        for bundle_id in range(3):
            store.append(build_bundle(bundle_id))
        self._corrupt_first_record(directory)
        with pytest.raises(CorruptSegmentError):
            BundleStore(directory)

    def test_clean_store_reports_zero_skips(self, tmp_path):
        store = BundleStore(tmp_path / "store")
        store.append(build_bundle(1))
        reopened = BundleStore(tmp_path / "store")
        assert reopened.skipped_files == 0

    def test_misnamed_segment_counted_and_warned(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        (directory / "segment-zzz.log").write_text("impostor")
        with pytest.warns(RuntimeWarning, match="unparsable segment name"):
            reopened = BundleStore(directory)
        assert reopened.skipped_files == 1
        assert len(reopened) == 1


class _CountingFileSystem(FileSystem):
    """The real filesystem, counting write-mode opens."""

    def __init__(self) -> None:
        self.opens = 0

    def open(self, path, mode="r", *, encoding=None):
        self.opens += "r" not in mode
        return super().open(path, mode, encoding=encoding)


class TestOpenSegment:
    """The active segment stays open between appends."""

    def test_one_open_per_segment_not_per_append(self, tmp_path):
        counting = _CountingFileSystem()
        previous = set_filesystem(counting)
        try:
            store = BundleStore(tmp_path / "store", max_segment_bytes=2_000)
            for bundle_id in range(12):
                store.append(build_bundle(bundle_id))
        finally:
            set_filesystem(previous)
        assert store.segment_count() > 1
        assert counting.opens == store.segment_count()

    def test_record_is_readable_as_soon_as_append_returns(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        for bundle_id in range(3):
            store.append(build_bundle(bundle_id))
            # ... by this store, and by a second opener of the directory
            assert store.load(bundle_id).bundle_id == bundle_id
            assert BundleStore(directory).bundle_ids() == list(
                range(bundle_id + 1))
        assert store.total_bytes() == sum(
            p.stat().st_size for p in directory.glob("segment-*.log"))

    def test_live_offsets_equal_recovered_offsets_across_rotation(
            self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory, max_segment_bytes=1_500)
        for round_ in range(3):
            for bundle_id in range(6):
                store.append(build_bundle(bundle_id, size=1 + round_))
        assert store.segment_count() > 2
        reopened = BundleStore(directory, max_segment_bytes=1_500)
        assert reopened._offsets == store._offsets
        assert reopened._segments == store._segments
        assert reopened.append_count == store.append_count == 18
        # and the reopened store carries on where the first one stopped
        reopened.append(build_bundle(6))
        assert BundleStore(directory)._offsets == reopened._offsets

    def test_decoy_id_in_text_does_not_fool_the_id_pull(self, tmp_path):
        # The open's id pull reads the first '"id":<n>' of the payload;
        # sorted keys put the bundle's own id before any message text.
        bundle = Bundle(7)
        bundle.insert(make_message(70, 'he said "id":99 and {"id":98}'))
        bundle.insert(make_message(71, '"id":97 again #decoy'))
        store = BundleStore(tmp_path / "store")
        store.append(bundle)
        reopened = BundleStore(tmp_path / "store")
        assert reopened.bundle_ids() == [7]
        assert reopened.load(7).get(70).text == bundle.get(70).text


class TestLifecycle:
    def test_close_is_idempotent_and_append_reopens(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.close()  # never opened
        store.append(build_bundle(1))
        store.close()
        store.close()
        assert store._handle is None
        assert store.load(1).bundle_id == 1  # reads need no handle
        store.append(build_bundle(2))  # lazily reopened, offsets right
        assert BundleStore(directory)._offsets == store._offsets

    def test_context_manager_closes(self, tmp_path):
        with BundleStore(tmp_path / "store") as store:
            store.append(build_bundle(1))
            assert store._handle is not None
        assert store._handle is None
        assert BundleStore(tmp_path / "store").bundle_ids() == [1]

    def test_append_after_close_sees_a_foreign_append(self, tmp_path):
        # close() hands the directory over: the size is re-read on reopen.
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        store.close()
        BundleStore(directory).append(build_bundle(2))
        store.append(build_bundle(3))
        assert store.load(3).bundle_id == 3
        assert BundleStore(directory).bundle_ids() == [1, 2, 3]


class TestFailedWrites:
    """A write that fails or tears never corrupts what comes after."""

    def test_failed_append_leaves_no_trace_and_later_offsets_hold(
            self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        # Like the WAL's, a handle is faulted only if it was opened under
        # the injector: hand the segment over first.
        store.close()
        with FaultInjector([Fault(op="write", nth=2, kind="error",
                                  path_part="segment-")]):
            store.append(build_bundle(2))
            with pytest.raises(OSError):
                store.append(build_bundle(3))
            assert store._handle is None  # discarded: next append re-probes
            store.append(build_bundle(4))
        store.append(build_bundle(5))
        assert store.bundle_ids() == [1, 2, 4, 5]
        assert store.append_count == 4
        for bundle_id in store.bundle_ids():
            assert store.load(bundle_id).bundle_id == bundle_id
        reopened = BundleStore(directory)
        assert reopened._offsets == store._offsets

    def test_torn_write_never_surfaces_as_a_record(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        store.close()
        with pytest.raises(SimulatedCrash):
            with FaultInjector([Fault(op="write", nth=1, kind="torn",
                                      keep_bytes=40,
                                      path_part="segment-")]):
                store.append(build_bundle(2, size=4))
        assert 2 not in store

        with pytest.raises(CorruptSegmentError):
            BundleStore(directory)
        # The doctor's repair keeps exactly the intact record.
        [segment] = scan_store(directory).segments
        assert (segment.valid_records, len(segment.corrupt_offsets)) == (1, 1)
        repair_store(directory)
        survivor = BundleStore(directory)
        assert survivor.bundle_ids() == [1]
        survivor.append(build_bundle(3))
        assert survivor.load(3).bundle_id == 3
        later = BundleStore(directory)
        assert later.bundle_ids() == [1, 3]
        for bundle_id in later.bundle_ids():
            assert later.load(bundle_id).bundle_id == bundle_id

    def test_torn_tail_does_not_swallow_the_next_record(self, tmp_path):
        directory = tmp_path / "store"
        store = BundleStore(directory)
        store.append(build_bundle(1))
        store.close()
        with pytest.raises(SimulatedCrash):
            with FaultInjector([Fault(op="write", nth=1, kind="torn",
                                      keep_bytes=40,
                                      path_part="segment-")]):
                store.append(build_bundle(2, size=4))
        # The next append is written and acknowledged behind the fragment.
        store.append(build_bundle(3))
        assert store.load(3).bundle_id == 3
        store.close()

        # Record 3 parses on its own line behind the fragment: the one
        # corrupt record is the fragment, and repair keeps 1 and 3.
        [segment] = scan_store(directory).segments
        assert (segment.valid_records, len(segment.corrupt_offsets)) == (2, 1)
        repair_store(directory)
        reopened = BundleStore(directory)
        assert reopened.bundle_ids() == [1, 3]
        assert reopened.load(3).message_ids() == build_bundle(3).message_ids()
