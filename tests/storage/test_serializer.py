"""Tests for bundle/message serialization round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.errors import StorageError
from repro.storage.serializer import (bundle_from_dict, bundle_from_json,
                                      bundle_to_dict, bundle_to_json,
                                      iter_array_json, iter_bundle_json,
                                      iter_object_json,
                                      message_from_dict, message_to_dict)
from tests.conftest import make_message


def build_bundle() -> Bundle:
    bundle = Bundle(7, IndexerConfig())
    bundle.insert(make_message(0, "origin #tag bit.ly/a", user="src"),
                  keywords=frozenset({"origin"}))
    bundle.insert(make_message(1, "RT @src: origin #tag", user="fan",
                               hours=0.5),
                  keywords=frozenset({"origin"}))
    bundle.insert(make_message(2, "more #tag talk", user="other", hours=1.0),
                  keywords=frozenset({"talk"}))
    return bundle


class TestMessageRoundTrip:
    def test_round_trip(self):
        message = make_message(3, "RT @a: hi #tag bit.ly/x", user="b",
                               hours=2, event_id=1, parent_id=0)
        assert message_from_dict(message_to_dict(message)) == message

    def test_round_trip_without_labels(self):
        message = make_message(3, "plain")
        restored = message_from_dict(message_to_dict(message))
        assert restored == message
        assert restored.event_id is None

    def test_malformed_record_raises(self):
        with pytest.raises(StorageError):
            message_from_dict({"id": "x"})


class TestBundleRoundTrip:
    def test_members_preserved_in_order(self):
        bundle = build_bundle()
        restored = bundle_from_dict(bundle_to_dict(bundle))
        assert restored.bundle_id == 7
        assert restored.message_ids() == bundle.message_ids()
        assert restored.messages() == bundle.messages()

    def test_edges_preserved_verbatim(self):
        bundle = build_bundle()
        restored = bundle_from_dict(bundle_to_dict(bundle))
        assert restored.edge_pairs() == bundle.edge_pairs()
        original = {e.src_id: e for e in bundle.edges()}
        for edge in restored.edges():
            assert edge == original[edge.src_id]

    def test_summaries_rebuilt(self):
        bundle = build_bundle()
        restored = bundle_from_dict(bundle_to_dict(bundle))
        assert restored.hashtag_counts == bundle.hashtag_counts
        assert restored.url_counts == bundle.url_counts
        assert restored.keyword_counts == bundle.keyword_counts
        assert restored.user_counts == bundle.user_counts

    def test_time_window_preserved(self):
        bundle = build_bundle()
        restored = bundle_from_dict(bundle_to_dict(bundle))
        assert restored.start_time == bundle.start_time
        assert restored.end_time == bundle.end_time
        assert restored.last_update == bundle.last_update

    def test_keywords_preserved(self):
        bundle = build_bundle()
        restored = bundle_from_dict(bundle_to_dict(bundle))
        for msg_id in bundle.message_ids():
            assert restored.keywords_of(msg_id) == bundle.keywords_of(msg_id)

    def test_closed_flag_preserved(self):
        bundle = build_bundle()
        bundle.close()
        assert bundle_from_dict(bundle_to_dict(bundle)).closed

    def test_restored_bundle_accepts_new_messages(self):
        bundle = build_bundle()
        restored = bundle_from_dict(bundle_to_dict(bundle))
        edge = restored.insert(make_message(9, "late #tag arrival",
                                            user="late", hours=2))
        assert edge is not None
        assert edge.dst_id in set(bundle.message_ids())

    def test_json_round_trip(self):
        bundle = build_bundle()
        restored = bundle_from_json(bundle_to_json(bundle))
        assert restored.edge_pairs() == bundle.edge_pairs()
        assert len(restored) == len(bundle)

    def test_empty_bundle_round_trip(self):
        bundle = Bundle(1)
        restored = bundle_from_json(bundle_to_json(bundle))
        assert len(restored) == 0
        assert restored.bundle_id == 1


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(StorageError):
            bundle_from_json("{not json")

    def test_non_object_json(self):
        with pytest.raises(StorageError):
            bundle_from_json("[1, 2]")

    def test_missing_fields(self):
        with pytest.raises(StorageError):
            bundle_from_dict({"v": 1})

    def test_unsupported_version(self):
        record = bundle_to_dict(build_bundle())
        record["v"] = 99
        with pytest.raises(StorageError):
            bundle_from_dict(record)


def encode_record(record) -> str:
    """The whole-record encoding the chunked encoders must add up to."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False))
_RECORDS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


class TestStreamedEncoder:
    """The chunked encoders are ``encode_record`` of the whole, cut up."""

    @given(fields=st.dictionaries(st.text(max_size=2), _RECORDS, max_size=4),
           key=st.text(max_size=2), items=st.lists(_RECORDS, max_size=40))
    def test_object_with_one_streamed_array(self, fields, key, items):
        fields.pop(key, None)
        chunks = list(iter_object_json(fields, key, iter_array_json(items)))
        assert "".join(chunks) == encode_record({**fields, key: items})
        assert all(isinstance(chunk, str) for chunk in chunks)

    @given(rows=st.lists(st.lists(_RECORDS, max_size=3), max_size=3))
    def test_array_of_streamed_items(self, rows):
        nested = iter_array_json(iter_array_json(row) for row in rows)
        assert "".join(nested) == encode_record(rows)

    def test_records_are_encoded_a_few_at_a_time(self):
        # What keeps a large state from existing as one string, without
        # paying one encoder call per message of a small bundle.
        small = list(iter_bundle_json(build_bundle()))
        assert len(small) == 4  # head, the 3 messages, "]", tail
        assert "".join(small) == bundle_to_json(build_bundle())

        big = Bundle(8, IndexerConfig())
        for index in range(40):
            big.insert(make_message(index, f"#tag message {index}",
                                    user=f"u{index}", hours=index * 0.01))
        chunks = list(iter_bundle_json(big))
        assert len(chunks) == 1 + 3 + 2  # 40 messages in runs of <= 16
        assert max(map(len, chunks[1:])) < len(bundle_to_json(big)) / 2
        assert bundle_from_json("".join(chunks)).message_ids() == \
            big.message_ids()

    def test_dict_form_is_the_json_form(self):
        bundle = build_bundle()
        assert encode_record(bundle_to_dict(bundle)) == bundle_to_json(bundle)
