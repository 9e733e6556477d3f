"""Bundle and message (de)serialization.

Bundles round-trip through plain dicts (JSON-compatible) so the on-disk
store and the snapshot module share one format.  Reconstruction rebuilds
the bundle *verbatim* — member order, edges, keyword assignments and
summary counters — rather than re-running Algorithm 2, so a reloaded
bundle is bit-identical to the evicted one.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from itertools import islice
from typing import Any

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.connection import Connection, ConnectionType
from repro.core.errors import StorageError
from repro.core.message import Message, restore_message

__all__ = [
    "message_to_dict",
    "message_from_dict",
    "iter_object_json",
    "iter_array_json",
    "iter_bundle_json",
    "bundle_to_dict",
    "bundle_from_dict",
    "bundle_to_json",
    "bundle_from_json",
]

_FORMAT_VERSION = 1

# One-shot encode: only this form reaches CPython's C encoder (``json.dump``
# walks the object through pure-Python generators), at ~1.5 us a call — so
# arrays are encoded a few records at a time, in strings of a few KB.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_RECORDS_PER_CHUNK = 16


def iter_object_json(fields: Mapping[str, Any], key: str,
                     chunks: Iterable[str]) -> Iterator[str]:
    """Compact sorted-key JSON of ``{**fields, key: ...}`` in chunks, the
    value of ``key`` being ``chunks``: a large state never exists whole."""
    head = {k: v for k, v in fields.items() if k < key}
    tail = _encode({k: v for k, v in fields.items() if k > key})
    yield _encode({**head, key: 0})[:-2]  # ``key`` sorts last: cut "0}"
    yield from chunks
    yield ("," if len(tail) > 2 else "") + tail[1:]


def iter_array_json(items: Iterable[Any]) -> Iterator[str]:
    """A JSON array in chunks: of items that are all chunk iterators (spliced
    in) or all plain records (encoded ``_RECORDS_PER_CHUNK`` at a time)."""
    lead, items = "[", iter(items)
    for item in items:
        if isinstance(item, Iterator):
            yield lead
            yield from item
        else:
            run = [item, *islice(items, _RECORDS_PER_CHUNK - 1)]
            yield lead + _encode(run)[1:-1]
        lead = ","
    yield "]" if lead == "," else "[]"


def message_to_dict(message: Message) -> dict[str, Any]:
    """Plain-dict form of a message (hashtags/urls as sorted lists)."""
    record: dict[str, Any] = {
        "id": message.msg_id,
        "user": message.user,
        "date": message.date,
        "text": message.text,
        "tags": sorted(message.hashtags),
        "urls": sorted(message.urls),
        "rt": list(message.rt_users),
    }
    if message.event_id is not None:
        record["event"] = message.event_id
    if message.parent_id is not None:
        record["parent"] = message.parent_id
    return record


def message_from_dict(record: Mapping[str, Any]) -> Message:
    """Rebuild a message from :func:`message_to_dict` output.

    Like :func:`~repro.core.message.parse_message`, it shares the one
    empty indicant set and every recently seen indicant value.
    """
    try:
        return restore_message(
            int(record["id"]), str(record["user"]), float(record["date"]),
            str(record["text"]), record.get("tags") or (),
            record.get("urls") or (), record.get("rt", ()),
            record.get("event"), record.get("parent"))
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed message record: {exc}") from exc


def iter_bundle_json(bundle: Bundle) -> Iterator[str]:
    """The bundle's JSON record (store and snapshot form) in chunks."""
    return iter_object_json({
        "v": _FORMAT_VERSION,
        "id": bundle.bundle_id,
        "closed": bundle.closed,
        "keywords": {
            str(msg_id): sorted(bundle.keywords_of(msg_id))
            for msg_id in bundle.message_ids()
            if bundle.keywords_of(msg_id)
        },
        "edges": [
            {"src": e.src_id, "dst": e.dst_id, "kind": e.kind.value,
             "score": e.score}
            for e in bundle.edges()
        ],
        # Arrival floor, not derivable from member dates: a late
        # (out-of-order) insert raises last_update to the engine's
        # current date, and _register_member would otherwise recompute
        # the stale member maximum on restore — diverging crash
        # recovery from the uninterrupted run.
        "last_update": bundle.last_update,
    }, "messages", iter_array_json(
        message_to_dict(m) for m in bundle.messages()))


def bundle_to_dict(bundle: Bundle) -> dict[str, Any]:
    """Plain-dict form of a bundle (messages in arrival order)."""
    return json.loads(bundle_to_json(bundle))


def bundle_from_dict(record: Mapping[str, Any],
                     config: IndexerConfig | None = None) -> Bundle:
    """Rebuild a bundle verbatim from :func:`bundle_to_dict` output."""
    try:
        version = record.get("v", _FORMAT_VERSION)
        if version != _FORMAT_VERSION:
            raise StorageError(f"unsupported bundle format version {version}")
        bundle = Bundle(int(record["id"]), config)
        keywords = {
            int(msg_id): frozenset(words)
            for msg_id, words in record.get("keywords", {}).items()
        }
        edges = {
            int(edge["src"]): Connection(
                src_id=int(edge["src"]),
                dst_id=int(edge["dst"]),
                kind=ConnectionType(edge["kind"]),
                score=float(edge["score"]),
            )
            for edge in record.get("edges", ())
        }
        for message_record in record["messages"]:
            message = message_from_dict(message_record)
            # Reuse the bundle's own bookkeeping without re-running
            # Algorithm 2: reconstruction must not re-derive edges
            # (weights may have changed between runs), so the recorded
            # edge is attached verbatim.
            bundle._register_member(
                message, keywords.get(message.msg_id, ()),
                edges.get(message.msg_id))
        if "last_update" in record:  # absent in pre-guard records
            bundle.last_update = max(bundle.last_update,
                                     float(record["last_update"]))
        if bool(record.get("closed", False)):
            bundle.close()
        return bundle
    except StorageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed bundle record: {exc}") from exc


def bundle_to_json(bundle: Bundle) -> str:
    """One-line JSON form (the store's on-disk record body)."""
    return "".join(iter_bundle_json(bundle))


def bundle_from_json(payload: str,
                     config: IndexerConfig | None = None) -> Bundle:
    """Parse :func:`bundle_to_json` output."""
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise StorageError(f"invalid bundle JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise StorageError("bundle JSON must be an object")
    return bundle_from_dict(record, config)
