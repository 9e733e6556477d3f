"""Whole-indexer snapshot and restore (an extension beyond the paper).

A snapshot freezes the full in-memory state of a
:class:`~repro.core.engine.ProvenanceIndexer` — pooled bundles, the
simulated clock, counters and the edge ledger — into one JSON file, so a
long replay can be paused and resumed, or an indexed stream shipped to
another process.  The summary index is *not* stored: it is derivable, and
rebuilding it from the pooled bundles on restore keeps the format small
and forward-compatible.  Format 2 stores the
:class:`~repro.core.config.IndexerConfig` fields as they are; format-1
files still load when their extra calibration values match today's
constants.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.core import bundle as bundle_module
from repro.core import engine as engine_module
from repro.core import pool as pool_module
from repro.core import scoring
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import StorageError
from repro.reliability.fsio import write_atomic
from repro.storage.serializer import (bundle_from_dict, iter_array_json,
                                      iter_bundle_json, iter_object_json)

__all__ = ["save_snapshot", "load_snapshot", "load_snapshot_with_meta"]

_FORMAT_VERSION = 2
#: Format 1 also wrote the calibration values that are now module
#: constants.  Such a file loads only when each value equals its
#: constant; one that differs is refused, never reinterpreted.
_FORMAT_1_CONSTANTS = (
    ("min_match_score", scoring, "MIN_MATCH_SCORE"),
    ("alloc_window", bundle_module, "ALLOC_WINDOW"),
    ("refine_age", pool_module, "REFINE_AGE"),
    ("refine_tiny_size", pool_module, "REFINE_TINY_SIZE"),
    ("max_candidates", engine_module, "MAX_CANDIDATES"),
    ("max_keywords", engine_module, "MAX_KEYWORDS"),
    ("keyword_hit_cap", scoring, "KEYWORD_HIT_CAP"),
)
_STAT_FIELDS = ("messages_ingested", "bundles_created", "bundles_matched",
                "edges_created", "refinements", "bundles_closed")


def save_snapshot(indexer: ProvenanceIndexer,
                  path: "str | os.PathLike[str]", *,
                  applied_seq: "int | None" = None) -> int:
    """Write the indexer's in-memory state to ``path``.

    Returns the number of bundles captured.  The write is atomic
    (temp file + fsync + rename).  ``applied_seq`` lets the WAL layer
    embed the last journal sequence reflected in this state, atomically
    with the state itself — the key to surviving a crash between the
    snapshot rename and the sidecar write.
    """
    state = {
        "v": _FORMAT_VERSION,
        "config": asdict(indexer.config),
        "current_date": indexer.current_date,
        "next_bundle_id": indexer.pool._next_bundle_id,
        "edges": sorted(indexer.edge_pairs()),
        "stats": {name: getattr(indexer.stats, name)
                  for name in _STAT_FIELDS},
    }
    if applied_seq is not None:
        state["applied_seq"] = applied_seq
    write_atomic(path, iter_object_json(state, "bundles", iter_array_json(
        iter_bundle_json(bundle) for bundle in indexer.pool)))
    return len(indexer.pool)


def load_snapshot(path: "str | os.PathLike[str]") -> ProvenanceIndexer:
    """Reconstruct an indexer from :func:`save_snapshot` output.

    The summary index is rebuilt from the restored bundles, so matching
    behaviour after restore is identical to before the snapshot.
    """
    indexer, _ = load_snapshot_with_meta(path)
    return indexer


def load_snapshot_with_meta(
    path: "str | os.PathLike[str]",
) -> "tuple[ProvenanceIndexer, dict[str, object]]":
    """Like :func:`load_snapshot`, also returning format metadata.

    The metadata dict currently carries ``applied_seq`` (the embedded WAL
    high-water mark, ``None`` on snapshots from before it existed).
    """
    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read snapshot {source}: {exc}") from exc
    if not isinstance(state, dict) or state.get("v") not in (1, _FORMAT_VERSION):
        raise StorageError(f"{source}: unsupported snapshot format")

    config = _config_from_dict(state.get("config", {}), state["v"])
    indexer = ProvenanceIndexer(config)
    indexer.current_date = float(state.get("current_date", 0.0))
    for pair in state.get("edges", ()):
        indexer._edge_ledger.add((int(pair[0]), int(pair[1])))
    stats = state.get("stats", {})
    for name in _STAT_FIELDS:
        setattr(indexer.stats, name, int(stats.get(name, 0)))

    for record in state.get("bundles", ()):
        bundle = bundle_from_dict(record, config)
        indexer.pool.adopt(bundle)
        for msg_id in bundle.message_ids():
            message = bundle.get(msg_id)
            assert message is not None
            indexer.summary_index.add_message(
                bundle.bundle_id, message, bundle.keywords_of(msg_id))
    indexer.pool._next_bundle_id = int(
        state.get("next_bundle_id",
                  max((b.bundle_id for b in indexer.pool), default=-1) + 1))
    meta: dict[str, object] = {"applied_seq": state.get("applied_seq")}
    return indexer, meta


def _config_from_dict(record: dict[str, object],
                      version: int) -> IndexerConfig:
    if version == 1 and isinstance(record, dict):
        record = dict(record)
        for name, module, constant in _FORMAT_1_CONSTANTS:
            value = getattr(module, constant)
            found = record.pop(name, value)
            if found != value:
                raise StorageError(
                    f"snapshot config mismatch: format-1 {name}={found!r}, "
                    f"but {constant} is {value!r}")
    try:
        return IndexerConfig(**record)  # type: ignore[arg-type]
    except TypeError as exc:
        raise StorageError(f"snapshot config mismatch: {exc}") from exc
