"""Whole-indexer snapshot and restore (an extension beyond the paper).

A snapshot freezes the full in-memory state of a
:class:`~repro.core.engine.ProvenanceIndexer` — pooled bundles, the
simulated clock, counters and the edge ledger — into one JSON file, so a
long replay can be paused and resumed, or an indexed stream shipped to
another process.  The summary index is *not* stored: it is derivable, and
rebuilding it from the pooled bundles on restore keeps the format small
and forward-compatible.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.errors import StorageError
from repro.reliability.fsio import write_atomic
from repro.storage.serializer import (bundle_from_dict, iter_array_json,
                                      iter_bundle_json, iter_object_json)

__all__ = ["save_snapshot", "load_snapshot", "load_snapshot_with_meta"]

_FORMAT_VERSION = 1
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
        "config": _config_to_dict(indexer.config),
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
    if not isinstance(state, dict) or state.get("v") != _FORMAT_VERSION:
        raise StorageError(f"{source}: unsupported snapshot format")

    config = _config_from_dict(state.get("config", {}))
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


def _config_to_dict(config: IndexerConfig) -> dict[str, object]:
    return {
        "url_weight": config.url_weight,
        "hashtag_weight": config.hashtag_weight,
        "time_weight": config.time_weight,
        "keyword_weight": config.keyword_weight,
        "rt_weight": config.rt_weight,
        "min_match_score": config.min_match_score,
        "max_pool_size": config.max_pool_size,
        "refine_trigger": config.refine_trigger,
        "refine_age": config.refine_age,
        "refine_tiny_size": config.refine_tiny_size,
        "refine_target_fraction": config.refine_target_fraction,
        "max_bundle_size": config.max_bundle_size,
        "max_candidates": config.max_candidates,
        "max_keywords": config.max_keywords,
        "keyword_hit_cap": config.keyword_hit_cap,
        "alloc_window": config.alloc_window,
        "refine_policy": config.refine_policy,
    }


def _config_from_dict(record: dict[str, object]) -> IndexerConfig:
    try:
        return IndexerConfig(**record)  # type: ignore[arg-type]
    except TypeError as exc:
        raise StorageError(f"snapshot config mismatch: {exc}") from exc
