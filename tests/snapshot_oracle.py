"""Whole-state snapshot and bundle-record writers (test oracle only).

These are the serialisers ``repro.storage`` shipped before the durable
write path learnt to stream: a bundle becomes one plain dict, the
snapshot one dict holding every pooled bundle, and ``json.dumps`` /
``json.dump`` encode the lot in one go.  The shipped per-record
streaming encoder (``iter_bundle_json``, ``save_snapshot``) must equal
them to the byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.bundle import Bundle
from repro.core.engine import ProvenanceIndexer
from repro.storage.serializer import message_to_dict


def bundle_record(bundle: Bundle) -> dict[str, Any]:
    """Plain-dict form of a bundle, built field by field."""
    return {
        "v": 1,
        "id": bundle.bundle_id,
        "closed": bundle.closed,
        "messages": [message_to_dict(m) for m in bundle.messages()],
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
        "last_update": bundle.last_update,
    }


def bundle_json(bundle: Bundle) -> str:
    """The store's record body: one ``dumps`` of the whole record."""
    return json.dumps(bundle_record(bundle), separators=(",", ":"),
                      sort_keys=True)


def write_snapshot(indexer: ProvenanceIndexer, path: Path, *,
                   applied_seq: "int | None" = None) -> None:
    """The snapshot file: one ``json.dump`` of the whole state."""
    config = indexer.config
    state = {
        "v": 2,
        "config": {
            "url_weight": config.url_weight,
            "hashtag_weight": config.hashtag_weight,
            "time_weight": config.time_weight,
            "keyword_weight": config.keyword_weight,
            "rt_weight": config.rt_weight,
            "max_pool_size": config.max_pool_size,
            "refine_trigger": config.refine_trigger,
            "refine_target_fraction": config.refine_target_fraction,
            "max_bundle_size": config.max_bundle_size,
            "refine_policy": config.refine_policy,
        },
        "current_date": indexer.current_date,
        "next_bundle_id": indexer.pool._next_bundle_id,
        "edges": sorted(indexer.edge_pairs()),
        "stats": {
            "messages_ingested": indexer.stats.messages_ingested,
            "bundles_created": indexer.stats.bundles_created,
            "bundles_matched": indexer.stats.bundles_matched,
            "edges_created": indexer.stats.edges_created,
            "refinements": indexer.stats.refinements,
            "bundles_closed": indexer.stats.bundles_closed,
        },
        "bundles": [bundle_record(bundle) for bundle in indexer.pool],
    }
    if applied_seq is not None:
        state["applied_seq"] = applied_seq
    with path.open("w", encoding="utf-8") as handle:
        json.dump(state, handle, separators=(",", ":"), sort_keys=True)
