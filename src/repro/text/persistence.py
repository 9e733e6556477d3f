"""Persistence for the text search engine.

Saves a :class:`~repro.text.search.SearchEngine` — messages, postings and
field maps — to one JSON file and restores it exactly.  Postings are not
serialized term-by-term; instead the messages are stored and re-indexed
on load through the same analyzer configuration, which guarantees the
restored index is bit-identical to a fresh build (and keeps the format
robust to postings-layout changes).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.errors import StorageError
from repro.text.analyzer import Analyzer
from repro.text.search import SearchEngine

# NOTE: repro.storage.serializer is imported lazily inside the functions:
# a module-level import would cycle (text.__init__ -> persistence ->
# storage.__init__ -> snapshot -> core.engine -> text.analyzer).

__all__ = ["save_search_engine", "load_search_engine"]

_FORMAT_VERSION = 1


def save_search_engine(engine: SearchEngine,
                       path: "str | os.PathLike[str]") -> int:
    """Write the engine's corpus + analyzer config; returns message count.

    Atomic (temp file + fsync + rename), streamed like the snapshot.
    """
    from repro.reliability.fsio import write_atomic
    from repro.storage.serializer import (iter_array_json,
                                          iter_object_json, message_to_dict)

    scorer = "bm25" if engine._scorer.__class__.__name__ == "BM25Scorer" \
        else "tfidf"
    messages = sorted(
        (engine.get(msg_id) for msg_id in engine.all_ids()),
        key=lambda m: m.msg_id)
    state = {
        "v": _FORMAT_VERSION,
        "scorer": scorer,
        "analyzer": {
            "min_length": engine.analyzer.min_length,
            "stem": engine.analyzer.stem,
            "extra_stopwords": sorted(
                engine.analyzer.stopwords - Analyzer().stopwords),
        },
    }
    write_atomic(path, iter_object_json(state, "messages", iter_array_json(
        message_to_dict(m) for m in messages)))
    return len(messages)


def load_search_engine(path: "str | os.PathLike[str]") -> SearchEngine:
    """Rebuild a search engine saved by :func:`save_search_engine`."""
    from repro.storage.serializer import message_from_dict

    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read search index {source}: {exc}") \
            from exc
    if not isinstance(state, dict) or state.get("v") != _FORMAT_VERSION:
        raise StorageError(f"{source}: unsupported search-index format")

    analyzer_state = state.get("analyzer", {})
    analyzer = Analyzer(
        stopwords=Analyzer().stopwords
        | frozenset(analyzer_state.get("extra_stopwords", ())),
        min_length=int(analyzer_state.get("min_length", 3)),
        stem=bool(analyzer_state.get("stem", True)),
    )
    engine = SearchEngine(analyzer, scorer=state.get("scorer", "bm25"))
    for record in state.get("messages", ()):
        engine.add(message_from_dict(record))
    return engine
