"""JSONL crawler-format adapter.

The paper's dataset was collected "through Twitter's API"; crawler output
is one JSON object per line.  This module reads and writes that shape so
real crawls (or crawl-shaped exports) can feed the indexer directly:

Accepted record fields (per line):

``id`` / ``id_str``           message id (int or numeric string)
``user`` / ``screen_name``    author (``user`` may be an object with a
                              ``screen_name`` key, as the API returns)
``created_at`` / ``timestamp`` POSIX seconds, or an integer string
``text``                      the message body (entities re-extracted)
``event_id`` / ``parent_id``  optional ground-truth labels

Unknown fields are ignored; malformed lines raise
:class:`~repro.core.errors.StreamError` with the line number.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.errors import StreamError
from repro.core.message import Message, parse_message
from repro.reliability.fsio import write_atomic

__all__ = ["save_jsonl", "iter_jsonl", "load_jsonl", "record_to_message"]


def record_to_message(record: "dict[str, Any]", *,
                      line_no: int | None = None) -> Message:
    """Build a message from one crawler JSON record."""
    where = f" at line {line_no}" if line_no is not None else ""
    try:
        raw_id = record.get("id", record.get("id_str"))
        if raw_id is None:
            raise KeyError("id")
        msg_id = int(raw_id)

        user: Any = record.get("user", record.get("screen_name"))
        if isinstance(user, dict):
            user = user.get("screen_name")
        if not user:
            raise KeyError("user")

        raw_date = record.get("created_at", record.get("timestamp"))
        if raw_date is None:
            raise KeyError("created_at")
        date = float(raw_date)

        text = record.get("text")
        if text is None:
            raise KeyError("text")

        return parse_message(
            msg_id, str(user), date, str(text),
            event_id=record.get("event_id"),
            parent_id=record.get("parent_id"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamError(f"malformed JSONL record{where}: {exc}") from exc


def save_jsonl(messages: Iterable[Message],
               path: "str | os.PathLike[str]") -> int:
    """Write messages as crawler-shaped JSONL; returns the count.

    Atomic (:func:`~repro.reliability.fsio.write_atomic`), like the TSV
    writer.
    """
    count = 0

    def lines() -> Iterator[str]:
        nonlocal count
        for message in messages:
            record: dict[str, Any] = {
                "id": message.msg_id,
                "user": {"screen_name": message.user},
                "created_at": message.date,
                "text": message.text,
            }
            if message.event_id is not None:
                record["event_id"] = message.event_id
            if message.parent_id is not None:
                record["parent_id"] = message.parent_id
            yield json.dumps(record, separators=(",", ":"),
                             sort_keys=True) + "\n"
            count += 1

    write_atomic(path, lines())
    return count


def iter_jsonl(path: "str | os.PathLike[str]") -> Iterator[Message]:
    """Stream messages from a JSONL file in file order."""
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamError(
                    f"{source}:{line_no}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise StreamError(
                    f"{source}:{line_no}: record must be an object")
            yield record_to_message(record, line_no=line_no)


def load_jsonl(path: "str | os.PathLike[str]") -> list[Message]:
    """Load a whole JSONL dataset into memory."""
    return list(iter_jsonl(path))
