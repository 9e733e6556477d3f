"""Dataset persistence: save/load message streams as TSV.

The on-disk format is a header line, then one message row per line
(:func:`~repro.core.message.encode_row`, the record the WAL and the
quarantine log store too): tab-separated ``msg_id, user, date, event_id,
parent_id, text`` with tabs/newlines inside the user and the text
escaped.  Entities (hashtags, URLs, RT markers) are *not* stored; they
are re-extracted on load via :func:`~repro.core.message.parse_message`,
so a dataset file is exactly the raw stream the paper's crawler would
have produced.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.errors import StreamError
from repro.core.message import Message, decode_row, encode_row
from repro.reliability.fsio import write_atomic

__all__ = ["save_tsv", "load_tsv", "iter_tsv"]

_HEADER = "msg_id\tuser\tdate\tevent_id\tparent_id\ttext"


def save_tsv(messages: Iterable[Message], path: "str | os.PathLike[str]") -> int:
    """Write a stream to ``path``; return the number of messages written.

    The write is atomic (:func:`~repro.reliability.fsio.write_atomic`),
    so a crashed run never leaves a half-written dataset behind.
    """
    count = 0

    def lines() -> Iterator[str]:
        nonlocal count
        yield _HEADER + "\n"
        for message in messages:
            yield encode_row(message) + "\n"
            count += 1

    write_atomic(path, lines())
    return count


def iter_tsv(path: "str | os.PathLike[str]") -> Iterator[Message]:
    """Stream messages from a TSV dataset file in file order."""
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != _HEADER:
            raise StreamError(
                f"{source}: unexpected header {header!r}")
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                message = decode_row(line)
            except ValueError as exc:
                raise StreamError(
                    f"{source}:{line_no}: malformed record: {exc}") from exc
            yield message


def load_tsv(path: "str | os.PathLike[str]") -> list[Message]:
    """Load a whole TSV dataset into memory."""
    return list(iter_tsv(path))
