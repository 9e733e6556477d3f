"""Stream replay with simulated clock and checkpoints (Section VI-A).

The paper's experiments "import the micro-blog messages into the system in
a temporally ordered sequence; the latest message's date is simulated as
the system's current date" and sample series "at each date check point".
:func:`replay` drives an indexer through a stream and invokes a
callback every ``checkpoint_every`` messages — the sampling spine of
Figs. 7, 8, 11, 12 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.engine import ProvenanceIndexer
from repro.core.message import Message

__all__ = ["Checkpoint", "replay"]


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """State sample taken after ``messages_seen`` messages."""

    messages_seen: int
    current_date: float
    bundle_count: int
    message_count_in_memory: int
    memory_bytes: int
    edge_count: int
    total_time: float
    match_time: float
    placement_time: float
    index_update_time: float
    refinement_time: float


def _snapshot(indexer: ProvenanceIndexer, seen: int) -> Checkpoint:
    memory = indexer.snapshot()
    timers = indexer.timers
    return Checkpoint(
        messages_seen=seen,
        current_date=indexer.current_date,
        bundle_count=memory.bundle_count,
        message_count_in_memory=memory.message_count,
        memory_bytes=memory.total_bytes,
        edge_count=len(indexer.edge_pairs()),
        total_time=timers.total,
        match_time=timers.bundle_match,
        placement_time=timers.message_placement,
        index_update_time=timers.index_update,
        refinement_time=timers.memory_refinement,
    )


def replay(
    messages: Iterable[Message],
    indexer: ProvenanceIndexer,
    *,
    checkpoint_every: int = 10_000,
    on_checkpoint: Callable[[Checkpoint], None] | None = None,
) -> list[Checkpoint]:
    """Feed ``messages`` (date-ordered) into one indexer.

    Returns the list of checkpoints, always including a final one at the
    end of the stream.
    """
    checkpoints: list[Checkpoint] = []
    seen = 0
    for message in messages:
        indexer.ingest(message)
        seen += 1
        if checkpoint_every > 0 and seen % checkpoint_every == 0:
            point = _snapshot(indexer, seen)
            checkpoints.append(point)
            if on_checkpoint is not None:
                on_checkpoint(point)
    if not checkpoints or checkpoints[-1].messages_seen != seen:
        point = _snapshot(indexer, seen)
        checkpoints.append(point)
        if on_checkpoint is not None:
            on_checkpoint(point)
    return checkpoints
