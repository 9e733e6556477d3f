"""The unified ``Indexer`` protocol every serving backend implements.

There are three ways to run the paper's engine — in-process
(:class:`~repro.core.engine.ProvenanceIndexer`), supervised with a WAL
(:class:`~repro.reliability.supervisor.ResilientIndexer`) and as a
multiprocess shard fleet
(:class:`~repro.runtime.coordinator.ShardedRuntime`).  This module pins
their shared surface down as a :class:`typing.Protocol` so callers can
swap backends without code changes, and ``mypy --strict`` can catch
drift.

The surface (see ``docs/api.md`` for the backend-selection guide):

``ingest(message)``
    Route one message; returns its :class:`IngestResult` (or ``None``
    when an admission-controlled backend shed or deferred it).
``ingest_batch(messages, *, count_only=False)``
    Ingest a date-ordered batch; returns the per-message results, or
    just the accepted count when ``count_only=True`` (the hot path —
    no result list is accumulated).
``search(raw_query, k=10)``
    Ranked Eq. 7 retrieval over the live pool: ``BundleHit`` s in
    process, ``HitRow`` values from a fleet.
``snapshot()``
    Point-in-time :class:`~repro.core.engine.MemorySnapshot` accounting.
``stats()``
    Unified counter mapping with exactly :data:`STATS_KEYS` keys.
``edge_pairs()``
    The cumulative provenance edge ledger (Section VI-B's currency).
``close()`` / context manager
    Release resources; every backend supports ``with backend: ...``.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Iterable, Protocol,
                    runtime_checkable)

if TYPE_CHECKING:
    from repro.core.engine import IngestResult, MemorySnapshot
    from repro.core.message import Message
    from repro.query.bundle_search import BundleHit, HitRow

__all__ = ["Indexer", "STATS_KEYS", "open_indexer"]

#: The exact key set every backend's ``stats()`` mapping carries.
#: ``shard_count`` is 1 for single-engine backends; the remaining keys
#: mirror :class:`~repro.core.engine.EngineStats` (summed across shards
#: where applicable).
STATS_KEYS: frozenset[str] = frozenset({
    "messages_ingested",
    "bundles_created",
    "bundles_matched",
    "edges_created",
    "refinements",
    "bundles_closed",
    "skeleton_ingests",
    "shard_count",
})


@runtime_checkable
class Indexer(Protocol):
    """What every serving backend promises (see module docstring).

    ``runtime_checkable`` so ``isinstance(backend, Indexer)`` verifies
    the method surface at runtime (signatures are enforced statically
    by ``mypy --strict`` and behaviourally by
    ``tests/test_api_conformance.py``).
    """

    def ingest(self, message: "Message") -> "IngestResult | None":
        """Ingest one message; ``None`` only if shed/deferred."""
        ...

    def ingest_batch(self, messages: "Iterable[Message]", *,
                     count_only: bool = False,
                     ) -> "list[IngestResult] | int":
        """Ingest a date-ordered batch.

        Returns the accepted messages' results in input order (shed or
        deferred messages are skipped), or only their count when
        ``count_only=True``.
        """
        ...

    def search(self, raw_query: str, k: int = 10,
               ) -> "list[BundleHit] | list[HitRow]":
        """Ranked Eq. 7 retrieval; merged across shards where sharded.

        In-process backends return lazy :class:`BundleHit` s holding the
        live bundle; the fleet returns :class:`HitRow` values, the same
        read surface without ``bundle``.
        """
        ...

    def snapshot(self) -> "MemorySnapshot":
        """Point-in-time memory accounting (summed across shards)."""
        ...

    def stats(self) -> "dict[str, int]":
        """Unified counters; keys are exactly :data:`STATS_KEYS`."""
        ...

    def edge_pairs(self) -> "set[tuple[int, int]]":
        """Cumulative (src, dst) provenance connections discovered."""
        ...

    def close(self) -> None:
        """Flush and release resources; idempotent."""
        ...

    def __enter__(self) -> "Indexer":
        ...

    def __exit__(self, *exc_info: object) -> None:
        ...


def open_indexer(backend: str = "engine", **options: Any) -> Indexer:
    """Build an :class:`Indexer` backend by name.

    Parameters
    ----------
    backend:
        ``"engine"`` | ``"resilient"`` | ``"runtime"``.
    options:
        Forwarded to the backend constructor.  ``"resilient"`` requires
        ``root=`` (a directory for WAL + spill store) and accepts
        ``config=``; ``"runtime"`` requires ``root=`` and ``workers=``
        and accepts ``router=`` and ``config=``.

    The imports are local so opening one backend never imports the
    others (the engine needs no ``multiprocessing``).
    """
    if backend == "engine":
        from repro.core.engine import ProvenanceIndexer
        return ProvenanceIndexer(**options)
    if backend == "resilient":
        from repro.reliability.supervisor import ResilientIndexer
        return ResilientIndexer.open(**options)
    if backend == "runtime":
        from repro.runtime.coordinator import ShardedRuntime
        return ShardedRuntime(**options)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of engine, "
        f"resilient, runtime")
