"""Multiprocess sharded serving runtime.

One coordinator process routes messages onto N worker processes — each
a full resilient stack (indexer + WAL + snapshots + spill store +
admission control) in its own directory — and scatter-gathers queries
with deadline budgets.  See :mod:`repro.runtime.coordinator` for the
design contract; :class:`ShardedRuntime` is itself the fleet's
:class:`repro.api.Indexer` (``open_indexer("runtime")``).
"""

from repro.runtime.coordinator import (RuntimeStats, ShardedRuntime,
                                       WorkerCrash)
from repro.runtime.repair import (BoundaryEntry, BoundaryLog, RepairEntry,
                                  RepairJournal, RepairScan,
                                  scan_fleet_repair)
from repro.runtime.telemetry import merge_worker_dumps
from repro.runtime.worker import WorkerOptions

__all__ = [
    "ShardedRuntime",
    "RuntimeStats",
    "WorkerCrash",
    "WorkerOptions",
    "merge_worker_dumps",
    "BoundaryEntry",
    "BoundaryLog",
    "RepairEntry",
    "RepairJournal",
    "RepairScan",
    "scan_fleet_repair",
]
