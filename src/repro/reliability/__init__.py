"""Reliability engineering for the always-on indexer.

Five cooperating pieces (all layers over :mod:`repro.storage` and
:mod:`repro.core`):

* :mod:`repro.reliability.faults`     — deterministic fault injection
  (torn writes, ``ENOSPC``, crash-before/after-fsync, crash-mid-rename)
  through the pluggable filesystem of :mod:`repro.reliability.fsio`;
* :mod:`repro.reliability.supervisor` — :class:`ResilientIndexer`, a
  supervisor around the journaled engine with bounded retry + backoff,
  a dead-letter queue for poison messages and watermark-driven load
  shedding;
* :mod:`repro.reliability.doctor`     — offline integrity scanning and
  repair (the ``repro doctor`` command): :func:`scan_log` /
  :func:`repair_log` read a WAL or quarantine log by its owner's parser
  into one :class:`LogScan` report, :func:`scan_store` /
  :func:`repair_store` read segments by the bundle store's own rule, and
  :func:`scan_snapshot` / :func:`quarantine_snapshot` check and set
  aside a snapshot;
* :mod:`repro.reliability.overload`   — load regulation: token-bucket
  admission control, the NORMAL → REDUCED → SKELETON → SHED_ONLY
  degradation ladder, and the circuit breaker guarding spill I/O (the
  ``repro health`` command);
* :mod:`repro.reliability.guard`      — adversarial ingest hardening:
  exact near-dup folding, spam quarantine to a crash-safe custody log,
  and a bounded reordering buffer for out-of-order arrivals.

The submodules that depend on :mod:`repro.storage` are loaded lazily so
that the storage layer itself can import :mod:`repro.reliability.fsio`
without a cycle.
"""

from __future__ import annotations

from repro.reliability.faults import (Fault, FaultInjector, FaultyFile,
                                      FaultyFileSystem, SimulatedCrash)
from repro.reliability.fsio import (FileSystem, RealFileSystem, filesystem,
                                    reset_filesystem, set_filesystem)

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultyFile",
    "FaultyFileSystem",
    "SimulatedCrash",
    "FileSystem",
    "RealFileSystem",
    "filesystem",
    "set_filesystem",
    "reset_filesystem",
    # lazy (see __getattr__):
    "ResilientIndexer",
    "ResilientStats",
    "DeadLetterQueue",
    "DeadLetter",
    "Admission",
    "AdmissionController",
    "AdmissionStats",
    "CircuitBreaker",
    "DegradationLadder",
    "GuardedSink",
    "HealthReport",
    "HealthState",
    "OverloadConfig",
    "OverloadController",
    "Transition",
    "FoldLog",
    "GuardAction",
    "GuardStats",
    "IngestGuard",
    "QuarantineLog",
    "Screened",
    "LogScan",
    "SnapshotScan",
    "SegmentScan",
    "StoreScan",
    "RepairResult",
    "scan_log",
    "scan_snapshot",
    "scan_store",
    "repair_log",
    "repair_store",
    "quarantine_snapshot",
]

_LAZY = {
    "ResilientIndexer": "repro.reliability.supervisor",
    "ResilientStats": "repro.reliability.supervisor",
    "DeadLetterQueue": "repro.reliability.supervisor",
    "DeadLetter": "repro.reliability.supervisor",
    "Admission": "repro.reliability.overload",
    "AdmissionController": "repro.reliability.overload",
    "AdmissionStats": "repro.reliability.overload",
    "CircuitBreaker": "repro.reliability.overload",
    "DegradationLadder": "repro.reliability.overload",
    "GuardedSink": "repro.reliability.overload",
    "HealthReport": "repro.reliability.overload",
    "HealthState": "repro.reliability.overload",
    "OverloadConfig": "repro.reliability.overload",
    "OverloadController": "repro.reliability.overload",
    "Transition": "repro.reliability.overload",
    "FoldLog": "repro.reliability.guard",
    "GuardAction": "repro.reliability.guard",
    "GuardStats": "repro.reliability.guard",
    "IngestGuard": "repro.reliability.guard",
    "QuarantineLog": "repro.reliability.guard",
    "Screened": "repro.reliability.guard",
    "LogScan": "repro.reliability.doctor",
    "SnapshotScan": "repro.reliability.doctor",
    "SegmentScan": "repro.reliability.doctor",
    "StoreScan": "repro.reliability.doctor",
    "RepairResult": "repro.reliability.doctor",
    "scan_log": "repro.reliability.doctor",
    "scan_snapshot": "repro.reliability.doctor",
    "scan_store": "repro.reliability.doctor",
    "repair_log": "repro.reliability.doctor",
    "repair_store": "repro.reliability.doctor",
    "quarantine_snapshot": "repro.reliability.doctor",
}


def __getattr__(name: str):  # noqa: ANN202 - module __getattr__
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
