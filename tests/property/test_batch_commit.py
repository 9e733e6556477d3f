"""Batching changes *when* work is grouped, nothing else.

``ResilientIndexer.ingest_batch`` runs its arrivals inside one
:func:`~repro.reliability.fsio.commit_scope` and, on a stack with no
guard, ladder or watermark, hands the journal and the engine long runs;
a bare ``ingest`` is a run of one that fsyncs each quarantine record
before returning.  Two claims:

* **batch ≡ sequence** — on the guarded stack (arrival at a time) and
  on a bare one (long runs), for any mixed organic / spam-flood /
  near-dup / clock-skew / duplicate-``msg_id`` stream and any batch
  cuts, ``ingest_batch`` per cut and ``ingest`` per message leave
  byte-identical ``quarantine.log``, ``folds.log``, ``ingest.wal``,
  ``state.snapshot`` and its ``.seq`` sidecar, identical edges, the
  same dead letters and identical guard / supervisor counters;
* **one barrier per acknowledged call** — a public batch entry point
  issues at most one custody-log fsync (exactly one if it quarantined
  anything), the per-message path exactly one per quarantined arrival.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IndexerConfig
from repro.reliability.fsio import (FileSystem, reset_filesystem,
                                    set_filesystem)
from repro.reliability import guard as guard_module
from repro.reliability.overload import OverloadConfig
from repro.reliability.supervisor import ResilientIndexer
from tests.conftest import make_message

SPAM = "win big money now with this one amazing trick friends"
NEWS = "harbor bridge closed after the morning quake inspection"
LOGS = ("quarantine.log", "folds.log", "ingest.wal", "state.snapshot",
        "state.snapshot.seq")


def build_stream(plan: "list[tuple[str, int]]"):
    """One message per ``(kind, variant)`` step, ids in arrival order."""
    messages = []
    for i, (kind, variant) in enumerate(plan):
        hours = i * 0.1
        if kind == "spam":
            messages.append(make_message(
                i, f"{SPAM} {variant % 3}", user="spammer", hours=hours))
        elif kind == "neardup":
            messages.append(make_message(
                i, f"{NEWS} copy {variant % 2}",
                user=f"copier{variant % 3}", hours=hours))
        elif kind == "reordered":   # within the window: buffered
            messages.append(make_message(
                i, f"delayed report number {i} on topic{variant}",
                user=f"u{variant}", hours=hours - 0.05 * (1 + variant)))
        elif kind == "late":        # before the watermark: late-path
            messages.append(make_message(
                i, f"stale report number {i} on topic{variant}",
                user=f"u{variant}", hours=hours - 2.0 - variant))
        elif kind == "clock_bomb":  # past max_future_skew: quarantined
            messages.append(make_message(
                i, f"message {i} from the impossible future",
                user=f"u{variant}", hours=hours + 24.0 * (1 + variant)))
        elif kind == "duplicate" and messages:  # poison: a reused msg_id
            messages.append(messages[variant % len(messages)])
        else:
            messages.append(make_message(
                i, f"organic story number {i} about topic{variant}",
                user=f"u{variant}", hours=hours))
    return messages


#: The guarded stack ingests arrival at a time; the bare one in runs
#: cut at checkpoints.
STACKS = {
    "guarded": dict(
        guard=True,
        overload=OverloadConfig(rate_limit=None, latency_target=1.0)),
    "bare": {},
}


def low_gates():
    """Low guard gates for the ``with`` body, so short streams reach
    every verdict."""
    return mock.patch.multiple(guard_module, SPAM_MIN_MESSAGES=4.0,
                               REORDER_WINDOW=1800.0)


def open_stack(root: Path, stack: str = "guarded") -> ResilientIndexer:
    # Small sync and snapshot cadences so WAL fsyncs and checkpoints
    # fall inside batches.
    return ResilientIndexer.open(
        root, config=IndexerConfig.full_index(), sync_every=4,
        snapshot_every=16, **STACKS[stack])


def outcome(supervisor: ResilientIndexer, root: Path) -> dict:
    supervisor.journaled.journal.sync()
    guard = supervisor.guard
    assert guard is None or guard.stats.reconciles(guard.buffer_depth)
    stats = {f.name: getattr(supervisor.stats, f.name)
             for f in fields(supervisor.stats) if f.compare}
    # Wall-clock free: the stream never retries, so this stays 0.0.
    assert stats["backoff_seconds"] == 0.0
    return {
        "logs": {name: (root / name).read_bytes()
                 for name in LOGS if (root / name).exists()},
        "edges": supervisor.edge_pairs(),
        "guard": asdict(guard.stats) if guard else None,
        "buffer_depth": guard.buffer_depth if guard else 0,
        "supervisor": stats,
        "dead_letters": supervisor.dead_letters.entries(),
    }


plans = st.lists(
    st.tuples(st.sampled_from(["organic", "organic", "spam", "spam",
                               "neardup", "neardup", "reordered", "late",
                               "clock_bomb", "duplicate"]),
              st.integers(0, 5)),
    min_size=1, max_size=48)


@pytest.mark.parametrize("stack", STACKS)
@given(plan=plans, cuts=st.lists(st.integers(1, 12), min_size=1, max_size=8))
@settings(deadline=None)
def test_ingest_batch_equals_ingest_sequence(stack, plan, cuts):
    stream = build_stream(plan)
    with tempfile.TemporaryDirectory() as tmp, low_gates():
        one_by_one = Path(tmp) / "sequence"
        supervisor = open_stack(one_by_one, stack)
        results = [supervisor.ingest(message) for message in stream]
        expected = outcome(supervisor, one_by_one)
        indexed = [r.msg_id for r in results if r is not None]
        supervisor.close()

        batched = Path(tmp) / "batched"
        supervisor = open_stack(batched, stack)
        batch_indexed = []
        start = turn = 0
        while start < len(stream):
            size = cuts[turn % len(cuts)]
            batch_indexed.extend(
                r.msg_id
                for r in supervisor.ingest_batch(stream[start:start + size]))
            start += size
            turn += 1
        assert outcome(supervisor, batched) == expected
        assert batch_indexed == indexed
        supervisor.close()


class CountingFileSystem(FileSystem):
    """The real filesystem, counting fsyncs per file name."""

    def __init__(self) -> None:
        self.fsyncs: "Counter[str]" = Counter()

    def fsync(self, handle) -> None:
        self.fsyncs[Path(handle.name).name] += 1
        super().fsync(handle)


def hostile_stream():
    """96 arrivals: a spam flood and a near-dup storm over organic
    traffic, with a reordered arrival every twelfth message."""
    kinds = ("organic", "spam", "neardup", "organic", "spam", "organic")
    plan = [("reordered" if i % 12 == 11 else kinds[i % 6], i % 5)
            for i in range(96)]
    return build_stream(plan)


@low_gates()
def test_one_custody_fsync_per_acknowledged_call(tmp_path):
    stream = hostile_stream()
    counting = CountingFileSystem()
    set_filesystem(counting)
    try:
        # Per-message path: durable before each verdict returns.
        supervisor = open_stack(tmp_path / "sequence")
        for message in stream:
            before = (counting.fsyncs["quarantine.log"],
                      supervisor.guard.stats.quarantined)
            supervisor.ingest(message)
            after = (counting.fsyncs["quarantine.log"],
                     supervisor.guard.stats.quarantined)
            assert after[0] - before[0] == after[1] - before[1]
        quarantined = supervisor.guard.stats.quarantined
        assert quarantined > 10, "stream never exercised the custody log"
        assert counting.fsyncs["quarantine.log"] == quarantined
        supervisor.close()

        # Batch entry points: one barrier per call that quarantined.
        counting.fsyncs.clear()
        supervisor = open_stack(tmp_path / "batched")
        guard = supervisor.guard

        def barriers(call) -> "tuple[int, int]":
            syncs = counting.fsyncs["quarantine.log"]
            held = guard.stats.quarantined
            call()
            return (counting.fsyncs["quarantine.log"] - syncs,
                    guard.stats.quarantined - held)

        calls = [lambda batch=stream[i:i + 16]: supervisor.ingest_batch(batch)
                 for i in range(0, 64, 16)]
        calls.append(lambda: supervisor.ingest_stream(stream[64:],
                                                      drain_backlog=False))
        calls += [supervisor.flush_guard, supervisor.drain_backlog]
        seen = [barriers(call) for call in calls]
        assert all(syncs == (1 if newly else 0) for syncs, newly in seen)
        assert sum(newly for _, newly in seen) == quarantined
        assert sum(syncs for syncs, _ in seen) < quarantined // 4
        registry = supervisor.indexer.obs.registry
        assert registry.value("repro_guard_log_syncs_total") == \
            counting.fsyncs["quarantine.log"] + counting.fsyncs["folds.log"]
        supervisor.close()
    finally:
        reset_filesystem()
