"""One owner per on-disk record.

The message row (:func:`repro.core.message.encode_row`) is the record
the WAL, the quarantine log and the TSV dataset store; each reads it
back through :func:`~repro.core.message.decode_row`.  Whole files are
replaced through :func:`repro.reliability.fsio.write_atomic`.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import IndexerConfig
from repro.reliability.doctor import scan_log
from repro.reliability.faults import Fault, FaultInjector, SimulatedCrash
from repro.reliability.guard import QuarantineLog
from repro.reliability.supervisor import ResilientIndexer
from repro.stream.dataset import load_tsv, save_tsv
from tests.conftest import make_message

#: Users and texts holding every character the row escapes, and the
#: two-character sequences an unescape could mistake for them.
FIELDS = [
    ("ann\tbob", "plain text"),
    ("ann\nbob", "plain text"),
    ("ann\rbob", "plain text"),
    ("ann\\bob", "back\\slash"),
    ("ann\\nbob", "a literal \\n and \\t"),
    ("ann\\\tbob", "tab\tnew\nline\rcr \\\\n"),
]


def thread(user: str, text: str):
    """Three messages on one hashtag, the middle one from ``user``."""
    return [make_message(1, f"#storm first {text}", user="cat"),
            make_message(2, "#storm second report", user=user, hours=0.1),
            make_message(3, "#storm third report", user="dan", hours=0.2)]


@pytest.mark.parametrize("user,text", FIELDS)
class TestMessageRowRoundTrip:
    def test_wal_replay_restores_every_acknowledged_message(
            self, tmp_path, user, text):
        config = IndexerConfig.partial_index(pool_size=10)
        stack = ResilientIndexer.open(tmp_path, config=config)
        stack.ingest_batch(thread(user, text))
        live = stack.edge_pairs()
        stack.journaled.journal.close()  # crash: no checkpoint
        again = ResilientIndexer.open(tmp_path, config=config)
        assert again.edge_pairs() == live
        assert again.indexer.stats.messages_ingested == 3
        again.close()

    def test_quarantine_log_keeps_custody(self, tmp_path, user, text):
        path = tmp_path / "quarantine.log"
        messages = thread(user, text)
        with QuarantineLog(path) as log:
            for message in messages:
                log.append(message, f"spam {text}")
        assert list(QuarantineLog.replay(path)) == [
            (message, f"spam {text}") for message in messages]
        assert scan_log(path, QuarantineLog).healthy

    def test_tsv_round_trip(self, tmp_path, user, text):
        messages = thread(user, text)
        path = tmp_path / "stream.tsv"
        assert save_tsv(messages, path) == 3
        assert load_tsv(path) == messages


class TestWholeFileWrites:
    """A crash at the rename of a whole-file write leaves the old file."""

    def test_save_tsv(self, tmp_path):
        path = tmp_path / "stream.tsv"
        save_tsv(thread("ann", "old"), path)
        before = path.read_bytes()
        with FaultInjector([Fault("replace", kind="crash_before",
                                  path_part="stream.tsv")]):
            with pytest.raises(SimulatedCrash):
                save_tsv(thread("bob", "new"), path)
        assert path.read_bytes() == before

    def test_runtime_marker(self, tmp_path):
        from repro.runtime import ShardedRuntime

        marker = tmp_path / "runtime.json"
        with FaultInjector([Fault("replace", kind="crash_before",
                                  path_part="runtime.json")]):
            with pytest.raises(SimulatedCrash):
                ShardedRuntime(tmp_path, 2)
        # No marker, or a whole one: never a torn one every later open
        # would refuse.
        assert not marker.exists() or json.loads(marker.read_text())
