"""Algorithm 1's and Algorithm 2's observable output, pinned against the
commit *before* keyword-only candidates stopped being packaged (the
``dense`` / ``closed`` / ``reduced`` sections), the commit before
Alg. 2's walk learnt to search ties (the ``ties`` sections) and the
commit before the numpy Eq. 1 kernel was deleted (the ``full``
sections: Full Index over :func:`heavy_stream`, generated with numpy
installed, so that commit scored 425 of each replay's selects by the
numpy path).

``build()`` replays the seeded 2 000-message dense stream under three
configs, a one-timestamp stretch of tag sharers (:func:`tie_stream`)
and the 10 240-message heavy-hitter stream under Full Index, through
the bare engine, once plain and once audited, and returns everything
an observer can see of the placement: per-ingest
``(bundle_id, created, edge, last_candidate_fanin)``, the
``repro_candidate_fanin`` histograms, the capped counter, the edge set,
the stats, the audit JSONL bytes and the ``DecisionRecord.to_dict()``
rows — the bulky sections as SHA-256 digests — plus ``gathered``, the
sum of ``len(gather)`` over the plain replay.  ``selection_golden.json``
is that value as produced by the parent of the change;
``tests/core/test_engine.py::TestSelectionGolden`` demands the current
code still produces it.  The audited sections' ``decisions`` and
``audit_jsonl`` digests were regenerated when decision records started
listing only the candidates the pruned argmax looked up (plus the
gather's ``fetched`` count) and the ring stopped growing past its
capacity; every plain section and every other key kept its value.  Regenerate (only ever at a parent checkout, see
``.claude/skills/verify/SKILL.md``) with::

    PYTHONPATH=src python -m tests.core.selection_golden > tests/core/selection_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path
from typing import Iterable
from unittest import mock

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.message import parse_message
from repro.core.summary_index import SummaryIndex
from repro.obs import Observability
from repro.obs.audit import AuditLog
from repro.stream.generator import StreamConfig, StreamGenerator

GOLDEN = Path(__file__).with_name("selection_golden.json")

#: The REDUCED stretch of the ``reduced`` scenario: ``candidate_cap=1``
#: (rung 1) for these steps, as the overload ladder would push it.
REDUCED_STEPS = range(500, 1500)

#: The first date of :func:`tie_stream` (2009-08-01 00:00 UTC).
TIE_DATE = 1_249_084_800.0


def dense_stream() -> list:
    """The seeded dense stream of ``TestMaxScorePruning``."""
    return StreamGenerator(StreamConfig(
        seed=7, days=0.02, messages_per_day=100_000, user_count=200,
        events_per_day=240.0)).generate_list()[:2000]


def heavy_stream() -> list:
    """The layered benchmark's dense stream at seed 7, 10 240 messages."""
    return StreamGenerator(StreamConfig(
        seed=7, days=10_240.5 / 100_000.0, messages_per_day=100_000,
        user_count=409, events_per_day=240.0)).generate_list()[:10_240]


def tie_stream() -> list:
    """40 arrivals a minute apart, then 240 on the 40th minute.

    Three hashtags, a few URLs and RTs over twelve users: the windows
    fill with members whose Eq. 5 scores tie, so the ``(S, date,
    −msg_id)`` tie-break decides most edges.
    """
    rng = random.Random(27)
    tags = ["#quake", "#relief", "#aid"]
    words = ["water", "shelter", "road", "power", "help", "news"]
    users = [f"u{index}" for index in range(12)]
    stream = []
    for msg_id in range(280):
        pieces = rng.sample(tags, rng.randint(1, 2)) + rng.sample(words, 2)
        if rng.random() < 0.2:
            pieces.insert(0, f"RT @{rng.choice(users)}:")
        if rng.random() < 0.15:
            pieces.append(f"bit.ly/{rng.choice('xyz')}")
        stream.append(parse_message(
            msg_id, rng.choice(users), TIE_DATE + 60.0 * min(msg_id, 40),
            " ".join(pieces)))
    return stream


#: name -> (config, whether the REDUCED stretch applies, stream).
SCENARIOS = {
    "dense": (IndexerConfig.partial_index(200), False, dense_stream),
    "closed": (IndexerConfig.bundle_limit(200, 100), False, dense_stream),
    "reduced": (IndexerConfig.partial_index(200), True, dense_stream),
    "ties": (IndexerConfig.partial_index(200), False, tie_stream),
    "full": (IndexerConfig.full_index(), False, heavy_stream),
}


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _digest_rows(rows: "Iterable[object]") -> str:
    """``_digest(list(rows))``, without holding the list or its JSON."""
    digest = hashlib.sha256(b"[")
    for index, row in enumerate(rows):
        if index:
            digest.update(b",")
        digest.update(json.dumps(
            row, sort_keys=True, separators=(",", ":")).encode())
    digest.update(b"]")
    return digest.hexdigest()


def replay(config: IndexerConfig, reduced: bool, audited: bool,
           stream: list) -> dict:
    """One replay's Algorithm 1 observables (see the module docstring)."""
    gathered = [0]
    shipped = SummaryIndex.gather_candidates

    def counted(self, message, keywords):
        gather = shipped(self, message, keywords)
        gathered[0] += len(gather)
        return gather

    with tempfile.TemporaryDirectory() as tmp:
        sink = Path(tmp) / "audit.jsonl"
        audit = (AuditLog(capacity=10_000, sink=sink)
                 if audited else None)
        engine = ProvenanceIndexer(config, obs=Observability(audit=audit))
        steps = []
        with mock.patch.object(SummaryIndex, "gather_candidates", counted):
            for step, message in enumerate(stream):
                in_stretch = reduced and step in REDUCED_STEPS
                engine.candidate_cap = 1 if in_stretch else None
                engine.current_rung = 1 if in_stretch else 0
                result = engine.ingest(message)
                edge = result.edge
                steps.append([
                    result.bundle_id, result.created_bundle,
                    None if edge is None else
                    [edge.dst_id, edge.kind.value, edge.score.hex()],
                    list(engine.last_candidate_fanin)])
        out = {
            "steps": _digest(steps),
            "fanin": {
                "fetched": [engine._fanin_fetched_hist.count,
                            engine._fanin_fetched_hist.sum],
                "scored": [engine._fanin_scored_hist.count,
                           engine._fanin_scored_hist.sum],
                "capped": engine._fanin_capped.value,
            },
            "edges": _digest(sorted(map(list, engine.edge_pairs()))),
            "edge_count": len(engine.edge_pairs()),
            "stats": engine.stats(),
            "gathered": gathered[0],
        }
        if audit is not None:
            out["decisions"] = _digest_rows(
                record.to_dict() for record in audit.tail(10_000))
            audit.close()
            digest = hashlib.sha256()
            with sink.open("rb") as jsonl:
                for chunk in iter(lambda: jsonl.read(1 << 20), b""):
                    digest.update(chunk)
            out["audit_jsonl"] = [digest.hexdigest(), sink.stat().st_size]
    return out


def build() -> dict:
    streams = {make: make()
               for make in (dense_stream, tie_stream, heavy_stream)}
    return {
        f"{name}/{'audited' if audited else 'plain'}":
            replay(config, reduced, audited, streams[make])
        for name, (config, reduced, make) in SCENARIOS.items()
        for audited in (False, True)
    }


if __name__ == "__main__":
    print(json.dumps(build(), sort_keys=True, indent=1))
