"""The fold path, pinned against the commit *before* the pipelines merged.

``build()`` drives a fixed seeded stream with explicit folds through a
fully instrumented engine and returns everything an observer can see of
it.  ``fold_golden.json`` is that value as produced by the parent of the
commit that made ``ingest_folded`` a pre-selected-bundle call into
``_ingest_one``; ``tests/core/test_engine.py::TestFoldGolden`` demands
the current code still produces it.  Regenerate (only ever at a parent
checkout, see ``.claude/skills/verify/SKILL.md``) with::

    PYTHONPATH=src python -m tests.core.fold_golden > tests/core/fold_golden.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer, StageTimers
from repro.core.message import parse_message
from repro.obs import MetricsRegistry, Observability
from repro.obs.anatomy import WorkloadAnatomy
from repro.obs.audit import AuditLog
from repro.obs.perf import StageCell
from repro.obs.quality import QualityMonitor
from repro.obs.tracing import Tracer

GOLDEN = Path(__file__).with_name("fold_golden.json")

_TOPICS = ["storm", "final", "quake", "launch", "strike", "derby"]
_WORDS = ["harbour", "flooded", "stadium", "ovation", "tremor", "rocket",
          "picket", "rescue", "overtime", "evacuated", "countdown", "rally"]
#: Every fold shape the stream must hit; ``build`` asserts it did.
CASES = ("live", "live_no_origin", "stale_origin", "evicted", "closed",
         "skeleton", "closes_bundle", "refines")


def _messages(rng: random.Random, count: int):
    sent: "list" = []
    date = 1_000.0
    for msg_id in range(count):
        date += rng.choice([0.0, 1.0, 30.0, 400.0, 5_000.0])
        topic = rng.choice(_TOPICS)
        words = " ".join(rng.sample(_WORDS, rng.randint(1, 3)))
        text = f"{words} #{topic}"
        parent = None
        same_topic = [m for m in sent[-12:]
                      if m.event_id == _TOPICS.index(topic)]
        roll = rng.random()
        if same_topic and roll < 0.35:
            origin = rng.choice(same_topic)
            text = f"RT @{origin.user}: {origin.text}"
            parent = origin.msg_id
        elif roll > 0.9:
            text += f" http://t.co/{topic[:3]}"
        stamp = date - 900.0 if msg_id % 17 == 16 else date  # a straggler
        message = parse_message(msg_id, f"user{rng.randint(0, 9)}", stamp,
                                text, event_id=_TOPICS.index(topic),
                                parent_id=parent)
        sent.append(message)
        yield message


def build() -> dict:
    rng = random.Random(24)
    registry = MetricsRegistry()
    audit = AuditLog(capacity=10_000)
    tracer = Tracer(sample_rate=1.0, keep=10_000)
    obs = Observability(
        registry=registry, tracer=tracer, audit=audit,
        quality=QualityMonitor(registry, audit=audit),
        profile=StageCell(), anatomy=WorkloadAnatomy(registry, sample_every=1))
    config = IndexerConfig(max_pool_size=6, refine_trigger=3,
                           max_bundle_size=7, max_candidates=3,
                           refine_age=20_000.0)
    engine = ProvenanceIndexer(config, obs=obs)
    pool = engine.pool
    seen_bundles: "list[int]" = []
    cases: "dict[str, int]" = dict.fromkeys(CASES, 0)
    steps: "list[dict]" = []
    for step, message in enumerate(_messages(rng, 160)):
        engine.skeleton_matching = 60 <= step < 75
        # REDUCED rung, as the overload ladder would push it.
        engine.candidate_cap = 1 if 100 <= step < 125 else None
        engine.current_rung = 1 if 100 <= step < 125 else 0
        case = None
        if step >= 8 and step % 3 == 2:
            live = [b for b in pool if not b.closed]
            closed = [b for b in pool if b.closed]
            gone = [i for i in seen_bundles if pool.try_get(i) is None]
            turn = (step // 3) % 6
            if engine.skeleton_matching and live:
                target = live[step % len(live)]
                case, bundle_id, origin = ("skeleton", target.bundle_id,
                                           target.message_ids()[0])
            elif turn == 0 and gone:
                case, bundle_id, origin = "evicted", gone[-1], 0
            elif turn == 1 and closed:
                case, bundle_id, origin = ("closed", closed[0].bundle_id,
                                           closed[0].message_ids()[0])
            elif turn == 2 and live:
                case, bundle_id, origin = ("stale_origin",
                                           live[0].bundle_id, 10 ** 9)
            elif turn == 3 and live:
                case, bundle_id, origin = ("live_no_origin",
                                           live[-1].bundle_id, None)
            elif live:
                target = max(live, key=len) if turn == 4 else live[0]
                case, bundle_id, origin = ("live", target.bundle_id,
                                           target.message_ids()[-1])
        closed_before = engine.stats.bundles_closed
        refined_before = engine.stats.refinements
        if case is None:
            result = engine.ingest(message)
        else:
            result = engine.ingest_folded(message, bundle_id, origin)
            cases[case] += 1
            if case not in ("evicted", "closed"):
                cases["closes_bundle"] += (engine.stats.bundles_closed
                                           - closed_before)
                cases["refines"] += engine.stats.refinements - refined_before
        if result.bundle_id not in seen_bundles:
            seen_bundles.append(result.bundle_id)
        edge = result.edge
        steps.append({
            "case": case, "msg_id": result.msg_id,
            "bundle_id": result.bundle_id, "created": result.created_bundle,
            "edge": None if edge is None else
            [edge.dst_id, edge.kind.value, edge.score.hex()],
            "refined": None if result.refinement is None
            else result.refinement.removed,
            "fanin": list(engine.last_candidate_fanin),
            "cell": obs.profile.stage,
        })
    missing = [case for case, hits in cases.items() if not hits]
    assert not missing, f"the stream no longer exercises {missing}"
    return {
        "cases": cases,
        "steps": steps,
        "decisions": [record.to_dict() for record in audit.tail(10_000)],
        "traces": [{"trace_id": trace.trace_id, "tags": trace.tags,
                    "spans": [[span.name, span.tags]
                              for span in trace.spans],
                    "zero_offsets": [span.start == 0.0
                                     for span in trace.spans],
                    "offsets_ascend": all(
                        a.start <= b.start
                        for a, b in zip(trace.spans, trace.spans[1:]))}
                   for trace in tracer.finished],
        "stage_counts": {stage: engine.timers.histogram(stage).count
                         for stage in StageTimers.STAGES},
        "fanin_counts": {"fetched": engine._fanin_fetched_hist.count,
                         "scored": engine._fanin_scored_hist.count,
                         "capped": engine._fanin_capped.value},
        "last_candidate_fanin": list(engine.last_candidate_fanin),
        "stats": engine.stats(),
        "edges": sorted(map(list, engine.edge_pairs())),
        "quality_observed": obs.quality.observed,
        "anatomy_seen": obs.anatomy.seen,
        "tracer_offered": tracer.offered,
    }


if __name__ == "__main__":
    print(json.dumps(build(), sort_keys=True, separators=(",", ":")))
