"""Property-based tests (hypothesis) on audit-ring invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.obs import AuditLog, Observability
from tests.conftest import make_message

# Message shapes: a few hot topics (bundles that stay pooled), many
# one-off topics (bundles that get refined away), and retweet-ish text.
topics = st.integers(min_value=0, max_value=4)
shapes = st.sampled_from(["hot", "solo", "rt"])
message_plans = st.lists(st.tuples(shapes, topics),
                         min_size=1, max_size=120)


POOL_SIZE = 8


def replay(plan, capacity, after_each=None):
    audit = AuditLog(capacity=capacity)
    engine = ProvenanceIndexer(
        IndexerConfig.partial_index(pool_size=POOL_SIZE),
        obs=Observability(audit=audit))
    for index, (shape, topic) in enumerate(plan):
        if shape == "hot":
            text = f"#topic{topic} the ongoing shared story"
            user = f"fan{index % 3}"
        elif shape == "rt":
            text = f"RT @fan0: #topic{topic} the ongoing shared story"
            user = f"echo{index % 5}"
        else:
            text = f"#solo{index} a standalone item number {index}"
            user = f"solo{index}"
        engine.ingest(make_message(index, text, user=user,
                                   hours=index * 0.03))
        if after_each is not None:
            after_each(audit)
    return engine, audit


@given(plan=message_plans, capacity=st.integers(1, 16))
@settings(deadline=None)  # the example budget is the profile's
def test_ring_stays_inside_its_capacity(plan, capacity):
    """The ring holds the newest ``capacity`` records after every
    ingest, and keeps only the eviction history a ringed record can
    still explain."""
    def bounded(audit):
        assert len(audit) <= capacity
        ringed = audit.tail(len(audit))
        assert [r.msg_id for r in ringed] == list(range(
            audit.recorded - len(ringed), audit.recorded))
        if audit.dropped:
            assert all(seq > ringed[0].seq
                       for seq, _ in audit._evictions)
            # A retained event is a bundle that left the pool after the
            # oldest ringed ingest: pooled then, or created since.
            assert len(audit._evictions) <= POOL_SIZE + len(audit)

    engine, audit = replay(plan, capacity, after_each=bounded)
    assert len(audit) == min(capacity, len(plan))
    assert audit.record_for(len(plan) - 1) is not None


@given(plan=message_plans, capacity=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_ring_accounting_is_conserved(plan, capacity):
    """Records are only ever in the ring or counted as dropped (minus
    deferral lines superseded by their drained placement)."""
    engine, audit = replay(plan, capacity)
    assert audit.recorded == len(plan)
    assert len(audit) + audit.dropped == audit.recorded
    # The index never points at evicted records.
    for record in audit.tail(len(audit)):
        assert audit.record_for(record.msg_id) is not None


@given(plan=message_plans)
@settings(max_examples=20, deadline=None)
def test_every_ingest_is_recorded_with_matching_outcome(plan):
    """An unbounded ring holds one coherent record per ingest."""
    engine, audit = replay(plan, capacity=4096)
    assert audit.recorded == len(plan)
    seen = set()
    for record in audit.tail(len(plan)):
        assert record.msg_id not in seen
        seen.add(record.msg_id)
        assert record.placed
        record.materialize()
        selected = [c for c in record.candidates if c.selected]
        if record.outcome.value == "matched":
            assert [c.bundle_id for c in selected] == [record.bundle_id]
        else:
            assert record.outcome.value == "new-bundle"
            assert selected == []
    assert seen == set(range(len(plan)))
