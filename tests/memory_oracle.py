"""Reference implementation of the Fig. 11 byte model (test oracle only).

This is the walk ``Bundle.approximate_memory_bytes()`` performed before
the totals became a maintained ledger: every message, edge and counter
key of a bundle, re-counted from scratch.  The shipped code must equal
it to the byte after any sequence of operations.
"""

from __future__ import annotations

from repro.core.bundle import (_COUNTER_ENTRY_BYTES, _EDGE_OVERHEAD_BYTES,
                               _MESSAGE_OVERHEAD_BYTES, Bundle)
from repro.core.pool import BundlePool


def recompute_bundle_bytes(bundle: Bundle) -> int:
    """The bundle's byte-model total, recounted by walking its contents."""
    total = 0
    for message in bundle._messages.values():
        total += _MESSAGE_OVERHEAD_BYTES + len(message.text)
        total += sum(len(t) for t in message.hashtags)
        total += sum(len(u) for u in message.urls)
    total += len(bundle._edges) * _EDGE_OVERHEAD_BYTES
    for counter in (bundle.hashtag_counts, bundle.url_counts,
                    bundle.keyword_counts, bundle.user_counts):
        total += len(counter) * _COUNTER_ENTRY_BYTES
        total += sum(len(key) for key in counter)
    return total


def assert_ledger_exact(pool: BundlePool) -> None:
    """Every maintained total of ``pool`` equals its recount."""
    for bundle in pool:
        assert bundle.approximate_memory_bytes() == \
            recompute_bundle_bytes(bundle), bundle
    assert pool.approximate_memory_bytes() == sum(
        recompute_bundle_bytes(bundle) for bundle in pool)
    assert pool.message_count() == sum(len(bundle) for bundle in pool)
