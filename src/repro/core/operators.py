"""Provenance operators over bundles (the paper's future-work algebra).

The conclusion of the paper proposes investigating "provenance operators
built on these provenance bundle and indexing structure".  This module
provides the bundle-level algebra that complements the per-message
traversals of :mod:`repro.core.graph`:

* :func:`merge_bundles` — union two bundles into one forest, re-aligning
  the roots of the later bundle against the earlier one,
* :func:`split_bundle_at` — cut a bundle at a point in time into a
  "before" and an "after" bundle (edges across the cut become roots),
* :func:`slice_bundle` — the sub-bundle inside a time window,
* :func:`extract_cascade` — the sub-bundle reachable from one message,
* :func:`filter_bundle` — keep only messages matching a predicate while
  re-stitching edges through removed nodes (contraction),
* :func:`bundle_difference` — messages/edges present in one bundle but
  not another (checkpoint diffing).

All operators are pure: inputs are never mutated and results are fresh
:class:`~repro.core.bundle.Bundle` objects with the requested ids.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.connection import Connection
from repro.core.errors import BundleError
from repro.core.graph import children_map
from repro.core.message import Message

__all__ = [
    "rebuild_bundle",
    "merge_bundles",
    "split_bundle_at",
    "slice_bundle",
    "extract_cascade",
    "filter_bundle",
    "bundle_difference",
    "BundleDiff",
]


def _copy_members(
    target: Bundle,
    source: Bundle,
    msg_ids: Iterable[int],
    *,
    keep_edges: bool = True,
) -> set[int]:
    """Copy members (and optionally their internal edges) into ``target``.

    Edges whose destination is not among the copied members are dropped,
    turning their sources into roots.  Returns the copied id set.
    """
    wanted = set(msg_ids)
    kept = [msg_id for msg_id in source.message_ids() if msg_id in wanted]
    kept_set = set(kept)
    edge_by_src = {e.src_id: e for e in source.edges()}
    for msg_id in kept:
        message = source.get(msg_id)
        assert message is not None
        edge = edge_by_src.get(msg_id) if keep_edges else None
        if edge is not None and edge.dst_id not in kept_set:
            edge = None
        target._register_member(message, source.keywords_of(msg_id), edge)
    return kept_set


def rebuild_bundle(bundle_id: int, source: Bundle,
                   msg_ids: Iterable[int],
                   config: IndexerConfig | None = None) -> Bundle:
    """A fresh bundle holding ``msg_ids`` from ``source`` verbatim.

    Edges internal to the selection survive; edges pointing outside the
    selection are dropped (their sources become roots).
    """
    result = Bundle(bundle_id, config or source.config)
    _copy_members(result, source, set(msg_ids))
    return result


def merge_bundles(bundle_id: int, first: Bundle, second: Bundle,
                  config: IndexerConfig | None = None) -> Bundle:
    """Union two disjoint bundles, re-aligning the second's roots.

    Members and internal edges of both bundles are preserved; every root
    of ``second`` is then re-inserted through Algorithm 2 against the
    merged membership, so the result is a single connected story where
    the evidence supports it (and a forest where it does not).

    Raises :class:`BundleError` if the bundles share a message id.
    """
    overlap = set(first.message_ids()) & set(second.message_ids())
    if overlap:
        raise BundleError(
            f"cannot merge: bundles share messages {sorted(overlap)[:5]}")
    result = Bundle(bundle_id, config or first.config)
    _copy_members(result, first, set(first.message_ids()))
    _copy_members(result, second, set(second.message_ids()))

    # Re-align the second bundle's roots against the first's members.
    first_ids = set(first.message_ids())
    for msg_id in second.message_ids():
        if second.parent_of(msg_id) is not None:
            continue
        message = second.get(msg_id)
        assert message is not None
        keywords = frozenset(second.keywords_of(msg_id))
        candidates = [result.get(other) for other in first_ids
                      if _shares_indicant(message, keywords, result, other)]
        best = _best_prior(message, [c for c in candidates if c], result)
        if best is not None and best.date <= message.date:
            from repro.core.scoring import (dominant_connection_type,
                                            message_similarity)
            score = message_similarity(message, best, result.config)
            result._attach_edge(msg_id, Connection(
                msg_id, best.msg_id,
                dominant_connection_type(message, best), score))
    return result


def _shares_indicant(message: Message, keywords: frozenset[str],
                     bundle: Bundle, other_id: int) -> bool:
    other = bundle.get(other_id)
    if other is None:
        return False
    return bool(message.urls & other.urls
                or message.hashtags & other.hashtags
                or other.user in message.rt_users
                or not keywords.isdisjoint(bundle.keywords_of(other_id)))


def _best_prior(message: Message, candidates: "list[Message]",
                bundle: Bundle) -> Message | None:
    from repro.core.scoring import message_similarity

    best, best_key = None, None
    for prior in candidates:
        if prior.date > message.date:
            continue
        key = (message_similarity(message, prior, bundle.config),
               prior.date, -prior.msg_id)
        if best_key is None or key > best_key:
            best, best_key = prior, key
    return best


def split_bundle_at(source: Bundle, cut_date: float,
                    *, before_id: int, after_id: int) -> tuple[Bundle, Bundle]:
    """Cut a bundle into (messages before ``cut_date``, the rest).

    Edges crossing the cut are severed, so early messages of the "after"
    part become roots — exactly what re-running discovery on the two
    halves independently would produce.
    """
    before_ids = {msg_id for msg_id in source.message_ids()
                  if source.get(msg_id).date < cut_date}
    after_ids = set(source.message_ids()) - before_ids
    return (rebuild_bundle(before_id, source, before_ids),
            rebuild_bundle(after_id, source, after_ids))


def slice_bundle(source: Bundle, start: float, end: float,
                 *, bundle_id: int) -> Bundle:
    """The sub-bundle whose messages fall in ``[start, end)``."""
    if end < start:
        raise BundleError(f"invalid slice window [{start}, {end})")
    ids = {msg_id for msg_id in source.message_ids()
           if start <= source.get(msg_id).date < end}
    return rebuild_bundle(bundle_id, source, ids)


def extract_cascade(source: Bundle, msg_id: int,
                    *, bundle_id: int) -> Bundle:
    """The sub-bundle rooted at ``msg_id``: itself plus all descendants."""
    if msg_id not in source:
        raise BundleError(
            f"message {msg_id} not in bundle {source.bundle_id}")
    children = children_map(source)
    ids = {msg_id}
    frontier = list(children.get(msg_id, ()))
    while frontier:
        current = frontier.pop()
        ids.add(current)
        frontier.extend(children.get(current, ()))
    return rebuild_bundle(bundle_id, source, ids)


def filter_bundle(source: Bundle, predicate: Callable[[Message], bool],
                  *, bundle_id: int) -> Bundle:
    """Keep messages satisfying ``predicate``; contract removed nodes.

    An edge through a removed message is re-stitched to the nearest kept
    ancestor, so surviving cascade structure is preserved — e.g. dropping
    noise messages keeps the re-share chain connected.
    """
    kept = {msg_id for msg_id in source.message_ids()
            if predicate(source.get(msg_id))}
    result = Bundle(bundle_id, source.config)
    edge_by_src = {e.src_id: e for e in source.edges()}
    for msg_id in source.message_ids():
        if msg_id not in kept:
            continue
        message = source.get(msg_id)
        # Walk up through removed ancestors to the nearest kept one.
        ancestor = source.parent_of(msg_id)
        while ancestor is not None and ancestor not in kept:
            ancestor = source.parent_of(ancestor)
        edge = None
        if ancestor is not None:
            original = edge_by_src[msg_id]
            edge = Connection(
                msg_id, ancestor, original.kind, original.score)
        result._register_member(message, source.keywords_of(msg_id), edge)
    return result


class BundleDiff:
    """Outcome of :func:`bundle_difference`."""

    __slots__ = ("added_messages", "added_edges", "removed_messages",
                 "removed_edges")

    def __init__(self, added_messages: set[int],
                 added_edges: set[tuple[int, int]],
                 removed_messages: set[int],
                 removed_edges: set[tuple[int, int]]) -> None:
        self.added_messages = added_messages
        self.added_edges = added_edges
        self.removed_messages = removed_messages
        self.removed_edges = removed_edges

    @property
    def unchanged(self) -> bool:
        """True when the two bundles are structurally identical."""
        return not (self.added_messages or self.added_edges
                    or self.removed_messages or self.removed_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BundleDiff(+{len(self.added_messages)}m "
                f"+{len(self.added_edges)}e "
                f"-{len(self.removed_messages)}m "
                f"-{len(self.removed_edges)}e)")


def bundle_difference(new: Bundle, old: Bundle) -> BundleDiff:
    """Structural diff ``new − old``: what discovery added since ``old``.

    Used to diff the same logical bundle across checkpoints ("what did
    this story gain in the last hour?").
    """
    new_ids = set(new.message_ids())
    old_ids = set(old.message_ids())
    return BundleDiff(
        added_messages=new_ids - old_ids,
        added_edges=new.edge_pairs() - old.edge_pairs(),
        removed_messages=old_ids - new_ids,
        removed_edges=old.edge_pairs() - new.edge_pairs(),
    )
