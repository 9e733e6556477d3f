"""Provenance operators over bundles (the paper's future-work section).

A bundle's connections form a forest: every non-root message points at the
prior message it was aligned with.  This module provides the traversal
operators the paper anticipates ("the provenance operators built on these
provenance bundle and indexing structure could be investigated"):

* source finding — :func:`roots`,
* ancestry — :func:`ancestors`, :func:`path_to_root`,
* influence — :func:`descendants`, :func:`fanout`,
* shape statistics — :func:`depth`, :func:`cascade_stats`,
* presentation — :func:`render_tree` draws the Fig. 2b/Fig. 10 trees as
  indented ASCII.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.bundle import Bundle
from repro.core.errors import BundleError

__all__ = [
    "roots",
    "parent_map",
    "children_map",
    "ancestors",
    "path_to_root",
    "descendants",
    "fanout",
    "depth",
    "CascadeStats",
    "cascade_stats",
    "render_tree",
]


def parent_map(bundle: Bundle) -> dict[int, int]:
    """``{msg_id: parent_msg_id}`` for every non-root member."""
    return {edge.src_id: edge.dst_id for edge in bundle.edges()}


def children_map(bundle: Bundle) -> dict[int, list[int]]:
    """``{msg_id: [child ids...]}`` with children in arrival order."""
    children: dict[int, list[int]] = defaultdict(list)
    for msg_id in bundle.message_ids():
        parent = bundle.parent_of(msg_id)
        if parent is not None:
            children[parent].append(msg_id)
    return dict(children)


def roots(bundle: Bundle) -> list[int]:
    """Ids of source messages (no provenance parent), in arrival order."""
    return [msg_id for msg_id in bundle.message_ids()
            if bundle.parent_of(msg_id) is None]


def ancestors(bundle: Bundle, msg_id: int) -> list[int]:
    """Provenance chain from ``msg_id``'s parent up to its root.

    Raises :class:`BundleError` if ``msg_id`` is not a member or the
    parent chain is cyclic (which would indicate a corrupted bundle).
    """
    if msg_id not in bundle:
        raise BundleError(f"message {msg_id} not in bundle {bundle.bundle_id}")
    chain: list[int] = []
    seen = {msg_id}
    current = bundle.parent_of(msg_id)
    while current is not None:
        if current in seen:
            raise BundleError(
                f"cycle detected in bundle {bundle.bundle_id} at {current}")
        chain.append(current)
        seen.add(current)
        current = bundle.parent_of(current)
    return chain


def path_to_root(bundle: Bundle, msg_id: int) -> list[int]:
    """``[msg_id, parent, ..., root]`` — the full propagation trail."""
    return [msg_id, *ancestors(bundle, msg_id)]


def descendants(bundle: Bundle, msg_id: int) -> list[int]:
    """All messages derived (transitively) from ``msg_id``, BFS order."""
    if msg_id not in bundle:
        raise BundleError(f"message {msg_id} not in bundle {bundle.bundle_id}")
    children = children_map(bundle)
    found: list[int] = []
    frontier = list(children.get(msg_id, ()))
    while frontier:
        current = frontier.pop(0)
        found.append(current)
        frontier.extend(children.get(current, ()))
    return found


def fanout(bundle: Bundle, msg_id: int) -> int:
    """Direct re-share/derivation count of one message."""
    return len(children_map(bundle).get(msg_id, ()))


def depth(bundle: Bundle, msg_id: int) -> int:
    """Distance from ``msg_id`` to its root (0 for roots)."""
    return len(ancestors(bundle, msg_id))


@dataclass(frozen=True, slots=True)
class CascadeStats:
    """Shape summary of one bundle's propagation forest."""

    size: int
    root_count: int
    max_depth: int
    max_fanout: int
    edge_count: int
    time_span: float


def cascade_stats(bundle: Bundle) -> CascadeStats:
    """Compute depth/fan-out statistics for a bundle (Fig. 10 analysis)."""
    children = children_map(bundle)
    max_fanout = max((len(kids) for kids in children.values()), default=0)
    max_depth = 0
    # Iterative depths with memoisation; bundles can be long chains.
    depths: dict[int, int] = {}
    for msg_id in bundle.message_ids():
        trail = []
        current: int | None = msg_id
        while current is not None and current not in depths:
            trail.append(current)
            current = bundle.parent_of(current)
        base = depths[current] if current is not None else -1
        for offset, node in enumerate(reversed(trail), start=1):
            depths[node] = base + offset
        max_depth = max(max_depth, depths[msg_id])
    return CascadeStats(
        size=len(bundle),
        root_count=len(roots(bundle)),
        max_depth=max_depth,
        max_fanout=max_fanout,
        edge_count=len(bundle.edges()),
        time_span=bundle.time_span,
    )


def render_tree(bundle: Bundle, *, max_text: int = 48,
                show_date: bool = True) -> str:
    """Draw the bundle's provenance forest as indented ASCII (Fig. 10).

    Roots are flush left; each child is indented under its parent with a
    ``└─`` connector labelled by the connection type.
    """
    children = children_map(bundle)
    edge_by_src = {edge.src_id: edge for edge in bundle.edges()}
    lines: list[str] = [
        f"bundle {bundle.bundle_id}  "
        f"(size={len(bundle)}, span={bundle.time_span / 3600:.1f}h, "
        f"summary: {', '.join(bundle.summary_words(6))})"
    ]

    def label(msg_id: int) -> str:
        message = bundle.get(msg_id)
        assert message is not None
        text = message.text if len(message.text) <= max_text \
            else message.text[:max_text - 1] + "…"
        stamp = f" [{_format_date(message.date)}]" if show_date else ""
        return f"@{message.user}{stamp}: {text}"

    def walk(msg_id: int, prefix: str, is_last: bool, kind: str) -> None:
        connector = "└─" if is_last else "├─"
        tag = f"({kind}) " if kind else ""
        lines.append(f"{prefix}{connector}{tag}{label(msg_id)}")
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(msg_id, [])
        for position, child in enumerate(kids):
            walk(child, child_prefix, position == len(kids) - 1,
                 str(edge_by_src[child].kind))

    for root in roots(bundle):
        lines.append("● " + label(root))
        kids = children.get(root, [])
        for position, child in enumerate(kids):
            walk(child, "  ", position == len(kids) - 1,
                 str(edge_by_src[child].kind))
    return "\n".join(lines)


def _format_date(epoch: float) -> str:
    """Compact UTC day-hour stamp without importing datetime everywhere."""
    import datetime as _dt

    stamp = _dt.datetime.fromtimestamp(epoch, tz=_dt.timezone.utc)
    return stamp.strftime("%m-%d %H:%M")
