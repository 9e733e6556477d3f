"""Shard routing: scale-out over multiple engines.

The paper motivates its design with Twitter's "230 million tweets a day";
one engine cannot hold that, so :mod:`repro.runtime` runs one unmodified
:class:`~repro.core.engine.ProvenanceIndexer` stack per shard process.
This module decides the placement:

* **routing** — each message goes to exactly one shard.  Two routers are
  provided, trading isolation against co-location:

  - ``"hash"`` — stateless BLAKE2 over the message's *primary indicant*
    (first hashtag, else URL, else re-shared user, else author).  Zero
    coordination, good balance; but an event whose messages carry
    *varying* indicant subsets gets split across shards, losing the
    connections that cross the cut (measured in
    ``benchmarks/bench_sharding.py``).
  - ``"cooccurrence"`` — a streaming union-find over indicants: every
    message unions its own indicants into one component, and routes by
    the component root's hash.  Topics therefore co-locate even when
    individual messages carry different indicant subsets — at the price
    of coarser components (recurring broad hashtags glue same-theme
    events together) and hence more load skew.

Both routers are deterministic, so re-ingesting a stream reproduces the
same placement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.core.message import Message

__all__ = ["ShardRouter", "HashRouter", "CooccurrenceRouter",
           "RouteDecision", "make_router", "primary_indicant", "ROUTERS"]

#: The deterministic router names accepted everywhere (``make_router``,
#: ``repro.runtime``, the CLI).
ROUTERS = ("hash", "cooccurrence")


def primary_indicant(message: Message) -> str:
    """The routing key: the message's strongest topical indicant.

    Priority mirrors Table II: hashtag > URL > re-shared user > author.
    Ties inside a set are broken lexicographically so routing is stable.
    """
    if message.hashtags:
        return "t:" + min(message.hashtags)
    if message.urls:
        return "u:" + min(message.urls)
    if message.rt_users:
        return "a:" + message.rt_users[0]
    return "a:" + message.user


def _shard_of(key: str, shard_count: int) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") % shard_count


def _indicant_keys(message: Message) -> list[str]:
    """All topical indicants of a message, namespaced.

    Hashtags and URLs define components; the re-shared user (and then
    the author) is only a *fallback* for messages carrying neither.
    Always-unioning the RT root looks attractive — provenance edges
    follow cascades — but measures catastrophically: high-degree
    retweeted users transitively glue unrelated events into one
    mega-component (measured on the parallel bench stream: balance
    collapses to 2.3x skew and edge coverage *drops* to 0.71 versus
    0.92 with tag/URL components).  Cross-cascade evidence is instead
    surfaced as boundary hints (:class:`CooccurrenceRouter` tracks the
    last shard each user was routed to) and handled by asynchronous
    edge repair rather than by routing.
    """
    keys = ["t:" + tag for tag in sorted(message.hashtags)]
    keys.extend("u:" + url for url in sorted(message.urls))
    if not keys and message.rt_users:
        keys.append("a:" + message.rt_users[0])
    if not keys:
        keys.append("a:" + message.user)
    return keys


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """One routing verdict, with its cross-shard boundary evidence.

    ``peers`` lists the *other* shards that already hold messages of
    this message's (merged) indicant component — non-empty exactly when
    the message straddles a shard cut and its best provenance parent may
    live elsewhere.  The multiprocess runtime journals such messages to
    the owning shard's boundary log and repairs their edges
    asynchronously (:mod:`repro.runtime.repair`).
    """

    shard: int
    boundary: bool
    peers: tuple[int, ...]


class _UnionFind:
    """Union-find with path compression over string keys."""

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, key: str) -> str:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self.find(parent)
        self._parent[key] = root
        return root

    def union(self, first: str, second: str) -> str:
        root_a, root_b = self.find(first), self.find(second)
        if root_a == root_b:
            return root_a
        # Deterministic direction: smaller string becomes the root.
        if root_b < root_a:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        return root_a


class ShardRouter:
    """Deterministic message → shard placement (base class).

    Routers are deliberately engine-free so the multiprocess
    coordinator in :mod:`repro.runtime` and any in-process experiment
    (``benchmarks/bench_sharding.py``) share the exact same placement:
    re-ingesting a stream reproduces it bit-for-bit.
    """

    __slots__ = ("shard_count",)

    name = "abstract"

    def __init__(self, shard_count: int) -> None:
        if shard_count <= 0:
            raise ConfigurationError(
                f"shard_count must be positive, got {shard_count}")
        self.shard_count = shard_count

    def route(self, message: Message) -> int:
        """The shard index ``message`` belongs to (may mutate state)."""
        raise NotImplementedError

    def route_with_hint(self, message: Message) -> RouteDecision:
        """Route plus boundary evidence; the default never straddles."""
        return RouteDecision(self.route(message), False, ())


class HashRouter(ShardRouter):
    """Stateless BLAKE2 over the primary indicant: balanced, isolated."""

    __slots__ = ()

    name = "hash"

    def route(self, message: Message) -> int:
        return _shard_of(primary_indicant(message), self.shard_count)


class CooccurrenceRouter(ShardRouter):
    """Cascade-affine streaming union-find co-location over indicants.

    Placement is **sticky**: the first message of a component pins the
    component to ``hash(root) % shards``, and every later message of the
    component — however its indicant set grows or merges — follows that
    pin.  When two components that were pinned to *different* shards
    merge (a message carries indicants of both), the merged component
    keeps one pin deterministically and remembers every shard its
    history touched: messages of such a split component are flagged as
    **boundary** messages (:meth:`route_with_hint`) because their best
    provenance parent may live on a peer shard.  A second, cheaper hint
    follows retweet cascades across components: the router remembers the
    last shard each *user*'s message went to, so a retweet whose
    re-shared user last posted on a different shard is also flagged.
    The multiprocess runtime journals exactly those messages for
    asynchronous cross-shard edge repair (:mod:`repro.runtime.repair`).

    NOTE: :meth:`route` / :meth:`route_with_hint` *mutate* the component
    structure (they union the message's indicants), so call exactly one
    of them, once, per message.
    """

    __slots__ = ("_components", "_assigned", "_touched", "_last_shard")

    name = "cooccurrence"

    def __init__(self, shard_count: int) -> None:
        super().__init__(shard_count)
        self._components = _UnionFind()
        #: component root -> pinned shard (first-assignment sticky).
        self._assigned: dict[str, int] = {}
        #: component root -> every shard its history was routed to
        #: (pre-merge pins included; superset of {pin} once split).
        self._touched: dict[str, set[int]] = {}
        #: user -> shard of that user's most recent message.
        self._last_shard: dict[str, int] = {}

    def route(self, message: Message) -> int:
        return self.route_with_hint(message).shard

    def route_with_hint(self, message: Message) -> RouteDecision:
        keys = _indicant_keys(message)
        pre_roots = {self._components.find(key) for key in keys}
        root = keys[0]
        for key in keys[1:]:
            root = self._components.union(root, key)
        root = self._components.find(root)
        if len(pre_roots) > 1 or root not in self._assigned:
            self._merge_components(root, pre_roots)
        shard = self._assigned[root]
        touched = self._touched[root]
        peers = set(touched)
        if message.rt_users:
            rt_shard = self._last_shard.get(message.rt_users[0])
            if rt_shard is not None:
                peers.add(rt_shard)
        peers.discard(shard)
        touched.add(shard)
        self._last_shard[message.user] = shard
        return RouteDecision(shard, bool(peers), tuple(sorted(peers)))

    def _merge_components(self, root: str, pre_roots: "set[str]") -> None:
        """Consolidate pins + touched-shard memory of merged components.

        Deterministic pin choice: the pin of the lexicographically
        smallest previously-pinned root survives (mirroring the
        union-find's smallest-string-becomes-root rule); a component
        never seen before is pinned by its root's hash.
        """
        pinned = sorted((old, self._assigned[old]) for old in pre_roots
                        if old in self._assigned)
        shard = pinned[0][1] if pinned else _shard_of(root,
                                                     self.shard_count)
        touched: set[int] = set()
        for old in pre_roots:
            touched |= self._touched.pop(old, set())
            if old != root:
                self._assigned.pop(old, None)
        self._assigned[root] = shard
        self._touched[root] = touched


def make_router(router: str, shard_count: int) -> ShardRouter:
    """Build a named router (``"hash"`` or ``"cooccurrence"``)."""
    if router == "hash":
        return HashRouter(shard_count)
    if router == "cooccurrence":
        return CooccurrenceRouter(shard_count)
    raise ConfigurationError(
        f"router must be 'hash' or 'cooccurrence', got {router!r}")
