"""Provenance bundles (Definition 3) and intra-bundle allocation (Alg. 2).

A bundle is a non-overlapping group of messages in which each message keeps
one maximum-scored connection to a prior member, so the connections form a
forest rooted at the bundle's source message(s) — the compact tree of
Fig. 3.  The bundle also maintains the indicant summaries (hashtag / URL /
keyword counters) that feed the summary index and the bundle-level match
score of Eq. 1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import Collection, Iterable, Iterator

from repro.core.config import HOUR_SECONDS, IndexerConfig
from repro.core.connection import Connection
from repro.core.errors import BundleClosedError, BundleError
from repro.core.message import Message
from repro.core.scoring import dominant_connection_type, message_similarity
from repro.obs.audit import AllocationScore, _RawAllocation

__all__ = ["Bundle", "MemoryLedger"]

#: Algorithm 2 compares the new message against at most this many of the
#: bundle's most recent indicant-sharing members.  Keeps allocation
#: O(window) instead of O(bundle size); the paper's own bundles "no
#: longer get updating after some time", so old members are not useful
#: alignment targets.
ALLOC_WINDOW = 64

# Per-object overheads used by the hardware-independent memory model
# (Fig. 11a), least-squares fitted against the measured deep-size walk
# of repro.obs.anatomy (MemoryAccountant) on the dense and sparse
# layered-benchmark streams at seeds 7 and 8, 2 048 and 10 240 messages,
# CPython 3.11 — residuals within 2% (DESIGN.md §7.4) — and kept fixed
# for reproducibility.  The per-message constant covers a member's
# resident object graph: the Message, its text header, its keyword
# strings and tuple, its slots in the bundle's dicts and member lists,
# and its share of the hashtag set, URL set, RT chain and author name
# it holds in common with other messages (repro.core.message's shared
# values).  A string object the summary index holds as a term is
# charged there, once.  The per-bundle constant is a bundle's empty
# dicts, counters and lists.  Live drift is exported as
# ``repro_memory_drift_ratio{component="pool"}``.
_MESSAGE_OVERHEAD_BYTES = 483
_EDGE_OVERHEAD_BYTES = 96
_BUNDLE_OVERHEAD_BYTES = 1123
_COUNTER_ENTRY_BYTES = 187


class MemoryLedger:
    """Running byte and message totals over the bundles bound to it.

    A :class:`~repro.core.pool.BundlePool` owns one; every pooled bundle
    charges its growth here as it happens, so the pool's Fig. 11
    accounting is two attribute reads instead of a walk over every
    pooled message.
    """

    __slots__ = ("bytes", "messages")

    def __init__(self) -> None:
        self.bytes = 0
        self.messages = 0


def _tally(counter: "Counter[str]", keys: Iterable[str]) -> int:
    """Count ``keys`` into ``counter``; return the bytes its new entries cost."""
    grown = 0
    for key in keys:
        if key in counter:
            counter[key] += 1
        else:
            counter[key] = 1
            grown += _COUNTER_ENTRY_BYTES
    return grown


def _post(index: "dict[str, list[int]]", keys: Iterable[str],
          msg_id: int) -> None:
    """Append ``msg_id`` to the member list of each of ``keys``."""
    for key in keys:
        members = index.get(key)
        if members is None:
            index[key] = [msg_id]
        else:
            members.append(msg_id)


class Bundle:
    """A group of connected messages with summary indicants.

    Parameters
    ----------
    bundle_id:
        Pool-unique integer id.
    config:
        Scoring weights used by the allocation step.
    """

    __slots__ = (
        "bundle_id", "config", "closed",
        "_messages", "_order", "_edges", "_keywords_by_msg",
        "_tag_members", "_url_members", "_keyword_members", "_author_members",
        "hashtag_counts", "url_counts", "keyword_counts", "user_counts",
        "start_time", "end_time", "last_update",
        "_latest", "_monotone",
        "_bytes", "_ledger",
    )

    def __init__(self, bundle_id: int, config: IndexerConfig | None = None) -> None:
        self.bundle_id = bundle_id
        self.config = config or IndexerConfig()
        self.closed = False
        self._messages: dict[int, Message] = {}
        self._order: list[int] = []  # insertion (arrival) order of msg ids
        self._edges: dict[int, Connection] = {}  # src msg id -> edge
        # The arrival keyword set as a tuple in that set's own iteration
        # order: it is only ever iterated, and six keywords cost 88 B as
        # a tuple against 728 B as a frozenset.
        self._keywords_by_msg: dict[int, tuple[str, ...]] = {}
        # Member-level inverted maps, one per indicant kind: term -> member
        # msg ids in arrival order.  Keeps Algorithm 2's candidate
        # gathering O(hits) rather than O(bundle size).
        self._tag_members: dict[str, list[int]] = {}
        self._url_members: dict[str, list[int]] = {}
        self._keyword_members: dict[str, list[int]] = {}
        self._author_members: dict[str, list[int]] = {}
        self.hashtag_counts: Counter[str] = Counter()
        self.url_counts: Counter[str] = Counter()
        self.keyword_counts: Counter[str] = Counter()
        self.user_counts: Counter[str] = Counter()
        self.start_time = float("inf")
        self.end_time = float("-inf")
        self.last_update = float("-inf")
        # The member with the greatest ``sort_key()``, and whether every
        # member so far arrived with both a later-or-equal date and a
        # larger id than all before it — the precondition of
        # :meth:`insert`'s early stop.
        self._latest: Message | None = None
        self._monotone = True
        # Fig. 11 byte model, charged where members, edges and counter
        # keys are added (nothing is ever removed from a bundle), and
        # mirrored into the owning pool's ledger while pooled.
        self._bytes = _BUNDLE_OVERHEAD_BYTES
        self._ledger: MemoryLedger | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._messages

    def __iter__(self) -> Iterator[Message]:
        """Iterate messages in arrival order."""
        return (self._messages[msg_id] for msg_id in self._order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Bundle(id={self.bundle_id}, size={len(self)}, "
                f"closed={self.closed})")

    @property
    def size(self) -> int:
        """Number of messages in the bundle."""
        return len(self._messages)

    @property
    def time_span(self) -> float:
        """Seconds between the oldest and newest message (0.0 if < 2)."""
        if len(self._messages) < 2:
            return 0.0
        return self.end_time - self.start_time

    def get(self, msg_id: int) -> Message | None:
        """Fetch a member message by id."""
        return self._messages.get(msg_id)

    def messages(self) -> list[Message]:
        """Members in arrival order."""
        return [self._messages[msg_id] for msg_id in self._order]

    def message_ids(self) -> list[int]:
        """Member ids in arrival order."""
        return list(self._order)

    def edges(self) -> list[Connection]:
        """All provenance edges (one per non-root message)."""
        return list(self._edges.values())

    def edge_pairs(self) -> set[tuple[int, int]]:
        """The (src, dst) pairs — the evaluation unit of Section VI-B."""
        return {edge.as_pair() for edge in self._edges.values()}

    def parent_of(self, msg_id: int) -> int | None:
        """Provenance parent of a member message (``None`` for roots)."""
        edge = self._edges.get(msg_id)
        return edge.dst_id if edge else None

    def keywords_of(self, msg_id: int) -> tuple[str, ...]:
        """The keyword indicants recorded for a member message, in the
        iteration order of the set they arrived as."""
        return self._keywords_by_msg.get(msg_id, ())

    def summary_words(self, limit: int = 10) -> list[str]:
        """Top frequent indicant words — the bundle summary of Fig. 2a."""
        merged: Counter[str] = Counter()
        merged.update(self.keyword_counts)
        merged.update(self.hashtag_counts)
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        return [word for word, _ in ranked[:limit]]

    # ------------------------------------------------------------------
    # Mutation — Algorithm 2
    # ------------------------------------------------------------------

    #: Allocation alternatives kept per audit record (chosen included).
    AUDIT_TOP_K = 8

    def insert(self, message: Message,
               keywords: Collection[str] = (), *,
               collect: "list[AllocationScore] | None" = None,
               ) -> Connection | None:
        """Insert ``message``, aligning it with the best prior member.

        Implements Algorithm 2: gather candidate members that share any
        indicant with the new message, pick the maximum Eq. 5 similarity,
        connect, and widen the bundle's time window.  The first message of
        a bundle (and any message with an empty candidate set and an empty
        bundle history) becomes a root with no edge.

        ``collect``, when given, receives one deferred capture that
        materializes into the Eq. 2–5 component scores of the
        top-:data:`AUDIT_TOP_K` allocation alternatives (the audit
        layer's decision record); the hot path is untouched when
        ``None``.

        Returns the created :class:`Connection`, or ``None`` for roots.

        Raises
        ------
        BundleClosedError
            If the bundle was closed by the size constraint.
        BundleError
            If the message id is already a member.
        """
        if self.closed:
            raise BundleClosedError(
                f"bundle {self.bundle_id} is closed to new messages")
        if message.msg_id in self._messages:
            raise BundleError(
                f"message {message.msg_id} already in bundle {self.bundle_id}")

        edge = None
        # Only members reached through the RT-author and URL probes can
        # earn Eq. 5's RT bonus or URL term; they are scored first.
        strong_ids = self._strong_member_ids(message)
        window = self._window_ids(message, keywords, strong_ids)
        if window:
            config = self.config
            members = self._messages
            best: "Message | None" = None
            best_key: "tuple[float, float, int] | None" = None
            # The window holds the highest candidate ids.
            oldest_id = window[0]
            for msg_id in strong_ids:
                if msg_id >= oldest_id:
                    prior = members[msg_id]
                    key = (message_similarity(message, prior, config),
                           prior.date, -msg_id)
                    if best_key is None or key > best_key:
                        best, best_key = prior, key
            # Every other member scores ``tag term + time term``; the
            # same float expression over the *bundle's* tags (a superset
            # of the member's; float ops are monotone) is its ceiling.
            # In a monotone bundle receiving an arrival no older than
            # its newest member, the time term — so the ceiling — only
            # falls from the newest candidate to the oldest: once it is
            # *strictly* below the incumbent, no older member can win
            # or tie.  Once it *equals* the incumbent on the incumbent's
            # date, only an equal score on that date can still win, and
            # then the oldest such member does.  Otherwise every member
            # is scored.
            date = message.date
            bounded = self._monotone and date >= self.end_time
            time_weight = config.time_weight
            tags = message.hashtags
            tag_ceiling = (config.hashtag_weight
                           * len(tags & self.hashtag_counts.keys())
                           / len(tags)) if tags else 0.0
            for position in range(len(window) - 1, -1, -1):
                msg_id = window[position]
                if msg_id in strong_ids:
                    continue
                prior = members[msg_id]
                if bounded and best_key is not None:
                    span = abs(date - prior.date) / HOUR_SECONDS
                    ceiling = tag_ceiling + time_weight / (span + 1.0)
                    if ceiling < best_key[0]:
                        break
                    if ceiling == best_key[0] and prior.date == best_key[1]:
                        # The first member of this date group that beats
                        # the incumbent, oldest first, is the winner.  (An
                        # incumbent on an earlier date loses to an equal
                        # score on any date in between: walk on.)
                        start = bisect_left(
                            window, best_key[1], 0, position,
                            key=lambda member_id: members[member_id].date)
                        for msg_id in window[start:position + 1]:
                            if msg_id in strong_ids:
                                continue
                            prior = members[msg_id]
                            key = (message_similarity(message, prior, config),
                                   prior.date, -msg_id)
                            if key > best_key:
                                best, best_key = prior, key
                                break
                        break
                key = (message_similarity(message, prior, config),
                       prior.date, -msg_id)
                if best_key is None or key > best_key:
                    best, best_key = prior, key
            assert best is not None and best_key is not None
            if collect is not None:
                # One reference capture, no per-member work: the audit
                # layer re-derives the Eq. 2–5 breakdown from these
                # (pure) ingredients only when the record is read.  The
                # winner's score is the captured one, so the recorded
                # chosen parent is bit-identical to the created edge.
                collect.append(_RawAllocation(
                    message, window, members, best, best_key[0],
                    self.config, self.AUDIT_TOP_K))
            kind = dominant_connection_type(message, best)
            edge = Connection(message.msg_id, best.msg_id, kind, best_key[0])

        self._register_member(message, keywords, edge)
        return edge

    def _register_member(self, message: Message, keywords: Collection[str],
                         edge: Connection | None = None) -> None:
        """Shared bookkeeping for insertion and verbatim restore.

        With :meth:`_attach_edge` the only place a bundle grows, and so
        the only place its memory total is charged.
        """
        if edge is not None:
            self._attach_edge(message.msg_id, edge)
        latest = self._latest
        if latest is None:
            self._latest = message
        else:
            if (message.date < latest.date
                    or message.msg_id < latest.msg_id):
                self._monotone = False
            if message.sort_key() > latest.sort_key():
                self._latest = message
        self._messages[message.msg_id] = message
        self._order.append(message.msg_id)
        keywords = self._keywords_by_msg[message.msg_id] = tuple(keywords)
        _post(self._tag_members, message.hashtags, message.msg_id)
        _post(self._url_members, message.urls, message.msg_id)
        _post(self._keyword_members, keywords, message.msg_id)
        _post(self._author_members, (message.user,), message.msg_id)
        grown = (_MESSAGE_OVERHEAD_BYTES + len(message.text)
                 + _tally(self.hashtag_counts, message.hashtags)
                 + _tally(self.url_counts, message.urls)
                 + _tally(self.keyword_counts, keywords)
                 + _tally(self.user_counts, (message.user,)))
        self._bytes += grown
        ledger = self._ledger
        if ledger is not None:
            ledger.bytes += grown
            ledger.messages += 1
        # Algorithm 2 lines 8-13: widen [start_time, end_time].
        self.start_time = min(self.start_time, message.date)
        self.end_time = max(self.end_time, message.date)
        self.last_update = max(self.last_update, message.date)

    def _attach_edge(self, msg_id: int, edge: Connection) -> None:
        """Record ``msg_id``'s provenance edge — the one writer of ``_edges``."""
        if msg_id not in self._edges:
            self._bytes += _EDGE_OVERHEAD_BYTES
            if self._ledger is not None:
                self._ledger.bytes += _EDGE_OVERHEAD_BYTES
        self._edges[msg_id] = edge

    def _bind_ledger(self, ledger: MemoryLedger | None) -> None:
        """Move this bundle's totals to ``ledger`` (``None``: to no pool)."""
        previous = self._ledger
        if previous is not None:
            previous.bytes -= self._bytes
            previous.messages -= len(self._messages)
        if ledger is not None:
            ledger.bytes += self._bytes
            ledger.messages += len(self._messages)
        self._ledger = ledger

    def close(self) -> None:
        """Mark the bundle closed (bundle-size constraint, Section V-B)."""
        self.closed = True

    def _window_ids(
        self, message: Message, keywords: Iterable[str],
        strong_ids: "set[int] | None" = None,
    ) -> list[int]:
        """Ascending ids of members sharing an indicant (Alg. 2 lines 1-5).

        Gathered through the member-level inverted maps, keeping only the
        ``ALLOC_WINDOW`` most recent sharers per indicant — old members no
        longer attract alignments (the Fig. 6b observation), and the cap
        bounds insertion cost on huge bundles.

        Falls back to the most recent member when nothing overlaps: the
        message was routed here by the bundle-level summary (e.g. via a
        keyword that has since left a member's top-k), and the freshest
        member is the paper's intuition for alignment.  ``strong_ids``:
        the caller's :meth:`_strong_member_ids` (not modified).
        """
        window = ALLOC_WINDOW
        probes = [members for members in chain(
            map(self._tag_members.get, message.hashtags),
            map(self._keyword_members.get, keywords)) if members]
        candidate_ids = (self._strong_member_ids(message)
                         if strong_ids is None else set(strong_ids))
        # In a monotone bundle every probe list is id-sorted, so one
        # holding a full window puts the merged window at or above its
        # ``ALLOC_WINDOW``-th newest id: the other slices start there.
        floor = max((members[-window] for members in probes
                     if len(members) >= window),
                    default=None) if self._monotone else None
        for members in probes:
            if floor is None:
                candidate_ids.update(members[-window:])
            else:
                candidate_ids.update(members[max(
                    len(members) - window, bisect_left(members, floor)):])
        if not candidate_ids and self._latest is not None:
            candidate_ids.add(self._latest.msg_id)
        # Cap the merged set as well: msg ids are arrival-ordered, so the
        # highest ids are the most recent sharers.
        return sorted(candidate_ids)[-window:]

    def _strong_member_ids(self, message: Message) -> set[int]:
        """Ids the RT-author and URL probes of Alg. 2 reach.

        A superset of the :meth:`_window_ids` that share an RT author or
        a URL with ``message``: a sharer outside its probe's window has
        ``ALLOC_WINDOW`` newer sharers ahead of it in the merged cap as
        well.
        """
        window = ALLOC_WINDOW
        strong_ids: set[int] = set()
        for user in message.rt_users:
            strong_ids.update(self._author_members.get(user, ())[-window:])
        for url in message.urls:
            strong_ids.update(self._url_members.get(url, ())[-window:])
        return strong_ids

    # ------------------------------------------------------------------
    # Memory model (Fig. 11)
    # ------------------------------------------------------------------

    def approximate_memory_bytes(self) -> int:
        """Hardware-independent estimate of this bundle's memory footprint.

        Counts message text, indicant strings and fixed per-object
        overheads.  The paper reports both real megabytes and the
        configuration-independent message count (Fig. 11b); this model
        backs the former while staying deterministic across interpreters.
        The total is maintained as the bundle grows, so reading it is O(1).
        """
        return self._bytes
