"""Micro-blog message model (Definition 1 of the paper).

A message is the multi-field tuple ``[date, user, msg, urls, hashtags, rt]``.
This module provides the immutable :class:`Message` record plus the entity
extraction used to populate the annotated-indicant fields from raw text:

* ``hashtags`` — tokens starting with ``#`` (``#redsox``),
* ``urls``     — ``http(s)://`` links and bare shortener links (``bit.ly/x``),
* ``rt``       — the re-share marker ``RT @user:`` identifying the user whose
  message is being re-shared (Table I of the paper).

Messages are hashable value objects; the stream layer assigns monotonically
increasing integer ids so that ``date`` ties break deterministically.
Every message without a hashtag or URL holds the one shared
:data:`NO_INDICANTS` set rather than a private empty set, and every
other indicant value is shared with the recent messages that spelled it
the same way (:data:`SHARED_VALUES`).
:func:`encode_row` / :func:`decode_row` are the one on-disk spelling of a
message, shared by the WAL, the quarantine log and the TSV dataset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from repro.core.errors import MessageError
from repro.reliability.fsio import escape_field, unescape_field

__all__ = [
    "Message",
    "NO_INDICANTS",
    "extract_hashtags",
    "extract_urls",
    "extract_rt_users",
    "extract_mentions",
    "strip_entities",
    "parse_message",
    "restore_message",
    "encode_row",
    "decode_row",
]

_HASHTAG_RE = re.compile(r"#(\w+)")
_MENTION_RE = re.compile(r"@(\w+)")
_URL_RE = re.compile(
    r"(?:https?://\S+"  # absolute http(s) URLs
    r"|(?:bit\.ly|ow\.ly|is\.gd|tinyurl\.com|t\.co|goo\.gl|twitpic\.com)/\S+)",
    re.IGNORECASE,
)
# ``RT @user:`` or ``RT @user`` — re-share marker, possibly chained.
_RT_RE = re.compile(r"\bRT\s+@(\w+)\b:?", re.IGNORECASE)

#: The empty indicant set every extractor returns when it finds nothing
#: and every :class:`Message` defaults to.  CPython 3.11 keeps no shared
#: empty ``frozenset``: each ``frozenset()`` is its own 216-byte object,
#: and more than half of all hashtag and URL sets are empty.
NO_INDICANTS: frozenset[str] = frozenset()

#: Entries of each bounded cache that hands recent messages one shared
#: value per spelling: hashtag set, URL set, RT chain and author name,
#: on parse, restore and unpickle.  Each cache is keyed by the sequence
#: its value is built from, so a shared set holds the same elements in
#: the same insertion order as a fresh one and iterates identically.
#: Bounded, because a stream of distinct names must not grow memory for
#: good (interned strings are immortal on CPython 3.12); 64 entries keep
#: nearly all of the sharing a 1 024-entry cache gets.
SHARED_VALUES = 64

_shared = lru_cache(maxsize=SHARED_VALUES)


@_shared
def _hashtag_set(tags: tuple[str, ...]) -> frozenset[str]:
    return frozenset(tag.lower() for tag in tags)


@_shared
def _url_set(matches: tuple[str, ...]) -> frozenset[str]:
    found = set()
    for raw in matches:
        url = raw.rstrip(".,;:!?)'\"")
        url = re.sub(r"^https?://", "", url, flags=re.IGNORECASE)
        host, _, rest = url.partition("/")
        found.add(host.lower() + ("/" + rest if rest else ""))
    return frozenset(found)


@_shared
def _rt_chain(users: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(user.lower() for user in users)


@_shared
def _user_name(user: str) -> str:
    return user.lower()


# Restore and unpickle: already-extracted values, shared the same way.
_stored_set = _shared(frozenset)
_stored_chain = _shared(tuple)
_stored_name = _shared(str)


def extract_hashtags(text: str) -> frozenset[str]:
    """Return the lower-cased hashtag set of ``text`` (without the ``#``)."""
    tags = _HASHTAG_RE.findall(text)
    return _hashtag_set(tuple(tags)) if tags else NO_INDICANTS


def extract_urls(text: str) -> frozenset[str]:
    """Return the URL set of ``text``, normalised.

    Normalisation lower-cases the host part, strips a trailing punctuation
    character (URLs at the end of a sentence frequently absorb a ``.`` or
    ``!``) and removes an ``http(s)://`` prefix so that ``http://bit.ly/x``
    and ``bit.ly/x`` compare equal — shorteners are the paper's canonical
    URL indicant (Fig. 3).  The path keeps its case.
    """
    matches = _URL_RE.findall(text)
    return _url_set(tuple(matches)) if matches else NO_INDICANTS


def extract_rt_users(text: str) -> tuple[str, ...]:
    """Return the chain of re-shared users, outermost first.

    ``"WHEW!! RT @MLB: RT @IanMBrowne X-rays negative"`` yields
    ``("mlb", "ianmbrowne")`` — the message re-shares @MLB's re-share of
    @IanMBrowne's original post.
    """
    users = _RT_RE.findall(text)
    return _rt_chain(tuple(users)) if users else ()


def extract_mentions(text: str) -> frozenset[str]:
    """Return all ``@user`` mentions (lower-cased), including RT targets."""
    return frozenset(user.lower() for user in _MENTION_RE.findall(text))


def strip_entities(text: str) -> str:
    """Return ``text`` with URLs, hashtag markers and RT markers removed.

    Used to obtain the plain word content for keyword extraction and for
    the ``text`` connection type of Table II.
    """
    text = _URL_RE.sub(" ", text)
    text = _RT_RE.sub(" ", text)
    text = text.replace("#", " ")
    return " ".join(text.split())


@dataclass(frozen=True, slots=True)
class Message:
    """One micro-blog message (Definition 1).

    Attributes
    ----------
    msg_id:
        Stream-unique integer id; assigned in arrival order so it also
        serves as a deterministic tie-break for equal dates.
    user:
        Author screen name (lower-cased by :func:`parse_message`).
    date:
        Publication time as POSIX seconds (float).
    text:
        The raw message text (at most a few hundred characters).
    hashtags / urls:
        Extracted annotated indicants (Table II connection keys).
    rt_users:
        Re-share chain extracted from ``RT @user:`` markers; empty tuple
        for original posts.
    event_id / parent_id:
        Optional ground-truth labels carried by the synthetic stream
        generator (``None`` on real data).  ``parent_id`` is the id of the
        message this one was derived from (re-share or follow-up); it is
        *never* consulted by the indexing algorithms, only by evaluation.
    """

    msg_id: int
    user: str
    date: float
    text: str
    hashtags: frozenset[str] = NO_INDICANTS
    urls: frozenset[str] = NO_INDICANTS
    rt_users: tuple[str, ...] = ()
    event_id: int | None = None
    parent_id: int | None = None

    def __post_init__(self) -> None:
        if self.msg_id < 0:
            raise MessageError(f"msg_id must be non-negative, got {self.msg_id}")
        if not self.user:
            raise MessageError("message user must be non-empty")
        if self.date < 0:
            raise MessageError(f"message date must be non-negative, got {self.date}")

    @property
    def is_retweet(self) -> bool:
        """Whether this message re-shares a previous one (has an RT marker)."""
        return bool(self.rt_users)

    def plain_text(self) -> str:
        """Message text with URLs / RT markers / hashtag sigils removed."""
        return strip_entities(self.text)

    def sort_key(self) -> tuple[float, int]:
        """Total order used by streams: by date, then by arrival id."""
        return (self.date, self.msg_id)

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # Each set travels as its elements in this side's iteration
        # order, as a frozenset's own pickle does, and is rebuilt
        # through the shared caches: batches share values across calls.
        return (restore_message, (
            self.msg_id, self.user, self.date, self.text,
            tuple(self.hashtags), tuple(self.urls), self.rt_users,
            self.event_id, self.parent_id))


def parse_message(
    msg_id: int,
    user: str,
    date: float,
    text: str,
    *,
    event_id: int | None = None,
    parent_id: int | None = None,
) -> Message:
    """Build a :class:`Message`, extracting all annotated indicants.

    This is the single entry point both the dataset reader and the synthetic
    generator use, so entity extraction is applied uniformly.
    """
    return Message(
        msg_id=msg_id,
        user=_user_name(user),
        date=float(date),
        text=text,
        hashtags=extract_hashtags(text),
        urls=extract_urls(text),
        rt_users=extract_rt_users(text),
        event_id=event_id,
        parent_id=parent_id,
    )


def restore_message(
    msg_id: int,
    user: str,
    date: float,
    text: str,
    hashtags: Iterable[str],
    urls: Iterable[str],
    rt_users: Iterable[str],
    event_id: int | None,
    parent_id: int | None,
) -> Message:
    """Rebuild a :class:`Message` from its already-extracted fields.

    Snapshot and store restore and unpickling use it.  Each set is built
    from the values in the order given, and every value is shared with
    recent restores through bounded caches like :func:`parse_message`'s.
    """
    tags, links, chain = tuple(hashtags), tuple(urls), tuple(rt_users)
    return Message(
        msg_id=msg_id,
        user=_stored_name(user),
        date=date,
        text=text,
        hashtags=_stored_set(tags) if tags else NO_INDICANTS,
        urls=_stored_set(links) if links else NO_INDICANTS,
        rt_users=_stored_chain(chain) if chain else (),
        event_id=event_id,
        parent_id=parent_id,
    )


def encode_row(message: Message) -> str:
    """The one on-disk spelling of a message: the tab-separated row
    ``msg_id, user, date, event_id, parent_id, text`` that the WAL, the
    quarantine log and the TSV dataset store.  Both free-text fields are
    escaped, so a row holds no raw tab, CR or LF.  Entities are not
    stored; :func:`decode_row` re-extracts them."""
    event = "" if message.event_id is None else str(message.event_id)
    parent = "" if message.parent_id is None else str(message.parent_id)
    return (f"{message.msg_id}\t{escape_field(message.user)}\t"
            f"{message.date!r}\t{event}\t{parent}\t"
            f"{escape_field(message.text)}")


def decode_row(row: str) -> Message:
    """Invert :func:`encode_row`; ``ValueError`` for a malformed row (a
    wrong field count, a non-numeric id or date)."""
    msg_id, user, date, event, parent, text = row.split("\t")
    return parse_message(
        int(msg_id), unescape_field(user), float(date), unescape_field(text),
        event_id=int(event) if event else None,
        parent_id=int(parent) if parent else None)
