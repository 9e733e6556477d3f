"""Vocabulary models for the synthetic micro-blog stream.

The generator needs three lexical resources, all deterministic under a
seeded :class:`random.Random`:

* a **background vocabulary** of common English words sampled with a
  Zipfian distribution (word frequencies in tweets are famously heavy
  tailed),
* **topic word banks** grouped by theme, from which each synthetic event
  draws its characteristic words and hashtags,
* a **short-URL factory** producing ``bit.ly/ab12x``-style links, the
  canonical URL indicant of the paper's Fig. 3.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "COMMON_WORDS",
    "TOPIC_BANKS",
    "EMOTIONAL_FRAGMENTS",
    "ZipfSampler",
    "Vocabulary",
    "ShortUrlFactory",
]

# ---------------------------------------------------------------------------
# Word banks
# ---------------------------------------------------------------------------

COMMON_WORDS: tuple[str, ...] = tuple("""
time people day work life home night week today tomorrow morning thing
world friend house city year hour game show news story phone photo video
music movie song book coffee lunch dinner food drink weather rain sun
train traffic office school class party weekend beach park street road
team player fan crowd ticket seat line wait watch look feel think know
want need love hate like start stop play run walk talk read write post
share check call text meet plan hope wish miss find lose win keep make
take give get come leave stay turn open close break fix buy sell pay
cheap free great good nice cool fun crazy weird funny sad happy angry
tired busy late early real fake true big small long short new old hot
cold fast slow hard easy high low right wrong best worst first last
next back down over under around between during before after still
""".split())

# Thematic banks: each entry is (theme, topic words, hashtag stems).
TOPIC_BANKS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "baseball": (
        ("yankees", "redsox", "stadium", "inning", "pitcher", "lester",
         "homerun", "playoffs", "dugout", "umpire", "bullpen", "clinch",
         "series", "batting", "mound", "ovation"),
        ("redsox", "yankees", "mlb", "baseball"),
    ),
    "tech_conference": (
        ("ibm", "cics", "partner", "conference", "keynote", "mainframe",
         "session", "booth", "demo", "enterprise", "transaction", "release",
         "announcement", "roadmap", "attendee", "workshop"),
        ("cics", "ibm", "tech", "impact09"),
    ),
    "tsunami": (
        ("tsunami", "samoa", "sumatra", "earthquake", "quake", "warning",
         "coast", "waves", "evacuation", "relief", "donate", "victims",
         "rescue", "aftershock", "magnitude", "pacific"),
        ("tsunami", "samoa", "prayforsamoa", "quake"),
    ),
    "election": (
        ("election", "vote", "ballot", "candidate", "debate", "poll",
         "senate", "campaign", "speech", "turnout", "results", "district",
         "governor", "mayor", "recount", "swing"),
        ("election", "vote", "politics", "debate"),
    ),
    "music_awards": (
        ("awards", "stage", "performance", "album", "single", "artist",
         "grammy", "nominee", "redcarpet", "encore", "tour", "concert",
         "setlist", "vocals", "guitar", "drummer"),
        ("vmas", "music", "awards", "concert"),
    ),
    "flu_outbreak": (
        ("flu", "h1n1", "vaccine", "outbreak", "symptoms", "pandemic",
         "clinic", "health", "fever", "hospital", "quarantine", "cases",
         "swine", "doctors", "mask", "immunity"),
        ("h1n1", "swineflu", "health", "flu"),
    ),
    "phone_launch": (
        ("iphone", "launch", "android", "device", "screen", "battery",
         "camera", "update", "firmware", "carrier", "unboxing", "preorder",
         "specs", "storage", "gadget", "review"),
        ("iphone", "android", "gadgets", "mobile"),
    ),
    "football": (
        ("touchdown", "quarterback", "patriots", "steelers", "fumble",
         "interception", "kickoff", "defense", "offense", "field", "coach",
         "roster", "draft", "tailgate", "overtime", "referee"),
        ("nfl", "football", "patriots", "steelers"),
    ),
    "finance": (
        ("market", "stocks", "rally", "earnings", "shares", "dow",
         "nasdaq", "bailout", "recession", "bonds", "trading", "investors",
         "quarterly", "forecast", "dividend", "futures"),
        ("stocks", "market", "finance", "economy"),
    ),
    "wildfire": (
        ("wildfire", "blaze", "firefighters", "evacuate", "acres",
         "containment", "smoke", "flames", "drought", "canyon", "winds",
         "shelter", "embers", "helicopter", "perimeter", "alert"),
        ("wildfire", "fire", "california", "breaking"),
    ),
}

# Short noisy messages the paper calls "emotional phrases and short noise".
EMOTIONAL_FRAGMENTS: tuple[str, ...] = (
    "ugh", "argh!", "sigh!", "unbelievable!!", "wow", "omg", "glee !",
    "so tired", "can't believe it", "this again...", "love it", "hate this",
    "best day ever", "worst day ever", "meh", "yesss", "nooo", "finally",
    "whatever", "seriously?", "no way", "haha", "lol ok", "why though",
    "so good", "so bad", "what a night", "what a game", "here we go",
)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


class ZipfSampler:
    """Draws items from a fixed sequence with Zipf(s) rank frequencies.

    Item at rank ``r`` (0-based) has weight ``1 / (r + 1)^s``.  Sampling is
    O(log n) via a precomputed cumulative table.
    """

    def __init__(self, items: Sequence[str], *, s: float = 1.1) -> None:
        if not items:
            raise ValueError("ZipfSampler needs at least one item")
        if s < 0:
            raise ValueError(f"Zipf exponent must be >= 0, got {s}")
        self.items = tuple(items)
        weights = [1.0 / (rank + 1) ** s for rank in range(len(self.items))]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random) -> str:
        """Draw one item."""
        point = rng.random() * self._total
        index = bisect.bisect_left(self._cumulative, point)
        return self.items[min(index, len(self.items) - 1)]

    def sample_many(self, rng: random.Random, count: int) -> list[str]:
        """Draw ``count`` items independently."""
        return [self.sample(rng) for _ in range(count)]


@dataclass(frozen=True)
class Vocabulary:
    """The generator's lexical resources bundled together."""

    background: ZipfSampler
    themes: tuple[str, ...]

    @classmethod
    def default(cls) -> "Vocabulary":
        """The built-in English background + all topic banks."""
        return cls(
            background=ZipfSampler(COMMON_WORDS, s=1.05),
            themes=tuple(TOPIC_BANKS),
        )

    def background_words(self, rng: random.Random, count: int) -> list[str]:
        """Zipf-sampled filler words."""
        return self.background.sample_many(rng, count)


class ShortUrlFactory:
    """Deterministic ``bit.ly/ab12x`` style short-link generator."""

    _HOSTS = ("bit.ly", "ow.ly", "is.gd", "tinyurl.com", "twitpic.com")
    _ALPHABET = "abcdefghijkmnpqrstuvwxyz23456789"

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._issued: set[str] = set()

    def new_url(self) -> str:
        """Mint a fresh short URL unique within this factory."""
        while True:
            host = self._rng.choice(self._HOSTS)
            slug = "".join(self._rng.choice(self._ALPHABET) for _ in range(5))
            url = f"{host}/{slug}"
            if url not in self._issued:
                self._issued.add(url)
                return url

    def new_pool(self, size: int) -> list[str]:
        """Mint ``size`` distinct URLs (an event's link pool)."""
        return [self.new_url() for _ in range(size)]
