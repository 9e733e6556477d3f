"""Synthetic micro-blog stream generator (the dataset substitute).

The paper replays a two-month 2009 Twitter crawl (~70k messages/day).  That
dataset is not redistributable, so :class:`StreamGenerator` synthesises a
stream with the statistical properties the provenance algorithms are
sensitive to:

* a configurable daily message rate with a diurnal activity curve,
* bursty **events** with gamma rise-and-decay lifetimes and heavy-tailed
  volumes (most events small, a few huge — the shape behind Fig. 6a),
* **retweet cascades** inside events via preferential attachment,
* Zipfian background vocabulary, hashtag and short-URL indicants,
* a **noise floor** of short emotional fragments (Fig. 1's "ugh #redsox"),
* ground-truth ``event_id`` / ``parent_id`` labels on every message.

Everything is deterministic under ``StreamConfig.seed``.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import StreamError
from repro.core.message import Message, parse_message
from repro.stream.events import ActiveEvent, EventSpec
from repro.stream.users import UserPool
from repro.stream.vocab import (EMOTIONAL_FRAGMENTS, ShortUrlFactory,
                                TOPIC_BANKS, Vocabulary)

__all__ = ["StreamConfig", "StreamGenerator", "make_event_spec",
           "AdversarialConfig", "AdversarialGenerator",
           "ADVERSARIAL_SCENARIOS"]

# 2009-08-01 00:00 UTC — the start of the paper's two-month subset.
EPOCH_2009_08_01 = 1249084800.0
_DAY = 86400.0
_HOUR = 3600.0

#: Scale of the Pareto event volumes (most events small, a few huge).
EVENT_VOLUME_MEAN = 40
#: Mean of the exponential event lifetimes, in hours.
EVENT_DURATION_HOURS_MEAN = 18.0
#: Per-message probabilities inside an event: an RT of an earlier event
#: message, the event's hashtags, one of its URLs.
RT_PROB = 0.35
HASHTAG_PROB = 0.85
URL_PROB = 0.30

# Relative activity per hour-of-day (UTC): quiet overnight, evening peak.
_DIURNAL_WEIGHTS = (
    2, 1, 1, 1, 1, 2, 3, 5, 7, 8, 8, 9,
    9, 9, 9, 9, 10, 11, 12, 12, 11, 9, 6, 4,
)


@dataclass(frozen=True, slots=True)
class StreamConfig:
    """Knobs of the synthetic stream.

    The defaults give a small smoke-test stream; benchmarks scale
    ``days`` / ``messages_per_day`` up to approach the paper's volumes.
    """

    seed: int = 7
    start_date: float = EPOCH_2009_08_01
    days: float = 7.0
    messages_per_day: int = 2000
    noise_fraction: float = 0.25
    user_count: int = 2000
    events_per_day: float = 10.0
    event_volume_max: int = 3000
    extra_events: tuple[EventSpec, ...] = ()
    themes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise StreamError(f"days must be positive, got {self.days}")
        if self.messages_per_day <= 0:
            raise StreamError("messages_per_day must be positive, got "
                              f"{self.messages_per_day}")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise StreamError("noise_fraction must be in [0, 1), got "
                              f"{self.noise_fraction}")
        if self.user_count <= 0:
            raise StreamError(f"user_count must be positive, got "
                              f"{self.user_count}")
        if self.events_per_day < 0:
            raise StreamError("events_per_day must be >= 0, got "
                              f"{self.events_per_day}")
        if self.themes is not None:
            unknown = set(self.themes) - set(TOPIC_BANKS)
            if unknown:
                raise StreamError(
                    f"unknown themes {sorted(unknown)}; available: "
                    f"{sorted(TOPIC_BANKS)}")
            if not self.themes:
                raise StreamError("themes, when given, must be non-empty")

    @property
    def end_date(self) -> float:
        """Exclusive end of the stream window."""
        return self.start_date + self.days * _DAY

    @property
    def total_messages(self) -> int:
        """The stream's exact message count."""
        return int(self.messages_per_day * self.days)


@dataclass(slots=True)
class _Stub:
    """A scheduled-but-unmaterialised message."""

    date: float
    event_id: int | None  # None = noise

    def __lt__(self, other: "_Stub") -> bool:
        return self.date < other.date


class StreamGenerator:
    """Deterministic synthetic message stream.

    Usage::

        config = StreamConfig(days=3, messages_per_day=5000, seed=42)
        for message in StreamGenerator(config):
            indexer.ingest(message)
    """

    def __init__(self, config: StreamConfig | None = None, *,
                 vocabulary: Vocabulary | None = None) -> None:
        self.config = config or StreamConfig()
        self.vocabulary = vocabulary or Vocabulary.default()
        self._events: dict[int, ActiveEvent] = {}
        self._specs: list[EventSpec] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Message]:
        return self.generate()

    def event_specs(self) -> list[EventSpec]:
        """The event schedule of the last/current generation run."""
        return list(self._specs)

    def generate(self) -> Iterator[Message]:
        """Yield the whole stream in date order with fresh ids from 0."""
        rng = random.Random(self.config.seed)
        users = UserPool.generate(self.config.user_count, rng)
        url_factory = ShortUrlFactory(rng)

        self._specs = self._schedule_events(rng, users, url_factory)
        self._events = {
            spec.event_id: ActiveEvent(spec, self.vocabulary)
            for spec in self._specs
        }
        stubs = self._draw_stubs(rng)

        msg_id = 0
        for stub in stubs:
            if stub.event_id is None:
                message = self._materialise_noise(msg_id, stub, users, rng)
            else:
                message = self._materialise_event(msg_id, stub, users, rng)
            msg_id += 1
            yield message

    def generate_list(self) -> list[Message]:
        """Materialise the whole stream into a list (small streams only)."""
        return list(self.generate())

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _schedule_events(self, rng: random.Random, users: UserPool,
                         url_factory: ShortUrlFactory) -> list[EventSpec]:
        config = self.config
        count = round(config.events_per_day * config.days)
        themes = list(config.themes if config.themes is not None
                      else TOPIC_BANKS)
        specs = list(config.extra_events)

        # Heavy-tailed volumes: most events small, a few very large.
        raw_volumes = []
        for _ in range(count):
            volume = int(5 + (rng.paretovariate(1.25) - 1.0)
                         * EVENT_VOLUME_MEAN)
            raw_volumes.append(min(volume, config.event_volume_max))

        # Scale volumes so events + noise hit the configured daily rate.
        extra_volume = sum(spec.volume for spec in config.extra_events)
        event_budget = max(
            0,
            int(config.total_messages * (1.0 - config.noise_fraction))
            - extra_volume,
        )
        raw_total = sum(raw_volumes)
        if raw_total > 0 and event_budget > 0:
            scale = event_budget / raw_total
            volumes = [max(2, int(v * scale)) for v in raw_volumes]
        else:
            volumes = [0] * count

        next_id = max((spec.event_id for spec in specs), default=-1) + 1
        for index in range(count):
            if volumes[index] <= 0:
                continue
            theme = rng.choice(themes)
            specs.append(make_event_spec(
                event_id=next_id,
                theme=theme,
                name=f"{theme}-{index}",
                start=rng.uniform(config.start_date,
                                  config.end_date - _HOUR),
                duration_hours=max(
                    1.0, rng.expovariate(
                        1.0 / EVENT_DURATION_HOURS_MEAN)),
                volume=volumes[index],
                rng=rng,
                users=users,
                url_factory=url_factory,
            ))
            next_id += 1
        return specs

    def _draw_stubs(self, rng: random.Random) -> list[_Stub]:
        config = self.config
        streams: list[list[_Stub]] = []
        event_total = 0
        for spec in self._specs:
            times = sorted(spec.sample_times(rng))
            streams.append([_Stub(min(t, config.end_date - 1.0), spec.event_id)
                            for t in times])
            event_total += len(times)

        noise_count = max(0, config.total_messages - event_total)
        noise = sorted(
            _Stub(self._sample_background_time(rng), None)
            for _ in range(noise_count)
        )
        streams.append(noise)
        return list(heapq.merge(*streams))

    def _sample_background_time(self, rng: random.Random) -> float:
        """Uniform day, diurnal hour-of-day, uniform within the hour."""
        config = self.config
        day = rng.randrange(int(config.days)) if config.days >= 1 else 0
        hour = rng.choices(range(24), weights=_DIURNAL_WEIGHTS, k=1)[0]
        offset = rng.uniform(0.0, _HOUR)
        date = config.start_date + day * _DAY + hour * _HOUR + offset
        return min(date, config.end_date - 1.0)

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def _materialise_noise(self, msg_id: int, stub: _Stub,
                           users: UserPool, rng: random.Random) -> Message:
        fragment = rng.choice(EMOTIONAL_FRAGMENTS)
        parts = [fragment]
        # Some noise messages piggyback on trending hashtags (Fig. 1's
        # "ugh #redsox"), which is exactly what stresses bundle precision.
        if self._specs and rng.random() < 0.30:
            spec = rng.choice(self._specs)
            if spec.hashtags:
                parts.append("#" + rng.choice(spec.hashtags))
        if rng.random() < 0.25:
            parts.extend(self.vocabulary.background_words(
                rng, rng.randint(1, 3)))
        return parse_message(
            msg_id, users.sample_author(rng), stub.date, " ".join(parts))

    def _materialise_event(self, msg_id: int, stub: _Stub,
                           users: UserPool, rng: random.Random) -> Message:
        assert stub.event_id is not None
        event = self._events[stub.event_id]
        spec = event.spec
        author = event.pick_author(rng, users.sample_author(rng))
        parent = None
        if rng.random() < spec.rt_prob:
            parent = event.pick_parent(rng)
        if parent is not None:
            text = event.compose_retweet(parent, rng)
            parent_id = parent.msg_id
        else:
            text = event.compose_original(rng)
            parent_id = None
        event.record(msg_id, author, stub.date, text)
        return parse_message(
            msg_id, author, stub.date, text,
            event_id=spec.event_id, parent_id=parent_id)


def make_event_spec(
    *,
    event_id: int,
    theme: str,
    name: str,
    start: float,
    duration_hours: float,
    volume: int,
    rng: random.Random,
    users: UserPool,
    url_factory: ShortUrlFactory,
    rt_prob: float = RT_PROB,
) -> EventSpec:
    """Build a concrete :class:`EventSpec` from a topic bank.

    Each event samples its own subset of the theme's word bank and mints
    its own URL pool, so two events of the same theme overlap on hashtags
    (realistic — ``#redsox`` recurs every game night) but are separable by
    vocabulary, URLs and time.
    """
    if theme not in TOPIC_BANKS:
        raise StreamError(
            f"unknown theme {theme!r}; available: {sorted(TOPIC_BANKS)}")
    topic_words, hashtag_stems = TOPIC_BANKS[theme]
    word_count = min(len(topic_words), rng.randint(8, 12))
    # Events carry mostly event-specific tags ("#samoa0930"-style): this is
    # what real micro-blog events do, and it is what keeps same-theme
    # events from chaining into one week-spanning conglomerate bundle.
    # A broad recurring stem ("#redsox") is added only sometimes.
    hashtags = [f"{hashtag_stems[0]}{rng.randint(100, 999)}"]
    if rng.random() < 0.5:
        hashtags.append(f"{rng.choice(hashtag_stems)}{rng.randint(100, 999)}")
    if rng.random() < 0.4:
        hashtags.append(rng.choice(hashtag_stems))
    return EventSpec(
        event_id=event_id,
        theme=theme,
        name=name,
        start=start,
        duration=duration_hours * _HOUR,
        volume=volume,
        rt_prob=rt_prob,
        hashtag_prob=HASHTAG_PROB,
        url_prob=URL_PROB,
        topic_words=tuple(rng.sample(topic_words, word_count)),
        hashtags=tuple(hashtags),
        urls=tuple(url_factory.new_pool(rng.randint(1, 4))),
        core_users=tuple(users.sample_distinct(rng, rng.randint(2, 6))),
    )


# ---------------------------------------------------------------------------
# Adversarial workloads (PR 7)
# ---------------------------------------------------------------------------

#: The five hostile scenarios the robustness suite pins down.
ADVERSARIAL_SCENARIOS = ("spam-flood", "hashtag-hijack", "near-dup-storm",
                         "mega-cascade", "skewed-clock")

_SPAM_TEMPLATES = (
    "make money fast working from home click {url} and win big prizes",
    "free followers instantly visit {url} limited offer dont miss out",
    "lose weight quick with this one trick {url} doctors hate it",
    "claim your gift card now at {url} only today exclusive deal",
)

#: Attack volume as a fraction of the organic message count.
INTENSITY = 0.25
ATTACKER_COUNT = 12
#: Near-copies emitted per storm original.
DUP_COPIES = 8
#: Fraction of organic messages re-dated under ``skewed-clock``, by up
#: to :data:`MAX_SKEW_HOURS` either way.
SKEW_FRACTION = 0.2
MAX_SKEW_HOURS = 48.0
#: Mega-cascade volume = factor × :data:`EVENT_VOLUME_MEAN`.
CASCADE_FACTOR = 20

_SPAM_FILLER = ("wow", "amazing", "hurry", "really", "verified", "legit",
                "today", "bonus", "act", "now", "best", "deal")


@dataclass(frozen=True, slots=True)
class AdversarialConfig:
    """One hostile workload layered over an organic base stream.

    Injection scenarios (``spam-flood`` / ``hashtag-hijack`` /
    ``near-dup-storm``) keep the organic messages — ids, dates, event
    and parent ground truth — *byte-identical* to the base stream and
    merge seeded attack traffic into it (attack ids start after the
    organic ids, attack messages carry no ground truth, so every false
    edge the attack induces is measurable as an accuracy loss).
    ``mega-cascade`` regenerates the stream with one enormous extra
    event; ``skewed-clock`` re-dates a fraction of organic messages
    without re-sorting, producing genuine out-of-order arrival.
    """

    scenario: str
    base: StreamConfig = StreamConfig()
    seed: int = 1337

    def __post_init__(self) -> None:
        if self.scenario not in ADVERSARIAL_SCENARIOS:
            raise StreamError(
                f"unknown scenario {self.scenario!r}; available: "
                f"{list(ADVERSARIAL_SCENARIOS)}")


class AdversarialGenerator:
    """Materialise one :class:`AdversarialConfig` scenario."""

    def __init__(self, config: AdversarialConfig) -> None:
        self.config = config

    def __iter__(self) -> Iterator[Message]:
        return iter(self.generate_list())

    def generate_list(self) -> list[Message]:
        config = self.config
        if config.scenario == "mega-cascade":
            return self._mega_cascade()
        organic = StreamGenerator(config.base).generate_list()
        rng = random.Random(config.seed)
        if config.scenario == "skewed-clock":
            return self._skewed_clock(organic, rng)
        if config.scenario == "spam-flood":
            attacks = self._spam_flood(organic, rng)
        elif config.scenario == "hashtag-hijack":
            attacks = self._hashtag_hijack(organic, rng)
        else:  # near-dup-storm
            attacks = self._near_dup_storm(organic, rng)
        merged = organic + attacks
        merged.sort(key=lambda m: (m.date, m.msg_id))
        return merged

    # -- scenario builders --------------------------------------------------

    def _attacker(self, index: int) -> str:
        return f"spammer{index % ATTACKER_COUNT}"

    def _attack_budget(self, organic: "list[Message]") -> int:
        return max(1, int(len(organic) * INTENSITY))

    def _window(self, organic: "list[Message]",
                rng: random.Random) -> float:
        base = self.config.base
        return rng.uniform(base.start_date, base.end_date)

    def _spam_flood(self, organic: "list[Message]",
                    rng: random.Random) -> "list[Message]":
        """Attackers blast near-identical promo posts across the window."""
        url_factory = ShortUrlFactory(rng)
        payload_urls = url_factory.new_pool(ATTACKER_COUNT)
        attacks = []
        next_id = len(organic)
        for i in range(self._attack_budget(organic)):
            attacker_index = i % ATTACKER_COUNT
            template = _SPAM_TEMPLATES[attacker_index % len(_SPAM_TEMPLATES)]
            text = template.format(
                url=payload_urls[attacker_index % len(payload_urls)])
            # One filler word per copy: near- (not exact-) duplicates.
            # Hashtags and the payload url are stripped before
            # shingling, so a single varying tail word holds the exact
            # Jaccard against a template-mate at 8/10 — right on the
            # default screen threshold, the adversary's best evasion.
            text += f" {rng.choice(_SPAM_FILLER)} #free #win"
            attacks.append(parse_message(
                next_id, self._attacker(i), self._window(organic, rng),
                text))
            next_id += 1
        return attacks

    def _hashtag_hijack(self, organic: "list[Message]",
                        rng: random.Random) -> "list[Message]":
        """Promo spam piggybacking the stream's trending hashtags."""
        counts: "dict[str, int]" = {}
        for message in organic:
            for tag in message.hashtags:
                counts[tag] = counts.get(tag, 0) + 1
        trending = sorted(counts, key=lambda t: (-counts[t], t))[:10]
        if not trending:
            trending = ["trending"]
        url_factory = ShortUrlFactory(rng)
        payload_urls = url_factory.new_pool(4)
        attacks = []
        next_id = len(organic)
        for i in range(self._attack_budget(organic)):
            template = _SPAM_TEMPLATES[i % len(_SPAM_TEMPLATES)]
            text = template.format(url=rng.choice(payload_urls))
            text += (f" {rng.choice(_SPAM_FILLER)} "
                     f"#{rng.choice(trending)} #{rng.choice(trending)}")
            attacks.append(parse_message(
                next_id, self._attacker(i), self._window(organic, rng),
                text))
            next_id += 1
        return attacks

    def _near_dup_storm(self, organic: "list[Message]",
                        rng: random.Random) -> "list[Message]":
        """Attackers replay near-copies of real messages minutes later."""
        originals = [m for m in organic
                     if len(m.text.split()) >= 8 and not m.rt_users]
        if not originals:
            originals = organic
        storm_count = max(1, self._attack_budget(organic) // DUP_COPIES)
        attacks = []
        next_id = len(organic)
        for i in range(storm_count):
            original = rng.choice(originals)
            for copy in range(DUP_COPIES):
                # A trailing filler word keeps the copy *near*-identical
                # (no declared RT — this is content theft, not sharing).
                text = f"{original.text} {rng.choice(_SPAM_FILLER)}"
                date = original.date + rng.uniform(30.0, 1800.0)
                attacks.append(parse_message(
                    next_id, self._attacker(i * DUP_COPIES + copy),
                    date, text))
                next_id += 1
        return attacks

    def _mega_cascade(self) -> "list[Message]":
        """One event so large its bundle dwarfs the rest of the pool."""
        config = self.config
        base = config.base
        rng = random.Random(config.seed)
        users = UserPool.generate(base.user_count, rng)
        url_factory = ShortUrlFactory(rng)
        theme = sorted(TOPIC_BANKS)[config.seed % len(TOPIC_BANKS)]
        volume = CASCADE_FACTOR * EVENT_VOLUME_MEAN
        huge = make_event_spec(
            event_id=1_000_000,
            theme=theme,
            name="mega-cascade",
            start=base.start_date + 0.25 * (base.end_date - base.start_date),
            duration_hours=base.days * 12.0,
            volume=volume,
            rng=rng,
            users=users,
            url_factory=url_factory,
            rt_prob=min(0.9, RT_PROB * 2))
        boosted = dataclasses.replace(
            base, extra_events=base.extra_events + (huge,))
        return StreamGenerator(boosted).generate_list()

    def _skewed_clock(self, organic: "list[Message]",
                      rng: random.Random) -> "list[Message]":
        """Re-date a fraction of messages without re-sorting the stream.

        Arrival order stays the organic order (that is the attack:
        out-of-order delivery), so a naive consumer sees timestamps
        jumping back and forth by up to :data:`MAX_SKEW_HOURS`.
        """
        skew_span = MAX_SKEW_HOURS * _HOUR
        skewed = []
        for message in organic:
            if rng.random() < SKEW_FRACTION:
                delta = rng.uniform(-skew_span, skew_span)
                new_date = max(0.0, message.date + delta)
                skewed.append(dataclasses.replace(message, date=new_date))
            else:
                skewed.append(message)
        return skewed
