"""Synthetic micro-blog stream substrate (the paper's dataset substitute).

* :mod:`repro.stream.generator` — deterministic event/cascade/noise stream,
* :mod:`repro.stream.events` — burst and cascade models,
* :mod:`repro.stream.vocab` / :mod:`repro.stream.users` — lexical and user
  populations,
* :mod:`repro.stream.dataset` — TSV persistence,
* :mod:`repro.stream.replay` — temporally-ordered replay with checkpoints,
* :mod:`repro.stream.stats` — stream descriptive statistics.
"""

from repro.stream.dataset import iter_tsv, load_tsv, save_tsv
from repro.stream.events import ActiveEvent, EventSpec
from repro.stream.generator import StreamConfig, StreamGenerator, make_event_spec
from repro.stream.replay import Checkpoint, replay
from repro.stream.stats import StreamStats, describe_stream, histogram
from repro.stream.sampling import (sample_by_hashtag, sample_by_user,
                                   sample_deterministic, sample_uniform)
from repro.stream.users import UserPool
from repro.stream.window import BurstAlarm, SlidingWindowMonitor
from repro.stream.vocab import ShortUrlFactory, Vocabulary, ZipfSampler

__all__ = [
    "iter_tsv",
    "load_tsv",
    "save_tsv",
    "ActiveEvent",
    "EventSpec",
    "StreamConfig",
    "StreamGenerator",
    "make_event_spec",
    "Checkpoint",
    "replay",
    "StreamStats",
    "describe_stream",
    "histogram",
    "sample_by_hashtag",
    "sample_by_user",
    "sample_deterministic",
    "sample_uniform",
    "UserPool",
    "BurstAlarm",
    "SlidingWindowMonitor",
    "ShortUrlFactory",
    "Vocabulary",
    "ZipfSampler",
]
