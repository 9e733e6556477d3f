"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.core.message import Message, parse_message
from repro.stream.generator import StreamConfig, StreamGenerator
from repro.text.analyzer import Analyzer

# ``--hypothesis-profile=ci``: a larger example budget for properties
# that leave ``max_examples`` to the profile (the scoring-oracle one).
settings.register_profile("ci", max_examples=1500)

BASE_DATE = 1249084800.0  # 2009-08-01 00:00 UTC
HOUR = 3600.0


@pytest.fixture
def analyzer() -> Analyzer:
    return Analyzer()


@pytest.fixture
def config() -> IndexerConfig:
    return IndexerConfig()


@pytest.fixture
def indexer() -> ProvenanceIndexer:
    return ProvenanceIndexer(IndexerConfig())


def make_message(
    msg_id: int,
    text: str,
    *,
    user: str = "alice",
    hours: float = 0.0,
    event_id: int | None = None,
    parent_id: int | None = None,
) -> Message:
    """Terse message builder used across the suite."""
    return parse_message(
        msg_id, user, BASE_DATE + hours * HOUR, text,
        event_id=event_id, parent_id=parent_id)


@pytest.fixture
def sample_messages() -> list[Message]:
    """A small topical thread: a game, a re-share, and noise."""
    return [
        make_message(0, "Lester getting an ovation at #yankee stadium #redsox",
                     user="amalie", hours=0.0),
        make_message(1, "Classy. Way it should be RT @amalie: Lester getting "
                        "an ovation at #yankee stadium #redsox",
                     user="abcdude", hours=0.5),
        make_message(2, "awesome NY Yankee Stadium photos #redsox "
                        "http://bit.ly/uvcpr", user="baldpunk", hours=1.0),
        make_message(3, "ugh #redsox", user="steve", hours=1.2),
        make_message(4, "market rally today, stocks up #finance "
                        "http://ow.ly/kq3", user="trader", hours=2.0),
    ]


@pytest.fixture
def tiny_stream() -> list[Message]:
    """A deterministic ~1200-message synthetic stream."""
    config = StreamConfig(days=1.0, messages_per_day=1200, seed=3,
                          user_count=200, events_per_day=6.0)
    return StreamGenerator(config).generate_list()
