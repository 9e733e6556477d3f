"""Micro-blog aware tokenizer.

Splits raw message text into typed tokens while keeping Twitter-specific
surface forms intact: hashtags (``#redsox``), mentions (``@mlb``) and URLs
stay single tokens so the indexing layers can treat them as indicants rather
than as word soup.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

__all__ = ["TokenType", "Token", "tokenize", "word_tokens"]


class TokenType(str, enum.Enum):
    """Lexical category of a token."""

    WORD = "word"
    HASHTAG = "hashtag"
    MENTION = "mention"
    URL = "url"
    NUMBER = "number"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Token:
    """One token with its surface text, category and token position."""

    text: str
    kind: TokenType
    position: int


_TOKEN_RE = re.compile(
    r"""
    (?P<url>https?://\S+
        |(?:bit\.ly|ow\.ly|is\.gd|tinyurl\.com|t\.co|goo\.gl|twitpic\.com)/\S+)
    |(?P<hashtag>\#\w+)
    |(?P<mention>@\w+)
    |(?P<number>\d+(?:[.,]\d+)*)
    |(?P<word>[A-Za-z]+(?:'[A-Za-z]+)?)
    """,
    re.VERBOSE | re.IGNORECASE,
)

_KIND_BY_GROUP = {
    "url": TokenType.URL,
    "hashtag": TokenType.HASHTAG,
    "mention": TokenType.MENTION,
    "number": TokenType.NUMBER,
    "word": TokenType.WORD,
}


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into typed, positioned tokens.

    >>> [t.text for t in tokenize("Lester down #redsox http://bit.ly/x")]
    ['Lester', 'down', '#redsox', 'http://bit.ly/x']
    """
    tokens: list[Token] = []
    for position, match in enumerate(_TOKEN_RE.finditer(text)):
        group = match.lastgroup
        assert group is not None  # the regex has no empty alternative
        surface = match.group(group).rstrip(".,;:!?)'\"")
        tokens.append(Token(surface, _KIND_BY_GROUP[group], position))
    return tokens


def word_tokens(text: str) -> Iterator[str]:
    """Yield only plain word surfaces (lower-cased) from ``text``.

    Hashtag bodies are included as words (``#redsox`` contributes
    ``redsox``) because the paper's ``text`` connection treats hashtag terms
    as topical words too; mentions and URLs are excluded.

    Reads the regex matches directly instead of going through
    :func:`tokenize`: keyword extraction runs per ingested message and
    has no use for :class:`Token` objects.  The two agree term for term
    — neither a word nor a hashtag match can end in the punctuation
    :func:`tokenize` strips.
    """
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        if group == "word":
            yield match.group().lower()
        elif group == "hashtag":
            yield match.group().lstrip("#").lower()
