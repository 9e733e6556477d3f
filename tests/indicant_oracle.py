"""Uncached indicant extractors (test oracle only).

These are the extractors :mod:`repro.core.message` ran before it shared
recently seen values: every call builds a fresh set, tuple or name.
The shipped extractors must return equal values that iterate in the
same order.
"""

from __future__ import annotations

import re

from repro.core.message import _HASHTAG_RE, _RT_RE, _URL_RE


def hashtags(text: str) -> frozenset[str]:
    return frozenset(tag.lower() for tag in _HASHTAG_RE.findall(text))


def urls(text: str) -> frozenset[str]:
    found = set()
    for raw in _URL_RE.findall(text):
        url = raw.rstrip(".,;:!?)'\"")
        url = re.sub(r"^https?://", "", url, flags=re.IGNORECASE)
        host, _, rest = url.partition("/")
        found.add(host.lower() + ("/" + rest if rest else ""))
    return frozenset(found)


def rt_users(text: str) -> tuple[str, ...]:
    return tuple(user.lower() for user in _RT_RE.findall(text))


def user_name(user: str) -> str:
    return user.lower()
