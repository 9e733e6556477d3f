"""numpy on demand: the one place ``src/repro`` imports numpy.

numpy accelerates three calls — the slab gather above
:data:`~repro.core.postings.SMALL_GATHER_CUTOFF`, the vectorised Eq. 1
kernel that gather feeds, and :class:`~repro.core.dedup.MinHasher`
signatures — and each has a pure-Python twin with identical results.
No other code path touches it, so importing it when a module loads
would charge every process its resident memory (about 12 MB on
CPython 3.11) for calls most stacks never make.  :func:`numpy` imports
it the first time one of those calls runs instead.

A failed import is remembered: a process without numpy searches for it
once, not once per large gather.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

__all__ = ["numpy"]

_UNTRIED: Any = object()
_module: Any = _UNTRIED


def numpy() -> Any:
    """The numpy module, imported on first call; ``None`` without it."""
    global _module
    if _module is _UNTRIED:
        # The importlib spelling keeps mypy --strict happy on machines
        # without numpy installed (the CI typing job).
        try:
            _module = import_module("numpy")
        except ImportError:
            _module = None
    return _module
