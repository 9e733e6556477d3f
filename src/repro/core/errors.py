"""Exception hierarchy for the provenance indexing library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from data problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "MessageError",
    "BundleError",
    "BundleClosedError",
    "BundleNotFoundError",
    "IndexError_",
    "StorageError",
    "CorruptSegmentError",
    "RetryExhaustedError",
    "QueryError",
    "StreamError",
    "POISON_ERRORS",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An :class:`~repro.core.config.IndexerConfig` value is invalid."""


class MessageError(ReproError):
    """A message tuple is malformed (empty user, negative date, ...)."""


class BundleError(ReproError):
    """A bundle-level invariant was violated."""


class BundleClosedError(BundleError):
    """An insertion was attempted on a bundle marked ``closed``."""


class BundleNotFoundError(BundleError):
    """A bundle id was requested that is neither in memory nor on disk."""


class IndexError_(ReproError):
    """The summary index rejected an operation (name avoids builtin clash)."""


class StorageError(ReproError):
    """The on-disk bundle store failed (I/O, serialization, layout)."""


class CorruptSegmentError(StorageError):
    """A storage segment failed checksum or format validation on read."""


class RetryExhaustedError(StorageError):
    """A transient storage failure persisted past the retry budget."""


class QueryError(ReproError):
    """A retrieval request was malformed or unsatisfiable."""


class StreamError(ReproError):
    """The synthetic stream generator or dataset reader failed."""


#: Per-message errors that mean the *message* is bad, not the system:
#: the live supervisor dead-letters on them, WAL replay skips on them.
POISON_ERRORS = (MessageError, BundleError, IndexError_, ValueError,
                 TypeError, KeyError)
