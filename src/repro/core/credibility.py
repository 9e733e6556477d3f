"""User credibility from provenance feedback (Quality Identification).

The introduction lists *Quality Identification* as a provenance payoff:
"through the sources, developments and user feedbacks collected from
provenance discovery, users can better distinguish the credibility of
information".  This module turns the discovered connections into exactly
that signal:

* being **re-shared** (RT edges pointing at your messages) raises
  credibility — the crowd endorsed your content,
* **originating** bundles (authoring root messages that grow) raises it,
* posting messages that end up in **singleton** bundles (nobody connected
  to them) drifts a user toward the noise floor.

Scores are maintained incrementally from engine output so the tracker can
run alongside ingestion; a Bayesian-style pseudo-count prior keeps new
users at a neutral score.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bundle import Bundle
from repro.core.connection import ConnectionType
from repro.core.graph import children_map, roots

__all__ = ["UserRecord", "CredibilityTracker"]

#: Pseudo-count mass of the neutral 0.5 score every user starts at.
PRIOR = 4.0


@dataclass(slots=True)
class UserRecord:
    """Feedback counters for one user.

    Counters start as ints; :meth:`CredibilityTracker.decay` scales them
    by a float factor, after which they carry fractional weight (the
    decayed prior of a Bayesian-style forgetting scheme).
    """

    messages: float = 0      # messages screened (near-duplicates excluded)
    reshared: float = 0      # RT edges pointing at this user's messages
    connected: float = 0     # messages that attracted any connection
    sources: float = 0       # root messages of multi-message bundles
    isolated: float = 0      # messages left in singleton bundles
    duplicates: float = 0    # undeclared near-duplicates this user posted

    _DECAYED = ("messages", "reshared", "connected", "sources",
                "isolated", "duplicates")


class CredibilityTracker:
    """Incremental credibility scores from closed/evicted bundles.

    Feed finished bundles with :meth:`observe_bundle` (e.g. from the
    engine's store sink, or over the final pool).  Scores combine the
    endorsement rate and the origination rate against the isolation rate:

    ``score = (reshared + sources + PRIOR·0.5) /
              (messages + isolated + PRIOR)``

    which is a smoothed fraction in (0, 1): 0.5 for unknown users, →1 for
    reliably endorsed sources, →0 for users whose output stays isolated.
    """

    def __init__(self) -> None:
        self.prior = PRIOR
        self._records: dict[str, UserRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, user: str) -> bool:
        return user in self._records

    def record(self, user: str) -> UserRecord:
        """The raw counters for ``user`` (created empty on first access)."""
        record = self._records.get(user)
        if record is None:
            record = self._records[user] = UserRecord()
        return record

    # ------------------------------------------------------------------
    # Streaming spam signal (ingest-guard path)
    # ------------------------------------------------------------------

    def note_message(self, user: str) -> None:
        """Count one screened message that was *not* a near-duplicate."""
        self.record(user).messages += 1

    def note_duplicate(self, user: str) -> None:
        """Count one undeclared near-duplicate from ``user``.

        Declared reshares (messages carrying ``rt_users``) are legitimate
        provenance and must never reach this method — the guard only
        calls it for copies that pretend to be original content.
        """
        self.record(user).duplicates += 1

    def observe_screen(self, user: str, *, duplicate: bool,
                       ) -> "tuple[float, float]":
        """Count one screened arrival; return ``(exposure, spam_score)``.

        Semantically :meth:`note_duplicate`/:meth:`note_message` followed
        by :meth:`exposure` and :meth:`spam_score`, fused into a single
        record lookup — the ingest guard runs this on every arrival.
        """
        record = self.record(user)
        if duplicate:
            record.duplicates += 1
        else:
            record.messages += 1
        observed = record.messages + record.duplicates
        hostile = record.duplicates + record.isolated + 0.5 * self.prior
        mass = observed + record.isolated + self.prior
        return observed, hostile / mass

    def decay(self, factor: float = 0.5) -> None:
        """Scale every counter by ``factor`` (forgetting old behaviour).

        The pseudo-count prior is *not* decayed, so a user who goes
        quiet drifts back toward the neutral score instead of being
        branded forever by early behaviour.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"decay factor must be in (0, 1], got {factor}")
        for record in self._records.values():
            for name in UserRecord._DECAYED:
                setattr(record, name, getattr(record, name) * factor)

    def spam_score(self, user: str) -> float:
        """Fraction of a user's output that looks like spam, in (0, 1).

        ``(duplicates + isolated + 0.5·prior) /
        (messages + duplicates + isolated + prior)``

        0.5 for unseen users; monotone nondecreasing in ``duplicates``
        (the denominator grows by the same amount as the numerator, and
        ``messages + 0.5·prior > 0`` keeps the derivative positive);
        :meth:`decay` moves it back toward 0.5 as the prior's relative
        weight grows.
        """
        record = self._records.get(user)
        if record is None:
            return 0.5
        hostile = record.duplicates + record.isolated + 0.5 * self.prior
        exposure = (record.messages + record.duplicates
                    + record.isolated + self.prior)
        return hostile / exposure

    def exposure(self, user: str) -> float:
        """Observed message mass for ``user`` (screen + duplicate counts)."""
        record = self._records.get(user)
        if record is None:
            return 0.0
        return record.messages + record.duplicates

    def observe_bundle(self, bundle: Bundle) -> None:
        """Fold one bundle's structure into the per-user counters."""
        children = children_map(bundle)
        root_ids = set(roots(bundle))
        is_singleton = len(bundle) == 1
        edge_by_src = {edge.src_id: edge for edge in bundle.edges()}
        for message in bundle.messages():
            record = self.record(message.user)
            record.messages += 1
            kids = children.get(message.msg_id, ())
            if kids:
                record.connected += 1
                rt_kids = sum(
                    1 for kid in kids
                    if edge_by_src[kid].kind is ConnectionType.RT)
                record.reshared += rt_kids
            if message.msg_id in root_ids and len(bundle) > 1:
                record.sources += 1
            if is_singleton:
                record.isolated += 1

    def observe_pool(self, bundles: "list[Bundle]") -> None:
        """Fold a whole pool (convenience for end-of-run scoring)."""
        for bundle in bundles:
            self.observe_bundle(bundle)

    def score(self, user: str) -> float:
        """Smoothed credibility in (0, 1); 0.5 for unseen users."""
        record = self._records.get(user)
        if record is None:
            return 0.5
        positive = record.reshared + record.sources + 0.5 * self.prior
        exposure = record.messages + record.isolated + self.prior
        return min(positive / exposure, 1.0)

    def top_users(self, k: int = 10, *,
                  min_messages: int = 3) -> list[tuple[str, float]]:
        """Most credible users with at least ``min_messages`` observed."""
        eligible = [
            (user, self.score(user))
            for user, record in self._records.items()
            if record.messages >= min_messages
        ]
        eligible.sort(key=lambda pair: (-pair[1], pair[0]))
        return eligible[:k]

    def noise_users(self, k: int = 10, *,
                    min_messages: int = 3) -> list[tuple[str, float]]:
        """Least credible users (probable noise accounts)."""
        eligible = [
            (user, self.score(user))
            for user, record in self._records.items()
            if record.messages >= min_messages
        ]
        eligible.sort(key=lambda pair: (pair[1], pair[0]))
        return eligible[:k]
