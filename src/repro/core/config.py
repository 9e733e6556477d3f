"""Configuration for the provenance indexer.

All tunables the paper mentions are gathered in one frozen dataclass:

* Eq. 1 / Eq. 5 weighting parameters (α, β, γ),
* the bundle-pool limitation and refinement thresholds of Algorithm 3,
* the bundle-size constraint of Section V-B,
* candidate-fetch and keyword-extraction knobs for the summary index.

The three experiment variants of Section VI map onto factory methods:
:meth:`IndexerConfig.full_index`, :meth:`IndexerConfig.partial_index`
and :meth:`IndexerConfig.bundle_limit`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import ConfigurationError

__all__ = ["IndexerConfig", "DAY_SECONDS", "HOUR_SECONDS"]

HOUR_SECONDS = 3600.0
DAY_SECONDS = 24 * HOUR_SECONDS


@dataclass(frozen=True, slots=True)
class IndexerConfig:
    """Tunable parameters of the provenance indexing engine.

    Attributes
    ----------
    url_weight, hashtag_weight, time_weight:
        α, β, γ of Eq. 1 and Eq. 5 — the relative importance of URL
        overlap, hashtag overlap and time closeness when scoring a new
        message against candidate bundles and against messages inside the
        chosen bundle.
    keyword_weight:
        Weight of shared plain-text keywords; the paper's Eq. 1 ends with
        "…" indicating further indicants can be folded in — keywords are
        the one its Table II names (``text`` connections).
    rt_weight:
        Weight of an explicit RT match (re-shared user appears in the
        bundle).  RT is the strongest provenance signal (Table II).
    min_match_score:
        A candidate bundle must reach this aggregated Eq. 1 score to absorb
        the new message; otherwise a fresh bundle is created.  The default
        (1.0) is calibrated against the default weights so that freshness
        alone — or a single shared background keyword — can never merge a
        message, while one shared hashtag or URL on a live bundle can.
    alloc_window:
        Algorithm 2 compares the new message against at most this many of
        the bundle's most recent indicant-sharing members.  Keeps
        allocation O(window) instead of O(bundle size); the paper's own
        bundles "no longer get updating after some time", so old members
        are not useful alignment targets.
    max_pool_size:
        Bundle-pool limitation *M* of Algorithm 3.  ``None`` disables the
        pool bound entirely (the *Full Index* baseline).
    refine_trigger:
        Pool occupancy (absolute bundle count) at which a refinement scan
        is invoked; the paper sets "a lower bound for the number of bundles
        to invoke the checking procedure" to avoid frequent scans.
    refine_age:
        *T* of Algorithm 3 — bundles whose last update is older than this
        (seconds) are eligible for elimination.
    refine_tiny_size:
        *R* of Algorithm 3 — an aging bundle strictly smaller than this is
        "aging tiny" and deleted directly.
    refine_target_fraction:
        After a refinement scan the pool is shrunk to
        ``refine_target_fraction * max_pool_size`` bundles; eliminations
        continue from the top of the G(B)-sorted queue until the bound is
        met (Algorithm 3, lines 14-20).
    max_bundle_size:
        Bundle-size constraint of Section V-B.  A bundle reaching this many
        messages is marked *closed*: it accepts no further insertions and is
        flushed to disk at the next pool scan.  ``None`` disables the limit
        (the *Full Index* and plain *Partial Index* variants).
    max_candidates:
        Cap on the number of candidate bundles fully scored per incoming
        message (highest-postings-count candidates are kept).  Keeps Alg. 1
        step 2 bounded under hot hashtags.
    max_keywords:
        How many plain-text keywords are extracted per message as summary-
        index indicants.
    keyword_hit_cap:
        Eq. 1 counts at most this many shared keywords per candidate
        bundle.  Keywords are the weakest Table II connection; capping
        their aggregate contribution below ``min_match_score`` keeps them
        assistive-only and prevents the mega-bundle attractor (a huge
        bundle eventually contains every common keyword, so an uncapped
        count would merge arbitrary messages into it).
    refine_policy:
        Which aging score ranks bundles for stage-two eviction:
        ``"g"`` — the paper's Eq. 6 ``G(B) = age + 1/|B|`` (default);
        ``"age"`` — pure LRU by last update;
        ``"size"`` — smallest-first regardless of age.
        The non-default policies exist for the refinement-policy ablation
        benchmark.
    """

    url_weight: float = 1.0
    hashtag_weight: float = 0.8
    time_weight: float = 0.5
    keyword_weight: float = 0.2
    rt_weight: float = 2.0
    min_match_score: float = 1.0
    alloc_window: int = 64
    max_pool_size: int | None = None
    refine_trigger: int | None = None
    refine_age: float = 2 * DAY_SECONDS
    refine_tiny_size: int = 3
    refine_target_fraction: float = 0.8
    max_bundle_size: int | None = None
    max_candidates: int = 64
    max_keywords: int = 6
    keyword_hit_cap: int = 2
    refine_policy: str = "g"

    def __post_init__(self) -> None:
        for name in ("url_weight", "hashtag_weight", "time_weight",
                     "keyword_weight", "rt_weight"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.min_match_score < 0:
            raise ConfigurationError(
                f"min_match_score must be >= 0, got {self.min_match_score}")
        if self.alloc_window <= 0:
            raise ConfigurationError(
                f"alloc_window must be positive, got {self.alloc_window}")
        if self.max_pool_size is not None and self.max_pool_size <= 0:
            raise ConfigurationError(
                f"max_pool_size must be positive, got {self.max_pool_size}")
        if self.refine_trigger is not None and self.refine_trigger <= 0:
            raise ConfigurationError(
                f"refine_trigger must be positive, got {self.refine_trigger}")
        if self.refine_age <= 0:
            raise ConfigurationError(
                f"refine_age must be positive, got {self.refine_age}")
        if self.refine_tiny_size < 0:
            raise ConfigurationError(
                f"refine_tiny_size must be >= 0, got {self.refine_tiny_size}")
        if not 0.0 < self.refine_target_fraction <= 1.0:
            raise ConfigurationError(
                "refine_target_fraction must be in (0, 1], got "
                f"{self.refine_target_fraction}")
        if self.max_bundle_size is not None and self.max_bundle_size <= 0:
            raise ConfigurationError(
                f"max_bundle_size must be positive, got {self.max_bundle_size}")
        if self.max_candidates <= 0:
            raise ConfigurationError(
                f"max_candidates must be positive, got {self.max_candidates}")
        if self.max_keywords < 0:
            raise ConfigurationError(
                f"max_keywords must be >= 0, got {self.max_keywords}")
        if self.keyword_hit_cap < 0:
            raise ConfigurationError(
                f"keyword_hit_cap must be >= 0, got {self.keyword_hit_cap}")
        if self.refine_policy not in ("g", "age", "size"):
            raise ConfigurationError(
                "refine_policy must be one of 'g', 'age', 'size'; got "
                f"{self.refine_policy!r}")

    # ------------------------------------------------------------------
    # The three experiment variants of Section VI-A.
    # ------------------------------------------------------------------

    @classmethod
    def full_index(cls, **overrides: object) -> "IndexerConfig":
        """The *Full Index* baseline: no pool bound, no bundle-size limit.

        Its output edge set is the ground truth E0 against which the
        partial variants are evaluated (Section VI-B).
        """
        return cls(max_pool_size=None, max_bundle_size=None, **overrides)  # type: ignore[arg-type]

    @classmethod
    def partial_index(cls, pool_size: int = 10_000,
                      **overrides: object) -> "IndexerConfig":
        """*Partial Index*: pool bounded at ``pool_size``, no size limit."""
        return cls(
            max_pool_size=pool_size,
            refine_trigger=pool_size,
            max_bundle_size=None,
            **overrides,  # type: ignore[arg-type]
        )

    @classmethod
    def bundle_limit(cls, pool_size: int = 10_000, bundle_size: int = 200,
                     **overrides: object) -> "IndexerConfig":
        """*Partial Index + Bundle Limit*: pool bound plus max bundle size."""
        return cls(
            max_pool_size=pool_size,
            refine_trigger=pool_size,
            max_bundle_size=bundle_size,
            **overrides,  # type: ignore[arg-type]
        )

    def with_overrides(self, **overrides: object) -> "IndexerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]
