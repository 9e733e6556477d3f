"""Bundle-based retrieval and ranking (Section V-C plus future work).

* :class:`~repro.query.bundle_search.BundleSearchEngine` — Eq. 7 ranked
  bundle retrieval over an engine's live pool,
* :mod:`repro.query.ranking` — quality/credibility scoring from bundle
  structure (the paper's collaborative-assessment extension).
"""

from repro.query.bundle_search import (BundleHit, BundleQuery,
                                       BundleSearchEngine, HitRow,
                                       SearchOutcome)
from repro.query.export import (search_results_to_json, to_dot,
                                to_json_graph)
from repro.query.feeds import Feed, FeedRegistry, FeedUpdate
from repro.query.ranking import (depth_score, diversity_score, feedback_score,
                                 quality_score, rank_messages)
from repro.query.trending import TrendingBundle, growth_velocity, trending_bundles
from repro.query.timeline import (Phase, Storyline, activity_series,
                                  detect_bursts, extract_storyline)

__all__ = [
    "BundleHit",
    "search_results_to_json",
    "to_dot",
    "to_json_graph",
    "Feed",
    "FeedRegistry",
    "FeedUpdate",
    "TrendingBundle",
    "growth_velocity",
    "trending_bundles",
    "Phase",
    "Storyline",
    "activity_series",
    "detect_bursts",
    "extract_storyline",
    "BundleQuery",
    "BundleSearchEngine",
    "HitRow",
    "SearchOutcome",
    "depth_score",
    "diversity_score",
    "feedback_score",
    "quality_score",
    "rank_messages",
]
