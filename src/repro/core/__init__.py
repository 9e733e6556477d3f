"""Core provenance model and indexing engine (the paper's contribution).

Public surface:

* :class:`~repro.core.message.Message` — the Definition 1 tuple,
* :class:`~repro.core.bundle.Bundle` — Definition 3 message groups,
* :class:`~repro.core.summary_index.SummaryIndex` — Fig. 5,
* :class:`~repro.core.pool.BundlePool` — Algorithm 3 refinement,
* :class:`~repro.core.engine.ProvenanceIndexer` — Algorithm 1 ingestion,
* :mod:`~repro.core.graph` — provenance operators,
* :mod:`~repro.core.metrics` — Section VI-B evaluation.
"""

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.connection import Connection, ConnectionType
from repro.core.engine import (EngineStats, IngestResult, MemorySnapshot,
                               ProvenanceIndexer, StageSnapshot, StageTimers)
from repro.core.errors import (BundleClosedError, BundleError,
                               BundleNotFoundError, ConfigurationError,
                               MessageError, QueryError, ReproError,
                               StorageError, StreamError)
from repro.core.clustering_metrics import (ClusteringScores, bcubed_scores,
                                           event_fragmentation,
                                           pairwise_scores)
from repro.core.credibility import CredibilityTracker, UserRecord
from repro.core.dedup import DuplicateDetector, MinHasher, jaccard, shingles
from repro.core.message import Message, parse_message
from repro.core.operators import (BundleDiff, bundle_difference,
                                  extract_cascade, filter_bundle,
                                  merge_bundles, slice_bundle,
                                  split_bundle_at)
from repro.core.metrics import (EdgeComparison, compare_edge_sets,
                                ground_truth_edges, label_purity)
from repro.core.pool import BundlePool, RefinementReport
from repro.core.sharding import primary_indicant
from repro.core.summary_index import SummaryIndex
from repro.core.validation import check_bundle, check_engine

__all__ = [
    "Bundle",
    "IndexerConfig",
    "Connection",
    "ConnectionType",
    "EngineStats",
    "IngestResult",
    "MemorySnapshot",
    "ProvenanceIndexer",
    "StageSnapshot",
    "StageTimers",
    "BundleClosedError",
    "BundleError",
    "BundleNotFoundError",
    "ConfigurationError",
    "MessageError",
    "QueryError",
    "ReproError",
    "StorageError",
    "StreamError",
    "Message",
    "parse_message",
    "ClusteringScores",
    "bcubed_scores",
    "event_fragmentation",
    "pairwise_scores",
    "CredibilityTracker",
    "UserRecord",
    "DuplicateDetector",
    "MinHasher",
    "jaccard",
    "shingles",
    "BundleDiff",
    "bundle_difference",
    "extract_cascade",
    "filter_bundle",
    "merge_bundles",
    "slice_bundle",
    "split_bundle_at",
    "EdgeComparison",
    "compare_edge_sets",
    "ground_truth_edges",
    "label_purity",
    "BundlePool",
    "RefinementReport",
    "primary_indicant",
    "SummaryIndex",
    "check_bundle",
    "check_engine",
]
