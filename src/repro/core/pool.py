"""The in-memory bundle pool and its refinement process (Algorithm 3).

Fresh bundles live in the pool so message matching stays memory-speed; a
periodic refinement scan keeps the pool bounded by

1. deleting *aging tiny* bundles outright (older than ``REFINE_AGE``,
   smaller than ``REFINE_TINY_SIZE``),
2. dumping *closed* bundles (bundle-size constraint) to the on-disk store,
3. ranking the survivors by the aging score ``G(B)`` of Eq. 6 and evicting
   from the top until the pool is back under its bound (evicted medium
   bundles are backed up to disk, per Section V-B).

The pool never touches the summary index or the store directly beyond the
objects handed to :meth:`BundlePool.refine`, keeping the layering of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

from repro.core.bundle import Bundle, MemoryLedger
from repro.core.config import DAY_SECONDS, IndexerConfig
from repro.core.errors import BundleError, BundleNotFoundError
from repro.core.scoring import refinement_score
from repro.core.summary_index import SummaryIndex
from repro.obs.audit import RefinementEvent
from repro.obs.registry import COUNT_BUCKETS, NULL_HISTOGRAM, MetricsRegistry

__all__ = ["BundlePool", "RefinementReport", "BundleSink"]

#: *T* of Algorithm 3: bundles whose last update is older than this
#: (seconds) are eligible for elimination.
REFINE_AGE = 2 * DAY_SECONDS
#: *R* of Algorithm 3: an aging bundle strictly smaller than this is
#: "aging tiny" and deleted directly.
REFINE_TINY_SIZE = 3

#: Bundle-age-at-eviction buckets (seconds): zero (an eviction in the
#: same second as the bundle's last update) .. one week, bracketing the
#: default ``REFINE_AGE`` of two days.
_EVICTION_AGE_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 5.0, 15.0, 30.0,
    60.0, 300.0, 900.0, 3600.0, 4 * 3600.0, 12 * 3600.0,
    86400.0, 2 * 86400.0, 4 * 86400.0, 7 * 86400.0,
)


class BundleSink(Protocol):
    """Anything that can persist an evicted bundle (the on-disk store)."""

    def append(self, bundle: Bundle) -> None:  # pragma: no cover - protocol
        """Persist one bundle."""
        ...


@dataclass(slots=True)
class RefinementReport:
    """Outcome of one refinement scan (drives Figs. 7, 11 and 13)."""

    scanned: int = 0
    deleted_tiny: int = 0
    dumped_closed: int = 0
    evicted_ranked: int = 0
    pool_size_after: int = 0

    @property
    def removed(self) -> int:
        """Total bundles taken out of the pool by this scan."""
        return self.deleted_tiny + self.dumped_closed + self.evicted_ranked


@dataclass
class _NullSink:
    """Discards evicted bundles (used when no store is attached)."""

    dumped: int = 0

    def append(self, bundle: Bundle) -> None:
        self.dumped += 1


class BundlePool:
    """Bounded in-memory collection of fresh bundles.

    Parameters
    ----------
    config:
        Supplies the pool bound and the refinement thresholds.
    on_evict:
        Optional callback fired with every bundle leaving the pool for any
        reason (tiny-deletion included); the engine uses it to keep the
        ground-truth edge ledger for Section VI-B evaluation.
    """

    def __init__(self, config: IndexerConfig | None = None, *,
                 on_evict: Callable[[Bundle], None] | None = None) -> None:
        self.config = config or IndexerConfig()
        self.on_evict = on_evict
        self._bundles: dict[int, Bundle] = {}
        # Byte and message totals of ``_bundles``: every pooled bundle
        # is bound to it and charges its own growth, so admission can
        # read pool memory once per arrival at no per-message cost.
        self._ledger = MemoryLedger()
        self._next_bundle_id = 0
        self.refinement_count = 0
        # No-op until bind_registry(); the pool owns the eviction
        # histograms so supervisor-driven sheds are not double-counted.
        self._evicted_size_hist = NULL_HISTOGRAM
        self._evicted_age_hist = NULL_HISTOGRAM

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Export the pool's gauges and eviction-shape histograms.

        Size gauges are callback-backed (read from the authoritative
        dict and its ledger), so ``repro top``, ``repro health`` and
        the benchmarks all see one number.
        """
        registry.gauge("repro_pool_bundles",
                       help="Bundles currently pooled in memory",
                       callback=lambda: len(self._bundles))
        registry.gauge("repro_pool_messages",
                       help="Messages held across pooled bundles",
                       callback=self.message_count)
        # Eviction *shape*: how big and how old bundles are when they
        # leave the pool — the slab arena-reuse policy of ROADMAP
        # item 1 is sized from these (see docs/observability.md).
        self._evicted_size_hist = registry.histogram(
            "repro_evicted_bundle_size",
            help="Messages per bundle at pool eviction (any cause)",
            buckets=COUNT_BUCKETS)
        self._evicted_age_hist = registry.histogram(
            "repro_evicted_bundle_age_seconds", unit="seconds",
            help="Stream age since last update at pool eviction",
            buckets=_EVICTION_AGE_BUCKETS)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._bundles)

    def __contains__(self, bundle_id: int) -> bool:
        return bundle_id in self._bundles

    def __iter__(self) -> Iterator[Bundle]:
        return iter(self._bundles.values())

    def get(self, bundle_id: int) -> Bundle:
        """Fetch a pooled bundle or raise :class:`BundleNotFoundError`."""
        try:
            return self._bundles[bundle_id]
        except KeyError:
            raise BundleNotFoundError(
                f"bundle {bundle_id} is not in the pool") from None

    def try_get(self, bundle_id: int) -> Bundle | None:
        """Fetch a pooled bundle or ``None``."""
        return self._bundles.get(bundle_id)

    def live(self) -> "dict[int, Bundle]":
        """The live ``{bundle_id: Bundle}`` map — read-only by contract.

        Exposed for the engine's candidate-selection hot loop, which
        probes dozens of ids per message; going through the authoritative
        dict directly skips a method call per probe.  Callers must not
        mutate it.
        """
        return self._bundles

    def create_bundle(self) -> Bundle:
        """Allocate a fresh, empty bundle with the next id."""
        bundle = Bundle(self._next_bundle_id, self.config)
        self._next_bundle_id += 1
        self.adopt(bundle)
        return bundle

    def adopt(self, bundle: Bundle) -> None:
        """Pool an already-built bundle (snapshot restore) under its own id.

        With :meth:`_remove` the only writer of the bundle map, so the
        ledger always covers exactly the pooled bundles.
        """
        if bundle.bundle_id in self._bundles:
            raise BundleError(
                f"bundle {bundle.bundle_id} is already in the pool")
        self._bundles[bundle.bundle_id] = bundle
        bundle._bind_ledger(self._ledger)

    # ------------------------------------------------------------------
    # Accounting (Fig. 11)
    # ------------------------------------------------------------------

    def message_count(self) -> int:
        """Total messages held in memory across pooled bundles (O(1))."""
        return self._ledger.messages

    def approximate_memory_bytes(self) -> int:
        """Deterministic pooled-bundle memory estimate (O(1)).

        The sum of :meth:`Bundle.approximate_memory_bytes` over the
        pool, kept current by the bundles themselves.
        """
        return self._ledger.bytes

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------

    def needs_refinement(self) -> bool:
        """Whether the trigger bound is exceeded (Section V-B's guard)."""
        trigger = self.config.refine_trigger or self.config.max_pool_size
        if trigger is None:
            return False
        return len(self._bundles) > trigger

    def refine(self, current_date: float,
               summary_index: SummaryIndex | None = None,
               sink: BundleSink | None = None, *,
               collect: "list[RefinementEvent] | None" = None,
               ) -> RefinementReport:
        """Run one refinement scan; return what was removed.

        Mirrors Algorithm 3: stage one walks the pool deleting aging tiny
        bundles and dumping aging/closed ones; stage two sorts the rest by
        ``G(B)`` descending and evicts from the top until the pool size
        reaches ``refine_target_fraction * max_pool_size``.

        ``collect``, when given, receives one
        :class:`~repro.obs.audit.RefinementEvent` (with the ``G(B)``
        eviction priority) per removed bundle — the audit layer's view
        of Algorithm 3.
        """
        report = RefinementReport(scanned=len(self._bundles))
        effective_sink: BundleSink = sink if sink is not None else _NullSink()
        waiting: list[tuple[float, int]] = []

        for bundle in list(self._bundles.values()):
            age = current_date - bundle.last_update
            if age > REFINE_AGE and len(bundle) < REFINE_TINY_SIZE:
                self._collect(collect, "tiny", bundle, current_date)
                self._observe_eviction(bundle, current_date)
                self._remove(bundle, summary_index)
                report.deleted_tiny += 1
            elif bundle.closed:
                # Closed bundles are flushed at the next scan (Section V-B).
                self._collect(collect, "closed", bundle, current_date)
                self._observe_eviction(bundle, current_date)
                effective_sink.append(bundle)
                self._remove(bundle, summary_index)
                report.dumped_closed += 1
            else:
                score = self._policy_score(bundle, current_date)
                waiting.append((score, bundle.bundle_id))

        target = self._target_size()
        if target is not None and len(self._bundles) > target:
            waiting.sort(key=lambda pair: (-pair[0], pair[1]))
            for score, bundle_id in waiting:
                if len(self._bundles) <= target:
                    break
                bundle = self._bundles.get(bundle_id)
                if bundle is None:
                    continue
                if collect is not None:
                    collect.append(RefinementEvent(
                        reason="ranked", bundle_id=bundle.bundle_id,
                        g_score=score, size=len(bundle)))
                self._observe_eviction(bundle, current_date)
                effective_sink.append(bundle)
                self._remove(bundle, summary_index)
                report.evicted_ranked += 1

        report.pool_size_after = len(self._bundles)
        self.refinement_count += 1
        return report

    def _collect(self, collect: "list[RefinementEvent] | None",
                 reason: str, bundle: Bundle, current_date: float) -> None:
        if collect is not None:
            collect.append(RefinementEvent(
                reason=reason, bundle_id=bundle.bundle_id,
                g_score=self._policy_score(bundle, current_date),
                size=len(bundle)))

    def shed(self, current_date: float, *, target_bytes: int,
             summary_index: SummaryIndex | None = None,
             sink: BundleSink | None = None,
             collect: "list[RefinementEvent] | None" = None,
             ) -> tuple[int, int]:
        """Force-close and spill bundles until memory fits ``target_bytes``.

        The degraded-mode companion to :meth:`refine`: where refinement
        bounds the pool by *count* on its normal trigger, shedding bounds
        it by *bytes* under memory pressure, evicting in the same Eq. 6
        ``G(B)`` priority order (highest eviction score first).  Every
        shed bundle is closed and handed to ``sink`` so no discovered
        provenance is lost — only its place in memory.

        Returns ``(bundles_shed, bytes_shed)``.
        """
        effective_sink: BundleSink = sink if sink is not None else _NullSink()
        total = self.approximate_memory_bytes()
        if total <= target_bytes:
            return (0, 0)
        ranked = sorted(
            self._bundles.values(),
            key=lambda b: (-self._policy_score(b, current_date), b.bundle_id))
        shed = bytes_shed = 0
        for bundle in ranked:
            if total <= target_bytes:
                break
            size = bundle.approximate_memory_bytes()
            if not bundle.closed:
                bundle.close()
            self._collect(collect, "shed", bundle, current_date)
            self._observe_eviction(bundle, current_date)
            effective_sink.append(bundle)
            self._remove(bundle, summary_index)
            total -= size
            bytes_shed += size
            shed += 1
        return (shed, bytes_shed)

    def _policy_score(self, bundle: Bundle, current_date: float) -> float:
        """Eviction priority under the configured refinement policy.

        Higher means evicted earlier.  ``"g"`` is the paper's Eq. 6;
        ``"age"`` and ``"size"`` are the ablation baselines.
        """
        policy = self.config.refine_policy
        if policy == "g":
            return refinement_score(
                bundle.last_update, max(len(bundle), 1), current_date)
        if policy == "age":
            return current_date - bundle.last_update
        return 1.0 / max(len(bundle), 1)  # "size": smallest first

    def _target_size(self) -> int | None:
        if self.config.max_pool_size is None:
            return None
        return int(self.config.max_pool_size
                   * self.config.refine_target_fraction)

    def _observe_eviction(self, bundle: Bundle,
                          current_date: float) -> None:
        """Record the size/age shape of one bundle leaving the pool."""
        self._evicted_size_hist.observe(len(bundle))
        self._evicted_age_hist.observe(
            max(current_date - bundle.last_update, 0.0))

    def _remove(self, bundle: Bundle,
                summary_index: SummaryIndex | None) -> None:
        if summary_index is not None:
            summary_index.remove_bundle(bundle)
        del self._bundles[bundle.bundle_id]
        bundle._bind_ledger(None)
        if self.on_evict is not None:
            self.on_evict(bundle)
