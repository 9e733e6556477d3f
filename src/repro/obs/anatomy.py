"""Workload anatomy — the "measure before you rewrite" layer.

ROADMAP item 1 (slab-allocated postings + vectorized Algorithm 1)
cannot be sized blind: Asadi & Lin pick slice-growth schedules from the
*measured* distribution of postings-list lengths, and prefix-filter
pruning (item 3) needs the measured candidate fan-in and term-frequency
skew.  This module characterizes the live workload with three
deterministic instruments:

* :class:`SpaceSavingSketch` — bounded-memory heavy-hitter tracking per
  indicant kind.  Each sampled occurrence is weighted by the length of
  the postings list it touches, so the "top" terms are exactly the ones
  that dominate Algorithm 1's candidate fan-in, not merely the most
  frequent.  The sketch is the classic Metwally et al. stream-summary
  with deterministic ``(count, term)`` tie-breaking, so replayed
  streams reproduce identical state byte for byte.
* exact postings-length distributions per kind, read from the live
  index at fingerprint time (the engine and pool own the companion
  shape histograms, ``repro_candidate_fanin`` and
  ``repro_evicted_bundle_*``, which the fingerprint folds in).
* :class:`MemoryAccountant` — a deep ``sys.getsizeof`` walk attributing
  *actual* bytes to index / pool / dedup-cache / guard structures, and
  the drift of the cheap ``approximate_memory_bytes()`` estimates
  against it (``repro_memory_drift_ratio``).

:meth:`WorkloadAnatomy.fingerprint` folds all three into one
JSON-able workload fingerprint — heavy hitters, exact postings-length
quantiles, fan-in/eviction distributions, measured memory and growth
rates, with **no wall-clock anywhere** — which
:meth:`write_fingerprint` appends as canonical (sorted-key, no-space)
JSONL.  Two seeded runs produce byte-identical files; CI compares them
with ``cmp``.  :func:`capacity_report` projects a fingerprint into the
machine-readable slab slice schedules and prune thresholds the item-1
PR consumes (``BENCH_anatomy.json``).

Fleet story: :meth:`WorkloadAnatomy.publish` mirrors each sketch's top
terms into ``repro_hot_terms{kind=,term=}`` gauges.  Gauges merge by
summation in :meth:`~repro.obs.registry.MetricsRegistry.merge_dump`,
and summing per-term counts over the union of per-shard top sets *is*
the standard distributed SpaceSaving merge — so the coordinator's
fleet-merged registry shows fleet-wide heavy hitters without any new
transfer path.

See ``docs/observability.md`` (metric catalog + fingerprint schema) and
the capacity-triage runbook in ``docs/operations.md``.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from heapq import heappop, heappush
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.errors import ConfigurationError
from repro.obs.registry import Histogram, MetricsRegistry

#: Mirrors ``repro.core.summary_index.INDICANT_KINDS`` (which cannot be
#: imported here: ``core.bundle`` imports ``repro.obs`` and would close
#: an import cycle through this module).  Kept in lock-step by
#: ``tests/obs/test_anatomy.py``.
INDICANT_KINDS = ("hashtag", "url", "keyword", "user")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ProvenanceIndexer
    from repro.core.message import Message

__all__ = [
    "SpaceSavingSketch",
    "MemoryAccountant",
    "WorkloadAnatomy",
    "capacity_report",
    "deep_size_bytes",
    "diff_fingerprints",
    "render_capacity_report",
    "render_diff",
    "render_fingerprint",
    "FINGERPRINT_VERSION",
]

#: Schema version stamped into every fingerprint record.
FINGERPRINT_VERSION = 2

#: Components the accountant attributes bytes to, in walk order.
#: Order matters: objects shared between components (interned term
#: strings living in both index postings and bundle counters) are
#: charged to the first component that reaches them.
MEMORY_COMPONENTS = ("index", "pool", "dedup_cache", "guard")


class SpaceSavingSketch:
    """Deterministic bounded-memory heavy hitters (SpaceSaving).

    Tracks at most :data:`SKETCH_CAPACITY` items.  For every tracked item the
    sketch holds ``count`` (an over-estimate of the item's true weight)
    and ``error`` (the maximum over-estimation: the count the evicted
    minimum had when this item took its slot) — so
    ``count - error <= true weight <= count``, the classic guarantee.

    Eviction picks the minimum by ``(count, item)`` — ties broken on
    the term string — and the min is found through a lazily-compacted
    heap, so a miss costs ``O(log capacity)`` amortized instead of the
    naive ``O(capacity)`` scan.  All state is integer counters ordered
    by plain tuples: replaying the same stream reproduces identical
    ``dump_state()`` output.
    """

    __slots__ = ("capacity", "observed", "observed_weight",
                 "_counts", "_errors", "_heap")

    def __init__(self) -> None:
        self.capacity = SKETCH_CAPACITY
        #: Observations / total weight seen, including evicted mass —
        #: the denominator for heavy-hitter share computations.
        self.observed = 0
        self.observed_weight = 0
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        # Lazy min-heap of (count, item) entries; an entry is stale when
        # its count no longer matches _counts[item].
        self._heap: list[tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, item: str) -> bool:
        return item in self._counts

    def observe(self, item: str, weight: int = 1) -> None:
        """Count one occurrence of ``item`` with the given weight."""
        self.observed += 1
        self.observed_weight += weight
        counts = self._counts
        current = counts.get(item)
        if current is not None:
            counts[item] = current + weight
            heappush(self._heap, (current + weight, item))
        elif len(counts) < self.capacity:
            counts[item] = weight
            self._errors[item] = 0
            heappush(self._heap, (weight, item))
        else:
            min_count, victim = self._pop_min()
            del counts[victim]
            del self._errors[victim]
            counts[item] = min_count + weight
            self._errors[item] = min_count
            heappush(self._heap, (min_count + weight, item))
        if len(self._heap) > 8 * self.capacity:
            self._compact()

    def _pop_min(self) -> tuple[int, str]:
        """Pop heap entries until one reflects a live count."""
        heap = self._heap
        counts = self._counts
        while heap:
            count, item = heappop(heap)
            if counts.get(item) == count:
                return count, item
        # Every entry was stale (possible after merge_state); rebuild.
        self._compact()
        return heappop(self._heap)

    def _compact(self) -> None:
        self._heap = [(count, item)
                      for item, count in self._counts.items()]
        self._heap.sort()

    def top(self, n: "int | None" = None) -> "list[tuple[str, int, int]]":
        """``(item, count, error)`` rows, heaviest first (stable order)."""
        rows = sorted(((item, count, self._errors[item])
                       for item, count in self._counts.items()),
                      key=lambda row: (-row[1], row[0]))
        return rows if n is None else rows[:n]

    def count(self, item: str) -> int:
        """The (over-estimated) tracked count of ``item``; 0 if untracked."""
        return self._counts.get(item, 0)

    def dump_state(self) -> "dict[str, Any]":
        """JSON-able full state; feed to :meth:`merge_state` elsewhere."""
        return {
            "capacity": self.capacity,
            "observed": self.observed,
            "observed_weight": self.observed_weight,
            "items": [[item, count, error]
                      for item, count, error in self.top()],
        }

    def merge_state(self, state: "Mapping[str, Any]") -> None:
        """Fold another sketch's :meth:`dump_state` into this one.

        Counts and errors of shared items add (preserving the
        upper-bound property); the combined set is then truncated back
        to ``capacity`` keeping the heaviest ``(count, item)`` rows.
        Truncated mass stays in ``observed_weight``, so share
        computations remain conservative.
        """
        self.observed += int(state["observed"])
        self.observed_weight += int(state["observed_weight"])
        counts = self._counts
        errors = self._errors
        for item, count, error in state["items"]:
            item = str(item)
            if item in counts:
                counts[item] += int(count)
                errors[item] += int(error)
            else:
                counts[item] = int(count)
                errors[item] = int(error)
        if len(counts) > self.capacity:
            keep = sorted(counts.items(),
                          key=lambda kv: (-kv[1], kv[0]))[: self.capacity]
            self._counts = dict(keep)
            self._errors = {item: errors[item] for item, _ in keep}
        self._compact()


# ----------------------------------------------------------------------
# Deep-size memory accounting
# ----------------------------------------------------------------------

#: Leaf types: sized with ``sys.getsizeof`` alone, never recursed into.
#: ``array.array`` is a leaf: ``getsizeof`` already covers its packed
#: buffer, and iterating it would box every element of the slab-backend
#: postings arenas into throwaway ints.
_ATOMIC_TYPES = (str, bytes, bytearray, int, float, complex, bool,
                 type(None), range, memoryview, array)


def deep_size_bytes(root: Any, seen: "set[int] | None" = None) -> int:
    """Measured transitive footprint of ``root`` in bytes.

    Iterative ``sys.getsizeof`` walk over containers (dict / list /
    tuple / set / frozenset and subclasses), object ``__dict__`` and
    ``__slots__``.  ``seen`` dedups shared objects by id — pass one set
    across several calls to attribute each shared object to exactly one
    component.  Types, modules and callables are never entered (sizing
    a class through an attribute would drag in the whole module graph).
    Deterministic for identical object state, which is all the
    fingerprint needs.
    """
    if seen is None:
        seen = set()
    total = 0
    stack = [root]
    getsizeof = sys.getsizeof
    while stack:
        obj = stack.pop()
        identity = id(obj)
        if identity in seen:
            continue
        seen.add(identity)
        try:
            total += getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic C objects
            continue
        if isinstance(obj, _ATOMIC_TYPES):
            continue
        if isinstance(obj, type) or callable(obj):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if slot in ("__dict__", "__weakref__"):
                        continue
                    try:
                        stack.append(getattr(obj, slot))
                    except AttributeError:
                        continue
            if hasattr(obj, "__iter__") and isinstance(
                    obj, (Iterable,)) and not hasattr(obj, "__next__"):
                # deque and friends: containers without dict/slots.
                if not attrs and not hasattr(type(obj), "__slots__"):
                    try:
                        stack.extend(obj)
                    except TypeError:  # pragma: no cover
                        continue
    return total


class MemoryAccountant:
    """Attributes measured bytes to the engine's resident structures.

    Replaces guessed byte-model estimates with a real walk: the summary
    index's postings maps, the pool's bundles, the dedup caches (the
    join's prefix postings and shingle map) and the guard's
    buffers.  One shared ``seen`` set per measurement attributes every
    shared object to the first component in :data:`MEMORY_COMPONENTS`
    walk order.

    The walk is on-demand (export / fingerprint time), never per
    ingest — ``approximate_memory_bytes()`` stays the cheap hot-path
    estimate, now with its drift measured instead of assumed.
    """

    def measure(self, engine: "ProvenanceIndexer",
                guard: "Any | None" = None) -> "dict[str, Any]":
        """One attribution pass; returns measured/estimated/drift."""
        seen: set[int] = set()
        measured = {
            "index": deep_size_bytes(engine.summary_index.memory_root(),
                                     seen),
            "pool": deep_size_bytes(engine.pool._bundles, seen),
        }
        detector = getattr(guard, "detector", None)
        measured["dedup_cache"] = (
            deep_size_bytes(detector, seen) if detector is not None else 0)
        measured["guard"] = (
            deep_size_bytes(guard, seen) if guard is not None else 0)
        measured["total"] = sum(measured[c] for c in MEMORY_COMPONENTS)
        estimated = {
            "index": engine.summary_index.approximate_memory_bytes(),
            "pool": engine.pool.approximate_memory_bytes(),
        }
        drift = {
            component: (round(measured[component] / estimate - 1.0, 6)
                        if estimate > 0 else 0.0)
            for component, estimate in estimated.items()
        }
        return {"measured": measured, "estimated": estimated,
                "drift": drift}


# ----------------------------------------------------------------------
# The streaming characterizer
# ----------------------------------------------------------------------


#: Tracked terms per indicant kind (bounded memory).
SKETCH_CAPACITY = 64
#: Terms per kind mirrored into ``repro_hot_terms`` gauges: well under
#: the registry's per-family label cap, so hot-term churn beyond it
#: lands in the overflow child by design.
PUBLISH_TOP = 8
#: Auto-publish cadence of the sketch tops, in *sampled* messages.
PUBLISH_EVERY = 2048


class WorkloadAnatomy:
    """Streaming workload characterization riding the ingest path.

    Attach as ``Observability.anatomy``; the engine calls
    :meth:`observe_ingest` once per message after the index update (one
    ``is None`` check on the unattached hot path).  Internally a
    deterministic 1-in-``sample_every`` systematic stride keeps the
    attached cost low: heavy hitters and shape quantiles are statistics,
    and a fixed-stride sample of a high-volume stream estimates them
    faithfully while the *exact* per-kind postings distribution is
    recomputed from the live index at fingerprint time anyway.

    Parameters
    ----------
    registry:
        The engine's registry; shape histograms and ``repro_hot_terms``
        / memory gauges are registered here.  ``None`` keeps the
        sketches and accountant working standalone (no metric export).
    sample_every:
        Observe every Nth message (systematic stride; deterministic).
    Each kind's sketch tracks :data:`SKETCH_CAPACITY` terms, its top
    :data:`PUBLISH_TOP` are mirrored into ``repro_hot_terms`` gauges,
    and the tops auto-publish every :data:`PUBLISH_EVERY` sampled messages;
    :meth:`publish` can also be called explicitly (the fleet worker
    does, before each telemetry dump).
    """

    KINDS = INDICANT_KINDS

    def __init__(self, registry: "MetricsRegistry | None" = None, *,
                 sample_every: int = 8) -> None:
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}")
        self.registry = registry
        self.sample_every = sample_every
        self.sketches = {kind: SpaceSavingSketch() for kind in self.KINDS}
        self.accountant = MemoryAccountant()
        self.seen = 0      # messages offered
        self.sampled = 0   # messages actually observed
        self.last_account: "dict[str, Any] | None" = None
        self._last_fingerprint: "dict[str, Any] | None" = None

    # -- hot path ------------------------------------------------------

    def observe_ingest(self, message: "Message",
                       keywords: "Iterable[str]",
                       index: "Any") -> None:
        """Record one ingested message (post-index-update).

        Weight = the length of the postings list each touched term now
        has: a term's sketch count then approximates the candidate
        fan-in it *causes*, which is the skew the prefix-filter pruning
        of ROADMAP item 3 needs — not raw occurrence frequency.
        """
        self.seen += 1
        if self.seen % self.sample_every:
            return
        self.sampled += 1
        # Sorted: set iteration order varies with the per-process
        # string-hash seed, and the sketch's evictions are
        # order-sensitive — fingerprints must be byte-identical across
        # processes.
        for kind, terms in (("hashtag", sorted(message.hashtags)),
                            ("url", sorted(message.urls)),
                            ("keyword", sorted(keywords)),
                            ("user", (message.user,))):
            sketch = self.sketches[kind]
            for term in terms:
                length = index.postings_length(kind, term)
                sketch.observe(term, length if length > 0 else 1)
        if self.sampled % PUBLISH_EVERY == 0:
            self.publish()

    # -- registry bridge ----------------------------------------------

    def publish(self) -> None:
        """Mirror sketch tops into ``repro_hot_terms`` gauges.

        Stale children (terms that dropped out of a top set) are zeroed
        rather than removed — the registry has no removal — so a fleet
        merge sums only currently-hot terms.  Gauge summation across
        shard dumps is the distributed SpaceSaving merge.
        """
        registry = self.registry
        if registry is None:
            return
        live: set[tuple[str, str]] = set()
        for kind in self.KINDS:
            for term, count, _ in self.sketches[kind].top(PUBLISH_TOP):
                registry.gauge(
                    "repro_hot_terms",
                    help="SpaceSaving heavy-hitter weight of currently "
                         "hot indicant terms (weight ~ caused fan-in)",
                    labels={"kind": kind, "term": term}).set(count)
                live.add((kind, term))
        family = registry._families.get("repro_hot_terms")
        if family is not None:
            for gauge in family.children.values():
                key = (gauge.labels.get("kind", ""),
                       gauge.labels.get("term", ""))
                if key not in live:
                    gauge.set(0)

    def account(self, engine: "ProvenanceIndexer",
                guard: "Any | None" = None) -> "dict[str, Any]":
        """Run the memory accountant and publish its gauges."""
        account = self.accountant.measure(engine, guard)
        registry = self.registry
        if registry is not None:
            for component in MEMORY_COMPONENTS + ("total",):
                registry.gauge(
                    "repro_memory_measured_bytes", unit="bytes",
                    help="Deep-size measured bytes per resident "
                         "structure (on-demand walk, not per-ingest)",
                    labels={"component": component},
                ).set(account["measured"][component])
            for component, ratio in account["drift"].items():
                registry.gauge(
                    "repro_memory_drift_ratio",
                    help="measured/approximate_memory_bytes() - 1 "
                         "(0 = the cheap estimate is calibrated)",
                    labels={"component": component}).set(ratio)
        self.last_account = account
        return account

    # -- fingerprints --------------------------------------------------

    def fingerprint(self, engine: "ProvenanceIndexer",
                    guard: "Any | None" = None) -> "dict[str, Any]":
        """One byte-deterministic workload-fingerprint record.

        Everything is derived from replay-deterministic state (bucket
        counts, integer counters, ``getsizeof`` of identical
        structures); there is deliberately **no wall-clock field**, so
        two seeded runs emit byte-identical JSONL.
        """
        index = engine.summary_index
        account = self.account(engine, guard)
        postings = {}
        index_shape = {"terms": {}, "entries": {}}
        for kind in self.KINDS:
            lengths = index.postings_lengths(kind)
            postings[kind] = _exact_distribution(lengths)
            index_shape["terms"][kind] = index.term_count(kind)
            index_shape["entries"][kind] = index.entry_count(kind)
        messages = engine.stats.messages_ingested
        record = {
            "version": FINGERPRINT_VERSION,
            "messages": messages,
            "sample_every": self.sample_every,
            "sampled": self.sampled,
            "sketches": {kind: self.sketches[kind].dump_state()
                         for kind in self.KINDS},
            "postings": postings,
            "fanin": self._fanin_section(),
            "eviction": self._eviction_section(),
            "index": index_shape,
            "memory": account,
            "growth": self._growth_section(engine, account, index_shape),
        }
        self._last_fingerprint = record
        return record

    def _fanin_section(self) -> "dict[str, Any]":
        registry = self.registry
        if registry is None:
            return {}
        section: "dict[str, Any]" = {}
        for phase in ("fetched", "scored"):
            hist = registry.find("repro_candidate_fanin", {"phase": phase})
            if isinstance(hist, Histogram):
                section[phase] = _hist_stats(hist)
        capped = registry.find("repro_candidate_capped_total")
        if capped is not None:
            section["capped_ingests"] = int(capped.value)
        return section

    def _eviction_section(self) -> "dict[str, Any]":
        registry = self.registry
        if registry is None:
            return {}
        section: "dict[str, Any]" = {}
        size = registry.find("repro_evicted_bundle_size")
        if isinstance(size, Histogram):
            section["size"] = _hist_stats(size)
        age = registry.find("repro_evicted_bundle_age_seconds")
        if isinstance(age, Histogram):
            section["age_seconds"] = _hist_stats(age)
        return section

    def _growth_section(self, engine: "ProvenanceIndexer",
                        account: "dict[str, Any]",
                        index_shape: "dict[str, Any]",
                        ) -> "dict[str, Any]":
        messages = engine.stats.messages_ingested
        terms = sum(index_shape["terms"].values())
        entries = sum(index_shape["entries"].values())
        per_1k = 1000.0 / messages if messages else 0.0
        growth = {
            "terms_per_1k_msgs": round(terms * per_1k, 6),
            "entries_per_1k_msgs": round(entries * per_1k, 6),
            "measured_bytes_per_msg": round(
                account["measured"]["total"] / messages, 6
            ) if messages else 0.0,
        }
        previous = self._last_fingerprint
        if previous is not None:
            dm = messages - previous["messages"]
            if dm > 0:
                prev_terms = sum(previous["index"]["terms"].values())
                prev_entries = sum(previous["index"]["entries"].values())
                growth["interval"] = {
                    "messages": dm,
                    "new_terms_per_1k_msgs": round(
                        (terms - prev_terms) * 1000.0 / dm, 6),
                    "new_entries_per_1k_msgs": round(
                        (entries - prev_entries) * 1000.0 / dm, 6),
                }
        return growth

    @staticmethod
    def write_fingerprint(path: "str | os.PathLike[str]",
                          record: "Mapping[str, Any]") -> None:
        """Append one fingerprint as canonical JSONL (byte-stable)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# Derived statistics helpers
# ----------------------------------------------------------------------


def _hist_stats(hist: "Histogram") -> "dict[str, float]":
    """Rounded registry-histogram stats (p95 swapped for p90-free set)."""
    if not hist.count:
        return {"count": 0}
    return {
        "count": int(hist.count),
        "mean": round(hist.mean, 6),
        "p50": round(hist.percentile(50), 6),
        "p95": round(hist.percentile(95), 6),
        "p99": round(hist.percentile(99), 6),
        "max": round(hist.max, 6),
    }


def _exact_distribution(lengths: "list[int]") -> "dict[str, float]":
    """Exact quantiles of one kind's postings-length population."""
    if not lengths:
        return {"count": 0}
    ordered = sorted(lengths)
    total = len(ordered)

    def rank(q: float) -> int:
        return ordered[min(total - 1, int(q * (total - 1) + 0.5))]

    return {
        "count": total,
        "sum": sum(ordered),
        "mean": round(sum(ordered) / total, 6),
        "p50": rank(0.50),
        "p90": rank(0.90),
        "p99": rank(0.99),
        "max": ordered[-1],
        "singleton_fraction": round(
            sum(1 for n in ordered if n == 1) / total, 6),
    }


def _next_pow2(value: float) -> int:
    n = max(1, int(value + 0.999999))
    return 1 << (n - 1).bit_length()


# ----------------------------------------------------------------------
# Capacity projection (consumed by the ROADMAP item-1 PR)
# ----------------------------------------------------------------------


def capacity_report(fingerprint: "Mapping[str, Any]") -> "dict[str, Any]":
    """Project a fingerprint into slab + pruning recommendations.

    Slab schedule per indicant kind, after Asadi & Lin's
    exponentially-growing slices: the initial slice holds the median
    postings list outright, doubles per growth step, and caps at the
    p99 (lists beyond it spill to an overflow arena).  Prune
    thresholds for item 3's prefix filtering: the per-kind hot-term
    fan-in share says how much of Algorithm 1's candidate mass the
    sketch's tracked terms account for, and the recommended
    posting-scan cap bounds what one term may contribute.
    """
    slabs: "dict[str, Any]" = {}
    for kind, stats in fingerprint.get("postings", {}).items():
        if not stats.get("count"):
            continue
        initial = _next_pow2(stats["p50"])
        ceiling = _next_pow2(max(stats["p99"], initial))
        steps = max(0, (ceiling // initial).bit_length() - 1)
        entries = stats["sum"]
        # Every list rounds up to its power-of-two slice: the waste the
        # growth schedule pays for O(1) append.
        slabs[kind] = {
            "initial_slice": initial,
            "growth_factor": 2,
            "growth_steps_to_p99": steps,
            "max_slice": ceiling,
            "lists": stats["count"],
            "entries": entries,
            "singleton_fraction": stats.get("singleton_fraction", 0.0),
            "projected_slab_bytes": entries * 8,  # id + count, packed
        }
    pruning: "dict[str, Any]" = {}
    for kind, sketch in fingerprint.get("sketches", {}).items():
        weight = sketch.get("observed_weight", 0)
        items = sketch.get("items", [])
        if not weight or not items:
            continue
        hot_weight = sum(int(row[1]) for row in items)
        stats = fingerprint.get("postings", {}).get(kind, {})
        pruning[kind] = {
            "hot_terms_tracked": len(items),
            "hot_fanin_share": round(min(1.0, hot_weight / weight), 6),
            "posting_scan_cap": int(stats.get("p99", 0)) or None,
        }
    fanin = fingerprint.get("fanin", {})
    fetched = fanin.get("fetched", {})
    recommendations = []
    if slabs:
        widest = max(slabs, key=lambda k: slabs[k]["max_slice"])
        recommendations.append(
            f"slab schedule: start slices at "
            f"{ {k: v['initial_slice'] for k, v in slabs.items()} }, "
            f"double per growth step, overflow arena beyond "
            f"{slabs[widest]['max_slice']} ({widest})")
        singleton = {k: v["singleton_fraction"] for k, v in slabs.items()}
        hungriest = max(singleton, key=lambda k: singleton[k])
        if singleton[hungriest] > 0.5:
            recommendations.append(
                f"{singleton[hungriest]:.0%} of {hungriest} lists are "
                "singletons: inline the first posting in the term slot "
                "before allocating a slice")
    if fetched.get("count"):
        recommendations.append(
            f"candidate cap: fetched fan-in p99 is {fetched['p99']:.0f} "
            f"(p50 {fetched['p50']:.0f}); a prefix-filter cap near the "
            "p99 prunes only tail ingests")
    for kind, rule in pruning.items():
        if rule["hot_fanin_share"] >= 0.3:
            recommendations.append(
                f"{kind}: {rule['hot_terms_tracked']} hot terms cause "
                f"{rule['hot_fanin_share']:.0%} of scanned fan-in — "
                "prefix-filter these first")
    return {
        "slab_schedule": slabs,
        "prune_thresholds": pruning,
        "fanin": fanin,
        "memory": fingerprint.get("memory", {}),
        "recommendations": recommendations,
    }


# ----------------------------------------------------------------------
# Rendering (repro anatomy / repro top)
# ----------------------------------------------------------------------


def _format_stats_row(stats: "Mapping[str, Any]") -> str:
    if not stats.get("count"):
        return "no data"
    parts = [f"n={stats['count']}"]
    for key in ("p50", "p90", "p95", "p99", "max"):
        if key in stats:
            value = stats[key]
            parts.append(f"{key}={value:g}")
    return "  ".join(parts)


def render_fingerprint(record: "Mapping[str, Any]") -> str:
    """Human-readable report of one fingerprint record."""
    from repro.bench.reporting import ascii_table, human_bytes

    sections = []
    rows = []
    for kind, sketch in sorted(record.get("sketches", {}).items()):
        items = sketch.get("items", [])[:5]
        rows.append([kind, sketch.get("observed", 0),
                     ", ".join(f"{item}({count})"
                               for item, count, _ in items) or "—"])
    sections.append(ascii_table(
        ["kind", "observed", "top terms (sketch weight ~ fan-in)"], rows,
        title=f"workload fingerprint — {record.get('messages', 0)} msgs, "
              f"1/{record.get('sample_every', 1)} sampled"))

    rows = [[kind, _format_stats_row(stats)]
            for kind, stats in sorted(record.get("postings", {}).items())]
    for phase, stats in sorted(record.get("fanin", {}).items()):
        if isinstance(stats, dict):
            rows.append([f"fan-in {phase}", _format_stats_row(stats)])
        else:
            rows.append([f"fan-in {phase}", str(stats)])
    for name, stats in sorted(record.get("eviction", {}).items()):
        rows.append([f"eviction {name}", _format_stats_row(stats)])
    sections.append(ascii_table(["distribution", "shape"], rows,
                                title="shape distributions"))

    memory = record.get("memory", {})
    if memory:
        rows = []
        for component in MEMORY_COMPONENTS + ("total",):
            measured = memory.get("measured", {}).get(component, 0)
            estimate = memory.get("estimated", {}).get(component)
            drift = memory.get("drift", {}).get(component)
            rows.append([
                component, human_bytes(measured),
                human_bytes(estimate) if estimate is not None else "—",
                f"{drift * 100:+.1f}%" if drift is not None else "—"])
        sections.append(ascii_table(
            ["component", "measured", "estimated", "drift"], rows,
            title="memory attribution (deep-size walk)"))

    growth = record.get("growth", {})
    if growth:
        rows = [[key, f"{value:g}"] for key, value in sorted(growth.items())
                if not isinstance(value, dict)]
        interval = growth.get("interval")
        if interval:
            rows.extend([[f"interval.{key}", f"{value:g}"]
                         for key, value in sorted(interval.items())])
        sections.append(ascii_table(["growth", "value"], rows,
                                    title="growth rates"))
    return "\n\n".join(sections)


def render_capacity_report(report: "Mapping[str, Any]") -> str:
    """Human-readable capacity projection."""
    from repro.bench.reporting import ascii_table

    sections = []
    slabs = report.get("slab_schedule", {})
    if slabs:
        sections.append(ascii_table(
            ["kind", "initial", "steps", "max", "lists", "entries",
             "singletons"],
            [[kind, plan["initial_slice"], plan["growth_steps_to_p99"],
              plan["max_slice"], plan["lists"], plan["entries"],
              f"{plan['singleton_fraction']:.0%}"]
             for kind, plan in sorted(slabs.items())],
            title="slab slice schedule (power-of-two growth)"))
    pruning = report.get("prune_thresholds", {})
    if pruning:
        sections.append(ascii_table(
            ["kind", "hot terms", "fan-in share", "scan cap"],
            [[kind, rule["hot_terms_tracked"],
              f"{rule['hot_fanin_share']:.1%}",
              rule["posting_scan_cap"] or "—"]
             for kind, rule in sorted(pruning.items())],
            title="prefix-filter prune thresholds"))
    recommendations = report.get("recommendations", [])
    if recommendations:
        sections.append("recommendations:\n" + "\n".join(
            f"  - {line}" for line in recommendations))
    return "\n\n".join(sections) if sections else "no capacity data"


def diff_fingerprints(before: "Mapping[str, Any]",
                      after: "Mapping[str, Any]") -> "dict[str, Any]":
    """Structured drift between two fingerprints (same schema)."""
    hot_moves = {}
    for kind in INDICANT_KINDS:
        old_top = [row[0] for row in
                   before.get("sketches", {}).get(kind, {}).get("items", [])]
        new_top = [row[0] for row in
                   after.get("sketches", {}).get(kind, {}).get("items", [])]
        entered = [t for t in new_top[:10] if t not in old_top[:10]]
        left = [t for t in old_top[:10] if t not in new_top[:10]]
        if entered or left:
            hot_moves[kind] = {"entered": entered, "left": left}
    scalars = {}
    for label, path in (
            ("messages", ("messages",)),
            ("terms_per_1k_msgs", ("growth", "terms_per_1k_msgs")),
            ("entries_per_1k_msgs", ("growth", "entries_per_1k_msgs")),
            ("measured_bytes_per_msg", ("growth", "measured_bytes_per_msg")),
            ("measured_total_bytes", ("memory", "measured", "total")),
            ("index_drift", ("memory", "drift", "index")),
            ("pool_drift", ("memory", "drift", "pool")),
            ("fanin_fetched_p99", ("fanin", "fetched", "p99")),
            ("fanin_scored_p99", ("fanin", "scored", "p99")),
    ):
        old = _dig(before, path)
        new = _dig(after, path)
        if old is None and new is None:
            continue
        scalars[label] = {"before": old, "after": new}
    return {"scalars": scalars, "hot_terms": hot_moves}


def _dig(record: "Mapping[str, Any]", path: "tuple[str, ...]"):
    node: Any = record
    for key in path:
        if not isinstance(node, Mapping) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def render_diff(diff: "Mapping[str, Any]") -> str:
    """Human-readable fingerprint drift."""
    from repro.bench.reporting import ascii_table

    rows = []
    for label, pair in sorted(diff.get("scalars", {}).items()):
        old, new = pair.get("before"), pair.get("after")
        delta = ""
        if isinstance(old, (int, float)) and isinstance(new, (int, float)):
            delta = f"{new - old:+g}"
        rows.append([label,
                     "—" if old is None else f"{old:g}",
                     "—" if new is None else f"{new:g}", delta])
    sections = [ascii_table(["indicator", "before", "after", "delta"],
                            rows, title="fingerprint drift")]
    hot = diff.get("hot_terms", {})
    if hot:
        sections.append(ascii_table(
            ["kind", "entered top-10", "left top-10"],
            [[kind, ", ".join(moves["entered"]) or "—",
              ", ".join(moves["left"]) or "—"]
             for kind, moves in sorted(hot.items())],
            title="heavy-hitter churn"))
    return "\n\n".join(sections)
