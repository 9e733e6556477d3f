"""Postings storage behind the summary index (Fig. 5).

The summary index logically maps ``kind -> term -> {bundle_id: count}``;
*how* those postings are laid out in memory is this module's concern.
:class:`SlabPostingsStorage` is the only layout: contiguous-array slabs
following the dynamic memory-allocation policies of Asadi & Lin's
real-time Twitter search work.  Terms are interned to dense ids, each
term owns one extent inside a per-kind arena, extents grow by
power-of-two slices seeded from the measured workload anatomy
(:data:`SLAB_SLICE_SCHEDULE`, projected in ``BENCH_anatomy.json``), and
freed extents go to per-capacity free lists so eviction churn reuses
arena space instead of fragmenting it.

The arenas are ``array('q')`` buffers, so when numpy is available (the
image ships it; see ``core/dedup.py`` for the same pattern)
:meth:`SlabPostingsStorage.gather` turns heavy-hitter candidate
fetching into a handful of array ops over zero-copy views; without
numpy every path falls back to pure Python with identical results.
Terms iterate in dict insertion order of first appearance.  The
nested-dict layout this one is checked against lives in
``tests/postings_oracle.py``.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from importlib import import_module
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import IndexError_

# Optional acceleration; the importlib spelling keeps mypy --strict
# happy on machines without numpy installed (the CI typing job).
try:
    _np: Any = import_module("numpy")
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

__all__ = [
    "INDICANT_KINDS",
    "SLAB_SLICE_SCHEDULE",
    "CandidateGather",
    "SlabPostingsStorage",
]

#: The four indicant kinds of Fig. 5, in canonical order.  The gather
#: encoding below packs the kind index into the low bits of candidate
#: ids, so the tuple must stay at four entries (two bits).
INDICANT_KINDS = ("hashtag", "url", "keyword", "user")

_KIND_INDEX = {kind: index for index, kind in enumerate(INDICANT_KINDS)}
_KIND_COUNT = len(INDICANT_KINDS)

#: Initial slice capacity (postings slots) per indicant kind.  Seeded
#: from the capacity report of ``BENCH_anatomy.json``: URL and hashtag
#: postings are overwhelmingly singletons (100% / 94.5% measured), so
#: they start at one slot; keywords are the fat tail (p99 extent 32)
#: and start at eight.  Growth doubles from here, so a mis-seeded term
#: pays O(log n) copies, never a correctness cost.
SLAB_SLICE_SCHEDULE: Mapping[str, int] = MappingProxyType({
    "hashtag": 1,
    "url": 1,
    "keyword": 8,
    "user": 1,
})

# Byte model behind the deterministic memory estimate.  Arenas are
# measured exactly via sys.getsizeof (the buffers dominate), so only
# the interning side needs a model — term string header + intern-dict
# slot + name-list slot + boxed tid — calibrated against the measured
# deep-size walk in repro.obs.anatomy (see tests/obs/test_anatomy.py).
_SLAB_TERM_BASE_BYTES = 150


class CandidateGather:
    """Candidate bundles of one message, with per-kind postings hits.

    ``ids`` holds the candidate bundle ids in ascending order, ``hits``
    the total postings hits per candidate (the Algorithm 1 cap weight),
    and ``kind_hits`` one aligned row per :data:`INDICANT_KINDS` entry.

    The per-kind rows are the Eq. 1 inputs directly: a bundle's hit
    count under kind *url* is exactly ``|url(t) ∩ url(B)|`` because the
    summary index keeps one posting per (term, bundle) in lockstep with
    the pool — which is what lets the engine skip per-candidate
    ``Bundle.shared_counts`` set intersections entirely.

    Sequences are plain lists for small candidate sets (and always
    without numpy) and numpy ``int64`` arrays when the slab's
    vectorised gather produced them; both spell the same values, and
    the engine dispatches its scoring path on the representation.
    """

    __slots__ = ("ids", "hits", "kind_hits")

    def __init__(self, ids: Any, hits: Any,
                 kind_hits: "tuple[Any, Any, Any, Any]") -> None:
        self.ids = ids
        self.hits = hits
        self.kind_hits = kind_hits

    def __len__(self) -> int:
        return len(self.ids)


#: Postings-hit count below which the slab gather stays in pure Python.
#: A handful of tiny numpy kernels (slice, concatenate, unique) costs
#: more than walking a few hundred entries in a dict; sweeping the
#: cutoff over dense and sparse workloads puts the crossover near 512
#: on CPython 3.11.  Both sides produce identical values — the cutoff is
#: a speed knob, never a semantics knob.
SMALL_GATHER_CUTOFF = 512


def _empty_gather() -> CandidateGather:
    return CandidateGather([], [], ([], [], [], []))


def _package_gather(acc: "dict[int, list[int]]") -> CandidateGather:
    """Pure-Python packaging: per-id kind rows -> CandidateGather.

    Always returns plain lists: the engine's scalar selection consumes
    them directly, and small candidate sets (the common case) never pay
    a numpy-array construction.  The slab's numpy gather builds
    arrays itself for the large sets where vector maths wins.
    """
    if not acc:
        return _empty_gather()
    ids = sorted(acc)
    rows = [acc[bundle_id] for bundle_id in ids]
    totals = [row[0] + row[1] + row[2] + row[3] for row in rows]
    columns: "tuple[Any, Any, Any, Any]" = (
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
    )
    return CandidateGather(ids, totals, columns)


class _KindSlab:
    """One indicant kind's interned terms plus its postings arena.

    Every term owns one contiguous extent ``[off, off+cap)`` inside the
    ``ids``/``cnt`` arenas (parallel ``array('q')`` buffers: bundle ids
    and occurrence counts).  Extents are kept sorted by bundle id so
    membership is a binary search; bundle ids are allocated
    monotonically, so the common case appends at the extent tail.  On
    overflow the extent doubles — into a free extent of the target
    class when eviction has produced one, else fresh arena tail — and
    the old extent joins its capacity class's free list.  Term ids are
    recycled the same way, so long-running eviction churn reuses both
    arena space and metadata slots instead of growing without bound.
    """

    __slots__ = ("initial", "tids", "names", "free_tids",
                 "off", "cap", "length", "ids", "cnt",
                 "free", "entries")

    def __init__(self, initial: int) -> None:
        self.initial = initial
        self.tids: "dict[str, int]" = {}       # term -> tid
        self.names: "list[str | None]" = []    # tid -> term (None = free)
        self.free_tids: "list[int]" = []
        self.off = array("q")                  # tid -> extent offset
        self.cap = array("q")                  # tid -> extent capacity
        self.length = array("q")               # tid -> live entries
        self.ids = array("q")                  # arena: bundle ids
        self.cnt = array("q")                  # arena: occurrence counts
        self.free: "dict[int, list[int]]" = {}  # capacity -> offsets
        self.entries = 0

    def _alloc(self, capacity: int) -> int:
        free_list = self.free.get(capacity)
        if free_list:
            return free_list.pop()
        offset = len(self.ids)
        zeros = bytes(8 * capacity)
        self.ids.frombytes(zeros)
        self.cnt.frombytes(zeros)
        return offset

    def _new_term(self, term: str) -> int:
        if self.free_tids:
            tid = self.free_tids.pop()
            self.names[tid] = term
            self.off[tid] = self._alloc(self.initial)
            self.cap[tid] = self.initial
            self.length[tid] = 0
        else:
            tid = len(self.names)
            self.names.append(term)
            self.off.append(self._alloc(self.initial))
            self.cap.append(self.initial)
            self.length.append(0)
        self.tids[term] = tid
        return tid

    def _grow(self, tid: int) -> None:
        old_cap = self.cap[tid]
        new_cap = old_cap * 2
        old_off = self.off[tid]
        new_off = self._alloc(new_cap)
        used = self.length[tid]
        self.ids[new_off:new_off + used] = self.ids[old_off:old_off + used]
        self.cnt[new_off:new_off + used] = self.cnt[old_off:old_off + used]
        self.free.setdefault(old_cap, []).append(old_off)
        self.off[tid] = new_off
        self.cap[tid] = new_cap

    def bump_one(self, term: str, bundle_id: int) -> None:
        tid = self.tids.get(term)
        if tid is None:
            tid = self._new_term(term)
        offset = self.off[tid]
        used = self.length[tid]
        end = offset + used
        ids = self.ids
        position = bisect_left(ids, bundle_id, offset, end)
        if position < end and ids[position] == bundle_id:
            self.cnt[position] += 1
            return
        if used == self.cap[tid]:
            self._grow(tid)
            offset = self.off[tid]
            end = offset + used
            position = bisect_left(ids, bundle_id, offset, end)
        if position < end:  # shift the tail right by one slot
            ids[position + 1:end + 1] = ids[position:end]
            self.cnt[position + 1:end + 1] = self.cnt[position:end]
        ids[position] = bundle_id
        self.cnt[position] = 1
        self.length[tid] = used + 1
        self.entries += 1

    def drop_one(self, term: str, bundle_id: int) -> None:
        tid = self.tids.get(term)
        if tid is None:
            return
        offset = self.off[tid]
        used = self.length[tid]
        end = offset + used
        ids = self.ids
        position = bisect_left(ids, bundle_id, offset, end)
        if position >= end or ids[position] != bundle_id:
            return
        if position < end - 1:  # close the gap, keeping the sort order
            ids[position:end - 1] = ids[position + 1:end]
            self.cnt[position:end - 1] = self.cnt[position + 1:end]
        self.length[tid] = used - 1
        self.entries -= 1
        if used == 1:  # term emptied: recycle extent and tid
            self.free.setdefault(self.cap[tid], []).append(offset)
            del self.tids[term]
            self.names[tid] = None
            self.free_tids.append(tid)


class SlabPostingsStorage:
    """Slab-allocated postings: interned terms over contiguous arenas.

    See the module docstring for the layout; per-kind initial slice
    capacities come from :data:`SLAB_SLICE_SCHEDULE`, the measured
    workload projection.

    ``bump``/``drop`` are the Algorithm 1 index-update verbs (insertion
    and eviction); ``gather`` is the candidate-fetch step returning a
    :class:`CandidateGather`; the remaining methods are the
    introspection surface the anatomy/metrics layers read.  Unknown
    kinds raise :class:`~repro.core.errors.IndexError_` everywhere.
    """

    __slots__ = ("_slabs",)

    def __init__(self) -> None:
        self._slabs: "dict[str, _KindSlab]" = {
            kind: _KindSlab(SLAB_SLICE_SCHEDULE[kind])
            for kind in INDICANT_KINDS
        }

    def _slab(self, kind: str) -> _KindSlab:
        try:
            return self._slabs[kind]
        except KeyError:
            raise IndexError_(f"unknown indicant kind {kind!r}") from None

    def bump(self, kind: str, terms: "Iterable[str]",
             bundle_id: int) -> None:
        slab = self._slab(kind)
        for term in terms:
            slab.bump_one(term, bundle_id)

    def drop(self, kind: str, terms: "Iterable[str]",
             bundle_id: int) -> None:
        slab = self._slab(kind)
        for term in terms:
            slab.drop_one(term, bundle_id)

    def gather(self, groups: "Sequence[tuple[str, Iterable[str]]]",
               ) -> CandidateGather:
        # Probe once, collecting each hit term's extent; dispatch on the
        # total postings volume.  Small probes (the vast majority — see
        # the anatomy postings-length fingerprints) stay in pure Python;
        # heavy-hitter probes, where the same work would mean thousands
        # of dict operations, take the vectorised path.
        extents: "list[tuple[_KindSlab, int, int, int]]" = []
        total = 0
        for kind, terms in groups:
            slab = self._slab(kind)
            kind_index = _KIND_INDEX[kind]
            tids = slab.tids
            off = slab.off
            length = slab.length
            for term in terms:
                tid = tids.get(term)
                if tid is None:
                    continue
                used = length[tid]
                if used:
                    extents.append((slab, kind_index, off[tid], used))
                    total += used
        if not extents:
            return _empty_gather()
        if _np is None or total <= SMALL_GATHER_CUTOFF:
            return self._gather_small(extents)
        parts = []
        views: "dict[int, Any]" = {}  # one zero-copy view per kind
        for slab, kind_index, offset, used in extents:
            arena = views.get(kind_index)
            if arena is None:
                arena = views[kind_index] = _np.frombuffer(
                    slab.ids, dtype=_np.int64)
            # Pack the kind index into the low two bits so one
            # unique() pass yields per-(bundle, kind) hit counts.
            parts.append(arena[offset:offset + used]
                         * _KIND_COUNT + kind_index)
        encoded = _np.concatenate(parts)
        unique, counts = _np.unique(encoded, return_counts=True)
        decoded_ids = unique >> 2
        kind_column = (unique & (_KIND_COUNT - 1)).astype(_np.intp)
        boundary = _np.empty(len(decoded_ids), dtype=bool)
        boundary[0] = True
        _np.not_equal(decoded_ids[1:], decoded_ids[:-1], out=boundary[1:])
        ids = decoded_ids[boundary]
        rows = _np.cumsum(boundary) - 1
        matrix = _np.zeros((len(ids), _KIND_COUNT), dtype=_np.int64)
        matrix[rows, kind_column] = counts
        totals = matrix.sum(axis=1)
        return CandidateGather(
            ids, totals,
            (matrix[:, 0], matrix[:, 1], matrix[:, 2], matrix[:, 3]))

    @staticmethod
    def _gather_small(extents: "list[tuple[_KindSlab, int, int, int]]",
                      ) -> CandidateGather:
        """Identical-output accumulation for small (or numpy-less) probes."""
        acc: "dict[int, list[int]]" = {}
        for slab, kind_index, offset, used in extents:
            for bundle_id in slab.ids[offset:offset + used].tolist():
                row = acc.get(bundle_id)
                if row is None:
                    row = acc[bundle_id] = [0] * _KIND_COUNT
                row[kind_index] += 1
        return _package_gather(acc)

    def postings(self, kind: str, term: str) -> "Mapping[int, int]":
        slab = self._slab(kind)
        tid = slab.tids.get(term)
        if tid is None:
            return MappingProxyType({})
        offset = slab.off[tid]
        end = offset + slab.length[tid]
        return MappingProxyType(dict(zip(slab.ids[offset:end],
                                         slab.cnt[offset:end])))

    def terms(self, kind: str) -> "Iterator[str]":
        return iter(self._slab(kind).tids)

    def term_count(self, kind: "str | None" = None) -> int:
        if kind is not None:
            return len(self._slab(kind).tids)
        return sum(len(slab.tids) for slab in self._slabs.values())

    def entry_count(self, kind: "str | None" = None) -> int:
        if kind is not None:
            return self._slab(kind).entries
        return sum(slab.entries for slab in self._slabs.values())

    def postings_length(self, kind: str, term: str) -> int:
        slab = self._slab(kind)
        tid = slab.tids.get(term)
        return slab.length[tid] if tid is not None else 0

    def postings_lengths(self, kind: str) -> "list[int]":
        slab = self._slab(kind)
        length = slab.length
        return [length[tid] for tid in slab.tids.values()]

    def approximate_memory_bytes(self) -> int:
        """Deterministic footprint estimate (feeds Fig. 11a).

        The arenas and metadata arrays are measured exactly (their
        buffers dominate and ``sys.getsizeof`` is O(1) per array); the
        interning side uses a per-term byte model calibrated against
        the anatomy accountant's deep-size walk.
        """
        getsizeof = sys.getsizeof
        total = 0
        for slab in self._slabs.values():
            total += (getsizeof(slab.ids) + getsizeof(slab.cnt)
                      + getsizeof(slab.off) + getsizeof(slab.cap)
                      + getsizeof(slab.length))
            total += _SLAB_TERM_BYTES_FOR(slab)
        return total

    def memory_root(self) -> object:
        return self._slabs


def _SLAB_TERM_BYTES_FOR(slab: _KindSlab) -> int:
    total = _SLAB_TERM_BASE_BYTES * len(slab.tids)
    for term in slab.tids:
        total += len(term)
    return total
