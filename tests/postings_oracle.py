"""Nested-dict postings layout (test oracle only).

This is the layout ``repro.core.postings`` shipped next to the slab
until the slab became the summary index's only one: one Python dict per
term, O(1) updates, candidate gathering by walking Python objects.
The slab must equal it in every observable: candidate sets, counts, term
iteration order, and everything an engine built over it emits.
:func:`dict_postings` builds engines over it so one script can be
replayed against both (:func:`postings_layout` picks a side by name).
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core import engine as engine_module
from repro.core.errors import IndexError_
from repro.core.postings import (_KIND_COUNT, _KIND_INDEX, INDICANT_KINDS,
                                 CandidateGather)
from repro.core.summary_index import SummaryIndex

# Byte model behind the dict layout's deterministic memory estimate.
_DICT_TERM_BASE_BYTES = 242  # term str header + outer dict slot + dict base
_DICT_TERM_ENTRY_BYTES = 76  # inner dict slot + boxed bundle id + count


def _package_gather(acc: "dict[int, list[int]]") -> CandidateGather:
    """Naive packaging: per-id kind rows -> one row per candidate.

    Every candidate gets a row, keyword-only ones included — the full
    shape the slab's gather packages only when keyword-only candidates
    could reach ``MIN_MATCH_SCORE`` (``CandidateGather.packaged``).
    Recording a decision does not package: an audited selection runs
    the same pruned loop.
    """
    ids = sorted(acc)
    rows = [acc[bundle_id] for bundle_id in ids]
    totals = [row[0] + row[1] + row[2] + row[3] for row in rows]
    columns = (
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
    )
    return CandidateGather(ids, totals, columns)


def full_gather(gather: CandidateGather) -> CandidateGather:
    """A gather re-packaged naively with every candidate as a row."""
    acc = {bundle_id: [column[position] for column in gather.kind_hits]
           for position, bundle_id in enumerate(gather.ids)}
    keyword = _KIND_INDEX["keyword"]
    for bundle_id, hits in gather.keyword_only.items():
        acc[bundle_id] = [0] * _KIND_COUNT
        acc[bundle_id][keyword] = hits
    return _package_gather(acc)


class DictPostingsOracle:
    """The nested layout: ``kind -> term -> {bundle_id: count}`` dicts.

    Every observable output matches
    :class:`~repro.core.postings.SlabPostingsStorage` byte-for-byte;
    only the memory estimate (its own byte model) differs, and its
    gathers package keyword-only candidates as rows up front (what
    ``CandidateGather.packaged`` makes of a slab gather).
    """

    __slots__ = ("_maps",)

    def __init__(self) -> None:
        self._maps: "dict[str, dict[str, dict[int, int]]]" = {
            kind: {} for kind in INDICANT_KINDS
        }

    def _map_for(self, kind: str) -> "dict[str, dict[int, int]]":
        try:
            return self._maps[kind]
        except KeyError:
            raise IndexError_(f"unknown indicant kind {kind!r}") from None

    def bump(self, kind: str, terms: "Iterable[str]",
             bundle_id: int) -> None:
        term_map = self._map_for(kind)
        for term in terms:
            bundles = term_map.get(term)
            if bundles is None:
                bundles = term_map[term] = {}
            bundles[bundle_id] = bundles.get(bundle_id, 0) + 1

    def drop(self, kind: str, terms: "Iterable[str]",
             bundle_id: int) -> None:
        term_map = self._map_for(kind)
        for term in terms:
            bundles = term_map.get(term)
            if bundles is None:
                continue
            bundles.pop(bundle_id, None)
            if not bundles:
                del term_map[term]

    def gather(self, groups: "Sequence[tuple[str, Iterable[str]]]",
               ) -> CandidateGather:
        acc: "dict[int, list[int]]" = {}
        for kind, terms in groups:
            term_map = self._map_for(kind)
            kind_index = _KIND_INDEX[kind]
            for term in terms:
                bundles = term_map.get(term)
                if bundles is None:
                    continue
                for bundle_id in bundles:
                    row = acc.get(bundle_id)
                    if row is None:
                        row = acc[bundle_id] = [0] * _KIND_COUNT
                    row[kind_index] += 1
        return _package_gather(acc)

    def postings(self, kind: str, term: str) -> "Mapping[int, int]":
        bundles = self._map_for(kind).get(term)
        if bundles is None:
            return MappingProxyType({})
        return MappingProxyType(bundles)

    def terms(self, kind: str) -> "Iterator[str]":
        return iter(self._map_for(kind))

    def term_count(self, kind: "str | None" = None) -> int:
        if kind is not None:
            return len(self._map_for(kind))
        return sum(len(terms) for terms in self._maps.values())

    def entry_count(self, kind: "str | None" = None) -> int:
        if kind is not None:
            return sum(len(bundles)
                       for bundles in self._map_for(kind).values())
        return sum(
            len(bundles)
            for terms in self._maps.values()
            for bundles in terms.values()
        )

    def postings_length(self, kind: str, term: str) -> int:
        bundles = self._map_for(kind).get(term)
        return len(bundles) if bundles is not None else 0

    def postings_lengths(self, kind: str) -> "list[int]":
        return [len(bundles) for bundles in self._map_for(kind).values()]

    def approximate_memory_bytes(self) -> int:
        total = 0
        for terms in self._maps.values():
            for term, bundles in terms.items():
                total += (_DICT_TERM_BASE_BYTES + len(term)
                          + len(bundles) * _DICT_TERM_ENTRY_BYTES)
        return total

    def memory_root(self) -> object:
        return self._maps


def dict_index() -> SummaryIndex:
    """A summary index laid out over the dict oracle."""
    return SummaryIndex(storage=DictPostingsOracle())


@contextmanager
def dict_postings() -> Iterator[None]:
    """Build every engine over the dict oracle meanwhile.

    The engine's constructor builds its summary index, so the oracle
    has to be in place *before* construction: the
    ``SummaryIndex`` name the engine module calls is swapped for its
    duration.
    """
    shipped = engine_module.SummaryIndex
    engine_module.SummaryIndex = dict_index  # type: ignore[assignment,misc]
    try:
        yield
    finally:
        engine_module.SummaryIndex = shipped  # type: ignore[misc]


def postings_layout(name: str) -> "AbstractContextManager[None]":
    """One cell of a slab-vs-dict matrix: ``"slab"`` ships, ``"dict"`` swaps."""
    return {"slab": nullcontext, "dict": dict_postings}[name]()
