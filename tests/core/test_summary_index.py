"""Tests for the summary index (Fig. 5): the slab and the dict oracle."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import Bundle
from repro.core.errors import IndexError_
from repro.core.postings import SlabPostingsStorage
from repro.core.summary_index import INDICANT_KINDS, SummaryIndex
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_message
from tests.postings_oracle import dict_index

BACKENDS = {"slab": SummaryIndex, "dict": dict_index}


@pytest.fixture(params=BACKENDS)
def index(request) -> SummaryIndex:
    return BACKENDS[request.param]()


def _hits(index, message, keywords) -> dict:
    gather = index.gather_candidates(message, keywords)
    return {**dict(zip(gather.ids, gather.hits)), **gather.keyword_only}


class TestAddAndLookup:
    def test_hashtag_lookup(self, index):
        index.add_message(7, make_message(1, "#redsox go"), frozenset())
        assert index.postings("hashtag", "redsox") == {7: 1}

    def test_counts_increment(self, index):
        index.add_message(7, make_message(1, "#redsox"), frozenset())
        index.add_message(7, make_message(2, "#redsox", hours=1), frozenset())
        assert index.postings("hashtag", "redsox") == {7: 2}

    def test_url_and_keyword_and_user_maps(self, index):
        index.add_message(
            3, make_message(1, "x bit.ly/a", user="mlb"),
            frozenset({"game"}))
        assert index.postings("url", "bit.ly/a") == {3: 1}
        assert index.postings("keyword", "game") == {3: 1}
        assert index.postings("user", "mlb") == {3: 1}

    def test_unknown_term_returns_empty(self, index):
        assert index.postings("hashtag", "nothing") == {}

    def test_unknown_kind_raises(self, index):
        with pytest.raises(IndexError_):
            index.postings("bogus", "x")

    def test_term_and_entry_counts(self, index):
        index.add_message(1, make_message(1, "#a #b"), frozenset({"kw"}))
        index.add_message(2, make_message(2, "#a", user="bob", hours=1),
                          frozenset())
        assert index.term_count("hashtag") == 2
        # hashtag a->2 bundles, b->1; keyword kw->1; user alice->1, bob->1.
        assert index.entry_count() == 2 + 1 + 1 + 1 + 1

    def test_terms_iteration(self, index):
        index.add_message(1, make_message(1, "#x #y"), frozenset())
        assert sorted(index.iter_terms("hashtag")) == ["x", "y"]


class TestCandidates:
    def test_candidates_weighted_by_hits(self, index):
        index.add_message(1, make_message(1, "#a bit.ly/z"), frozenset())
        index.add_message(2, make_message(2, "#a", user="b", hours=1),
                          frozenset())
        incoming = make_message(3, "#a check bit.ly/z", user="c", hours=2)
        hits = _hits(index, incoming, frozenset())
        assert hits[1] == 2  # hashtag + url
        assert hits[2] == 1  # hashtag only

    def test_gather_kind_rows_are_shared_counts(self, index):
        index.add_message(1, make_message(1, "#a bit.ly/z"), frozenset())
        index.add_message(2, make_message(2, "#a", user="b", hours=1),
                          frozenset({"game"}))
        incoming = make_message(3, "#a check bit.ly/z", user="c", hours=2)
        gather = index.gather_candidates(incoming, frozenset({"game"}))
        assert list(gather.ids) == [1, 2]
        tag_hits, url_hits, kw_hits, user_hits = gather.kind_hits
        assert list(tag_hits) == [1, 1]
        assert list(url_hits) == [1, 0]
        assert list(kw_hits) == [0, 1]
        assert list(user_hits) == [0, 0]
        assert list(gather.hits) == [2, 2]

    def test_keyword_only_candidates_package_in_id_order(self, index):
        index.add_message(1, make_message(1, "x"), frozenset({"game"}))
        index.add_message(2, make_message(2, "#a", user="b", hours=1),
                          frozenset({"game"}))
        index.add_message(3, make_message(3, "y", user="c", hours=2),
                          frozenset({"game", "night"}))
        incoming = make_message(4, "#a late", user="d", hours=3)
        gather = index.gather_candidates(incoming,
                                         frozenset({"game", "night"}))
        # The slab tallies bundles 1 and 3 (keyword postings only); the
        # dict oracle packages them.  Both count and package the same.
        assert len(gather) == 3
        assert dict(gather.keyword_only) in ({1: 1, 3: 2}, {})
        full = gather.packaged()
        assert list(full.ids) == [1, 2, 3]
        assert list(full.hits) == [1, 2, 2]
        assert [list(row) for row in full.kind_hits] == [
            [0, 1, 0], [0, 0, 0], [1, 1, 2], [0, 0, 0]]
        assert not full.keyword_only

    def test_gather_is_a_read_only_probe(self, index):
        index.add_message(1, make_message(1, "#a bit.ly/z"), frozenset())
        index.add_message(2, make_message(2, "#a", user="b", hours=1),
                          frozenset())
        probes = [
            (make_message(3, "#a", user="c", hours=2), frozenset()),
            (make_message(4, "bit.ly/z", user="d", hours=3), frozenset()),
        ]
        # Read-only: probing twice, in either order, sees the same state.
        batched = [index.gather_candidates(*probe) for probe in probes]
        assert [list(gather.ids) for gather in batched] == [[1, 2], [1]]
        for gather, (message, keywords) in zip(batched, probes):
            single = index.gather_candidates(message, keywords)
            assert list(gather.ids) == list(single.ids)
            assert list(gather.hits) == list(single.hits)

    def test_rt_users_hit_user_map(self, index):
        index.add_message(4, make_message(1, "news", user="mlb"), frozenset())
        incoming = make_message(2, "RT @mlb: news", user="fan", hours=1)
        assert _hits(index, incoming, frozenset())[4] == 1

    def test_keywords_hit_keyword_map(self, index):
        index.add_message(5, make_message(1, "x"), frozenset({"game"}))
        incoming = make_message(2, "y", user="b", hours=1)
        assert _hits(index, incoming, frozenset({"game"}))[5] == 1

    def test_no_candidates_for_unseen_indicants(self, index):
        index.add_message(1, make_message(1, "#a"), frozenset())
        incoming = make_message(2, "#zzz", user="b", hours=1)
        assert not _hits(index, incoming, frozenset())


class TestRemoveBundle:
    def _bundle_with_messages(self) -> Bundle:
        bundle = Bundle(9)
        bundle.insert(make_message(1, "#a bit.ly/z", user="mlb"),
                      keywords=frozenset({"game"}))
        bundle.insert(make_message(2, "#a more", user="fan", hours=1),
                      keywords=frozenset({"game"}))
        return bundle

    def test_remove_erases_all_entries(self, index):
        bundle = self._bundle_with_messages()
        for msg_id in bundle.message_ids():
            message = bundle.get(msg_id)
            index.add_message(9, message, bundle.keywords_of(msg_id))
        index.remove_bundle(bundle)
        assert index.entry_count() == 0
        assert index.term_count() == 0

    def test_remove_keeps_other_bundles(self, index):
        bundle = self._bundle_with_messages()
        for msg_id in bundle.message_ids():
            index.add_message(9, bundle.get(msg_id),
                              bundle.keywords_of(msg_id))
        index.add_message(10, make_message(5, "#a other", user="x", hours=2),
                          frozenset())
        index.remove_bundle(bundle)
        assert index.postings("hashtag", "a") == {10: 1}

    def test_remove_missing_bundle_is_noop(self, index):
        bundle = self._bundle_with_messages()
        index.remove_bundle(bundle)  # never added
        assert index.entry_count() == 0


class TestMemory:
    def test_memory_estimate_grows(self, index):
        empty = index.approximate_memory_bytes()
        index.add_message(1, make_message(1, "#tag bit.ly/a"), frozenset())
        assert index.approximate_memory_bytes() > empty

    def test_memory_root_walkable(self, index):
        from repro.obs.anatomy import deep_size_bytes

        index.add_message(1, make_message(1, "#tag bit.ly/a"),
                          frozenset({"kw"}))
        assert deep_size_bytes(index.memory_root()) > 0


class TestIntrospection:
    def test_postings_length_counts_bundles_not_occurrences(self, index):
        index.add_message(1, make_message(1, "#a"), frozenset())
        index.add_message(1, make_message(2, "#a", hours=1), frozenset())
        index.add_message(2, make_message(3, "#a", user="b", hours=2),
                          frozenset())
        assert index.postings_length("hashtag", "a") == 2

    def test_postings_length_unseen_term_is_zero(self, index):
        assert index.postings_length("hashtag", "nothing") == 0

    def test_postings_length_unknown_kind_raises(self, index):
        with pytest.raises(IndexError_):
            index.postings_length("bogus", "x")

    def test_postings_lengths_full_population(self, index):
        index.add_message(1, make_message(1, "#a #b"), frozenset())
        index.add_message(2, make_message(2, "#a", user="b", hours=1),
                          frozenset())
        assert sorted(index.postings_lengths("hashtag")) == [1, 2]
        with pytest.raises(IndexError_):
            index.postings_lengths("bogus")

    def test_per_kind_counts(self, index):
        index.add_message(1, make_message(1, "#a bit.ly/z"),
                          frozenset({"kw"}))
        index.add_message(2, make_message(2, "#a", user="bob", hours=1),
                          frozenset())
        assert index.term_count("hashtag") == 1
        assert index.entry_count("hashtag") == 2
        assert index.term_count("url") == 1
        assert index.term_count("user") == 2
        with pytest.raises(IndexError_):
            index.entry_count("bogus")

    def test_postings_view_is_immutable(self, index):
        # Regression for an aliasing bug: a caller holding the live
        # inner dict could corrupt the index by mutating it.  The view
        # refuses writes outright.
        index.add_message(7, make_message(1, "#a"), frozenset())
        view = index.postings("hashtag", "a")
        with pytest.raises(TypeError):
            view[99] = 123
        with pytest.raises(TypeError):
            view[7] = -1
        assert index.postings("hashtag", "a") == {7: 1}
        assert index.postings_length("hashtag", "a") == 1

    def test_empty_term_cleanup_after_remove(self, index):
        bundle = Bundle(4)
        bundle.insert(make_message(1, "#solo"), keywords=frozenset())
        index.add_message(4, bundle.get(1), frozenset())
        index.add_message(5, make_message(2, "#other", user="b", hours=1),
                          frozenset())
        index.remove_bundle(bundle)
        # The now-empty 'solo' postings must be deleted outright, not
        # left as an empty shell inflating term_count and the memory
        # estimate.
        assert "solo" not in set(index.iter_terms("hashtag"))
        assert index.term_count("hashtag") == 1
        assert index.postings_length("hashtag", "solo") == 0


_PLANS = st.lists(
    st.tuples(st.integers(0, 3),                    # bundle id
              st.sampled_from(["#a", "#b x", "bit.ly/z", "plain"]),
              st.sampled_from(["alice", "bob"]),
              st.frozensets(st.sampled_from(["k1", "k2"]),
                            max_size=2)),
    max_size=24)


class TestRoundTripProperty:
    @staticmethod
    def _replay(plan):
        """Drive both layouts in lockstep; return them plus the bundles."""
        slab = SummaryIndex()
        legacy = dict_index()
        bundles: dict[int, Bundle] = {}
        for msg_id, (bundle_id, text, user, keywords) in enumerate(plan):
            bundle = bundles.setdefault(bundle_id, Bundle(bundle_id))
            message = make_message(msg_id, text, user=user,
                                   hours=float(msg_id))
            bundle.insert(message, keywords=keywords)
            slab.add_message(bundle_id, message, keywords)
            legacy.add_message(bundle_id, message, keywords)
        return slab, legacy, bundles

    @given(plan=_PLANS)
    @settings(max_examples=40, deadline=None)
    def test_add_remove_round_trip_empties_index(self, plan):
        # Mirror every add in real Bundles, then remove each bundle:
        # the index must return to exactly empty — any residue would
        # leak candidates (and memory) across evictions forever.
        slab, legacy, bundles = self._replay(plan)
        for kind in INDICANT_KINDS:
            assert (sorted(slab.iter_terms(kind))
                    == sorted(legacy.iter_terms(kind)))
            for term in slab.iter_terms(kind):
                assert (dict(slab.postings(kind, term))
                        == dict(legacy.postings(kind, term)))
        for index in (slab, legacy):
            for bundle in bundles.values():
                index.remove_bundle(bundle)
            assert index.entry_count() == 0
            assert index.term_count() == 0
            for kind in INDICANT_KINDS:
                assert index.postings_lengths(kind) == []

    @given(plan=_PLANS)
    @settings(max_examples=25, deadline=None)
    def test_slab_arena_reuse_after_churn(self, plan):
        # Evicting every bundle then replaying the same adds must be
        # served from the free lists: the arenas must not grow at all
        # on the second pass (the anti-fragmentation property the slab
        # free lists exist for).
        slab, _, bundles = self._replay(plan)
        storage = slab._storage
        assert isinstance(storage, SlabPostingsStorage)
        for bundle in bundles.values():
            slab.remove_bundle(bundle)
        arena_sizes = {kind: len(storage._slabs[kind].ids)
                       for kind in INDICANT_KINDS}
        for msg_id, (bundle_id, text, user, keywords) in enumerate(plan):
            bundle = bundles[bundle_id]
            message = bundle.get(msg_id)
            slab.add_message(bundle_id, message, keywords)
        for kind in INDICANT_KINDS:
            assert len(storage._slabs[kind].ids) == arena_sizes[kind]


class TestHashSeedIndependence:
    """The index estimate is a function of the stream alone: set and
    counter iteration order follows the per-process string-hash seed,
    and the arenas must not."""

    SCRIPT = textwrap.dedent("""
        from repro.core import IndexerConfig, ProvenanceIndexer
        from repro.stream.generator import (AdversarialConfig,
                                            AdversarialGenerator,
                                            StreamConfig)
        base = StreamConfig(seed=8, days=1024.5 / 100_000.0,
                            messages_per_day=100_000, user_count=200,
                            events_per_day=960.0)
        stream = AdversarialGenerator(AdversarialConfig(
            "near-dup-storm", base=base, seed=8)).generate_list()
        engine = ProvenanceIndexer(IndexerConfig.bundle_limit(200, 100))
        engine.ingest_batch(stream, count_only=True)
        print(engine.summary_index.approximate_memory_bytes())
    """)

    def test_index_estimate_is_independent_of_the_hash_seed(self):
        src = Path(__file__).resolve().parents[2] / "src"
        readings = set()
        for hash_seed in ("0", "1", "99", "4567", "11", "777"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(src))
            done = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            readings.add(int(done.stdout))
        assert len(readings) == 1, readings
