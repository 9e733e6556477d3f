"""Tests for provenance operators over bundle forests."""

from __future__ import annotations

import pytest

from repro.core.bundle import Bundle
from repro.core.connection import Connection, ConnectionType
from repro.core.errors import BundleError
from repro.core.graph import (ancestors, cascade_stats, children_map, depth,
                              descendants, fanout, parent_map, path_to_root,
                              render_tree, roots)
from tests.conftest import make_message


@pytest.fixture
def chain_bundle() -> Bundle:
    """0 <- 1 <- 2 (a linear RT chain)."""
    bundle = Bundle(0)
    bundle.insert(make_message(0, "origin story", user="src"))
    bundle.insert(make_message(1, "RT @src: origin story", user="mid",
                               hours=0.5))
    bundle.insert(make_message(2, "RT @mid: RT @src: origin story",
                               user="leaf", hours=1.0))
    return bundle


@pytest.fixture
def star_bundle() -> Bundle:
    """0 with three direct re-shares."""
    bundle = Bundle(1)
    bundle.insert(make_message(0, "big news", user="src"))
    for index in (1, 2, 3):
        bundle.insert(make_message(index, "RT @src: big news",
                                   user=f"fan{index}", hours=0.1 * index))
    return bundle


class TestBasicsOnChain:
    def test_roots(self, chain_bundle):
        assert roots(chain_bundle) == [0]

    def test_parent_map(self, chain_bundle):
        assert parent_map(chain_bundle) == {1: 0, 2: 1}

    def test_children_map(self, chain_bundle):
        assert children_map(chain_bundle) == {0: [1], 1: [2]}

    def test_ancestors(self, chain_bundle):
        assert ancestors(chain_bundle, 2) == [1, 0]
        assert ancestors(chain_bundle, 0) == []

    def test_path_to_root(self, chain_bundle):
        assert path_to_root(chain_bundle, 2) == [2, 1, 0]

    def test_descendants(self, chain_bundle):
        assert descendants(chain_bundle, 0) == [1, 2]
        assert descendants(chain_bundle, 2) == []

    def test_depth(self, chain_bundle):
        assert depth(chain_bundle, 0) == 0
        assert depth(chain_bundle, 2) == 2

    def test_fanout(self, chain_bundle):
        assert fanout(chain_bundle, 0) == 1
        assert fanout(chain_bundle, 2) == 0


class TestBasicsOnStar:
    def test_fanout_of_hub(self, star_bundle):
        assert fanout(star_bundle, 0) == 3

    def test_descendants_bfs(self, star_bundle):
        assert descendants(star_bundle, 0) == [1, 2, 3]

    def test_all_leaves_depth_one(self, star_bundle):
        assert all(depth(star_bundle, i) == 1 for i in (1, 2, 3))


class TestErrors:
    def test_ancestors_unknown_message(self, chain_bundle):
        with pytest.raises(BundleError):
            ancestors(chain_bundle, 99)

    def test_descendants_unknown_message(self, chain_bundle):
        with pytest.raises(BundleError):
            descendants(chain_bundle, 99)

    def test_cycle_detected(self):
        bundle = Bundle(0)
        bundle.insert(make_message(0, "a"))
        bundle.insert(make_message(1, "b", user="b", hours=0.1))
        # Corrupt the edges into a 2-cycle.
        bundle._edges[0] = Connection(0, 1, ConnectionType.TEXT, 0.0)
        bundle._edges[1] = Connection(1, 0, ConnectionType.TEXT, 0.0)
        with pytest.raises(BundleError):
            ancestors(bundle, 0)


class TestCascadeStats:
    def test_chain_stats(self, chain_bundle):
        stats = cascade_stats(chain_bundle)
        assert stats.size == 3
        assert stats.root_count == 1
        assert stats.max_depth == 2
        assert stats.max_fanout == 1
        assert stats.edge_count == 2

    def test_star_stats(self, star_bundle):
        stats = cascade_stats(star_bundle)
        assert stats.max_depth == 1
        assert stats.max_fanout == 3

    def test_singleton_stats(self):
        bundle = Bundle(0)
        bundle.insert(make_message(0, "alone"))
        stats = cascade_stats(bundle)
        assert stats.size == 1
        assert stats.max_depth == 0
        assert stats.edge_count == 0
        assert stats.time_span == 0.0


class TestRenderTree:
    def test_render_contains_all_users(self, chain_bundle):
        text = render_tree(chain_bundle)
        for user in ("src", "mid", "leaf"):
            assert f"@{user}" in text

    def test_render_shows_connection_kinds(self, chain_bundle):
        assert "(rt)" in render_tree(chain_bundle)

    def test_render_header_has_size(self, chain_bundle):
        assert "size=3" in render_tree(chain_bundle).splitlines()[0]

    def test_render_truncates_long_text(self):
        bundle = Bundle(0)
        bundle.insert(make_message(0, "word " * 40))
        text = render_tree(bundle, max_text=20)
        assert "…" in text

    def test_render_star_indents_children(self, star_bundle):
        lines = render_tree(star_bundle).splitlines()
        child_lines = [ln for ln in lines if "fan" in ln]
        assert len(child_lines) == 3
        assert all(ln.startswith("  ") for ln in child_lines)
