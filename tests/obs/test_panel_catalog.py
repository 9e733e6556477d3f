"""Every dashboard row reads a family its configuration emits.

The dashboard is one declared list of panels
(:data:`repro.obs.dashboard.PANELS`); each row names the metric
families it reads.  Two configurations, built once per test run by the
metric catalog (:func:`tests.obs.test_metric_catalog.lit_registries`),
render it: the lit surge stack ``repro top`` replays through, with its
health report, and a two-worker fleet merged the way ``repro serve``
merges it.  Together they must show that

1. every row (per-shard column) a frame draws reads at least one
   family its registry holds, and a frame reads no family outside the
   rows it evaluates;
2. every declared row draws in at least one configuration, so no row
   is dead;
3. two seeded ``repro top`` replays print the same bytes above
   :data:`~repro.obs.dashboard.CLOCK_MARKER`.

``python -c "from tests.obs.test_panel_catalog import declared_rows;
print(len(declared_rows()))"`` prints the declared row count (CI's
tracked indicator).
"""

from __future__ import annotations

import contextlib
import io

from repro.obs.dashboard import CLOCK_MARKER, PANELS, Dashboard
from tests.obs.test_metric_catalog import lit_registries


def declared_rows() -> "list[tuple[str, object]]":
    """``(panel/label, row)`` of every declared row, in frame order."""
    return [(f"{panel.title if isinstance(panel.title, str) else ''}/"
             f"{row.label}", row) for panel in PANELS for row in panel.rows]


class _Recording:
    """A registry stand-in that notes every family a frame reads."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self.read: "set[str]" = set()

    def families(self):
        return self.registry.families()

    def find(self, name, labels=None):
        self.read.add(name)
        return self.registry.find(name, labels)

    def value(self, name, labels=None, default=0.0):
        self.read.add(name)
        return self.registry.value(name, labels, default)


def _configurations() -> "dict[str, Dashboard]":
    stack, report, fleet = lit_registries()
    return {"top": Dashboard(stack, health=lambda: report),
            "serve": Dashboard(fleet)}


def _top_once() -> str:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["top", "--once", "--messages", "400", "--seed", "11",
                     "--sample", "0"]) == 0
    return out.getvalue()


class TestPanelCatalog:
    def test_every_drawn_row_reads_a_held_family(self):
        for name, dashboard in _configurations().items():
            held = {family.name for family in dashboard.registry.families()}
            for row in dashboard.drawn_rows():
                assert held & set(row.families), (
                    f"{name}: {row.label!r} drew from none of "
                    f"{row.families}")
            evaluated = {family for panel in PANELS for row in panel.rows
                         if held & set(row.families)
                         for family in row.families}
            recording = _Recording(dashboard.registry)
            Dashboard(recording, health=dashboard.health).frame()
            assert recording.read <= evaluated, (
                f"{name}: read undeclared {sorted(recording.read - evaluated)}")

    def test_every_declared_row_draws_somewhere(self):
        drawn = {id(row) for dashboard in _configurations().values()
                 for row in dashboard.drawn_rows()}
        dead = [name for name, row in declared_rows() if id(row) not in drawn]
        assert not dead, f"declared rows no configuration draws: {dead}"

    def test_seeded_top_replays_match_above_the_clock_marker(self):
        first, second = _top_once(), _top_once()
        assert CLOCK_MARKER in first and "accounting" in first
        assert (first.split(CLOCK_MARKER)[0]
                == second.split(CLOCK_MARKER)[0])
