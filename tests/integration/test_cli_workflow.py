"""Integration: the full CLI workflow, command by command.

Drives the documented shell workflow end to end through ``main()``:
generate → stats → index (with archive store) → search → show →
archive, asserting each stage consumes the previous stage's artifacts.
"""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-flow")
    dataset = root / "stream.tsv"
    snapshot = root / "state.json"
    store = root / "bundles"
    assert main(["generate", "-o", str(dataset), "--days", "1",
                 "--rate", "1500", "--seed", "21", "--users", "300",
                 "--events-per-day", "10"]) == 0
    assert main(["index", str(dataset), "-o", str(snapshot),
                 "--pool-size", "80", "--bundle-limit", "60",
                 "--store", str(store)]) == 0
    return root, dataset, snapshot, store


class TestCliWorkflow:
    def test_stats_reads_generated_dataset(self, workspace, capsys):
        _, dataset, _, _ = workspace
        assert main(["stats", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "1.50k" in out or "1500" in out

    def test_search_over_snapshot(self, workspace, capsys):
        _, _, snapshot, _ = workspace
        # query by whatever the busiest bundle is about
        from repro.storage.snapshot import load_snapshot

        indexer = load_snapshot(snapshot)
        busiest = max(indexer.pool, key=len)
        query = " ".join(busiest.summary_words(2))
        assert main(["search", str(snapshot), query, "-k", "3"]) == 0
        assert "bundle" in capsys.readouterr().out

    def test_show_renders_a_bundle(self, workspace, capsys):
        _, _, snapshot, _ = workspace
        from repro.storage.snapshot import load_snapshot

        indexer = load_snapshot(snapshot)
        bundle_id = max(indexer.pool, key=len).bundle_id
        assert main(["show", str(snapshot), str(bundle_id),
                     "--storyline"]) == 0
        out = capsys.readouterr().out
        assert f"bundle {bundle_id}" in out
        assert "storyline" in out

    def test_archive_holds_evicted_stories(self, workspace, capsys):
        root, _, _, store = workspace
        from repro.storage.archive_index import ArchivedBundleStore

        archive = ArchivedBundleStore(store)
        assert len(archive) > 0  # pool of 80 forced evictions
        # search it through the CLI by a stored bundle's top word
        bundle = archive.load(archive.store.bundle_ids()[0])
        words = bundle.summary_words(1)
        if words:
            code = main(["archive", str(store), words[0]])
            assert code in (0, 1)

    def test_errors_are_clean(self, workspace, capsys):
        root, _, _, _ = workspace
        assert main(["stats", str(root / "missing.tsv")]) == 2
        assert "error:" in capsys.readouterr().err
