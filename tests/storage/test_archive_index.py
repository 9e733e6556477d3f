"""Tests for the searchable bundle archive."""

from __future__ import annotations

from repro.core.bundle import Bundle
from repro.core.config import IndexerConfig
from repro.core.engine import ProvenanceIndexer
from repro.storage.archive_index import (ArchiveIndex, ArchivedBundleStore)
from tests.conftest import make_message


def topic_bundle(bundle_id: int, tag: str, *, size: int = 3,
                 hours: float = 0.0) -> Bundle:
    bundle = Bundle(bundle_id)
    for index in range(size):
        bundle.insert(
            make_message(bundle_id * 100 + index,
                         f"#{tag} update number {index} bit.ly/{tag}x",
                         user=f"u{index}", hours=hours + index * 0.1),
            keywords=frozenset({tag, "update"}))
    return bundle


class TestArchiveIndex:
    def test_add_and_search_by_hashtag(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "tsunami"))
        index.add(topic_bundle(2, "stocks"))
        hits = index.search(hashtags={"tsunami"})
        assert [hit.bundle_id for hit in hits] == [1]

    def test_search_by_keyword(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "tsunami"))
        hits = index.search(terms={"tsunami"})
        assert hits and hits[0].bundle_id == 1

    def test_search_by_url(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "game"))
        hits = index.search(urls={"bit.ly/gamex"})
        assert [hit.bundle_id for hit in hits] == [1]

    def test_empty_criteria_returns_nothing(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "x"))
        assert index.search() == []

    def test_recency_tie_break(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "game", hours=0.0))
        index.add(topic_bundle(2, "game", hours=10.0))
        hits = index.search(hashtags={"game"}, k=2)
        assert hits[0].bundle_id == 2  # fresher first on equal score

    def test_journal_replayed_on_reopen(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "tsunami"))
        index.add(topic_bundle(2, "stocks"))
        reopened = ArchiveIndex(tmp_path)
        assert len(reopened) == 2
        assert reopened.search(hashtags={"stocks"})[0].bundle_id == 2

    def test_reindex_same_bundle_latest_wins(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "alpha"))
        index.add(topic_bundle(1, "beta"))  # superseding record
        assert len(index) == 1
        assert index.search(hashtags={"alpha"}) == []
        assert index.search(hashtags={"beta"})[0].bundle_id == 1

    def test_corrupt_journal_damage_is_skipped(self, tmp_path):
        """The rule every framed log follows: damage is skipped, intact
        records load, and the next append survives a reopen."""
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "tsunami"))
        index.close()
        journal = tmp_path / "archive-index.log"
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{broken\n12345678 {"id": 9}\n0badc0de {"id"')
        reopened = ArchiveIndex(tmp_path)
        assert list(reopened._records) == [1]
        reopened.add(topic_bundle(2, "stocks"))
        reopened.close()
        again = ArchiveIndex(tmp_path)
        assert sorted(again._records) == [1, 2]
        assert again.search(hashtags={"stocks"})[0].bundle_id == 2

    def test_pre_crc_journal_loads_to_identical_hits(self, tmp_path):
        """Plain JSON lines, as the journal was written before it was
        framed, load to the same records and search hits."""
        framed = ArchiveIndex(tmp_path / "framed")
        bundles = [topic_bundle(1, "tsunami"), topic_bundle(2, "stocks"),
                   topic_bundle(1, "quake", hours=3.0)]
        for bundle in bundles:
            framed.add(bundle)
        framed.close()
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        lines = (tmp_path / "framed" / "archive-index.log").read_text(
            ).splitlines()
        (legacy / "archive-index.log").write_text(
            "".join(line.split(" ", 1)[1] + "\n" for line in lines))
        plain = ArchiveIndex(legacy)
        again = ArchiveIndex(tmp_path / "framed")
        assert plain._records == again._records
        for query in ({"terms": {"update"}}, {"hashtags": {"quake"}},
                      {"hashtags": {"tsunami"}}, {"urls": {"bit.ly/stocksx"}}):
            assert plain.search(**query) == again.search(**query)

    def test_hit_carries_summary(self, tmp_path):
        index = ArchiveIndex(tmp_path)
        index.add(topic_bundle(1, "tsunami"))
        hit = index.search(hashtags={"tsunami"})[0]
        assert hit.size == 3
        assert hit.summary_words


class TestArchivedBundleStore:
    def test_append_persists_and_indexes(self, tmp_path):
        store = ArchivedBundleStore(tmp_path / "arch")
        store.append(topic_bundle(1, "tsunami"))
        assert len(store) == 1
        assert store.search("#tsunami")[0].bundle_id == 1
        assert len(store.load(1)) == 3

    def test_free_text_search(self, tmp_path):
        store = ArchivedBundleStore(tmp_path / "arch")
        store.append(topic_bundle(1, "tsunami"))
        store.append(topic_bundle(2, "stocks"))
        hits = store.search("tsunami update")
        assert hits[0].bundle_id == 1

    def test_engine_integration_archived_stories_findable(self, tmp_path):
        """The headline capability: stories evicted from the pool remain
        searchable through the archive."""
        store = ArchivedBundleStore(tmp_path / "arch")
        indexer = ProvenanceIndexer(
            IndexerConfig.partial_index(pool_size=3), store=store)
        # Three messages: big enough to be *backed up* on eviction rather
        # than deleted as aging-tiny (Algorithm 3 stage one).
        indexer.ingest(make_message(0, "tsunami warning #tsunami",
                                    user="agency"))
        indexer.ingest(make_message(1, "RT @agency: tsunami warning "
                                       "#tsunami", user="fan", hours=0.2))
        indexer.ingest(make_message(90, "evacuation starts #tsunami",
                                    user="news", hours=0.4))
        # Flood with unrelated topics far in the future to force eviction.
        for index in range(2, 40):
            indexer.ingest(make_message(index, f"#topic{index} chatter",
                                        user=f"u{index}", hours=200 + index))
        pooled_tags = {tag for bundle in indexer.pool
                       for tag in bundle.hashtag_counts}
        assert "tsunami" not in pooled_tags  # gone from memory
        hits = store.search("#tsunami")
        assert hits
        archived = store.load(hits[0].bundle_id)
        assert any("tsunami" in m.text for m in archived.messages())
