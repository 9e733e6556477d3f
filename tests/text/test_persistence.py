"""Tests for search-engine persistence."""

from __future__ import annotations

import pytest

from repro.core.errors import StorageError
from repro.reliability.faults import Fault, FaultInjector, SimulatedCrash
from repro.text.analyzer import Analyzer
from repro.text.persistence import load_search_engine, save_search_engine
from repro.text.search import SearchEngine
from tests.conftest import make_message


@pytest.fixture
def engine(sample_messages) -> SearchEngine:
    engine = SearchEngine()
    engine.add_all(sample_messages)
    return engine


class TestRoundTrip:
    def test_corpus_preserved(self, engine, tmp_path):
        path = tmp_path / "index.json"
        assert save_search_engine(engine, path) == len(engine)
        restored = load_search_engine(path)
        assert len(restored) == len(engine)
        assert restored.all_ids() == engine.all_ids()

    def test_identical_search_results(self, engine, tmp_path):
        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        restored = load_search_engine(path)
        for query in ("yankee redsox", "market stocks", "stadium"):
            original = [(h.message.msg_id, round(h.score, 9))
                        for h in engine.search(query)]
            reloaded = [(h.message.msg_id, round(h.score, 9))
                        for h in restored.search(query)]
            assert original == reloaded

    def test_field_maps_restored(self, engine, tmp_path):
        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        restored = load_search_engine(path)
        assert restored.ids_for_field("tag", "redsox") == \
            engine.ids_for_field("tag", "redsox")
        assert restored.ids_for_field("user", "trader") == \
            engine.ids_for_field("user", "trader")

    def test_scorer_choice_preserved(self, sample_messages, tmp_path):
        engine = SearchEngine(scorer="tfidf")
        engine.add_all(sample_messages)
        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        restored = load_search_engine(path)
        assert restored._scorer.__class__.__name__ == "TfIdfScorer"

    def test_analyzer_config_preserved(self, tmp_path):
        analyzer = Analyzer(
            stopwords=Analyzer().stopwords | frozenset({"customstop"}),
            min_length=4, stem=False)
        engine = SearchEngine(analyzer)
        engine.add(make_message(0, "customstop longword tiny"))
        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        restored = load_search_engine(path)
        assert restored.analyzer.min_length == 4
        assert restored.analyzer.stem is False
        assert "customstop" in restored.analyzer.stopwords

    def test_restored_engine_accepts_new_documents(self, engine, tmp_path):
        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        restored = load_search_engine(path)
        restored.add(make_message(99, "brand new content here", user="n",
                                  hours=9))
        assert restored.search("brand new content")

    def test_empty_engine_round_trip(self, tmp_path):
        path = tmp_path / "index.json"
        assert save_search_engine(SearchEngine(), path) == 0
        assert len(load_search_engine(path)) == 0


class TestAtomicSave:
    def test_crash_before_rename_keeps_previous_file(self, engine, tmp_path):
        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        before = path.read_bytes()
        engine.add(make_message(50, "late breaking #news", hours=5))
        with pytest.raises(SimulatedCrash):
            with FaultInjector([Fault(op="replace", kind="crash_before",
                                      path_part="index.json")]):
                save_search_engine(engine, path)
        assert path.read_bytes() == before
        assert 50 not in load_search_engine(path).all_ids()

    def test_save_is_fsynced_before_the_rename(self, engine, tmp_path):
        path = tmp_path / "index.json"
        injector = FaultInjector([
            Fault(op="fsync", kind="crash_after", path_part="index.json")])
        with pytest.raises(SimulatedCrash):
            with injector:
                save_search_engine(engine, path)
        # Died between fsync and rename: the temp file is complete.
        assert [fault.op for fault in injector.fired] == ["fsync"]
        assert not path.exists()
        tmp = path.with_suffix(".json.tmp")
        tmp.replace(path)
        assert load_search_engine(path).all_ids() == engine.all_ids()

    def test_file_is_the_compact_sorted_key_json_it_always_was(
            self, engine, tmp_path):
        import json

        path = tmp_path / "index.json"
        save_search_engine(engine, path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":"),
                                  sort_keys=True)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_search_engine(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(StorageError):
            load_search_engine(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"v": 42}')
        with pytest.raises(StorageError):
            load_search_engine(path)
