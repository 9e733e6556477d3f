"""Tests for the analysis chain (normalize/stopwords/stemming/keywords)."""

from __future__ import annotations

from repro.text.analyzer import STOPWORDS, Analyzer, light_stem


class TestLightStem:
    def test_plural_s(self):
        assert light_stem("games") == "game"

    def test_plural_ies(self):
        assert light_stem("parties") == "party"

    def test_plural_es_strips_to_common_stem(self):
        # 'waves' and 'wave' must land on the same stem so the tsunami
        # event's vocabulary coheres.
        assert light_stem("waves") == light_stem("wave")

    def test_ing_with_doubled_consonant(self):
        assert light_stem("running") == "run"

    def test_ing_plain(self):
        assert light_stem("watching") == "watch"

    def test_short_words_untouched(self):
        assert light_stem("his") == "his"
        assert light_stem("is") == "is"

    def test_ss_not_stripped(self):
        assert light_stem("class") == "class"

    def test_idempotent_on_common_words(self):
        for word in ("game", "stadium", "tsunami", "market"):
            assert light_stem(light_stem(word)) == light_stem(word)


class TestAnalyzer:
    def test_stopwords_removed(self):
        analyzer = Analyzer()
        terms = analyzer.analyze("the game was a win")
        assert "the" not in terms and "was" not in terms
        assert "game" in terms and "win" in terms

    def test_short_words_removed(self):
        # MIN_LENGTH is 3: two-letter fragments go, "win" stays.
        terms = Analyzer().analyze("ok big win today")
        assert "ok" not in terms and "win" in terms

    def test_hashtag_bodies_analyzed(self):
        analyzer = Analyzer()
        assert "redsox" in analyzer.analyze("go #redsox")

    def test_stemming_applied(self):
        analyzer = Analyzer()
        assert "game" in analyzer.analyze("two games")

    def test_duplicates_preserved_in_analyze(self):
        analyzer = Analyzer()
        terms = analyzer.analyze("game game game")
        assert terms.count("game") == 3

    def test_term_set_dedupes(self):
        analyzer = Analyzer()
        assert analyzer.term_set("game game") == frozenset({"game"})

    def test_empty_text(self):
        analyzer = Analyzer()
        assert analyzer.analyze("") == []
        assert analyzer.keywords("") == []

    def test_micro_blog_chatter_in_stopwords(self):
        assert "lol" in STOPWORDS and "omg" in STOPWORDS


class TestKeywords:
    def test_most_frequent_first(self):
        analyzer = Analyzer()
        keywords = analyzer.keywords("game game stadium", limit=2)
        assert keywords[0] == "game"

    def test_limit_respected(self):
        analyzer = Analyzer()
        keywords = analyzer.keywords(
            "alpha bravo charlie delta echo foxtrot golf", limit=3)
        assert len(keywords) == 3

    def test_lexical_tie_break_is_deterministic(self):
        analyzer = Analyzer()
        first = analyzer.keywords("zebra apple mango", limit=3)
        second = analyzer.keywords("mango zebra apple", limit=3)
        assert first == second == sorted(first)
