"""Analysis chain: tokenize → normalize → filter → stem.

The :class:`Analyzer` converts raw text into the index terms used by the
inverted index and into the *keyword indicants* the summary index stores for
Table II ``text`` connections.  It is deliberately small but complete:
lower-casing, English stopword removal, minimum-length filtering and a light
suffix stemmer (plural/-ing/-ed stripping) that avoids the precision traps
of full Porter stemming on 140-character messages.
"""

from __future__ import annotations

from collections import Counter

from repro.text.tokenizer import word_tokens

__all__ = ["STOPWORDS", "MIN_LENGTH", "Analyzer", "light_stem"]

# A compact English stopword list; micro-blog chatter additions at the end.
STOPWORDS: frozenset[str] = frozenset("""
a about above after again against all am an and any are aren as at be because
been before being below between both but by can cannot could couldn did didn
do does doesn doing don down during each few for from further had hadn has
hasn have haven having he her here hers herself him himself his how i if in
into is isn it its itself just me more most mustn my myself no nor not now of
off on once only or other our ours ourselves out over own same shan she
should shouldn so some such than that the their theirs them themselves then
there these they this those through to too under until up very was wasn we
were weren what when where which while who whom why will with won would
wouldn you your yours yourself yourselves
rt via amp im dont cant wont ur u r lol omg wow
""".split())
#: Words shorter than this are dropped (kills emotional fragments like
#: "ugh", "ow" that the paper calls noise).
MIN_LENGTH = 3


def light_stem(word: str) -> str:
    """Strip the most common English suffixes without over-stemming.

    Handles plural ``-s``/``-es``/``-ies`` and the progressive/past
    ``-ing``/``-ed`` forms when enough stem remains:

    >>> [light_stem(w) for w in ("games", "parties", "running", "played")]
    ['game', 'party', 'run', 'played']

    ``played`` is left intact: ``-ed`` is only stripped after a consonant
    pair, which keeps short irregulars (``used``, ``red``) stable.
    """
    if len(word) > 4 and word.endswith("ies"):
        return word[:-3] + "y"
    if len(word) > 3 and word.endswith("es") and not word.endswith("ses"):
        return word[:-1]
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    if len(word) > 5 and word.endswith("ing"):
        stem = word[:-3]
        # "running" -> "runn" -> undouble -> "run"
        if len(stem) > 2 and stem[-1] == stem[-2]:
            stem = stem[:-1]
        return stem
    if len(word) > 5 and word.endswith("ed") and word[-3] == word[-4]:
        return word[:-3]
    return word


class Analyzer:
    """The text-to-terms pipeline: words shorter than :data:`MIN_LENGTH`
    and :data:`STOPWORDS` are dropped, the rest :func:`light_stem`-med
    (memoized per word)."""

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: dict[str, str] = {}

    def analyze(self, text: str) -> list[str]:
        """Return the index terms of ``text`` in order (with duplicates)."""
        cache = self._cache
        terms = []
        for word in word_tokens(text):
            if len(word) < MIN_LENGTH or word in STOPWORDS:
                continue
            stemmed = cache.get(word)
            if stemmed is None:
                stemmed = cache[word] = light_stem(word)
            terms.append(stemmed)
        return terms

    def term_set(self, text: str) -> frozenset[str]:
        """The distinct terms of ``text`` (order-free)."""
        return frozenset(self.analyze(text))

    def keywords(self, text: str, limit: int = 6) -> list[str]:
        """The ``limit`` most frequent terms of ``text``, ties by lexicon.

        These are the keyword indicants inserted into the summary index;
        on 140-character messages the frequency signal is weak, so the
        deterministic lexical tie-break matters for reproducibility.
        """
        counts = Counter(self.analyze(text))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [term for term, _ in ranked[:limit]]
