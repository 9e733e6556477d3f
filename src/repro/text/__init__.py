"""From-scratch text retrieval substrate (the paper's Lucene substitute).

The paper implements its query support "using Lucene"; no network access is
available here, so this subpackage provides the pieces the provenance system
needs from a lexical search engine:

* :mod:`repro.text.tokenizer` — micro-blog aware tokenization,
* :mod:`repro.text.analyzer` — normalization, stopwords, keyword extraction,
* :mod:`repro.text.postings` — postings lists with term frequencies,
* :mod:`repro.text.inverted_index` — the document-level inverted index,
* :mod:`repro.text.scoring` — the BM25 ranking function,
* :mod:`repro.text.search` — the keyword-search engine of the Fig. 1
  baseline.  Eq. 7's ``s(q, B)`` is not computed in this package:
  ``BundleSearchEngine._text_similarity`` in :mod:`repro.query.bundle_search`
  (which imports nothing from here) scores it from the summary index.
"""

from repro.text.analyzer import Analyzer, STOPWORDS
from repro.text.inverted_index import InvertedIndex
from repro.text.scoring import BM25Scorer
from repro.text.search import SearchEngine, SearchHit
from repro.text.tokenizer import Token, tokenize

__all__ = [
    "Analyzer",
    "STOPWORDS",
    "InvertedIndex",
    "BM25Scorer",
    "SearchEngine",
    "SearchHit",
    "Token",
    "tokenize",
]
