"""Run the doctest examples embedded in library docstrings.

Keeps the usage snippets in docstrings honest: if an API changes, the
example in its documentation fails here.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

# Resolved via importlib, so a name the package __init__ re-exports can
# never shadow the submodule it comes from.
_MODULE_NAMES = [
    "repro.text.analyzer",
    "repro.text.tokenizer",
]
_MODULES = [importlib.import_module(name) for name in _MODULE_NAMES]


@pytest.mark.parametrize("module", _MODULES, ids=_MODULE_NAMES)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    # Modules in this list are expected to actually contain examples.
    assert results.attempted > 0, \
        f"{module.__name__} has no doctest examples"
