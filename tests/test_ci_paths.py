"""Every script and test path the CI workflow names exists.

A step that calls a deleted bench or test file fails only when CI runs
it; this test fails in the tier-1 suite instead.  It reads every
``benchmarks/…`` and ``tests/…`` path in ``ci.yml`` (a pytest node id
counts by its file) and checks that a ``.py`` path is a file and any
other path a directory in the repository.
"""

from __future__ import annotations

import re

from tests.test_cli_catalog import CI, REPO

_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|tests)/[\w./-]*\w)")


def ci_paths() -> "set[str]":
    """Every ``benchmarks/…`` and ``tests/…`` path named in ``ci.yml``."""
    return set(_PATH.findall(CI.read_text(encoding="utf-8")))


def test_every_path_the_workflow_names_exists():
    missing = [path for path in sorted(ci_paths())
               if not ((REPO / path).is_file() if path.endswith(".py")
                       else (REPO / path).is_dir())]
    assert not missing, f"ci.yml names paths that are not in the repo: {missing}"


def test_the_scan_sees_scripts_node_ids_and_directories():
    # The check passes vacuously if the pattern stops matching.
    assert {"benchmarks/bench_parallel.py", "benchmarks/layers",
            "tests/property/test_batch_commit.py",
            "tests/storage/test_snapshot.py"} <= ci_paths()
