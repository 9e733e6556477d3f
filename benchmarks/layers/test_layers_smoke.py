"""Smoke test of the layered benchmark.

``PYTHONPATH=src python -m pytest benchmarks/layers -q``; not part of
tier-1 (``testpaths = tests``).  It runs the whole workload
table (the five declared workloads and ``fleet2_repair``) at ``--quick``
sizes, untraced and traced, through the real command.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402  (needs the path entries above)
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_names_are_unique_and_well_formed():
    spec = _declared()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_quick_set_emits_every_declared_metric_once():
    spec = _declared()
    started = time.monotonic()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)[:5]
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            finished = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--quick",
                 "--workload", workload, "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=120, check=False)
            assert finished.returncode == 0, (workload, trace)
            lines = finished.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            assert {name: entry["unit"] for name, entry
                    in result["metrics"].items()} == wanted
            for name in wanted:
                printed = [line for line in lines[:-1]
                           if line.split()[:2] == [workload, name]]
                assert len(printed) == 1, (workload, name)
            if trace and workload.startswith("fleet2"):
                # Only cascade-affine routing leaves boundary hints, so
                # only fleet2_repair has anything to repair (and passed
                # the 0.98 x single-process truth_f1 check to be correct).
                probes = result["metrics"]["runtime.repair.probes"]["value"]
                assert (probes > 0) == (workload == "fleet2_repair")
    assert time.monotonic() - started < 60


def test_wrappers_exist_only_inside_a_traced_region():
    assert spans.still_installed() == []
    with spans.installed(spans.Tracer()) as missing:
        assert missing == []
        assert len(spans.still_installed()) == len(spans.TARGETS)
    assert spans.still_installed() == []


def test_no_scratch_roots_survive_a_run():
    subprocess.run([sys.executable, str(HERE / "run.py"), "--quick",
                    "--workload", "stack_dense"],
                   stdout=subprocess.DEVNULL, timeout=120, check=True)
    assert list((HERE / "results" / "tmp").iterdir()) == []
