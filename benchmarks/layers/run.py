"""One command for the layered benchmark of the shipped stack.

    python benchmarks/layers/run.py [--workload NAME] [--seed 7]
        [--seconds 10] [--trace [0|1]] [--quick] [--out F]
    python benchmarks/layers/run.py --compare A.json B.json

Every workload runs in a fresh child interpreter (own heap and
``ru_maxrss``; ``PYTHONHASHSEED=0`` so byte counts that depend on set
layout repeat exactly).  The command prints every metric by name with
its unit, exits non-zero if an output is wrong, and writes the set's
results to ``benchmarks/layers/results/``.  With ``--workload`` the last
line of standard output is that run's result as one JSON object; metric
names, units, directions and bounds are the ones ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"
#: A child that has not finished by now is stopped (the harness allows
#: 180 s per run).
CHILD_TIMEOUT_SECONDS = 170


def declared() -> dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child: one run of one workload, in this interpreter
# ---------------------------------------------------------------------------

def child(args: argparse.Namespace) -> int:
    import driver
    from workloads import WORKLOADS

    document = driver.run(
        WORKLOADS[args.workload], args.seed, seconds=args.seconds,
        quick=args.quick, trace=bool(args.trace), results=RESULTS)
    print(json.dumps(document))
    return 0


def spawn(args: argparse.Namespace, workload: str,
          trace: int) -> "dict[str, Any] | None":
    """Run one child to completion; ``None`` if it produced no result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        finished = subprocess.run(
            command, env=environment, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_SECONDS, check=False)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_SECONDS} s",
              file=sys.stderr)
        return None
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        print(f"{workload}: child exited {finished.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Parent: orchestrate, print, write
# ---------------------------------------------------------------------------

def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def _print_metrics(workload: str, summary: dict[str, dict[str, Any]]) -> None:
    for name, entry in summary.items():
        spread = ("" if entry["spread"] is None else
                  f"  (one replay left out: {entry['spread']:.1%})")
        print(f"{workload:14s} {name:52s} {_format(entry['value']):>16s} "
              f"{entry['unit']}{spread}")


def _print_waterfall(workload: str, document: dict[str, Any]) -> None:
    waterfall = document["waterfall_s"]
    total = sum(waterfall.values())
    print(f"{workload}: ingest self-time waterfall "
          f"(cleanest traced replay, {total:.3f} s)")
    for op, seconds in sorted(waterfall.items(), key=lambda kv: -kv[1]):
        label = "(unattributed)" if op.startswith("bench.") else ""
        print(f"    {op:44s} {100 * seconds / total:6.1f}%  {label}")


def measure(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    spec = declared()
    if args.workload and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # The whole table: the declared workloads and fleet2_repair.
    selected = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.workload else sorted({0, args.trace})
    result: dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                              "seconds": args.seconds, "claim": None,
                              "workloads": {}}
    ok = True
    last: "dict[str, Any] | None" = None
    for workload in selected:
        entry = result["workloads"].setdefault(workload, {})
        for trace in traces:
            run = spawn(args, workload, trace)
            if run is None:
                return 1
            last = run
            contract = spec["per_layer" if trace else "end_to_end"]
            # An untraced run also measures reads, tails and state size;
            # they are declared per-layer (no bound) and shown here too.
            shown = contract if trace else contract + [
                m for m in spec["per_layer"] if m["name"] in run["metrics"]]
            summary = {m["name"]: {"value": run["metrics"][m["name"]],
                                   "unit": m["unit"],
                                   "spread": run["spread"].get(m["name"])}
                       for m in shown}
            _print_metrics(workload, summary)
            for problem in run["problems"]:
                ok = False
                print(f"{workload}: INCORRECT: {problem}", file=sys.stderr)
            if trace:
                _print_waterfall(workload, run)
                entry["per_layer"] = summary
                entry["waterfall_s"] = run["waterfall_s"]
            else:
                entry["end_to_end"] = summary
                entry["determinism"] = run["facts"]
                entry["replays"] = run["replays"]

    path = args.out or RESULTS / (f"layers-seed{args.seed}"
                                  f"{'-quick' if args.quick else ''}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    if args.workload:
        assert last is not None
        print(json.dumps({
            "correct": ok, "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {m["name"]: {"value": summary[m["name"]]["value"],
                                    "unit": m["unit"]}
                        for m in contract}}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(first: Path, second: Path) -> int:
    """One row per (workload, metric): ok / regressed / unresolved."""
    base = json.loads(first.read_text(encoding="utf-8"))
    other = json.loads(second.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    bad = False
    for workload, entry in base["workloads"].items():
        theirs = other["workloads"].get(workload)
        if theirs is None:
            print(f"{workload:14s} missing from {second}")
            bad = True
            continue
        for name, spec in bounds.items():
            a, b = entry["end_to_end"][name], theirs["end_to_end"][name]
            worse = ((a["value"] - b["value"]) if spec["better"] == "higher"
                     else (b["value"] - a["value"])) / a["value"]
            spreads = (a["spread"], b["spread"])
            if None in spreads or max(spreads) > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            print(f"{workload:14s} {name:22s} {_format(a['value']):>14s} -> "
                  f"{_format(b['value']):>14s} {spec['unit']:9s} "
                  f"{worse:+7.1%} worse (bound {spec['bound']:.0%})  "
                  f"{verdict}")
        same_input = (base["seed"], base["quick"]) == (other["seed"],
                                                      other["quick"])
        for fact, value in entry["determinism"].items():
            if same_input and theirs["determinism"].get(fact) != value:
                print(f"{workload:14s} {fact:22s} differs: {value} != "
                      f"{theirs['determinism'].get(fact)}")
                bad = True
    return 1 if bad else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload "
                        "(default: all declared in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run: sets the number "
                             "of replays (seconds / 2, at least 5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and overhead")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: 2k-message streams, one replay")
    parser.add_argument("--out", type=Path,
                        help="result file (default: results/layers-"
                             "seed<seed>.json beside this script)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return child(args) if args.child else measure(args)


if __name__ == "__main__":
    sys.exit(main())
