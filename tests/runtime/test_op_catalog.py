"""Every worker RPC op has a sender, and every sent op has a handler.

The protocol analogue of ``tests/obs/test_metric_catalog.py``,
``tests/test_cli_catalog.py`` and ``tests/test_option_catalog.py``.
The worker dispatches on ``op == "<name>"`` in
:func:`repro.runtime.worker.worker_main`; the coordinator sends a
request tuple whose first item is the op name through
``_send``, ``_request`` or ``_gather``.  Two rules:

1. **Every handled op has a sender** in ``runtime/coordinator.py``.
   An op only tests send is deleted, not kept.
2. **Every sent op has a handler**, so no request can only ever come
   back as ``unknown worker op``.

``python -c "from tests.runtime.test_op_catalog import worker_ops;
print(len(worker_ops()))"`` prints the op count (CI's tracked
indicator).
"""

from __future__ import annotations

import ast
from pathlib import Path

RUNTIME = Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"
#: Coordinator methods that put a request tuple on a worker's pipe.
SENDERS = ("_send", "_request", "_gather")


def _tree(name: str) -> ast.Module:
    return ast.parse((RUNTIME / name).read_text(encoding="utf-8"))


def handled_ops() -> "set[str]":
    """The op names ``worker_main`` compares ``op`` against."""
    main = next(node for node in ast.walk(_tree("worker.py"))
                if isinstance(node, ast.FunctionDef)
                and node.name == "worker_main")
    return {compare.comparators[0].value
            for compare in ast.walk(main)
            if isinstance(compare, ast.Compare)
            and isinstance(compare.left, ast.Name) and compare.left.id == "op"
            and isinstance(compare.ops[0], ast.Eq)
            and isinstance(compare.comparators[0], ast.Constant)}


def sent_ops() -> "set[str]":
    """The first items of the request tuples the coordinator sends."""
    sent = set()
    for call in ast.walk(_tree("coordinator.py")):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in SENDERS):
            continue
        for arg in call.args:
            if (isinstance(arg, ast.Tuple) and arg.elts
                    and isinstance(arg.elts[0], ast.Constant)
                    and isinstance(arg.elts[0].value, str)):
                sent.add(arg.elts[0].value)
    return sent


def worker_ops() -> "set[str]":
    """Every op the worker handles or the coordinator sends."""
    return handled_ops() | sent_ops()


class TestOpCatalog:
    def test_every_handled_op_has_a_sender(self):
        unsent = sorted(handled_ops() - sent_ops())
        assert not unsent, f"worker ops the coordinator never sends: {unsent}"

    def test_every_sent_op_has_a_handler(self):
        unhandled = sorted(sent_ops() - handled_ops())
        assert not unhandled, f"sent ops no worker handles: {unhandled}"

    def test_the_scan_sees_both_sides(self):
        # The rules pass vacuously if either scan finds nothing.
        for ops in (handled_ops(), sent_ops()):
            assert {"ingest", "search", "stats", "close"} <= ops
