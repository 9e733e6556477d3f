"""Every option has a setter.

The options analogue of ``tests/obs/test_metric_catalog.py`` and
``tests/test_cli_catalog.py``.  The catalog is every public class
defined in ``src/repro`` whose own constructor (``__init__``, or the
fields of a dataclass) has a defaulted parameter.  Three rules:

0. **Every such class is listed**, in :data:`OPTIONS` (its defaulted
   parameters are settable values) or in :data:`RECORDS` (result and
   stats types whose defaults are zeroed counters or empty slots).
1. **Every defaulted parameter of a class not in RECORDS has a
   non-test setter**: a call in ``src/``, ``benchmarks/`` or
   ``examples/`` that passes it — by position, by keyword, through a
   literal-keyed ``**`` mapping (``**{"k": v}``, ``**dict(k=v)``, or
   ``**name`` with a dict literal of the same file keyed only by the
   class's parameters), or
   as a keyword of a class method that forwards ``**options`` to the
   constructor.  A CLI ``args.<dest>`` counts like any other
   expression; a literal or module constant equal to the default does
   not, and a catalog constructor forwarding its own parameter counts
   only if that parameter is set (or exempt) in turn.  A parameter
   with no setter needs an :data:`EXEMPT` entry of one of three kinds:
   ``seam`` (an injected object), ``deployment`` (a path, root or
   worker count) or ``switch`` (a ``None``/``False`` default that turns
   on a subsystem a test exercises).  A value nobody sets is a module
   constant, not a parameter.
2. **Every EXEMPT entry names a parameter that exists.**

``python -c "from tests.test_option_catalog import option_counts;
print(option_counts())"`` prints the settable values of the ten
serving-stack classes CI has tracked since the guard landed and of the
whole catalog (CI's tracked indicator).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]
#: Directories whose calls count as setters.
SETTER_ROOTS = ("src", "benchmarks", "examples")

_MISSING = object()
#: What a call passes for one parameter: the value's expression, or
#: ``(class, parameter)`` when a catalog constructor forwards its own.
Passed = "ast.expr | tuple[type, str]"

#: Classes whose defaulted parameters are settable values.
OPTIONS = (
    "repro.core.bundle.Bundle",
    "repro.core.config.IndexerConfig",
    "repro.core.dedup.DuplicateDetector",
    "repro.core.engine.ProvenanceIndexer",
    "repro.core.engine.StageTimers",
    "repro.core.pool.BundlePool",
    "repro.core.postings.CandidateGather",
    "repro.core.summary_index.SummaryIndex",
    "repro.obs.Observability",
    "repro.obs.anatomy.WorkloadAnatomy",
    "repro.obs.audit.AuditLog",
    "repro.obs.dashboard.Dashboard",
    "repro.obs.exporters.TelemetryFlusher",
    "repro.obs.perf.StackSampler",
    "repro.obs.quality.QualityMonitor",
    "repro.obs.quality.QualityRule",
    "repro.obs.registry.Counter",
    "repro.obs.registry.Gauge",
    "repro.obs.registry.Histogram",
    "repro.obs.registry.MetricsRegistry",
    "repro.obs.tracing.Tracer",
    "repro.query.bundle_search.BundleSearchEngine",
    "repro.query.feeds.FeedRegistry",
    "repro.reliability.faults.FaultInjector",
    "repro.reliability.guard.IngestGuard",
    "repro.reliability.overload.CircuitBreaker",
    "repro.reliability.overload.OverloadConfig",
    "repro.reliability.overload.OverloadController",
    "repro.reliability.supervisor.DeadLetterQueue",
    "repro.reliability.supervisor.ResilientIndexer",
    "repro.runtime.coordinator.ShardedRuntime",
    "repro.runtime.worker.WorkerOptions",
    "repro.storage.bundle_store.BundleStore",
    "repro.storage.wal.JournaledIndexer",
    "repro.storage.wal.MessageJournal",
    "repro.stream.generator.AdversarialConfig",
    "repro.stream.generator.StreamConfig",
    "repro.stream.generator.StreamGenerator",
    "repro.stream.users.UserPool",
    "repro.stream.vocab.ZipfSampler",
    "repro.stream.window.SlidingWindowMonitor",
    "repro.text.inverted_index.InvertedIndex",
    "repro.text.search.SearchEngine",
)

#: Result, stats and record types: their defaults are zeroed counters,
#: empty slots or optional fields of one value, not settings.  A
#: ``Fault`` is one row of a fault plan, data like a ``Message``.
RECORDS = (
    "repro.bench.harness.ComparisonSeries",
    "repro.core.credibility.UserRecord",
    "repro.core.engine.EngineStats",
    "repro.core.engine.IngestResult",
    "repro.core.engine.StageSnapshot",
    "repro.core.message.Message",
    "repro.core.pool.RefinementReport",
    "repro.obs.audit.AllocationScore",
    "repro.obs.audit.CandidateScore",
    "repro.obs.audit.DecisionRecord",
    "repro.obs.audit.Explanation",
    "repro.obs.tracing.Span",
    "repro.obs.tracing.Trace",
    "repro.obs.tracing.TraceContext",
    "repro.query.bundle_search.SearchOutcome",
    "repro.query.feeds.Feed",
    "repro.reliability.faults.Fault",
    "repro.reliability.doctor.LogScan",
    "repro.reliability.doctor.SegmentScan",
    "repro.reliability.doctor.SnapshotScan",
    "repro.reliability.doctor.StoreScan",
    "repro.reliability.guard.GuardStats",
    "repro.reliability.guard.Screened",
    "repro.reliability.overload.AdmissionStats",
    "repro.reliability.supervisor.ResilientStats",
    "repro.runtime.coordinator.RuntimeStats",
    "repro.storage.wal.ReplayStats",
    "repro.stream.events.ActiveEvent",
    "repro.stream.events.PublishedMessage",
    "repro.text.postings.Posting",
)

#: ``"<class>.<parameter>": (kind, reason)`` for defaulted parameters
#: with no setter outside tests.
EXEMPT = {
    # seam: an injected object.
    "repro.core.engine.ProvenanceIndexer.analyzer": (
        "seam", "the analysis chain a retrieval layer shares"),
    "repro.core.pool.BundlePool.on_evict": (
        "seam", "the engine's eviction callback"),
    "repro.core.summary_index.SummaryIndex.storage": (
        "seam", "the postings storage; default is the one layout"),
    "repro.obs.Observability.registry": ("seam", "a metrics registry"),
    "repro.obs.Observability.quality": (
        "seam", "a QualityMonitor, attached after construction"),
    "repro.obs.Observability.anatomy": (
        "seam", "a WorkloadAnatomy, attached after construction"),
    "repro.obs.exporters.TelemetryFlusher.clock": ("seam", "a clock"),
    "repro.query.feeds.FeedRegistry.search": ("seam", "a search engine"),
    "repro.reliability.guard.IngestGuard.tracker": (
        "seam", "a CredibilityTracker shared with another screen"),
    "repro.reliability.supervisor.ResilientIndexer.telemetry": (
        "seam", "a flight-recorder sink, passed through **options"),
    "repro.stream.generator.StreamGenerator.vocabulary": (
        "seam", "a background vocabulary"),
    "repro.text.search.SearchEngine.analyzer": (
        "seam", "the analysis chain, shared with queries"),
    # deployment: a path, root or worker count.
    "repro.reliability.supervisor.ResilientIndexer.dead_letters": (
        "deployment", "the DLQ path; open() sets it by layout"),
    # switch: a None/False default that turns a subsystem on.
    "repro.reliability.supervisor.ResilientIndexer.high_watermark_bytes": (
        "switch", "degraded-mode shedding; the supervisor tests set it"),
}

KINDS = ("seam", "deployment", "switch")


@functools.lru_cache(maxsize=None)
def _parameters(cls: type) -> "dict[str, object]":
    """``{name: default}`` of the class's own constructor parameters
    (``_MISSING`` for a required one); empty if it inherits them."""
    if dataclasses.is_dataclass(cls) and "__dataclass_fields__" in vars(cls):
        return {f.name: (f.default if f.default is not dataclasses.MISSING
                         else _MISSING if f.default_factory
                         is dataclasses.MISSING else f.default_factory)
                for f in dataclasses.fields(cls)
                if f.init and not f.name.startswith("_")}
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        defaults = getattr(cls, "_field_defaults", {})
        return {name: defaults.get(name, _MISSING) for name in cls._fields}
    init = vars(cls).get("__init__")
    if init is None:
        return {}
    parameters = list(inspect.signature(init).parameters.values())[1:]
    return {p.name: (_MISSING if p.default is p.empty else p.default)
            for p in parameters
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}


@functools.lru_cache(maxsize=1)
def catalog_classes() -> "dict[str, type]":
    """Every public ``src/repro`` class with a defaulted parameter."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not name.startswith("_")
                    and any(default is not _MISSING for default
                            in _parameters(cls).values())):
                found[f"{module.__name__}.{name}"] = cls
    return found


def option_counts() -> "dict[str, int]":
    """Constructor parameters (required ones too) of the ten classes
    CI tracks — a deleted one counts 0 — and of every catalog class
    that is not a record."""
    counts = {name: len(_parameters(cls))
              for name, cls in catalog_classes().items()
              if name not in RECORDS}
    tracked = ("OverloadConfig", "GuardConfig", "ResilientIndexer",
               "ShardedRuntime", "WorkerOptions", "CircuitBreaker",
               "WorkloadAnatomy", "StackSampler", "Histogram",
               "IndexerConfig")
    return {"ten tracked classes": sum(count for name, count in counts.items()
                                       if name.rsplit(".", 1)[1] in tracked),
            "catalog": sum(counts.values())}


def _resolve(module: str, name: str) -> object:
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class _CallScan(ast.NodeVisitor):
    """Collect ``(class, {parameter: value})`` for every call of a
    catalog class in one file, resolving names through its imports."""

    def __init__(self, module: "str | None", classes: "set[type]") -> None:
        self.classes = classes
        self.names: "dict[str, object]" = {}
        if module is not None:
            self.names.update(vars(importlib.import_module(module)))
        self.enclosing: "list[type | None]" = []
        #: The constructor being walked, if it is a catalog class's.
        self.constructor: "type | None" = None
        self.calls: "list[tuple[type, dict[str, Passed]]]" = []
        #: The file's literal-keyed mappings, the candidates a
        #: ``**name`` argument may carry, and the ``(passed, parameters)``
        #: of each such call, filled in by :meth:`scan` once the whole
        #: file is read.
        self.mappings: "list[dict[str, ast.expr]]" = []
        self.spread: "list[tuple[dict[str, Passed], list[str]]]" = []

    def scan(self, tree: ast.Module) -> None:
        self.visit(tree)
        for passed, names in self.spread:
            for mapping in self.mappings:
                if set(mapping) <= set(names):
                    passed.update(mapping)

    def visit_Dict(self, node: ast.Dict) -> None:
        if node.keys and all(isinstance(key, ast.Constant)
                             and isinstance(key.value, str)
                             for key in node.keys):
            self.mappings.append(dict(zip(
                (key.value for key in node.keys), node.values)))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.startswith("repro"):
            for alias in node.names:
                self.names[alias.asname or alias.name] = _resolve(
                    node.module, alias.name)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.startswith("repro") and alias.asname:
                self.names[alias.asname] = importlib.import_module(alias.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = self.names.get(node.name)
        self.enclosing.append(cls if cls in self.classes else None)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer = self.constructor
        self.constructor = (self.enclosing[-1] if self.enclosing
                            and node.name == "__init__" else None)
        self.generic_visit(node)
        self.constructor = outer

    def _target(self, func: ast.expr) -> object:
        if isinstance(func, ast.Name):
            if func.id == "cls" and self.enclosing:
                return self.enclosing[-1]
            return self.names.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = self._target(func.value)
            return getattr(owner, func.attr, None) if owner else None
        return None

    def visit_Call(self, node: ast.Call) -> None:
        target = self._target(node.func)
        if target in self.classes:
            self.calls.append((target, self._passed(target, node, True)))
        elif (inspect.ismethod(target) and target.__self__ in self.classes
              and any(p.kind is p.VAR_KEYWORD for p in
                      inspect.signature(target).parameters.values())):
            # A factory class method forwarding **options to cls(...):
            # its keywords, not its positions, are constructor values.
            self.calls.append((target.__self__,
                               self._passed(target.__self__, node, False)))
        self.generic_visit(node)

    def _value(self, value: ast.expr) -> "Passed":
        """A parameter of the constructor being walked becomes
        ``(class, parameter)``, a module constant its literal."""
        if isinstance(value, ast.Name):
            if (self.constructor is not None
                    and value.id in _parameters(self.constructor)):
                return self.constructor, value.id
            constant = self.names.get(value.id, _MISSING)
            if isinstance(constant, (bool, int, float, str)):
                return ast.Constant(constant)
        return value

    def _passed(self, cls: type, call: ast.Call,
                positional: bool) -> "dict[str, Passed]":
        """``{parameter: value}`` that ``call`` passes."""
        names = list(_parameters(cls))
        passed: "dict[str, ast.expr]" = {}
        spread = False
        if positional:
            for name, arg in zip(names, call.args):
                if isinstance(arg, ast.Starred):
                    break
                passed[name] = arg
        for keyword in call.keywords:
            value = keyword.value
            if keyword.arg is not None:
                passed[keyword.arg] = value
            elif isinstance(value, ast.Dict):
                passed.update((key.value, item) for key, item
                              in zip(value.keys, value.values)
                              if isinstance(key, ast.Constant))
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Name)
                  and value.func.id == "dict"):
                passed.update((inner.arg, inner.value)
                              for inner in value.keywords if inner.arg)
            elif isinstance(value, ast.Name):
                # **overrides: every literal mapping in the file keyed
                # only by this class's parameters.
                spread = True
        values = {name: self._value(value) for name, value in passed.items()}
        if spread:
            self.spread.append((values, names))
        return values


def _module_of(path: Path) -> str:
    parts = path.relative_to(REPO / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@functools.lru_cache(maxsize=1)
def _calls() -> "tuple[tuple[type, dict[str, Passed], str], ...]":
    classes = set(catalog_classes().values())
    found = []
    for root in SETTER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            scan = _CallScan(_module_of(path) if root == "src" else None,
                             classes)
            scan.scan(ast.parse(path.read_text(encoding="utf-8")))
            where = str(path.relative_to(REPO))
            found += [(cls, passed, where) for cls, passed in scan.calls]
    return tuple(found)


def _is_default(value: ast.expr, default: object) -> bool:
    try:
        return ast.literal_eval(value) == default
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return False


def _is_set(value: "Passed", default: object) -> bool:
    if isinstance(value, tuple):
        # Forwarded from another constructor: set if that one is, or
        # exempt there.
        source, parameter = value
        qualname = f"{source.__module__}.{source.__name__}"
        return (f"{qualname}.{parameter}" in EXEMPT
                or parameter in setters(qualname))
    return not _is_default(value, default)


@functools.lru_cache(maxsize=None)
def setters(qualname: str) -> "dict[str, list[str]]":
    """``{parameter: [files]}`` of the non-test calls that set it."""
    cls = catalog_classes()[qualname]
    parameters = _parameters(cls)
    found: "dict[str, list[str]]" = {}
    for target, passed, where in _calls():
        if target is not cls:
            continue
        for name, value in passed.items():
            if name in parameters and _is_set(value, parameters[name]):
                found.setdefault(name, []).append(where)
    return found


def unset_options() -> "list[str]":
    """``"<class>.<parameter>"`` for every defaulted parameter with no
    setter and no EXEMPT entry (rule 1)."""
    unset = []
    for qualname, cls in catalog_classes().items():
        if qualname in RECORDS:
            continue
        have = setters(qualname)
        unset += [f"{qualname}.{name}"
                  for name, default in _parameters(cls).items()
                  if default is not _MISSING and name not in have
                  and f"{qualname}.{name}" not in EXEMPT]
    return unset


class TestOptionCatalog:
    def test_every_class_with_defaults_is_listed(self):
        listed = set(OPTIONS) | set(RECORDS)
        unlisted = sorted(set(catalog_classes()) - listed)
        assert not unlisted, f"in neither OPTIONS nor RECORDS: {unlisted}"
        stale = sorted(listed - set(catalog_classes()))
        assert not stale, f"listed but not in the catalog: {stale}"

    def test_every_option_has_a_setter(self):
        unset = unset_options()
        assert not unset, f"no setter outside tests: {unset}"

    def test_every_exemption_names_a_parameter_and_a_kind(self):
        classes = catalog_classes()
        stale = [entry for entry in EXEMPT
                 if entry.rsplit(".", 1)[1] not in _parameters(
                     classes.get(entry.rsplit(".", 1)[0], object))]
        assert not stale, f"EXEMPT entries with no such parameter: {stale}"
        assert all(kind in KINDS and reason
                   for kind, reason in EXEMPT.values())

    def test_the_scan_sees_every_setter_form(self):
        # The rules pass vacuously if the scan misses the call forms
        # the catalog relies on.
        # A keyword of a forwarding open(): no shipped call uses the
        # form since workers stopped passing guard=, so scan a sample.
        scan = _CallScan(None, set(catalog_classes().values()))
        scan.scan(ast.parse(
            "from repro.reliability.supervisor import ResilientIndexer\n"
            "ResilientIndexer.open('root', guard=True)\n"))
        assert [(cls.__name__, list(passed)) for cls, passed
                in scan.calls] == [("ResilientIndexer", ["guard"])]
        config = setters("repro.core.config.IndexerConfig")
        assert "max_pool_size" in config  # cls(...) in a factory
        assert "url_weight" in config     # **overrides, a literal mapping
        assert "alpha" in setters(        # args.alpha in cli.py
            "repro.query.bundle_search.BundleSearchEngine")
        assert "config" in setters(       # by position
            "repro.stream.generator.StreamGenerator")
        assert "anatomy" in setters(      # forwarded by ShardedRuntime
            "repro.runtime.worker.WorkerOptions")
        default = ast.parse("512", mode="eval").body
        assert not _is_set(default, 512)
