"""Call tracing for the traced run, installed from outside the package.

Every public function of the package, and every public method of its
classes, is replaced by a wrapper at each module binding that refers to it,
so calls between the package's own modules are caught too (for instance
``typesubst`` calling ``check_acceptable``). A layer is the module a function
is defined in.

* Every call is counted, and every exception leaving a wrapped function is
  counted by function and class.
* A call that enters a different layer than its caller's is a boundary: it
  gets a span (name, start, end, parent span, operation id). A layer's self
  time is the duration of its spans minus the part their child spans cover.
  Exceptions leaving a boundary span are counted as escaping that layer.
* A few functions named in ``TIMED`` also get their inclusive time summed.

Spans are kept in memory up to ``SPAN_CAP``; past that they still feed the
self times and counts but are not stored. ``per_layer_metrics`` turns the
tallies into the per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter

PACKAGE = "recipegraph"
SPAN_CAP = 200_000

TIMED = frozenset({
    "bundle.parse_bundle",
    "bundle.serialize_bundle",
    "core.validate_recipe_graph",
    "core.typing_violations",
    "core.make_recipe",
    "typesubst.preferred_pair",
    "acceptability.check_acceptable",
    "rewrite.structural_cost",
    "rewrite.structural_substitute",
    "compare.isomorphic",
    "compare.equivalent",
    "compare.more_specific",
    "compare.finer_grained",
})
# functions whose truthy results are counted (non-empty violation lists,
# successful compositions)
TRUTHY = frozenset({"acceptability.check_acceptable", "compose.compose"})

CALLER = "bench"
# the package modules; each is one layer
LAYERS = (
    "bundle", "cli", "core", "typekb", "acceptability",
    "compare", "compose", "typesubst", "rewrite",
)
# (layer, exception class) pairs reported as <layer>.errors.<class>: the ones
# that escape a layer in some workload today, plus the recursion failure of
# the comparison searches on large inputs.
ESCAPES = (
    ("core", "RecursionError"),
    ("compare", "RecursionError"),
    ("core", "InvalidRecipeError"),
    ("compare", "BudgetExceededError"),
    ("typesubst", "BudgetExceededError"),
    ("compose", "ClosureLimitError"),
    ("typesubst", "InvalidRecipeError"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.truthy: list[int] = []
        self.fn_errors: Counter = Counter()  # (function, exception class) -> count
        self.escapes: Counter = Counter()  # (layer, exception class) -> count
        self.self_time: Counter = Counter()  # layer -> seconds
        self.spans: list = []
        self.span_count = 0
        self.op_id = -1
        self.enabled = False
        # frames: [layer, start, child time, span index]
        self.stack: list[list] = [[CALLER, 0.0, 0.0, -1]]
        self._wrappers: dict[int, types.FunctionType] = {}

    def install(self):
        """Wrap every public function and method of the imported package."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        seen_classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and self._ours(value):
                    setattr(module, attr, self._wrapper(value))
                elif isinstance(value, type) and self._ours(value) and value not in seen_classes:
                    seen_classes.add(value)
                    self._wrap_methods(value)

    @staticmethod
    def _ours(obj) -> bool:
        return getattr(obj, "__module__", "").startswith(PACKAGE + ".")

    def _wrap_methods(self, cls: type):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self._wrapper(value))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self._wrapper(value.__func__)))

    def _wrapper(self, fn: types.FunctionType) -> types.FunctionType:
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        layer = fn.__module__.split(".", 1)[1]
        name = f"{layer}.{fn.__qualname__}"
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.inclusive.append(0.0)
        self.truthy.append(0)
        timed = name in TIMED
        watch = name in TRUTHY
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[fid] += 1
            stack = tracer.stack
            parent = stack[-1]
            if parent[0] == layer:
                start = clock() if timed else 0.0
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.fn_errors[fid, type(exc).__name__] += 1
                    raise
                finally:
                    if timed:
                        tracer.inclusive[fid] += clock() - start
                if watch and result:
                    tracer.truthy[fid] += 1
                return result

            index = -1
            if len(tracer.spans) < SPAN_CAP:
                index = len(tracer.spans)
                tracer.spans.append(None)
            tracer.span_count += 1
            frame = [layer, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.fn_errors[fid, type(exc).__name__] += 1
                tracer.escapes[layer, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_time[layer] += duration - frame[2]
                parent[2] += duration
                if timed:
                    tracer.inclusive[fid] += duration
                if index >= 0:
                    tracer.spans[index] = (fid, frame[1], end, parent[3], tracer.op_id)
            if watch and result:
                tracer.truthy[fid] += 1
            return result

        self._wrappers[id(fn)] = traced
        return traced

    # -- read-out ---------------------------------------------------------

    def _ids(self, *names: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n in names]

    def count(self, *names: str) -> int:
        return sum(self.calls[i] for i in self._ids(*names))

    def seconds(self, *names: str) -> float:
        return sum(self.inclusive[i] for i in self._ids(*names))

    def truthy_count(self, name: str) -> int:
        return sum(self.truthy[i] for i in self._ids(name))

    def raised(self, exc_name: str, *names: str) -> int:
        ids = set(self._ids(*names))
        return sum(c for (fid, cls), c in self.fn_errors.items() if fid in ids and cls == exc_name)

    def dump(self, path, meta: dict):
        """Write spans, counts and error tallies as one JSON document."""
        doc = {
            **meta,
            "names": self.names,
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "inclusive_s": {n: s for n, s in zip(self.names, self.inclusive) if s},
            "self_s": dict(self.self_time),
            "function_errors": {
                f"{self.names[fid]}:{cls}": c for (fid, cls), c in sorted(self.fn_errors.items())
            },
            "layer_escapes": {f"{layer}:{cls}": c for (layer, cls), c in sorted(self.escapes.items())},
            "span_count": self.span_count,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metrics(t: Tracer, overhead_pct: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, by name, with their units."""
    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    apply_calls = t.count("typesubst.apply_substitution")
    check_calls = t.count("acceptability.check_acceptable")
    compose_calls = t.count("compose.compose")
    bijection = ("compare.isomorphic", "compare.equivalent", "compare.more_specific")
    values = {
        "bundle.parse_s": ("s", t.seconds("bundle.parse_bundle")),
        "bundle.serialize_s": ("s", t.seconds("bundle.serialize_bundle")),
        "core.adjacency_calls": ("count", t.count(
            "core.RecipeGraph.in_degree", "core.RecipeGraph.out_degree",
            "core.RecipeGraph.successors", "core.RecipeGraph.predecessors",
        )),
        "core.validate_s": ("s", t.seconds("core.validate_recipe_graph")),
        "core.typing_s": ("s", t.seconds("core.typing_violations")),
        "core.make_recipe_calls": ("count", t.count("core.make_recipe")),
        "core.make_recipe_s": ("s", t.seconds("core.make_recipe")),
        "typekb.comparable_calls": ("count", t.count("typekb.TypeHierarchy.comparable")),
        "typekb.distance_calls": ("count", t.count("typekb.DistanceModel.distance")),
        "typesubst.apply_calls": ("count", apply_calls),
        "typesubst.invalid_ratio": ("ratio", ratio(
            t.raised("InvalidRecipeError", "typesubst.apply_substitution"), apply_calls)),
        "typesubst.plan_s": ("s", t.seconds("typesubst.preferred_pair")),
        "typesubst.budget_outs": ("count", t.escapes["typesubst", "BudgetExceededError"]),
        "acceptability.check_calls": ("count", check_calls),
        "acceptability.check_s": ("s", t.seconds("acceptability.check_acceptable")),
        "acceptability.reject_ratio": ("ratio", ratio(
            t.truthy_count("acceptability.check_acceptable"), check_calls)),
        "compare.iso_s": ("s", t.seconds(*bijection)),
        "compare.iso_budget_outs": ("count", t.raised("BudgetExceededError", *bijection)),
        "compare.finer_s": ("s", t.seconds("compare.finer_grained")),
        "compare.is_subrecipe_calls": ("count", t.count("compare.is_subrecipe")),
        "compose.compose_calls": ("count", compose_calls),
        "compose.success_ratio": ("ratio", ratio(t.truthy_count("compose.compose"), compose_calls)),
        "rewrite.structural_cost_s": ("s", t.seconds("rewrite.structural_cost")),
        "rewrite.substitute_calls": ("count", t.count("rewrite.structural_substitute")),
        "rewrite.substitute_s": ("s", t.seconds("rewrite.structural_substitute")),
        "trace.spans": ("count", t.span_count),
        "trace.overhead_pct": ("%", overhead_pct),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = ("s", t.self_time[layer])
    for layer, exc_name in ESCAPES:
        values[f"{layer}.errors.{exc_name}"] = ("count", t.escapes[layer, exc_name])
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}
