"""Per-layer tracing of sdlab from outside the library.

`Tracer.install` replaces public functions and methods of the five layer
modules with timing wrappers.  A module-level function is replaced under
every name that refers to it in any sdlab module, because callers look
names up in their own namespace: `identities` calls the `apostol_bernoulli`
it imported, not `dedekind.apostol_bernoulli`.  Methods are replaced on
their class, which every caller shares.

Every wrapped call counts towards its name (calls and inclusive seconds).
A call that enters a layer from another layer, or from the benchmark,
also opens a span: id, parent span, the id of the root span it descends
from, name, start and end.  A layer's self time is the duration of its
spans minus the part their child spans cover.  Spans are kept in memory,
the first `MAX_SPANS` of them and every root span, and written out by
`dump`; the rest are only counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("polyring", "semigroup", "dedekind", "identities", "cli")

# wrapped callables that report under a metric name of their own; all
# others report as <layer>.<qualified name>
LABELS = {
    "polyring.LaurentPoly.__mul__": "polyring.mul",
    "polyring.BiLaurent.__mul__": "polyring.bimul",
    "polyring.LaurentPoly.multisection": "polyring.multisection",
    "polyring.LaurentPoly.divexact": "polyring.divexact",
    "polyring.LaurentPoly.eval_root_of_unity": "polyring.eval_root",
    "polyring.LaurentPoly.eval_root_scaled": "polyring.eval_root",
    "semigroup.NumericalSemigroup.from_generators": "semigroup.build",
    "semigroup.NumericalSemigroup.apery": "semigroup.apery",
    "semigroup.NumericalSemigroup.quotient": "semigroup.quotient",
    "identities.check_eq1": "identities.eq1",
    "identities.check_eq6": "identities.eq6",
    "identities.check_prop1": "identities.prop1",
    "identities.check_prop1_ab": "identities.prop1",
    "identities.check_prop2": "identities.prop2",
    "identities.check_prop3": "identities.prop3",
    "identities.check_prop4": "identities.prop4",
    "identities.check_prop5": "identities.prop5",
    "identities.check_gap_values": "identities.gapvalues",
    "identities.check_prop6": "identities.prop6",
    "identities.check_prop7": "identities.prop7",
    "identities.check_cor510": "identities.cor510",
    "identities.check_sawtooth_poly": "identities.sawtoothpoly",
    "identities.reports_to_json": "identities.serialize",
    "identities.reports_to_csv": "identities.serialize",
}

# dunder methods worth a wrapper: arithmetic, comparison and construction
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__eq__"}

# accessors so cheap and so frequently called (semigroup.apery calls contains
# once per table probe) that a wrapper would measure mostly itself
SKIP = {"contains", "members", "items", "support", "coeff", "is_zero", "is_exact", "degree", "valuation", "l1_norm"}

MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, inclusive s, active depth]
        self.layer_self_s = {layer: 0.0 for layer in LAYERS}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # open spans: [layer, span id, root id, child s]
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers of an imported sdlab package in place."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        done: dict[int, object] = {}
        for name, attr in list(vars(cls).items()):
            if name in SKIP or (name.startswith("_") and name not in DUNDERS):
                continue
            fn = attr.__func__ if isinstance(attr, classmethod) else attr
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                done[id(fn)] = self._wrap(layer, f"{layer}.{cls.__name__}.{fn.__name__}", fn)
            setattr(cls, name, classmethod(done[id(fn)]) if isinstance(attr, classmethod) else done[id(fn)])

    def _wrap(self, layer: str, qualname: str, fn):
        label = LABELS.get(qualname, qualname)
        stat = self.stats.setdefault(label, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stat[2] += 1
            if parent is not None and parent[0] == layer:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._count(stat, clock() - start)
            self._next_id += 1
            span_id = self._next_id
            frame = [layer, span_id, parent[2] if parent else span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._count(stat, end - start)
                self.layer_self_s[layer] += end - start - frame[3]
                if parent is not None:
                    parent[3] += end - start
                if len(self.spans) < MAX_SPANS or parent is None:
                    self.spans.append((span_id, parent[1] if parent else 0, frame[2], label, start, end))
                else:
                    self.spans_dropped += 1

        return wrapper

    @staticmethod
    def _count(stat: list, elapsed: float) -> None:
        stat[0] += 1
        stat[2] -= 1
        if not stat[2]:  # a call nested in one of the same name is already inside its time
            stat[1] += elapsed

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        return {label: {"calls": calls, "s": seconds} for label, (calls, seconds, _) in sorted(self.stats.items())}

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "totals": self.totals(),
                    "layer_self_s": self.layer_self_s,
                    "span_fields": ["id", "parent", "root", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "spans_dropped": self.spans_dropped,
                },
                fh,
            )
