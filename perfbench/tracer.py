"""Per-layer tracing for the traced benchmark run.

The tracer wraps the layer functions by replacing module (or class)
attributes of the installed package; it edits no source.  While
``recording`` is set, each call to a spanned layer appends a span
(layer, CPU start, CPU end, parent span, op id) to in-memory columns,
and each call adds to the op's counters.  A layer's self time is its
span's duration minus the durations of its direct child spans.

A layer whose attribute no longer exists is listed in ``absent`` and
left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from dataclasses import dataclass, field
from time import process_time

import numpy as np


def _length(result):
    return len(result)


@dataclass(frozen=True)
class Layer:
    """One traced layer.

    ``targets`` are ``(module, attribute path)`` pairs that all get the
    same wrapper; ``counters`` map a quantity name to a function of the
    call's result.  With ``span`` unset only calls are counted, for
    functions called too often to time one by one.
    """

    name: str
    targets: tuple
    counters: dict = field(default_factory=dict)
    span: bool = True


LAYERS = (
    Layer("hypergraph.parse_hypergraph", (("hypergraph", "parse_hypergraph"),)),
    Layer("cq.sql_to_cq", (("cq", "sql_to_cq"),)),
    Layer("bags._separator_unions", (("bags", "_separator_unions"),), {"count": _length}),
    Layer("bags._component_entries", (("bags", "_component_entries"),), {"count": _length}),
    Layer("bags._cover_unions", (("bags", "_cover_unions"),), {"count": _length}),
    Layer("bags.soft_bags", (("bags", "soft_bags"),), {"bags": _length}),
    Layer("bags.iterate_level", (("bags", "iterate_level"),),
          {"pool": lambda r: len(r.pool), "bags": _length}),
    Layer("solver.solve", (("solver", "solve"),),
          {"blocks": lambda r: len(r.table.entries)}),
    Layer("solver._Search.evaluate", (("solver", "_Search.evaluate"),), span=False),
    Layer("constraints.solve_constrained", (("constraints", "solve_constrained"),),
          {"blocks": lambda r: len(r.table)}),
    Layer("costs.subtree_cost", (("constraints", "subtree_cost"),)),
    Layer("solver.minimum_cover",
          (("constraints", "minimum_cover"), ("solver", "minimum_cover"))),
    Layer("plans.compile_plan", (("plans", "compile_plan"),),
          {"nodes": lambda r: len(r.node_vars),
           "cartesian_nodes": lambda r: len(r.cartesian_nodes)}),
    Layer("plans.execute_plan", (("plans", "execute_plan"),),
          {"answer_rows": lambda r: int(r) if isinstance(r, bool) else len(r)}),
    Layer("plans._join", (("plans", "_join"),), {"rows": lambda r: len(r[0])}),
)

# The per-layer metrics reported, as (layer, quantity, unit).  "cpu_ms"
# is self time; "calls" counts calls; the rest are counters above.
METRICS = (
    ("bags._separator_unions", "cpu_ms", "ms"), ("bags._separator_unions", "count", "count"),
    ("bags._component_entries", "cpu_ms", "ms"), ("bags._component_entries", "count", "count"),
    ("bags._cover_unions", "cpu_ms", "ms"), ("bags._cover_unions", "count", "count"),
    ("bags.soft_bags", "cpu_ms", "ms"), ("bags.soft_bags", "bags", "count"),
    ("bags.iterate_level", "cpu_ms", "ms"), ("bags.iterate_level", "pool", "count"),
    ("bags.iterate_level", "bags", "count"),
    ("solver.solve", "cpu_ms", "ms"), ("solver.solve", "blocks", "count"),
    ("solver._Search.evaluate", "calls", "count"),
    ("constraints.solve_constrained", "cpu_ms", "ms"),
    ("constraints.solve_constrained", "blocks", "count"),
    ("costs.subtree_cost", "cpu_ms", "ms"), ("costs.subtree_cost", "calls", "count"),
    ("solver.minimum_cover", "cpu_ms", "ms"), ("solver.minimum_cover", "calls", "count"),
    ("plans.compile_plan", "cpu_ms", "ms"), ("plans.compile_plan", "nodes", "count"),
    ("plans.compile_plan", "cartesian_nodes", "count"),
    ("plans.execute_plan", "cpu_ms", "ms"), ("plans.execute_plan", "answer_rows", "count"),
    ("plans._join", "cpu_ms", "ms"), ("plans._join", "rows", "count"),
    ("hypergraph.parse_hypergraph", "cpu_ms", "ms"),
    ("cq.sql_to_cq", "cpu_ms", "ms"),
)


class Tracer:
    def __init__(self):
        self.layers = []
        self.absent = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for layer in LAYERS:
            resolved = [self._resolve(t) for t in layer.targets]
            if any(r is None for r in resolved):
                self.absent.append(layer.name)
                continue
            index = len(self.layers)
            self.layers.append(layer)
            for owner, attr in resolved:
                original = getattr(owner, attr)
                wrap = self._span_wrapper if layer.span else self._count_wrapper
                self._patches.append((owner, attr, original, wrap(index, layer, original)))
        self.recording = False
        self.op = -1
        self.counts = []  # per op: {(layer index, quantity): value}
        self._stack = []
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")

    @staticmethod
    def _resolve(target):
        module_name, path = target
        try:
            owner = importlib.import_module(f"softdecomp.{module_name}")
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None
        return owner, attr

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def begin_op(self, op_id):
        self.op = op_id
        while len(self.counts) <= op_id:
            self.counts.append({})

    def _count_wrapper(self, index, layer, fn):
        tracer = self
        key = (index, "calls")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.recording:
                counts = tracer.counts[tracer.op]
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, index, layer, fn):
        tracer = self
        counters = tuple(((index, q), f) for q, f in layer.counters.items())
        calls = (index, "calls")

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = len(tracer.span_layer)
            tracer.span_layer.append(index)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(span)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                tracer._stack.pop()
                tracer.span_start[span] = start
                tracer.span_end[span] = end
            counts = tracer.counts[tracer.op]
            counts[calls] = counts.get(calls, 0) + 1
            for key, f in counters:
                counts[key] = counts.get(key, 0) + f(result)
            return result

        return spanned

    # -- reporting ---------------------------------------------------------

    def per_op(self):
        """Per op id: {(layer name, quantity): value}, with "cpu_ms" the
        layer's self time and "total_ms" its time including children."""
        n = len(self.span_layer)
        n_ops = len(self.counts)
        n_layers = len(self.layers)
        layer = np.array(self.span_layer, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        op = np.array(self.span_op, dtype=np.int64)
        duration = np.array(self.span_end) - np.array(self.span_start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        cell = op * n_layers + layer
        size = n_ops * n_layers
        self_ms = 1e3 * np.bincount(cell, weights=duration - children, minlength=size)
        total_ms = 1e3 * np.bincount(cell, weights=duration, minlength=size)
        out = []
        for op_id in range(n_ops):
            row = {}
            for index, lay in enumerate(self.layers):
                if lay.span:
                    row[(lay.name, "cpu_ms")] = float(self_ms[op_id * n_layers + index])
                    row[(lay.name, "total_ms")] = float(total_ms[op_id * n_layers + index])
                row[(lay.name, "calls")] = 0
                for q in lay.counters:
                    row[(lay.name, q)] = 0
            for (index, q), value in self.counts[op_id].items():
                row[(self.layers[index].name, q)] = value
            out.append(row)
        return out

    def spans(self):
        """The recorded spans as columns, for writing out."""
        return {
            "layer": [self.layers[i].name for i in self.span_layer],
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "op": list(self.span_op),
        }


def median_per_pass(rows_by_pass):
    """Median over passes of each quantity summed over a pass's ops."""
    totals = []
    for rows in rows_by_pass:
        total = {}
        for row in rows:
            for key, value in row.items():
                total[key] = total.get(key, 0) + value
        totals.append(total)
    keys = set().union(*totals)
    return {key: statistics.median(t.get(key, 0) for t in totals) for key in keys}
