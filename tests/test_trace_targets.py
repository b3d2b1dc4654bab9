"""The benchmark's tracer still finds and hears every layer it times.

``perfbench/tracer.py`` times layers by replacing attributes of the
package by name.  A target that stops resolving drops its layer from a
traced run, and with it the per-layer metrics the benchmark reports;
a target that resolves but is no longer called reports zeros.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# (workload, op label): between them these reach every traced layer.
OPS = (("gallery-widths", "H2 L0 k=2"), ("gallery-widths", "H3prime L1 k=2"),
       ("sql-answers", "q_ds db0"))
# The optimizer composes costs from steps and no longer calls this one.
UNCALLED = {"costs.subtree_cost"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracer")


def test_every_target_resolves(tracing):
    assert tracing.Tracer().absent == []


def test_traced_ops_report_every_metric(tracing):
    workloads = _load("workloads")
    made = {name: workloads.make(name, 0) for name in dict.fromkeys(w for w, _ in OPS)}
    ops = {op.label: op for w in made.values() for op in w.ops}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, (_, label) in enumerate(OPS):
            ctx = {}
            tracer.begin_op(op_id)
            tracer.recording = True
            ops[label].run(ctx)
            tracer.recording = False
            assert ops[label].check(ctx, None) is None, label
    finally:
        tracer.recording = False
        tracer.uninstall()
        for w in made.values():
            w.close()
    totals = tracing.median_per_pass([tracer.per_op()])
    assert [(layer, q) for layer, q, _ in tracing.METRICS if (layer, q) not in totals] == []
    silent = [lay.name for lay in tracer.layers
              if not totals[(lay.name, "calls")] and lay.name not in UNCALLED]
    assert silent == []
