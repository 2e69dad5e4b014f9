"""The traced benchmark wraps oversmooth functions by name.

``perfbench/spans.py`` lists every (module, attribute) it wraps; a
rename or deletion in the package would break the traced run, so check
the names here, install and remove the tracer once, and check that a
traced stacked run records what an untraced one does.  The per-variant
step timings of ``perfbench/child.py`` and ``benchmarks/bench_layers.py``
build ``NormContext(vkplus=...)`` and ``LayerConfig(variant=...,
norm_context=...)``, so run both on the package too.
"""

import math
import os
import sys
import types
from pathlib import Path

import numpy as np

import oversmooth
import oversmooth.cli
import oversmooth.metrics
import oversmooth.propcheck

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load(path, name):
    """Run the script's source in a fresh module; nothing is written
    next to it (no bytecode cache)."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _load_spans():
    return _load(SPANS, "perfbench_spans")


def test_traced_names_exist():
    spans = _load_spans()
    for mod, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(getattr(oversmooth, mod), attr)), (mod, attr)
    for mod, cls, meth, _ in spans.METHODS:
        assert callable(getattr(getattr(getattr(oversmooth, mod), cls),
                                meth)), (mod, cls, meth)


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    before = (oversmooth.graphio.gen_graph, oversmooth.cli.build_operator,
              oversmooth.layers.run_trajectory, oversmooth.cli.Path,
              oversmooth.graphio.Graph.degrees)
    tracer = spans.Tracer()
    try:
        tracer.install(oversmooth)
        assert oversmooth.graphio.gen_graph is not before[0]
    finally:
        tracer.uninstall()
    after = (oversmooth.graphio.gen_graph, oversmooth.cli.build_operator,
             oversmooth.layers.run_trajectory, oversmooth.cli.Path,
             oversmooth.graphio.Graph.degrees)
    assert all(a is b for a, b in zip(before, after))


def _prop1_style_run():
    """A stacked residual run observed by mu, as prop 1 runs it; every
    name is looked up when called, so a traced run goes through the
    tracer's wrappers."""
    g = oversmooth.graphio.gen_graph("er:30,0.3", seed=2, largest_cc=True)
    a = oversmooth.graphio.build_operator(g, "sym_normalized")
    x0 = np.random.default_rng((2, 202)).normal(size=(g.n, 4))
    v = oversmooth.metrics.all_ones_reference(g.n)
    rngs = [np.random.default_rng((2, t)) for t in range(6)]
    log = oversmooth.layers.run_trajectory(
        a, x0, oversmooth.layers.LayerConfig(variant="residual"), 40, rngs,
        observer=lambda _, x: oversmooth.metrics.mu(x, v))
    return [tr.records for tr in log.trials]


def test_traced_stacked_run_keeps_its_records():
    plain = _prop1_style_run()
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install(oversmooth)
        traced = _prop1_style_run()
    finally:
        tracer.uninstall()
    assert len(traced) == 6
    for got, ref in zip(traced, plain):
        assert len(got) == 40 and np.array_equal(got, ref)
    summary = tracer.span_summary()
    # one observer call, and one block mu, per step
    assert summary["layers.observer"]["calls"] == 40
    assert summary["metrics.mu"]["calls"] == 40
    assert tracer.steps == 40


def test_child_times_every_variant(monkeypatch):
    # child.py imports spans.py as a top-level module
    monkeypatch.setitem(sys.modules, "spans", _load_spans())
    child = _load(ROOT / "perfbench" / "child.py", "perfbench_child")
    times = child.variant_step_us(oversmooth)
    for variant in oversmooth.layers.VARIANTS:
        us = times[f"layers.{variant}_step_us"]
        assert math.isfinite(us) and us > 0, variant


def test_bench_layers_times_every_variant(monkeypatch):
    # the script pins BLAS threads in os.environ as it loads
    monkeypatch.setattr(os, "environ", dict(os.environ))
    bench = _load(ROOT / "benchmarks" / "bench_layers.py", "bench_layers")
    row = bench._shape_row(oversmooth, np, "er:30,0.3", 2, 3)
    assert (row["T"], row["k"]) == (2, 3)
    for variant in oversmooth.layers.VARIANTS:
        us = row["step_us"][variant]
        assert math.isfinite(us) and us > 0, variant
