"""The traced benchmark wraps oversmooth functions by name.

``perfbench/spans.py`` lists every (module, attribute) it wraps; a
rename or deletion in the package would break the traced run, so check
the names here, install and remove the tracer once, and check that a
traced stacked run records what an untraced one does.
"""

import types
from pathlib import Path

import numpy as np

import oversmooth
import oversmooth.cli
import oversmooth.propcheck

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    """Run spans.py's source in a fresh module; nothing is written next
    to it (no bytecode cache)."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


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
