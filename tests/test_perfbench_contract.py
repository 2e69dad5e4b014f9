"""The traced benchmark wraps oversmooth functions by name.

``perfbench/spans.py`` lists every (module, attribute) it wraps; a
rename or deletion in the package would break the traced run, so check
the names here and install and remove the tracer once.
"""

import types
from pathlib import Path

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
