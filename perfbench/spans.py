"""In-memory span tracer for one oversmooth process.

``Tracer.install`` wraps the public functions of each oversmooth module
and rebinds every module global that refers to the original function,
so names imported with ``from .x import y`` (``cli.symmetric_eig``,
``propcheck.centered_eig``, ``metrics.numerical_rank`` ...) are traced
too.  A span is (name, parent, start, end); spans stay in memory until
``layer_metrics`` reduces them.  A span's self time is its duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from pathlib import PosixPath

# (module, attribute, span name) of every traced function.
FUNCTIONS = (
    ("graphio", "gen_graph", "graphio.gen_graph"),
    ("graphio", "build_operator", "graphio.build_operator"),
    ("spectral", "symmetric_eig", "spectral.symmetric_eig"),
    ("spectral", "centered_eig", "spectral.centered_eig"),
    ("spectral", "numerical_rank", "spectral.numerical_rank"),
    ("spectral", "krylov_basis", "spectral.krylov_basis"),
    ("metrics", "mu", "metrics.mu"),
    ("metrics", "dirichlet", "metrics.dirichlet"),
    ("metrics", "col_distance", "metrics.col_distance"),
    ("metrics", "col_projection_distance", "metrics.col_projection_distance"),
    ("metrics", "eigenspace_distance", "metrics.eigenspace_distance"),
    ("partition", "wl_refine", "partition.wl_refine"),
    ("partition", "split_eigenpairs", "partition.split_eigenpairs"),
    ("cli", "_write_csv", "cli.write"),
    ("cli", "_write_aggregate", "cli.write"),
) + tuple(("propcheck", name, f"propcheck.prop{i}") for i, name in (
    (1, "check_prop1_residual_no_collapse"),
    (2, "check_prop2_signal_retention"),
    (3, "check_prop3_krylov_reachability"),
    (4, "check_prop4_bn_no_collapse"),
    (5, "check_prop5_topk_convergence"),
    (6, "check_prop6_tightness"),
    (7, "check_prop7_centering"),
))

# (module, class, method, span name) of every traced method.
METHODS = (
    ("graphio", "Graph", "degrees", "graphio.degrees"),
    ("metrics", "MetricObserver", "__call__", "metrics.observer"),
)

# Per-layer metrics read from self time, from inclusive time, and from
# span counts.
SELF_TIMES = {
    "graphio.gen_graph_s": "graphio.gen_graph",
    "graphio.build_operator_s": "graphio.build_operator",
    "spectral.symmetric_eig_s": "spectral.symmetric_eig",
    "spectral.centered_eig_s": "spectral.centered_eig",
    "spectral.numerical_rank_s": "spectral.numerical_rank",
    "spectral.krylov_basis_s": "spectral.krylov_basis",
    "layers.step_self_s": "layers.run_trajectory",
    "metrics.mu_s": "metrics.mu",
    "metrics.dirichlet_s": "metrics.dirichlet",
    "metrics.col_distance_s": "metrics.col_distance",
    "metrics.col_projection_distance_s": "metrics.col_projection_distance",
    "metrics.eigenspace_distance_s": "metrics.eigenspace_distance",
    "partition.wl_refine_s": "partition.wl_refine",
    "partition.split_eigenpairs_s": "partition.split_eigenpairs",
    "cli.write_s": "cli.write",
}
INCLUSIVE_TIMES = {"metrics.observer_s": "metrics.observer",
                   **{f"propcheck.prop{i}_s": f"propcheck.prop{i}"
                      for i in range(1, 8)}}
CALLS = {
    "graphio.degrees_calls": "graphio.degrees",
    "spectral.symmetric_eig_calls": "spectral.symmetric_eig",
    "spectral.centered_eig_calls": "spectral.centered_eig",
    "spectral.numerical_rank_calls": "spectral.numerical_rank",
}

_NAME, _PARENT, _START, _END, _CHILDREN = range(5)
_NO_SPANS = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def storage_bytes(data) -> int:
    """Bytes held by an operator's storage: a dense array, or a sparse
    matrix's value, index and pointer arrays."""
    if hasattr(data, "nnz"):
        return int(data.data.nbytes + data.indices.nbytes
                   + data.indptr.nbytes)
    return int(data.nbytes)


def _multiplies(data) -> int:
    """Multiply-adds one product A @ x with a single column costs."""
    return int(data.nnz) if hasattr(data, "nnz") else int(data.size)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._undo: list = []
        self.operator_bytes = 0
        self.steps = 0
        self.flops = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        rec = [name, stack[-1] if stack else None, time.perf_counter(), 0.0,
               0.0]
        self.spans.append(rec)
        stack.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[_END] = time.perf_counter()
            stack.pop()
            if rec[_PARENT] is not None:
                rec[_PARENT][_CHILDREN] += rec[_END] - rec[_START]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- installation ------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement):
        """Point every oversmooth module global bound to ``original``
        at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oversmooth"
                                   or mod_name.startswith("oversmooth.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self, pkg):
        for mod, attr, name in FUNCTIONS:
            original = getattr(getattr(pkg, mod), attr)
            self.rebind(original, self.wrap(name, original))
        for mod, cls, meth, name in METHODS:
            owner = getattr(getattr(pkg, mod), cls)
            self._set(owner, meth, self.wrap(name, getattr(owner, meth)))
        self._install_operator(pkg.graphio)
        self._install_trajectory(pkg.layers)
        self._set(pkg.cli, "Path", self._path_class())

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _install_operator(self, graphio):
        traced = graphio.build_operator  # already the span wrapper

        def build_operator(*args, **kwargs):
            op = traced(*args, **kwargs)
            self.operator_bytes = max(self.operator_bytes,
                                      storage_bytes(op.data))
            return op
        self.rebind(traced, build_operator)

    def _install_trajectory(self, layers):
        original = layers.run_trajectory
        sig = inspect.signature(original)

        def run_trajectory(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            observer = arg["observer"]
            if observer is not None:
                arg["observer"] = lambda t, x: self.call(
                    "layers.observer", observer, t, x)
            log = self.call("layers.run_trajectory", original,
                            *bound.args, **bound.kwargs)
            steps = log.abort_step - 1 if log.aborted else arg["steps"]
            n, k = arg["x0"].shape
            per_step = 2 * _multiplies(arg["a"].data) * k + 2 * n * k * k
            if arg["cfg"].variant == "residual":
                per_step += 2 * n * k * k
            self.steps += steps
            self.flops += steps * per_step
            return log
        self.rebind(original, run_trajectory)

    def _path_class(self):
        tracer = self

        class TracedPath(PosixPath):
            def write_text(self, *args, **kwargs):
                return tracer.call("cli.write", super().write_text,
                                   *args, **kwargs)
        return TracedPath

    # -- reduction ---------------------------------------------------

    def span_summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds."""
        summary: dict = {}
        for name, _, start, end, children in self.spans:
            row = summary.setdefault(name, dict(_NO_SPANS))
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return summary

    def layer_metrics(self) -> dict:
        summary = self.span_summary()
        rank_in_observer = 0.0
        trials = 0
        for name, parent, start, end, _ in self.spans:
            if (name == "spectral.numerical_rank" and parent is not None
                    and parent[_NAME] == "metrics.observer"):
                rank_in_observer += end - start
            if name == "layers.run_trajectory":
                while parent is not None and not parent[_NAME].startswith(
                        "propcheck."):
                    parent = parent[_PARENT]
                if parent is not None:
                    trials += 1
        out = {}
        for table, column in ((SELF_TIMES, "self_s"),
                              (INCLUSIVE_TIMES, "total_s"), (CALLS, "calls")):
            out.update({key: summary.get(span, _NO_SPANS)[column]
                        for key, span in table.items()})
        out["graphio.operator_bytes"] = self.operator_bytes
        out["layers.steps"] = self.steps
        out["layers.flops_per_step"] = (self.flops / self.steps
                                        if self.steps else 0.0)
        out["metrics.rank_s"] = rank_in_observer
        out["propcheck.trials"] = trials
        return out
