"""Per-step cost of every layer variant, of the operator product and of
``metrics.mu``, and the one-time cost of building a graph and its
operators, of ``simulate``'s set-up and run, of the centred solves, of
the partition tools, of props 3-7's checks, of stacked residual runs
and of ``verify`` runs, one in this process and three each in a fresh
process.

    python benchmarks/bench_layers.py [--src DIR] [--column NAME]

Imports oversmooth from DIR (default: the ``src`` of the checkout this
script sits in), with BLAS pinned to one thread, and times it on four
(n, T, k) blocks, T trials of n nodes and k features stacked:

- ``er:200,0.05`` at T = 1, k = 32: ``simulate``'s graph and width;
- ``er:100,0.1`` at T = 50, k = 4: ``verify``'s default prop 1/2/4 block;
- ``er:1000,0.01`` and ``er:3000,0.005`` at T = 20, k = 4: blocks that
  take the sliced operator product.

Each graph is its largest connected component (graph seed 0) under the
symmetric-normalized operator.  A variant's time is the median, over
REPEATS, of one observer-free ``run_trajectory`` of STEPS steps divided
by STEPS; ``a @ x`` is timed on an (n, T*k) array and ``mu`` on the
(T, n, k) block (the (n, k) matrix at T = 1), each the median of
REPEATS repeats of a timeit loop.  For the ONE_TIME graphs, ``gen_graph``
and ``build_operator`` of each kind get their median time over REPEATS
calls and the ``tracemalloc`` peak bytes of one more call.  So does
``simulate`` with its defaults (the dominant-eigenvector reference of
the symmetric-normalized operator) at batchnorm, k = SIM_K and
SIM_STEPS steps, through ``cli.main``, over SIM_REPEATS calls: its
set-up, stopped at the first layer step (graph, operator, reference
and observer, so its excess over ``gen_graph`` and ``build_operator
sym_normalized`` is the reference's), and the whole run.  For each
PROP6 (graph spec, seed), ``check_prop6_tightness`` at verify's k = 4
and eps = 0.01 gets the same over CHECK_REPEATS calls, given the
adjacency operator, its ``ones_complement_eig`` system and x0 as
``verify --seed`` builds them, with its verdict and notes.  So do
``check_prop3_krylov_reachability`` on the same inputs for each PROP3
(graph spec, seed), and ``check_prop5_topk_convergence`` at verify's
k = 4 and 256 steps for each PROP5 (graph spec, seed), with the number
of slopes its report holds.  On the ONE_TIME graphs,
``ones_complement_eig`` of both symmetric kinds,
``centered_eig(adjacency, 1.0)``, prop 4's check at trials = 0 (its
precondition and floor, with verify's x0 and all-ones reference),
``wl_refine`` followed by ``quotient``, ``split_eigenpairs`` given the
adjacency's ``symmetric_eig`` system and that partition, and
``check_prop7_centering`` at tau = 1 given the adjacency operator get
their median over SOLVE_REPEATS calls and one call's peak.  So does
``verify --props VERIFY_PROPS --graph VERIFY_GRAPH``, through
``cli.main``.  For each STACKED (graph, T, k), a residual
``run_trajectory`` with prop 1's ``mu`` observer, as ``verify`` runs
it, gets its median time per step over REPEATS runs of STEPS steps and
the ``tracemalloc`` peak of one more.  Times are
process time, which other processes on a shared machine disturb less
than wall time.  Each PROCESS_RUNS ``verify`` invocation instead runs
PROCESS_REPEATS times in a fresh process, and gets the median wall time
and peak resident set size (``ru_maxrss``) of the whole process; these
run before this script imports numpy, since a child's peak counts the
pages it shares with its parent until it execs.  The result goes to
column NAME (default ``change``) of ``BENCH_layers.json`` at the root
of this script's checkout, together with the numpy and BLAS build, the
thread variables and the processor count; the file's other columns are
kept, so running the script with ``--src`` pointing at another commit's
``src`` gives a before/after table.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before numpy loads

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_layers.json"

# (graph spec, trials T, width k)
SHAPES = (("er:200,0.05", 1, 32), ("er:100,0.1", 50, 4),
          ("er:1000,0.01", 20, 4), ("er:3000,0.005", 20, 4))
# graphs whose generation and operator builds are measured
ONE_TIME = ("er:1000,0.01", "er:3000,0.005")
STEPS, REPEATS = 64, 7
# simulate's width, steps and repeats on the ONE_TIME graphs
SIM_K, SIM_STEPS, SIM_REPEATS = 32, 16, 3
# (graph spec, verify seed) of the timed prop 6 checks, and the
# repeats of each timed prop 3, 5 and 6 check
PROP6 = (("er:100,0.1", 0), ("er:1000,0.01", 1))
CHECK_REPEATS = 3
# (graph spec, verify seed) of the timed prop 3 checks
PROP3 = (("er:1000,0.01", 0), ("er:3000,0.005", 1))
# (graph spec, verify seed) of the timed prop 5 checks
PROP5 = (("er:1000,0.01", 0), ("er:3000,0.005", 1))
# repeats of the ONE_TIME graphs' centred solves, partition tools and
# props 4 and 7, and of the verify run timed whole
SOLVE_REPEATS = 3
VERIFY_GRAPH, VERIFY_PROPS = "er:1000,0.01", "4,5,6"
VERIFY_KEY = f"verify --props {VERIFY_PROPS} --graph {VERIFY_GRAPH}"
# (graph spec, trials T, width k) of the timed stacked residual runs
STACKED = (("er:1000,0.01", 20, 4), ("er:3000,0.005", 50, 4))
# verify arguments run whole in a fresh process, and its repeats
PROCESS_RUNS = (("--props", "1,2", "--graph", "er:3000,0.005"),
                ("--props", "1,2", "--graph", "er:10000,0.0015",
                 "--trials", "50", "--steps", "32"),
                ("--props", "all", "--graph", "er:1000,0.01"),
                ("--props", "all", "--graph", "er:3000,0.005", "--seed", "1"))
PROCESS_REPEATS = 3


def _median_us(fn, number, repeats=REPEATS):
    """Median over ``repeats`` timeit loops of ``number`` calls, in
    process microseconds per call."""
    runs = timeit.repeat(fn, timer=time.process_time, number=number,
                         repeat=repeats)
    return round(1e6 * statistics.median(runs) / number, 2)


def _shape_row(pkg, np, spec, trials, k):
    graphio, layers, metrics = pkg.graphio, pkg.layers, pkg.metrics
    g = graphio.gen_graph(spec, seed=0, largest_cc=True)
    a = graphio.build_operator(g, "sym_normalized")
    x0 = np.random.default_rng(7).normal(size=(g.n, k))
    x0 /= np.linalg.norm(x0, axis=0)
    vals, vecs = np.linalg.eigh(a.data)
    ctx = layers.build_norm_context(
        vecs[:, np.argsort(-np.abs(vals), kind="stable")[:2]])
    step_us = {}
    for variant in layers.VARIANTS:
        cfg = layers.LayerConfig(variant=variant, norm_context=ctx)
        per_step = []
        for rep in range(REPEATS):
            rng = (np.random.default_rng(rep) if trials == 1 else
                   [np.random.default_rng((rep, t)) for t in range(trials)])
            start = time.process_time()
            log = layers.run_trajectory(a, x0, cfg, STEPS, rng)
            elapsed = time.process_time() - start
            if log.aborted:
                raise RuntimeError(f"{variant} aborted on {spec}")
            per_step.append(elapsed / STEPS)
        step_us[variant] = round(1e6 * statistics.median(per_step), 2)
    block = np.random.default_rng(8).normal(size=(trials, g.n, k))
    x = block[0] if trials == 1 else block
    v = metrics.all_ones_reference(g.n)
    cols = np.random.default_rng(9).normal(size=(g.n, trials * k))
    return {"n": g.n, "T": trials, "k": k, "step_us": step_us,
            "product_us": _median_us(lambda: a @ cols, 20),
            "mu_us": _median_us(lambda: metrics.mu(x, v), 200)}


class _SetupDone(BaseException):
    """Raised at simulate's first layer step; a BaseException, so the
    CLI's error handling lets it through."""


def _simulate(cli, spec, setup_only):
    """One default ``simulate`` on spec, or its set-up alone."""
    def first_step(*args, **kwargs):
        raise _SetupDone
    run = cli.run_trajectory
    with tempfile.TemporaryDirectory() as outdir:
        if setup_only:
            cli.run_trajectory = first_step
        try:
            code = cli.main(["simulate", "--graph", spec, "--largest-cc",
                             "--variant", "batchnorm", "--k", str(SIM_K),
                             "--steps", str(SIM_STEPS), "--outdir", outdir])
            if code != 0:
                raise RuntimeError(f"simulate exited {code} on {spec}")
        except _SetupDone:
            pass
        finally:
            cli.run_trajectory = run


def _timed(call, repeats):
    """The call's median process time in ms over ``repeats`` calls and
    the ``tracemalloc`` peak bytes of one more."""
    ms = _median_us(call, 1, repeats) / 1e3
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"ms": round(ms, 2), "peak_bytes": peak}


def _one_time_row(pkg, spec):
    graphio, partition, spectral = pkg.graphio, pkg.partition, pkg.spectral
    g = graphio.gen_graph(spec, seed=0, largest_cc=True)
    row = {"n": g.n, "edges": g.num_edges, "gen_graph": _timed(
        lambda: graphio.gen_graph(spec, seed=0, largest_cc=True), REPEATS)}
    for kind in graphio.OPERATOR_KINDS:
        row[f"build_operator {kind}"] = _timed(
            lambda kind=kind: graphio.build_operator(g, kind), REPEATS)
    for name, setup_only in (("simulate set-up", True),
                             ("simulate run", False)):
        row[name] = _timed(lambda setup_only=setup_only: _simulate(
            pkg.cli, spec, setup_only), SIM_REPEATS)
    for kind in (graphio.ADJACENCY, graphio.SYM_NORMALIZED):
        a = graphio.build_operator(g, kind)
        row[f"ones_complement_eig {kind}"] = _timed(
            lambda a=a: spectral.ones_complement_eig(a), SOLVE_REPEATS)
    a = graphio.build_operator(g, graphio.ADJACENCY)
    row["centered_eig adjacency tau=1"] = _timed(
        lambda: spectral.centered_eig(a, 1.0), SOLVE_REPEATS)
    s = graphio.build_operator(g, graphio.SYM_NORMALIZED)
    x0 = pkg.cli._initial_features(g, 4, (0, 202), True)
    v = pkg.metrics.all_ones_reference(g.n)
    row["check_prop4 trials=0"] = _timed(
        lambda: pkg.propcheck.check_prop4_bn_no_collapse(s, x0, v, trials=0),
        SOLVE_REPEATS)
    row["wl_refine + quotient"] = _timed(
        lambda: partition.quotient(g, partition.wl_refine(g)), SOLVE_REPEATS)
    es, ep = spectral.symmetric_eig(a), partition.wl_refine(g)
    row["split_eigenpairs"] = _timed(
        lambda: partition.split_eigenpairs(es, ep), SOLVE_REPEATS)
    row["check_prop7_centering tau=1"] = _timed(
        lambda: pkg.propcheck.check_prop7_centering(g, a, 1.0), SOLVE_REPEATS)
    return row


def _verify_row(cli):
    """``verify --props VERIFY_PROPS`` on VERIFY_GRAPH, seed 0."""
    def run():
        with tempfile.TemporaryDirectory() as outdir:
            code = cli.main(["verify", "--props", VERIFY_PROPS, "--graph",
                             VERIFY_GRAPH, "--out", f"{outdir}/report.json"])
        # prop 5 fails on this graph for its step budget: exit 3
        if code not in (0, 3):
            raise RuntimeError(f"verify exited {code} on {VERIFY_GRAPH}")
    return _timed(run, SOLVE_REPEATS)


def _verify_inputs(pkg, spec, seed):
    """verify's graph, adjacency operator and k = 4 x0 at this seed."""
    graphio = pkg.graphio
    g = graphio.load_graph(spec, seed=seed, largest_cc=True)
    a = graphio.build_operator(g, graphio.ADJACENCY)
    return g, a, pkg.cli._initial_features(g, 4, (seed, 202), True)


def _check_row(pkg, spec, seed, name, check):
    """The check ``name`` on verify's inputs at this seed: its verdict,
    notes and timing, and the number of slopes of a convergence trace.
    ``check(propcheck, a, es, x0, seed)`` reads the adjacency's
    ``ones_complement_eig`` system as es(), solved on the first call,
    before the timing."""
    g, a, x0 = _verify_inputs(pkg, spec, seed)
    es = functools.cache(lambda: pkg.spectral.ones_complement_eig(a))

    def run():
        return check(pkg.propcheck, a, es, x0, seed)
    report = run()
    row = {"n": g.n, "verdict": report.verdict, "notes": report.notes,
           name: _timed(run, CHECK_REPEATS)}
    if hasattr(report, "slopes"):
        row["slopes"] = len(report.slopes)
    return row


# JSON key -> (its (graph spec, verify seed) cases, the timed check's
# key, the check at verify's k = 4, eps = 0.01 and 256 steps)
CHECKS = {
    "prop6": (PROP6, "check_prop6_tightness",
              lambda pc, a, es, x0, seed: pc.check_prop6_tightness(
                  a, es(), x0, 4, 0.01, seed=seed)),
    "prop3": (PROP3, "check_prop3",
              lambda pc, a, es, x0, seed:
              pc.check_prop3_krylov_reachability(a, x0, seed=seed)),
    "prop5": (PROP5, "check_prop5_topk_convergence",
              lambda pc, a, es, x0, seed: pc.check_prop5_topk_convergence(
                  a, es(), x0, 4, seed=seed)),
}


def _stacked_row(pkg, np, spec, trials, k):
    """A stacked residual run with prop 1's mu observer, on verify's
    seed-0 graph, operator, x0 and all-ones reference."""
    graphio, metrics = pkg.graphio, pkg.metrics
    g = graphio.gen_graph(spec, seed=0, largest_cc=True)
    a = graphio.build_operator(g, graphio.SYM_NORMALIZED)
    x0 = pkg.cli._initial_features(g, k, (0, 202), True)
    v = metrics.all_ones_reference(g.n)
    cfg = pkg.layers.LayerConfig(variant="residual")

    def run():
        pkg.layers.run_trajectory(
            a, x0, cfg, STEPS,
            [np.random.default_rng((0, t)) for t in range(trials)],
            observer=lambda _, x: metrics.mu(x, v))
    timed = _timed(run, REPEATS)
    return {"n": g.n, "T": trials, "k": k,
            "step_us": round(1e3 * timed["ms"] / STEPS, 2),
            "peak_bytes": timed["peak_bytes"],
            "block_bytes": g.n * trials * k * 8}


def _process_row(src: Path, args) -> dict:
    """``verify ARGS`` in PROCESS_REPEATS fresh processes: the median
    wall time and peak resident set size."""
    walls, rss = [], []
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src.resolve())}
    for _ in range(PROCESS_REPEATS):
        with tempfile.TemporaryDirectory() as outdir:
            cmd = [sys.executable, "-m", "oversmooth.cli", "verify", *args,
                   "--out", f"{outdir}/report.json"]
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append(time.monotonic() - start)
            code = os.waitstatus_to_exitcode(status)
            if code not in (0, 3):
                raise RuntimeError(f"verify {' '.join(args)} exited {code}")
        rss.append(usage.ru_maxrss / 1024.0)
    return {"wall_s": round(statistics.median(walls), 2),
            "peak_rss_mb": round(statistics.median(rss), 1),
            "repeats": PROCESS_REPEATS}


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--column", default="change")
    args = p.parse_args(argv)
    # the fresh processes run first, while this one is small: a child's
    # peak RSS counts the pages it shares with this process until exec
    process = {"verify " + " ".join(run): _process_row(args.src, run)
               for run in PROCESS_RUNS}
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    import oversmooth
    import oversmooth.cli
    import oversmooth.metrics
    import oversmooth.partition
    import oversmooth.propcheck
    import oversmooth.spectral
    column = {"environment": _environment(np),
              "steps": STEPS, "repeats": REPEATS,
              "simulate": {"k": SIM_K, "steps": SIM_STEPS,
                           "repeats": SIM_REPEATS},
              "one_time": {spec: _one_time_row(oversmooth, spec)
                           for spec in ONE_TIME},
              "solve_repeats": SOLVE_REPEATS,
              VERIFY_KEY: _verify_row(oversmooth.cli),
              "check_repeats": CHECK_REPEATS,
              **{key: {f"{spec} seed={seed}": _check_row(
                  oversmooth, spec, seed, name, check)
                  for spec, seed in cases}
                 for key, (cases, name, check) in CHECKS.items()},
              "shapes": {f"{spec} T={trials} k={k}": _shape_row(
                  oversmooth, np, spec, trials, k)
                  for spec, trials, k in SHAPES},
              "stacked residual": {f"{spec} T={trials} k={k}": _stacked_row(
                  oversmooth, np, spec, trials, k)
                  for spec, trials, k in STACKED},
              "process_repeats": PROCESS_REPEATS,
              "verify process": process}
    data = (json.loads(OUT.read_text()) if OUT.exists()
            else {"columns": {}})
    data["columns"][args.column] = column
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    json.dump({key: column[key] for key in (
        "one_time", "prop6", "prop3", "prop5", "shapes", VERIFY_KEY,
        "stacked residual", "verify process")},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
