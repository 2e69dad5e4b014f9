"""Command-line driver: simulate | verify | spectrum | partition.

Configuration is a JSON file plus flag overrides (flags win).  All
outputs are deterministic given (config, seed): floats are printed with
12 significant digits, every file ends with a newline, and JSON keys
are sorted.  Exit codes: 0 ok, 1 config or usage error, 2 degenerate
runtime abort (partial CSV kept), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import propcheck
from .errors import OversmoothError
from .graphio import Graph, build_operator, is_connected, load_graph
from .layers import VARIANTS, LayerConfig, WeightSpec, run_trajectory
from .metrics import (CSV_COLUMNS, MetricObserver, all_ones_reference,
                      degree_sqrt_reference, dominant_eig_reference)
from .partition import quotient, split_eigenpairs, wl_refine
from .spectral import centered_eig, krylov_basis, symmetric_eig, top_k

FLOAT_FMT = "%.12g"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORTED = 2
EXIT_VERIFY_FAILED = 3


@dataclass(frozen=True)
class RunConfig:
    """One simulate invocation: graph, layer, steps, seeds, output."""

    graph: str = "er:100,0.1"
    graph_seed: int = 0
    operator: str = "sym_normalized"
    variant: str = "vanilla"
    nonlinearity: str = "identity"
    steps: int = 256
    seeds: tuple = (0,)
    k: int = 8
    alpha: float = 0.2
    scale: float = 1.0
    gnv2_k: int = 2
    weight_std: float | None = None
    reference: str = "dominant_eig"
    normalize_features: bool = True
    identity_w2: bool = False
    largest_cc: bool = False
    top_k_metric: int = 0
    outdir: str = "out"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.reference not in ("dominant_eig", "all_ones", "degree_sqrt"):
            raise ValueError(f"unknown reference {self.reference!r}")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_FMT % float(x)


def _reference(cfg: RunConfig, g: Graph, es):
    if cfg.reference == "all_ones":
        return all_ones_reference(g.n)
    if cfg.reference == "degree_sqrt":
        return degree_sqrt_reference(g)
    return dominant_eig_reference(es)


def _initial_features(n: int, k: int, seed: int, normalize: bool):
    x0 = np.random.default_rng((seed, 101)).normal(size=(n, k))
    if normalize:
        norms = np.linalg.norm(x0, axis=0)
        norms[norms == 0] = 1.0
        x0 = x0 / norms
    return x0


def _write_csv(path: Path, rows, aborted=None):
    lines = [",".join(CSV_COLUMNS)]
    for rec in rows:
        lines.append(",".join(_fmt(x) for x in rec.row()))
    if aborted is not None:
        step, reason = aborted
        lines.append(f"# aborted at step {step}: {reason}")
    path.write_text("\n".join(lines) + "\n")


def _write_aggregate(path: Path, all_records):
    """Per-step mean and population std across seeds for every metric."""
    header = ["step"]
    for col in CSV_COLUMNS[1:]:
        header += [f"{col}_mean", f"{col}_std"]
    steps = min(len(r) for r in all_records)
    lines = [",".join(header)]
    for t in range(steps):
        vals = np.array([[float(x) for x in r[t].row()[1:]]
                         for r in all_records])
        row = [str(t + 1)]
        for j in range(vals.shape[1]):
            row.append(_fmt(vals[:, j].mean()))
            row.append(_fmt(vals[:, j].std()))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(cfg: RunConfig) -> int:
    g = load_graph(cfg.graph, seed=cfg.graph_seed, largest_cc=cfg.largest_cc)
    a = build_operator(g, cfg.operator)
    if cfg.reference == "dominant_eig" and not is_connected(g):
        # the top eigenvalue is then repeated: its vector is arbitrary
        print("config error: dominant_eig reference needs a connected "
              "graph; pass --largest-cc", file=sys.stderr)
        return EXIT_CONFIG
    es = symmetric_eig(a) if a.symmetric else None
    if es is None and cfg.reference == "dominant_eig":
        print("config error: dominant_eig reference needs a symmetric "
              "operator", file=sys.stderr)
        return EXIT_CONFIG
    if es is None and cfg.top_k_metric > 0:
        print("config error: --top-k-metric needs a symmetric operator",
              file=sys.stderr)
        return EXIT_CONFIG
    v = _reference(cfg, g, es)
    tk = top_k(es, cfg.top_k_metric) if cfg.top_k_metric > 0 else None
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    spec2 = WeightSpec(mode="identity") if cfg.identity_w2 else None
    lcfg = LayerConfig(variant=cfg.variant, nonlinearity=cfg.nonlinearity,
                       weight_spec=WeightSpec(std=cfg.weight_std),
                       weight_spec2=spec2, alpha=cfg.alpha, scale=cfg.scale,
                       gnv2_k=cfg.gnv2_k)
    status = EXIT_OK
    complete = []
    for seed in cfg.seeds:
        x0 = _initial_features(g.n, cfg.k, seed, cfg.normalize_features)
        log = run_trajectory(a, x0, lcfg, cfg.steps,
                             np.random.default_rng(seed),
                             observer=MetricObserver(g, v, top_k_basis=tk))
        aborted = (log.abort_step, log.abort_reason) if log.aborted else None
        _write_csv(outdir / f"{cfg.variant}_seed{seed}.csv", log.records,
                   aborted)
        if log.aborted:
            status = EXIT_ABORTED
        else:
            complete.append(log.records)
    if complete:
        _write_aggregate(outdir / f"{cfg.variant}_aggregate.csv", complete)
    return status


def _verify_inputs(g: Graph, k: int, seed: int):
    rng = np.random.default_rng((seed, 202))
    x0 = rng.normal(size=(g.n, k))
    x0 = x0 / np.linalg.norm(x0, axis=0)
    return x0


def _prop3(g, x0, o):
    kb = krylov_basis(build_operator(g, "adjacency"), x0)
    y = kb.basis @ np.random.default_rng((o.seed, 303)).normal(
        size=(kb.r, o.k))
    return propcheck.check_prop3_krylov_reachability(g, x0, y, seed=o.seed)


# proposition id -> its check, called with the graph, x0, the all-ones
# reference v and o, which holds cmd_verify's arguments.  Prop 2 runs at
# alpha = 0.5, s = 1 and eps = sqrt(2 ln 2) / 2, so that p = 0.5.
_VERIFY = {
    1: lambda g, x0, v, o: propcheck.check_prop1_residual_no_collapse(
        g, x0, v, alpha=o.alpha, trials=o.trials, steps=o.steps,
        seed=o.seed),
    2: lambda g, x0, v, o: propcheck.check_prop2_signal_retention(
        g, x0, 0.5, 1.0, 0.5 * np.sqrt(2.0 * np.log(2.0)),
        trials=o.trials, seed=o.seed),
    3: lambda g, x0, v, o: _prop3(g, x0, o),
    4: lambda g, x0, v, o: propcheck.check_prop4_bn_no_collapse(
        g, x0, v, trials=o.trials, steps=o.steps, seed=o.seed),
    5: lambda g, x0, v, o: propcheck.check_prop5_topk_convergence(
        g, x0, o.k, steps=o.steps, seed=o.seed),
    6: lambda g, x0, v, o: propcheck.check_prop6_tightness(
        g, x0, o.k, o.eps, seed=o.seed),
    7: lambda g, x0, v, o: propcheck.check_prop7_centering(g, o.tau),
}


def cmd_verify(prop_ids, graph_spec: str, seed: int = 0, k: int = 4,
               trials: int = propcheck.DEFAULT_TRIALS,
               steps: int = propcheck.DEFAULT_STEPS, tau: float = 1.0,
               eps: float = 0.01, alpha: float = 0.2,
               out=None) -> int:
    for pid in prop_ids:
        if pid not in _VERIFY:
            print(f"unknown proposition id {pid}", file=sys.stderr)
            return EXIT_CONFIG
    o = argparse.Namespace(seed=seed, k=k, trials=trials, steps=steps,
                           tau=tau, eps=eps, alpha=alpha)
    g = load_graph(graph_spec, seed=seed, largest_cc=True)
    x0 = _verify_inputs(g, k, seed)
    v = all_ones_reference(g.n)
    reports = []
    for pid in prop_ids:
        # prop 5's trace has no id of its own
        reports.append({"id": pid, **_VERIFY[pid](g, x0, v, o).to_json()})
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    failed = any(r["verdict"] == propcheck.FAIL for r in reports)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_spectrum(graph_spec: str, operator: str = "adjacency",
                 tau: float | None = None, seed: int = 0,
                 vectors: bool = False, show_partition: bool = False) -> int:
    g = load_graph(graph_spec, seed=seed)
    a = build_operator(g, operator)
    es = centered_eig(a, tau) if tau is not None else symmetric_eig(a)
    lines = ["index,eigenvalue"]
    for i, lam in enumerate(es.values):
        lines.append(f"{i},{_fmt(lam)}")
    if vectors:
        lines.append("# eigenvectors (one row per node)")
        for row in np.asarray(es.vectors):
            lines.append(",".join(_fmt(x) for x in row))
    if show_partition:
        ep = wl_refine(g)
        q = quotient(g, ep)
        lines.append("# node,class")
        for node, c in enumerate(ep.colors):
            lines.append(f"{node},{c}")
        lines.append("# quotient matrix")
        for row in q.a_pi:
            lines.append(",".join(_fmt(x) for x in row))
        split = split_eigenpairs(es, ep)
        lines.append("# structural," + ";".join(map(str, split.structural)))
        lines.append("# rest," + ";".join(map(str, split.rest)))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_partition(graph_spec: str, seed: int = 0) -> int:
    g = load_graph(graph_spec, seed=seed)
    ep = wl_refine(g)
    q = quotient(g, ep)
    lines = ["node,class"]
    for node, c in enumerate(ep.colors):
        lines.append(f"{node},{c}")
    lines.append("# quotient matrix")
    for row in q.a_pi:
        lines.append(",".join(_fmt(x) for x in row))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line with the config exit code, so
    exit 2 keeps meaning a degenerate abort.  Subparsers inherit it."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="oversmooth",
        description="Simulate message-passing dynamics and verify their "
                    "collapse/no-collapse properties.",
        epilog="Graph specs: er:n,p | sbm:n1+n2,pin,pout | path:n | star:n "
               "| cycle:n | reg:n,d, or a path to an edge-list file. "
               "OVERSMOOTH_SEED overrides configured seeds.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run trajectories, emit CSVs")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--dump-config", action="store_true",
                     help="print the effective config and exit")
    sim.add_argument("--graph")
    sim.add_argument("--graph-seed", type=int)
    sim.add_argument("--operator")
    sim.add_argument("--variant")
    sim.add_argument("--nonlinearity")
    sim.add_argument("--steps", type=int)
    sim.add_argument("--seeds", help="comma-separated seed list")
    sim.add_argument("--k", type=int)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--scale", type=float)
    sim.add_argument("--gnv2-k", type=int)
    sim.add_argument("--weight-std", type=float)
    sim.add_argument("--reference",
                     choices=("dominant_eig", "all_ones", "degree_sqrt"))
    sim.add_argument("--raw-features", action="store_true", default=None,
                     help="skip the default unit-normalization of x0 columns")
    sim.add_argument("--identity-w2", action="store_true", default=None,
                     help="residual variant: identity W2 instead of Gaussian")
    sim.add_argument("--largest-cc", action="store_true", default=None)
    sim.add_argument("--top-k-metric", type=int)
    sim.add_argument("--outdir")

    ver = sub.add_parser("verify", help="run proposition checks")
    ver.add_argument("--props", default="all",
                     help="comma-separated ids in 1..7, or 'all'")
    ver.add_argument("--graph", default="er:100,0.1")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--k", type=int, default=4)
    ver.add_argument("--trials", type=int, default=propcheck.DEFAULT_TRIALS)
    ver.add_argument("--steps", type=int, default=propcheck.DEFAULT_STEPS)
    ver.add_argument("--tau", type=float, default=1.0)
    ver.add_argument("--eps", type=float, default=0.01,
                     help="read by prop 6, whose columns must reach overlap "
                          "1/sqrt(1+eps); prop 2 runs at a fixed "
                          "eps = sqrt(2 ln 2)/2")
    ver.add_argument("--alpha", type=float, default=0.2,
                     help="read by prop 1 (residual strength); prop 2 runs "
                          "at a fixed alpha = 0.5 and s = 1, so that p = 0.5")
    ver.add_argument("--out", help="write the JSON report here")

    spec = sub.add_parser("spectrum", help="print eigenvalues as CSV")
    spec.add_argument("graph")
    spec.add_argument("--operator", default="adjacency")
    spec.add_argument("--tau", type=float)
    spec.add_argument("--seed", type=int, default=0)
    spec.add_argument("--vectors", action="store_true")
    spec.add_argument("--partition", action="store_true")

    part = sub.add_parser("partition", help="print WL classes and quotient")
    part.add_argument("graph")
    part.add_argument("--seed", type=int, default=0)
    return p


_OVERRIDES = ("graph", "graph_seed", "operator", "variant", "nonlinearity",
              "steps", "k", "alpha", "scale", "gnv2_k", "weight_std",
              "reference", "identity_w2", "largest_cc", "top_k_metric",
              "outdir")


def _config_from_args(args) -> RunConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if "seeds" in data:
            data["seeds"] = tuple(data["seeds"])
    cfg = RunConfig(**data)
    updates = {}
    for name in _OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "raw_features", None):
        updates["normalize_features"] = False
    if args.seeds is not None:
        updates["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    env_seed = os.environ.get("OVERSMOOTH_SEED")
    if env_seed is not None:
        updates["seeds"] = (int(env_seed),)
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code
    try:
        if args.command == "simulate":
            cfg = _config_from_args(args)
            if args.dump_config:
                d = asdict(cfg)
                d["seeds"] = list(d["seeds"])
                sys.stdout.write(json.dumps(d, indent=2, sort_keys=True)
                                 + "\n")
                return EXIT_OK
            return cmd_simulate(cfg)
        if args.command == "verify":
            if args.props.strip().lower() == "all":
                ids = list(range(1, 8))
            else:
                ids = [int(s) for s in args.props.split(",")]
            return cmd_verify(ids, args.graph, seed=args.seed, k=args.k,
                              trials=args.trials, steps=args.steps,
                              tau=args.tau, eps=args.eps, alpha=args.alpha,
                              out=args.out)
        if args.command == "spectrum":
            return cmd_spectrum(args.graph, operator=args.operator,
                                tau=args.tau, seed=args.seed,
                                vectors=args.vectors,
                                show_partition=args.partition)
        return cmd_partition(args.graph, seed=args.seed)
    except (OversmoothError, ValueError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
