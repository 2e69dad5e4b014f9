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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import propcheck
from .errors import OversmoothError, PreconditionError
from .graphio import (ADJACENCY, SYM_NORMALIZED, Graph, build_operator,
                      is_connected, load_graph)
from .layers import (VARIANTS, LayerConfig, WeightSpec, build_norm_context,
                     run_trajectory)
from .metrics import (CSV_COLUMNS, MetricObserver, all_ones_reference,
                      degree_sqrt_reference, dominant_eig_reference,
                      normalized_dominant_reference)
from .partition import quotient, split_eigenpairs, wl_refine
from .spectral import (centered_eig, ones_complement_eig, symmetric_eig,
                       top_k)

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
        for name, low in (("k", 1), ("gnv2_k", 0), ("top_k_metric", 0)):
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")
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


def _reference(cfg: RunConfig, g: Graph, a, es):
    """The reference vector; dominant_eig is in closed form for the
    symmetric-normalized operator and read from es otherwise."""
    if cfg.reference == "all_ones":
        return all_ones_reference(g.n)
    if cfg.reference == "degree_sqrt":
        return degree_sqrt_reference(g)
    if a.kind == SYM_NORMALIZED:
        return normalized_dominant_reference(g, a)
    return dominant_eig_reference(es)


def _initial_features(g: Graph, k: int, key: tuple, normalize: bool):
    """(n, k) draws of default_rng(key); unit nonzero columns if normalize."""
    x0 = np.random.default_rng(key).normal(size=(g.n, k))
    if normalize:
        norms = np.linalg.norm(x0, axis=0)
        norms[norms == 0] = 1.0
        x0 = x0 / norms
    return x0


def _write_csv(path: Path, rows, aborted):
    lines = [",".join(CSV_COLUMNS)]
    for rec in rows:
        lines.append(",".join(_fmt(x) for x in rec.row()))
    if aborted is not None:
        step, reason = aborted
        lines.append(f"# aborted at step {step}: {reason}")
    path.write_text("\n".join(lines) + "\n")


def _seed_stats(all_records) -> np.ndarray:
    """(steps, 2 * metrics): each metric's mean and population std
    across seeds at every step the seeds share, interleaved."""
    steps = min(len(r) for r in all_records)
    # (step, metric, seed), seeds contiguous: each reduction sums one
    # seed vector in the order a 1-D np.mean / np.std would
    vals = np.array([[rec.row()[1:] for rec in r[:steps]]
                     for r in all_records], dtype=np.float64)
    vals = np.ascontiguousarray(vals.transpose(1, 2, 0))
    stats = np.stack([vals.mean(axis=-1), vals.std(axis=-1)], axis=-1)
    return stats.reshape(steps, -1)


def _write_aggregate(path: Path, all_records):
    """Per-step mean and population std across seeds for every metric."""
    header = ["step"]
    for col in CSV_COLUMNS[1:]:
        header += [f"{col}_mean", f"{col}_std"]
    lines = [",".join(header)]
    for t, row in enumerate(_seed_stats(all_records).tolist()):
        lines.append(",".join([str(t + 1)] + [FLOAT_FMT % x for x in row]))
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    if args.dump_config:
        sys.stdout.write(json.dumps(asdict(cfg), indent=2, sort_keys=True)
                         + "\n")
        return EXIT_OK
    g = load_graph(cfg.graph, seed=cfg.graph_seed, largest_cc=cfg.largest_cc)
    a = build_operator(g, cfg.operator)
    if cfg.reference == "dominant_eig" and not is_connected(g):
        # the top eigenvalue is then repeated: its vector is arbitrary
        print("config error: dominant_eig reference needs a connected "
              "graph; pass --largest-cc", file=sys.stderr)
        return EXIT_CONFIG
    gnv2 = cfg.variant == "graphnormv2"
    # the settings that read the operator's spectrum; the
    # symmetric-normalized nu_1 has a closed form
    readers = [flag for flag, on in (
        ("--variant graphnormv2", gnv2),
        ("--reference dominant_eig", cfg.reference == "dominant_eig"
         and a.kind != SYM_NORMALIZED),
        ("--top-k-metric", cfg.top_k_metric > 0)) if on]
    if readers and not a.symmetric:
        print(f"config error: --operator {cfg.operator} is not symmetric; "
              f"these settings read its spectrum: {', '.join(readers)}",
              file=sys.stderr)
        return EXIT_CONFIG
    # gnv2_k is read by graphnormv2 only
    for name, width, high in (("gnv2_k", cfg.gnv2_k if gnv2 else 0, g.n - 1),
                              ("top_k_metric", cfg.top_k_metric, g.n)):
        if width > high:
            print(f"config error: {name}={width} must be in [0, {high}]",
                  file=sys.stderr)
            return EXIT_CONFIG
    es = symmetric_eig(a) if readers else None
    ctx = build_norm_context(top_k(es, cfg.gnv2_k)) if gnv2 else None
    spec2 = WeightSpec(mode="identity") if cfg.identity_w2 else None
    lcfg = LayerConfig(variant=cfg.variant, nonlinearity=cfg.nonlinearity,
                       weight_spec=WeightSpec(std=cfg.weight_std),
                       weight_spec2=spec2, alpha=cfg.alpha, scale=cfg.scale,
                       norm_context=ctx)
    v = _reference(cfg, g, a, es)
    tk = top_k(es, cfg.top_k_metric) if cfg.top_k_metric > 0 else None
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    observer = MetricObserver(g, v, top_k_basis=tk)
    status = EXIT_OK
    complete = []
    for seed in cfg.seeds:
        x0 = _initial_features(g, cfg.k, (seed, 101), cfg.normalize_features)
        log = run_trajectory(a, x0, lcfg, cfg.steps,
                             np.random.default_rng(seed), observer=observer)
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


class _VerifyRun:
    """One verify run: the graph, x0 and all-ones reference v its checks
    share, the parsed flags o, and the run's memo, which builds each
    operator kind, and solves that operator's 1-complement system, on
    first use."""

    def __init__(self, o):
        self.o = o
        self.g = load_graph(o.graph, seed=o.seed, largest_cc=True)
        self.x0 = _initial_features(self.g, o.k, (o.seed, 202), True)
        self.v = all_ones_reference(self.g.n)
        self._operators, self._systems = {}, {}

    def operator(self, kind: str):
        if kind not in self._operators:
            self._operators[kind] = build_operator(self.g, kind)
        return self._operators[kind]

    def system(self, a):
        """``ones_complement_eig`` of the run's operator a."""
        if a.kind not in self._systems:
            self._systems[a.kind] = ones_complement_eig(a)
        return self._systems[a.kind]


# proposition id -> (the operator kind its check reads, the check).  The
# check is called with the run and that kind's operator, and props 5
# and 6 also read the run's 1-complement system of it; prop 7 reads the
# graph too.  Prop 2 runs at alpha = 0.5, s = 1 and
# eps = sqrt(2 ln 2) / 2, so that p = 0.5.
_VERIFY = {
    1: (SYM_NORMALIZED,
        lambda r, a: propcheck.check_prop1_residual_no_collapse(
            a, r.x0, r.v, alpha=r.o.alpha, trials=r.o.trials,
            steps=r.o.steps, seed=r.o.seed)),
    2: (SYM_NORMALIZED,
        lambda r, a: propcheck.check_prop2_signal_retention(
            a, r.x0, 0.5, 1.0, 0.5 * np.sqrt(2.0 * np.log(2.0)),
            trials=r.o.trials, seed=r.o.seed)),
    3: (ADJACENCY,
        lambda r, a: propcheck.check_prop3_krylov_reachability(
            a, r.x0, seed=r.o.seed)),
    4: (SYM_NORMALIZED,
        lambda r, a: propcheck.check_prop4_bn_no_collapse(
            a, r.x0, r.v, trials=r.o.trials, steps=r.o.steps,
            seed=r.o.seed)),
    5: (ADJACENCY,
        lambda r, a: propcheck.check_prop5_topk_convergence(
            a, r.system(a), r.x0, r.o.k, steps=r.o.steps, seed=r.o.seed)),
    6: (ADJACENCY,
        lambda r, a: propcheck.check_prop6_tightness(
            a, r.system(a), r.x0, r.o.k, r.o.eps, seed=r.o.seed)),
    7: (ADJACENCY,
        lambda r, a: propcheck.check_prop7_centering(r.g, a, r.o.tau)),
}


def _check_report(run: _VerifyRun, pid: int) -> dict:
    """Proposition pid's JSON report; a check whose precondition on x0
    fails reports inconclusive instead of stopping the run."""
    kind, check = _VERIFY[pid]
    try:
        report = check(run, run.operator(kind))
    except PreconditionError as exc:
        report = propcheck.PropReport(
            proposition=pid, verdict=propcheck.INCONCLUSIVE, trials=0,
            successes=0, notes=f"precondition failed: {exc}")
    # prop 5's trace has no id of its own
    return {"id": pid, **report.to_json()}


def cmd_verify(args) -> int:
    run = _VerifyRun(args)
    reports = [_check_report(run, pid) for pid in args.props]
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    failed = any(r["verdict"] == propcheck.FAIL for r in reports)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _partition_lines(g: Graph, ep, header: str) -> list:
    """The header, one node,class row per node, then the quotient."""
    lines = [header]
    for node, c in enumerate(ep.colors):
        lines.append(f"{node},{c}")
    lines.append("# quotient matrix")
    for row in quotient(g, ep).a_pi:
        lines.append(",".join(_fmt(x) for x in row))
    return lines


def cmd_spectrum(args) -> int:
    g = load_graph(args.graph, seed=args.seed)
    a = build_operator(g, args.operator)
    es = (centered_eig(a, args.tau) if args.tau is not None
          else symmetric_eig(a))
    lines = ["index,eigenvalue"]
    for i, lam in enumerate(es.values):
        lines.append(f"{i},{_fmt(lam)}")
    if args.vectors:
        lines.append("# eigenvectors (one row per node)")
        for row in np.asarray(es.vectors):
            lines.append(",".join(_fmt(x) for x in row))
    if args.partition:
        ep = wl_refine(g)
        lines += _partition_lines(g, ep, "# node,class")
        split = split_eigenpairs(es, ep)
        lines.append("# structural," + ";".join(map(str, split.structural)))
        lines.append("# rest," + ";".join(map(str, split.rest)))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_partition(args) -> int:
    g = load_graph(args.graph, seed=args.seed)
    lines = _partition_lines(g, wl_refine(g), "node,class")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _ints(text: str) -> tuple:
    """A comma-separated integer list flag."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _prop_ids(text: str) -> tuple:
    """--props: 'all', or comma-separated ids of checks in _VERIFY."""
    if text.strip().lower() == "all":
        return tuple(_VERIFY)
    ids = _ints(text)
    for pid in ids:
        if pid not in _VERIFY:
            raise argparse.ArgumentTypeError(f"unknown proposition id {pid}")
    return ids


def _at_least(low: int):
    """An integer flag >= low; argparse names the flag in the error."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {text!r}")
    return parse


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
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--dump-config", action="store_true",
                     help="print the effective config and exit")
    sim.add_argument("--graph")
    sim.add_argument("--graph-seed", type=int)
    sim.add_argument("--operator")
    sim.add_argument("--variant")
    sim.add_argument("--nonlinearity")
    sim.add_argument("--steps", type=int)
    sim.add_argument("--seeds", type=_ints, help="comma-separated seed list")
    sim.add_argument("--k", type=int)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--scale", type=float)
    sim.add_argument("--gnv2-k", type=int)
    sim.add_argument("--weight-std", type=float)
    sim.add_argument("--reference",
                     choices=("dominant_eig", "all_ones", "degree_sqrt"))
    sim.add_argument("--raw-features", dest="normalize_features",
                     action="store_false", default=None,
                     help="skip the default unit-normalization of x0 columns")
    sim.add_argument("--identity-w2", action="store_true", default=None,
                     help="residual variant: identity W2 instead of Gaussian")
    sim.add_argument("--largest-cc", action="store_true", default=None)
    sim.add_argument("--top-k-metric", type=int)
    sim.add_argument("--outdir")

    ver = sub.add_parser("verify", help="run proposition checks")
    ver.set_defaults(run=cmd_verify)
    ver.add_argument("--props", type=_prop_ids, default="all",
                     help="comma-separated ids in 1..7, or 'all'")
    ver.add_argument("--graph", default="er:100,0.1")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--k", type=_at_least(1), default=4,
                     help="width of x0 for props 1-6, and the top-k width "
                          "of props 5 and 6")
    ver.add_argument("--trials", type=_at_least(0),
                     default=propcheck.DEFAULT_TRIALS,
                     help="read by props 1, 2 and 4")
    ver.add_argument("--steps", type=_at_least(1),
                     default=propcheck.DEFAULT_STEPS,
                     help="read by props 1, 4 and 5; prop 2 runs 64 steps, "
                          "prop 3 sweeps depths up to its float64 horizon, "
                          "and prop 6 builds its analytic T in "
                          "eigen-coordinates, replayed in n-space up to its "
                          "float64 horizon")
    ver.add_argument("--tau", type=float, default=1.0,
                     help="read by prop 7 (centering strength)")
    ver.add_argument("--eps", type=float, default=0.01,
                     help="read by prop 6, whose columns must reach overlap "
                          "1/sqrt(1+eps); prop 2 runs at a fixed "
                          "eps = sqrt(2 ln 2)/2")
    ver.add_argument("--alpha", type=float, default=0.2,
                     help="read by prop 1 (residual strength); prop 2 runs "
                          "at a fixed alpha = 0.5 and s = 1, so that p = 0.5")
    ver.add_argument("--out", help="write the JSON report here")

    spec = sub.add_parser("spectrum", help="print eigenvalues as CSV")
    spec.set_defaults(run=cmd_spectrum)
    spec.add_argument("graph")
    spec.add_argument("--operator", default="adjacency")
    spec.add_argument("--tau", type=float)
    spec.add_argument("--seed", type=int, default=0)
    spec.add_argument("--vectors", action="store_true")
    spec.add_argument("--partition", action="store_true")

    part = sub.add_parser("partition", help="print WL classes and quotient")
    part.set_defaults(run=cmd_partition)
    part.add_argument("graph")
    part.add_argument("--seed", type=int, default=0)
    return p


def _config_from_args(args) -> RunConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
        unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(
                f"{args.config}: unknown config key {unknown[0]!r}")
        if "seeds" in data:
            data["seeds"] = tuple(data["seeds"])
    cfg = RunConfig(**data)
    # a flag left unset is None; --raw-features sets normalize_features
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if getattr(args, f.name) is not None}
    env_seed = os.environ.get("OVERSMOOTH_SEED")
    if env_seed is not None:
        updates["seeds"] = (int(env_seed),)
    return replace(cfg, **updates)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code
    try:
        return args.run(args)
    except (OversmoothError, ValueError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
