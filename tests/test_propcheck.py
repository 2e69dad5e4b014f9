"""Proposition checks: verdict logic, schedules and slope fitting."""

import json
import re

import numpy as np
import pytest

from oversmooth import cli, layers, partition
from oversmooth.errors import DomainError, PreconditionError
from oversmooth.graphio import (build_operator, gen_graph, load_graph,
                                make_graph)
from oversmooth.layers import LayerConfig, WeightSpec, run_trajectory
from oversmooth.metrics import all_ones_reference
from oversmooth.propcheck import (FAIL, INCONCLUSIVE, PASS, UNDEFINED,
                                  PropReport, build_tightness_schedule,
                                  check_prop1_residual_no_collapse,
                                  check_prop2_signal_retention,
                                  check_prop3_krylov_reachability,
                                  check_prop4_bn_no_collapse,
                                  check_prop5_topk_convergence,
                                  check_prop6_tightness,
                                  check_prop7_centering,
                                  check_vanilla_oversmoothing, fit_log_slope,
                                  identity_steps)
from oversmooth.spectral import numerical_rank, ones_complement_eig


def _unit_x0(n, k, seed=0):
    x0 = np.random.default_rng((seed, 202)).normal(size=(n, k))
    return x0 / np.linalg.norm(x0, axis=0)


def _read(g, kind="adjacency"):
    """The operator of this kind and its 1-complement system, as a
    verify run hands them to the checks of props 5 and 6."""
    a = build_operator(g, kind)
    return a, ones_complement_eig(a)


def test_fit_log_slope_exact_exponential():
    t = np.arange(100)
    vals = 3.0 * np.exp(-0.17 * t)
    assert abs(fit_log_slope(vals) - (-0.17)) < 1e-10


def test_fit_log_slope_ignores_noise_floor():
    t = np.arange(200)
    vals = np.maximum(np.exp(-0.3 * t), 1e-15)
    assert abs(fit_log_slope(vals) - (-0.3)) < 1e-6
    assert np.isnan(fit_log_slope(np.zeros(10)))


def test_prop_report_validation():
    with pytest.raises(DomainError):
        PropReport(proposition=1, verdict=PASS, trials=1, successes=2)
    rep = PropReport(proposition=1, verdict=PASS, trials=2, successes=2,
                     bound=0.9, evidence=(1.0, 2.0))
    j = rep.to_json()
    assert j["id"] == 1 and j["evidence"] == [1.0, 2.0]


def test_prop1_pass_and_precondition():
    g = gen_graph("er:40,0.2", seed=0, largest_cc=True)
    x0 = _unit_x0(g.n, 4)
    v = all_ones_reference(g.n)
    a = build_operator(g, "sym_normalized")
    rep = check_prop1_residual_no_collapse(a, x0, v, trials=10, steps=64)
    assert rep.verdict == PASS
    assert rep.successes >= 9
    collapsed = np.outer(v.v, np.ones(4))
    with pytest.raises(DomainError):
        check_prop1_residual_no_collapse(a, collapsed, v, trials=1)
    rep0 = check_prop1_residual_no_collapse(a, x0, v, trials=0)
    assert rep0.verdict == UNDEFINED and rep0.trials == 0


def test_prop2_bound_and_degenerate_cases():
    g = gen_graph("er:40,0.2", seed=1, largest_cc=True)
    x0 = _unit_x0(g.n, 4, seed=1)
    a = build_operator(g, "sym_normalized")
    eps = 0.5 * np.sqrt(2.0 * np.log(2.0))  # p = 0.5 at alpha=0.5, s=1
    rep = check_prop2_signal_retention(a, x0, 0.5, 1.0, eps, trials=60,
                                       seed=1)
    assert rep.verdict == PASS
    assert abs(rep.bound - 0.5) < 1e-12
    # s=0 with identity weights: deterministic, frequency 1
    rep0 = check_prop2_signal_retention(a, x0, 0.5, 0.0, 0.4, trials=10)
    assert rep0.verdict == PASS and rep0.successes == 10
    assert rep0.bound == 1.0
    assert check_prop2_signal_retention(a, x0, 0.5, 1.0, eps,
                                        trials=0).verdict == UNDEFINED
    with pytest.raises(DomainError):
        check_prop2_signal_retention(a, 2.0 * x0, 0.5, 1.0, eps, trials=1)


def _prop3(g, x0):
    return check_prop3_krylov_reachability(build_operator(g, "adjacency"), x0)


def test_prop3_path4_passes():
    rep = _prop3(gen_graph("path:4"), _unit_x0(4, 2, seed=2))
    assert rep.verdict == PASS
    assert rep.successes == rep.trials > 0
    assert "Kr closes at depth D=2 with r=4" in rep.notes


def test_prop3_forward_path3_e1_to_e3():
    # Kr(A, e1) = R^3, reached at depth 3, where the targets have an e3
    # part
    rep = _prop3(gen_graph("path:3"), np.eye(3)[:, :1])
    assert rep.verdict == PASS
    assert "Kr closes at depth D=3 with r=3" in rep.notes
    assert max(rep.evidence) <= 1e-6


def test_prop3_converse_identity_operator():
    # self-loop graph: A = I, so Kr(A, x0) = colspace(x0), a proper
    # subspace that random schedules never leave
    g = make_graph(4, [(i, i, 1.0) for i in range(4)])
    rep = _prop3(g, np.eye(4)[:, :2])
    assert rep.verdict == PASS
    assert "Kr closes at depth D=1 with r=2" in rep.notes
    # one forward depth, one converse step
    assert rep.trials == 2
    assert rep.evidence[1] <= 1e-8


def _verify_inputs(seed):
    g = load_graph("er:100,0.1", seed=seed, largest_cc=True)
    return (build_operator(g, "adjacency"),
            cli._initial_features(g, 4, (seed, 202), True))


@pytest.mark.parametrize("seed", [0, 1])
def test_prop3_decides_up_to_its_horizon(seed):
    # the depth-25 expansion is beyond float64; every depth below the
    # horizon passes, and the space is not closed there
    a, x0 = _verify_inputs(seed)
    rep = check_prop3_krylov_reachability(a, x0, seed=seed)
    d_f = int(re.search(r"d_f=(\d+)", rep.notes).group(1))
    cond = float(re.search(rf"cond at depth {d_f + 1} (\S+);",
                           rep.notes).group(1))
    assert rep.verdict == INCONCLUSIVE
    assert 10 <= d_f < 25 and cond * np.finfo(float).eps > 1e-6
    assert rep.successes == rep.trials == 2 * d_f


def _x_for_x0(x0, cfg, normalize):
    """A residual step that injects the current X where X0 belongs."""
    def step(x, ax, y, w1, w2):
        layers._xw(ax, w1, y)
        y *= 1.0 - cfg.alpha
        layers._xw(x, w2, ax)
        ax *= cfg.alpha
        y += ax
        return {}
    return step


def _leaking(x0, cfg, normalize):
    """The residual step plus 1e-6 of its largest entry on node 0,
    outside Kr."""
    step = layers._residual(x0, cfg, normalize)

    def leak(x, ax, y, w1, w2):
        faults = step(x, ax, y, w1, w2)
        y[0] += 1e-6 * np.abs(y).max()
        return faults
    return leak


def test_prop3_fails_a_step_that_injects_x_for_x0(monkeypatch):
    monkeypatch.setitem(layers._STEPS, "residual", (_x_for_x0, None, 2))
    rep = check_prop3_krylov_reachability(*_verify_inputs(0))
    # depth 1 starts from X0 itself, so the first miss is depth 2
    assert rep.verdict == FAIL
    assert "forward fails at depth 2" in rep.notes


def test_prop3_converse_fails_a_step_that_leaks_outside_kr(monkeypatch):
    monkeypatch.setitem(layers._STEPS, "residual", (_leaking, None, 2))
    rep = check_prop3_krylov_reachability(*_verify_inputs(0))
    assert rep.verdict == FAIL
    assert "converse fails at step 1" in rep.notes


def test_prop3_no_decided_depth_is_inconclusive():
    # unit columns u and (u + d v)/|.|, u orthogonal to v: cond = 2/d =
    # 6.7e9, over 1e-6/eps, with sigma_2 kept (above 1e-10 sigma_1)
    g = gen_graph("path:5")
    x0 = np.zeros((5, 2))
    x0[0], x0[1, 1] = 1.0, 3e-10
    x0 /= np.linalg.norm(x0, axis=0)
    rep = _prop3(g, x0)
    assert rep.verdict == INCONCLUSIVE
    assert rep.trials == rep.successes == 0
    assert rep.notes.startswith("decided to depth d_f=0; cond at depth 1 ")


def test_prop4_pass_and_rank_precondition():
    g = gen_graph("er:40,0.2", seed=3, largest_cc=True)
    x0 = _unit_x0(g.n, 4, seed=3)
    v = all_ones_reference(g.n)
    a = build_operator(g, "sym_normalized")
    rep = check_prop4_bn_no_collapse(a, x0, v, trials=5, steps=64, seed=3)
    assert rep.verdict == PASS and rep.successes == 5
    assert rep.bound >= 4 * (v.v @ np.ones(g.n) / np.sqrt(g.n)) ** 2 * 0.999
    rank1 = np.tile(x0[:, :1], (1, 4))
    with pytest.raises(DomainError):
        check_prop4_bn_no_collapse(a, rank1, v, trials=1)
    rep0 = check_prop4_bn_no_collapse(a, x0, v, trials=0)
    assert rep0.verdict == UNDEFINED and rep0.trials == 0
    assert rep0.bound == rep.bound


def _prop4_precondition_holds(a, x0):
    try:
        check_prop4_bn_no_collapse(a, x0, all_ones_reference(a.n), trials=0)
    except PreconditionError:
        return False
    return True


# prop 4's rank(P A P x0), P = I - 11^T/n, is the rank of x0 on the
# nonzero pairs of the 1-complement system
@pytest.mark.parametrize("spec", ["er:100,0.1", "star:16", "path:7",
                                  "cycle:12", "reg:20,3", "path:5",
                                  "sbm:60+40,0.2,0.05"])
def test_prop4_rank_is_the_complement_systems_rank(spec):
    for seed in range(4):
        g = load_graph(spec, seed=seed, largest_cc=True)
        a = build_operator(g, "sym_normalized")
        es = ones_complement_eig(a)
        scale = max(1.0, float(np.abs(es.values).max()))
        v_nz = es.vectors[:, np.abs(es.values) > 1e-10 * scale]
        for k in range(1, 5):
            x0 = _unit_x0(g.n, k, seed=seed)
            # a constant column reaches no centred pair, though A x0's is
            # not constant on an irregular graph
            flat = x0.copy()
            flat[:, 0] = 1.0 / np.sqrt(g.n)
            for x in (x0, flat):
                expected = numerical_rank(v_nz.T @ x) >= 2
                assert _prop4_precondition_holds(a, x) == expected, (seed, k)


def test_prop5_star8_k2_decay_rate():
    g = gen_graph("star:8")
    x0 = _unit_x0(8, 2, seed=4)
    trace = check_prop5_topk_convergence(*_read(g), x0, 2, steps=128, seed=4)
    # star's centered adjacency has one nonzero eigenvalue: |l_2|=0 at
    # k=2, so the gap check declares the run inconclusive, never fail
    assert trace.verdict == INCONCLUSIVE


@pytest.mark.parametrize("spec, k", [("star:16", 1), ("path:3", 1),
                                     ("path:7", 5)])
def test_prop5_zero_next_eigenvalue_decides_on_distance(spec, k):
    # |l_{k+1}| of the centered operator is zero: the nu_{k+1} trace is
    # rounding noise, so no slope can meet log(|l_{k+1}|/|l_k|)
    g = gen_graph(spec)
    x0 = _unit_x0(g.n, k, seed=0)
    trace = check_prop5_topk_convergence(*_read(g), x0, k, seed=0)
    assert trace.verdict == PASS
    assert np.isnan(trace.target_rate)
    assert trace.slopes == {k + 1: None}
    assert "numerically zero" in trace.notes


def test_prop5_er_pass_and_rank_precondition():
    # seed picked for a wide |l_4|/|l_3| gap so 256 steps clear 1e-6
    g = gen_graph("er:40,0.25", seed=3, largest_cc=True)
    x0 = _unit_x0(g.n, 3, seed=3)
    a, es = _read(g)
    trace = check_prop5_topk_convergence(a, es, x0, 3, steps=256, seed=3)
    assert trace.verdict == PASS
    assert trace.slopes[4] <= trace.target_rate + 0.05
    collapsed = np.tile(es.vectors[:, :1], (1, 3))
    with pytest.raises(DomainError):
        check_prop5_topk_convergence(a, es, collapsed, 3)
    with pytest.raises(DomainError):
        check_prop5_topk_convergence(a, es, x0, g.n)


def test_prop6_schedule_replay_and_pass():
    g = gen_graph("er:40,0.25", seed=3, largest_cc=True)
    x0 = _unit_x0(g.n, 3, seed=3)
    a, es = _read(g)
    rep = check_prop6_tightness(a, es, x0, 3, eps=0.05, seed=3)
    assert rep.verdict == PASS
    assert min(rep.evidence) >= 1.0 / np.sqrt(1.05)
    weights, t_total, c = build_tightness_schedule(a, es, x0, 3, 0.05)
    # each elimination step leaves exact zeros off the diagonal of its row
    assert np.array_equal(c[:3] == 0, ~np.eye(3, dtype=bool))
    # the eigen-coordinate schedule matches the generic runner in n-space
    # over all of its T steps, which the check's replay covers here
    cfg = LayerConfig(variant="batchnorm", weight_spec=WeightSpec(
        mode="explicit", matrices=(*weights, *[np.eye(3)] * (t_total - 3))))
    log = run_trajectory(a, x0, cfg, t_total, np.random.default_rng(0))
    want = es.vectors @ identity_steps(es.values, c, t_total - 3)
    assert np.linalg.norm(log.final - want) <= 1e-10
    # the reported overlaps are those of step T
    got = np.abs(np.diag(es.vectors[:, :3].T @ log.final))
    assert np.abs(np.array(rep.evidence) - got).max() <= 1e-10
    assert rep.notes.startswith(f"T={t_total}, t_f={t_total - 3}, ")
    assert rep.notes.endswith(f" after all {t_total} steps")


def _verify_prop6(capsys, graph, seed):
    code = cli.main(["verify", "--props", "6", "--graph", graph,
                     "--seed", str(seed)])
    return code, json.loads(capsys.readouterr().out)[0]


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_prop6_passes_where_n_space_rounding_used_to_fail(capsys, seed):
    # verify's setting, k = 4 and eps = 0.01: an n-space run of the
    # whole schedule loses column 4 (and 3) to rounding reinjected on
    # nu_1..nu_3 long before T on these seeds
    code, rep = _verify_prop6(capsys, "er:100,0.1", seed)
    assert (code, rep["verdict"], rep["successes"]) == (0, PASS, 4)
    assert min(rep["evidence"]) >= 1.0 / np.sqrt(1.01)


def test_prop6_replay_stops_at_its_float64_horizon(capsys):
    _, rep = _verify_prop6(capsys, "er:100,0.1", 0)
    t_total, t_f = map(int, re.match(r"T=(\d+), t_f=(\d+), ",
                                     rep["notes"]).groups())
    assert 4 + t_f < t_total
    assert rep["notes"].endswith(
        f" after {4 + t_f} of {t_total} steps (float64 horizon)")
    # rounding n u grown by |l_1 / l_4| per step stays within 1e-10
    # for t_f steps, and not for one more
    g = gen_graph("er:100,0.1", seed=0, largest_cc=True)
    absl = np.abs(_read(g)[1].values)
    grown = g.n * np.finfo(float).eps * (absl[0] / absl[3]) ** np.array(
        [t_f, t_f + 1])
    assert grown[0] <= 1e-10 < grown[1]


def test_prop6_fails_when_the_layer_step_is_wrong(monkeypatch):
    # BatchNorm columns of norm 2, through the BatchNorm row of the
    # step table: the schedule's own normalisation does not share the
    # layer code, so the replay gap shows the fault
    def doubled(y, s, x):
        num, den, ref, why = layers._bn(y, s, x)
        return num, den / 2.0, ref, why

    factory, _, n_weights = layers._STEPS["batchnorm"]
    monkeypatch.setitem(layers._STEPS, "batchnorm",
                        (factory, lambda cfg: doubled, n_weights))
    g = gen_graph("er:40,0.25", seed=3, largest_cc=True)
    rep = check_prop6_tightness(*_read(g), _unit_x0(g.n, 3, seed=3), 3,
                                eps=0.05, seed=3)
    assert rep.verdict == FAIL
    assert min(rep.evidence) >= 1.0 / np.sqrt(1.05)
    gap = float(re.search(r"replay gap (\S+) ", rep.notes).group(1))
    assert gap > 1.0


def test_prop6_rejects_k_outside_range():
    g = gen_graph("er:30,0.3", seed=6, largest_cc=True)
    x0 = _unit_x0(g.n, 2, seed=6)
    a, es = _read(g)
    for k in (0, g.n - 1):
        with pytest.raises(DomainError):
            check_prop6_tightness(a, es, x0, k, eps=0.01)


def test_prop6_k1_power_iteration():
    g = gen_graph("er:30,0.3", seed=6, largest_cc=True)
    x0 = _unit_x0(g.n, 1, seed=6)
    rep = check_prop6_tightness(*_read(g), x0, 1, eps=0.01, seed=6)
    assert rep.verdict == PASS


def test_prop6_degenerate_gap_inconclusive():
    # Star(16): single nonzero centered eigenvalue, so |l_4| = 0
    g = gen_graph("star:16")
    x0 = _unit_x0(16, 4, seed=7)
    rep = check_prop6_tightness(*_read(g), x0, 4, eps=0.01)
    assert rep.verdict == INCONCLUSIVE


def _prop7(g, tau=1.0):
    """Prop 7 on g's adjacency operator, as a verify run hands it over."""
    return check_prop7_centering(g, build_operator(g, "adjacency"), tau)


def test_prop7_star_cycle_edgeless():
    assert _prop7(gen_graph("star:4")).verdict == PASS
    rep = _prop7(gen_graph("cycle:4"))
    assert rep.verdict == PASS
    assert "regular" in rep.notes
    assert _prop7(make_graph(3, [])).verdict == INCONCLUSIVE


@pytest.mark.parametrize("spec, trials", [("star:16", 3), ("cycle:12", 2),
                                          ("path:7", 3)])
def test_prop7_counts_claim1_where_rest_pairs_exist(spec, trials):
    rep = _prop7(gen_graph(spec))
    assert (rep.verdict, rep.trials, rep.successes) == (PASS, trials, trials)
    assert rep.notes.startswith("rest residual")


def test_prop7_leaves_out_claim1_on_a_discrete_partition():
    g = gen_graph("er:100,0.1", seed=0)
    assert partition.wl_refine(g).m == g.n
    rep = _prop7(g)
    assert (rep.verdict, rep.trials, rep.successes) == (PASS, 2, 2)
    assert "rest residual" not in rep.notes
    assert rep.notes.endswith("; no rest pairs: the WL partition is discrete")
    # the evidence keeps its order: rest, rayleigh residual, trace gap
    assert rep.evidence[0] == 0.0
    assert rep.evidence[2] == pytest.approx(2 * g.num_edges / g.n)


def test_prop7_fails_a_centring_that_moves_rest_pairs(monkeypatch):
    # e_1 - e_2 lies in star:16's rest eigenspace (sum zero on the
    # leaves, zero at the hub); a centring that adds a rank-one term
    # along it keeps claims 2 and 3 but moves every generic rest vector
    g = gen_graph("star:16")
    r = np.zeros(g.n)
    r[1], r[2] = 1.0, -1.0
    product = partition.centred_product
    monkeypatch.setattr(
        partition, "centred_product",
        lambda a, tau, v: product(a, tau, v) + 1e-3 * np.outer(r, r @ v))
    rep = _prop7(g)
    assert (rep.verdict, rep.trials, rep.successes) == (FAIL, 3, 2)
    assert rep.evidence[0] > 1e-6


def test_vanilla_oversmoothing_check():
    g = gen_graph("er:40,0.25", seed=8, largest_cc=True)
    x0 = _unit_x0(g.n, 8, seed=8)
    trace = check_vanilla_oversmoothing(g, x0, steps=192, seed=8)
    assert trace.verdict == PASS
    assert trace.slopes[2] < 0
    with pytest.raises(DomainError):
        check_vanilla_oversmoothing(make_graph(4, [(0, 1, 1.0),
                                                   (2, 3, 1.0)]), x0[:4])


def test_checks_registry():
    # verify's table holds every proposition
    assert sorted(cli._VERIFY) == [1, 2, 3, 4, 5, 6, 7]
