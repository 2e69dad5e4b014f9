"""Proposition checks: verdict logic, schedules and slope fitting."""

import numpy as np
import pytest

from oversmooth import cli
from oversmooth.errors import DomainError
from oversmooth.graphio import build_operator, gen_graph, make_graph
from oversmooth.layers import LayerConfig, WeightSpec, run_trajectory
from oversmooth.metrics import all_ones_reference
from oversmooth.propcheck import (INCONCLUSIVE, PASS, UNDEFINED, PropReport,
                                  build_tightness_schedule,
                                  check_prop1_residual_no_collapse,
                                  check_prop2_signal_retention,
                                  check_prop3_krylov_reachability,
                                  check_prop4_bn_no_collapse,
                                  check_prop5_topk_convergence,
                                  check_prop6_tightness,
                                  check_prop7_centering,
                                  check_vanilla_oversmoothing, fit_log_slope)
from oversmooth.spectral import centered_eig, krylov_basis


def _unit_x0(n, k, seed=0):
    x0 = np.random.default_rng((seed, 202)).normal(size=(n, k))
    return x0 / np.linalg.norm(x0, axis=0)


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
    rep = check_prop1_residual_no_collapse(g, x0, v, trials=10, steps=64)
    assert rep.verdict == PASS
    assert rep.successes >= 9
    collapsed = np.outer(v.v, np.ones(4))
    with pytest.raises(DomainError):
        check_prop1_residual_no_collapse(g, collapsed, v, trials=1)
    rep0 = check_prop1_residual_no_collapse(g, x0, v, trials=0)
    assert rep0.verdict == UNDEFINED and rep0.trials == 0


def test_prop2_bound_and_degenerate_cases():
    g = gen_graph("er:40,0.2", seed=1, largest_cc=True)
    x0 = _unit_x0(g.n, 4, seed=1)
    eps = 0.5 * np.sqrt(2.0 * np.log(2.0))  # p = 0.5 at alpha=0.5, s=1
    rep = check_prop2_signal_retention(g, x0, 0.5, 1.0, eps, trials=60,
                                       seed=1)
    assert rep.verdict == PASS
    assert abs(rep.bound - 0.5) < 1e-12
    # s=0 with identity weights: deterministic, frequency 1
    rep0 = check_prop2_signal_retention(g, x0, 0.5, 0.0, 0.4, trials=10)
    assert rep0.verdict == PASS and rep0.successes == 10
    assert rep0.bound == 1.0
    assert check_prop2_signal_retention(g, x0, 0.5, 1.0, eps,
                                        trials=0).verdict == UNDEFINED
    with pytest.raises(DomainError):
        check_prop2_signal_retention(g, 2.0 * x0, 0.5, 1.0, eps, trials=1)


def _krylov(g, x0):
    return krylov_basis(build_operator(g, "adjacency"), x0)


def test_prop3_forward_trivial_y_is_x0():
    g = gen_graph("path:4")
    x0 = _unit_x0(4, 2, seed=2)
    # y = 0.5 * A^0 x0 is the i=1 Krylov term
    rep = check_prop3_krylov_reachability(g, x0, x0.copy(),
                                          _krylov(g, x0))
    assert rep.verdict == PASS
    assert rep.evidence[0] <= 1e-6 * np.linalg.norm(x0)


def test_prop3_forward_path3_e1_to_e3():
    g = gen_graph("path:3")
    x0 = np.eye(3)[:, :1]
    y = np.eye(3)[:, 2:]
    rep = check_prop3_krylov_reachability(g, x0, y, _krylov(g, x0))
    assert rep.verdict == PASS
    assert "forward" in rep.notes


def test_prop3_converse_identity_operator():
    # self-loop graph: A = I, so Kr(A, x0) = colspace(x0)
    g = make_graph(4, [(i, i, 1.0) for i in range(4)])
    x0 = np.eye(4)[:, :2]
    y = np.zeros((4, 2))
    y[:, 0] = np.eye(4)[:, 2] * 0.8 + x0[:, 0] * 0.1
    y[:, 1] = x0[:, 1]
    rep = check_prop3_krylov_reachability(g, x0, y, _krylov(g, x0))
    assert rep.verdict == PASS
    assert "converse" in rep.notes
    assert abs(rep.bound - 0.8) < 1e-10
    assert all(d >= 0.8 - 1e-8 for d in rep.evidence)


def test_prop4_pass_and_rank_precondition():
    g = gen_graph("er:40,0.2", seed=3, largest_cc=True)
    x0 = _unit_x0(g.n, 4, seed=3)
    v = all_ones_reference(g.n)
    rep = check_prop4_bn_no_collapse(g, x0, v, trials=5, steps=64, seed=3)
    assert rep.verdict == PASS and rep.successes == 5
    assert rep.bound >= 4 * (v.v @ np.ones(g.n) / np.sqrt(g.n)) ** 2 * 0.999
    rank1 = np.tile(x0[:, :1], (1, 4))
    with pytest.raises(DomainError):
        check_prop4_bn_no_collapse(g, rank1, v, trials=1)
    rep0 = check_prop4_bn_no_collapse(g, x0, v, trials=0)
    assert rep0.verdict == UNDEFINED and rep0.trials == 0
    assert rep0.bound == rep.bound


def test_prop5_star8_k2_decay_rate():
    g = gen_graph("star:8")
    x0 = _unit_x0(8, 2, seed=4)
    trace = check_prop5_topk_convergence(g, x0, 2, steps=128, seed=4)
    # star's centered adjacency has one nonzero eigenvalue: |l_2|=0 at
    # k=2, so the gap check declares the run inconclusive, never fail
    assert trace.verdict == INCONCLUSIVE


def test_prop5_er_pass_and_rank_precondition():
    # seed picked for a wide |l_4|/|l_3| gap so 256 steps clear 1e-6
    g = gen_graph("er:40,0.25", seed=3, largest_cc=True)
    x0 = _unit_x0(g.n, 3, seed=3)
    trace = check_prop5_topk_convergence(g, x0, 3, steps=256, seed=3)
    assert trace.verdict == PASS
    assert trace.slopes[4] <= trace.target_rate + 0.05
    es = centered_eig(build_operator(g, "adjacency"), 1.0)
    collapsed = np.tile(es.vectors[:, :1], (1, 3))
    with pytest.raises(DomainError):
        check_prop5_topk_convergence(g, collapsed, 3)
    with pytest.raises(DomainError):
        check_prop5_topk_convergence(g, x0, g.n)


def test_prop6_schedule_replay_and_pass():
    g = gen_graph("er:40,0.25", seed=3, largest_cc=True)
    x0 = _unit_x0(g.n, 3, seed=3)
    rep = check_prop6_tightness(g, x0, 3, eps=0.05, seed=3)
    assert rep.verdict == PASS
    assert min(rep.evidence) >= 1.0 / np.sqrt(1.05)
    # the schedule replays bit-consistently through the generic runner
    a = build_operator(g, "adjacency")
    weights, t_total, x_final = build_tightness_schedule(a, x0, 3, 0.05)
    cfg = LayerConfig(variant="batchnorm",
                      weight_spec=WeightSpec(mode="explicit",
                                             matrices=tuple(weights)))
    log = run_trajectory(a, x0, cfg, t_total, np.random.default_rng(0))
    assert np.linalg.norm(log.final - x_final) <= 1e-10


def test_prop6_rejects_k_outside_range():
    g = gen_graph("er:30,0.3", seed=6, largest_cc=True)
    x0 = _unit_x0(g.n, 2, seed=6)
    for k in (0, g.n - 1):
        with pytest.raises(DomainError):
            check_prop6_tightness(g, x0, k, eps=0.01)


def test_prop6_k1_power_iteration():
    g = gen_graph("er:30,0.3", seed=6, largest_cc=True)
    x0 = _unit_x0(g.n, 1, seed=6)
    rep = check_prop6_tightness(g, x0, 1, eps=0.01, seed=6)
    assert rep.verdict == PASS


def test_prop6_degenerate_gap_inconclusive():
    # Star(16): single nonzero centered eigenvalue, so |l_4| = 0
    g = gen_graph("star:16")
    x0 = _unit_x0(16, 4, seed=7)
    rep = check_prop6_tightness(g, x0, 4, eps=0.01)
    assert rep.verdict == INCONCLUSIVE


def test_prop7_star_cycle_edgeless():
    assert check_prop7_centering(gen_graph("star:4"), 1.0).verdict == PASS
    rep = check_prop7_centering(gen_graph("cycle:4"), 1.0)
    assert rep.verdict == PASS
    assert "regular" in rep.notes
    assert check_prop7_centering(make_graph(3, []), 1.0).verdict == \
        INCONCLUSIVE


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
