"""Layer forward dynamics, normalizations and trajectory running."""

import numpy as np
import pytest

from oversmooth.errors import (ContractError, DegenerateColumnError,
                               DomainError)
from oversmooth.graphio import build_operator, gen_graph, make_graph
from oversmooth.layers import (VARIANTS, LayerConfig, WeightSpec, batch_norm,
                               bn_emulating_tau, build_norm_context,
                               graph_norm, graph_norm_v2, pair_norm,
                               power_embed_step, run_trajectory,
                               sample_weight, step_residual, step_vanilla)
from oversmooth.spectral import symmetric_eig


def _identity_op(n):
    return build_operator(make_graph(n, [(i, i, 1.0) for i in range(n)]),
                          "adjacency")


# ------------------------------------------------------------- weights

def test_sample_weight_identity_and_zero():
    rng = np.random.default_rng(0)
    assert np.array_equal(
        sample_weight(WeightSpec(mode="identity"), (3, 3), rng), np.eye(3))
    assert np.array_equal(
        sample_weight(WeightSpec(std=0.0), (3, 3), rng), np.zeros((3, 3)))


def test_sample_weight_gaussian_statistics():
    rng = np.random.default_rng(1)
    draws = np.concatenate([
        sample_weight(WeightSpec(std=1.0), (10, 10), rng).ravel()
        for _ in range(100)])
    assert abs(draws.mean()) < 4.0 / np.sqrt(draws.size)
    assert abs(draws.std() - 1.0) < 0.05


def test_sample_weight_explicit():
    mats = (np.eye(2), 2 * np.eye(2))
    spec = WeightSpec(mode="explicit", matrices=mats)
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_weight(spec, (2, 2), rng, step=1),
                          2 * np.eye(2))
    with pytest.raises(DomainError):
        sample_weight(spec, (2, 2), rng, step=2)
    with pytest.raises(ContractError):
        sample_weight(spec, (3, 3), rng, step=0)
    with pytest.raises(DomainError):
        WeightSpec(mode="explicit")
    with pytest.raises(DomainError):
        WeightSpec(mode="nope")
    with pytest.raises(DomainError):
        WeightSpec(std=-1.0)


# --------------------------------------------------------------- steps

def test_step_vanilla_identity():
    a = _identity_op(3)
    x = np.random.default_rng(0).normal(size=(3, 2))
    assert np.array_equal(step_vanilla(a, x, np.eye(2)), x)


def test_step_vanilla_eigenvector():
    a = build_operator(gen_graph("star:4"), "adjacency")
    es = symmetric_eig(a)
    nu = es.vectors[:, :1]
    out = step_vanilla(a, nu, np.eye(1))
    assert np.abs(out - es.values[0] * nu).max() < 1e-12


def test_step_vanilla_relu_and_shapes():
    a = _identity_op(2)
    x = np.array([[1.0], [-2.0]])
    assert np.array_equal(step_vanilla(a, x, np.eye(1), nl="relu"),
                          np.array([[1.0], [0.0]]))
    with pytest.raises(ContractError):
        step_vanilla(a, np.zeros((3, 1)), np.eye(1))


def test_step_residual_midpoint():
    a = _identity_op(3)
    x = np.random.default_rng(2).normal(size=(3, 2))
    x0 = np.random.default_rng(3).normal(size=(3, 2))
    out = step_residual(a, x, x0, np.eye(2), np.eye(2), alpha=0.5)
    assert np.abs(out - (0.5 * x + 0.5 * x0)).max() < 1e-14


def test_step_residual_w1_zero():
    a = build_operator(gen_graph("path:4"), "adjacency")
    x = np.random.default_rng(4).normal(size=(4, 2))
    x0 = np.random.default_rng(5).normal(size=(4, 2))
    w2 = np.random.default_rng(6).normal(size=(2, 2))
    out = step_residual(a, x, x0, np.zeros((2, 2)), w2, alpha=0.3)
    assert np.abs(out - 0.3 * (x0 @ w2)).max() < 1e-14
    with pytest.raises(DomainError):
        step_residual(a, x, x0, w2, w2, alpha=1.0)


def test_residual_appnp_fixed_point():
    # identity weights, alpha=0.2: iteration converges to
    # alpha (I - (1-alpha) A)^{-1} X0
    g = gen_graph("er:40,0.2", seed=7, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    n = a.n
    x0 = np.random.default_rng(7).normal(size=(n, 3))
    alpha = 0.2
    cfg = LayerConfig(variant="residual", alpha=alpha,
                      weight_spec=WeightSpec(mode="identity"))
    log = run_trajectory(a, x0, cfg, 200, np.random.default_rng(0))
    star = alpha * np.linalg.solve(np.eye(n) - (1 - alpha) * a.data, x0)
    assert np.abs(log.final - star).max() < 1e-6


# ------------------------------------------------------------ batch norm

def test_batch_norm_golden():
    out = batch_norm(np.array([[1.0], [2.0], [3.0]]))
    want = np.array([[-1.0], [0.0], [1.0]]) / np.sqrt(2.0)
    assert np.abs(out - want).max() < 1e-14


def test_batch_norm_idempotent_on_centered_unit():
    x = np.array([[-1.0], [0.0], [1.0]]) / np.sqrt(2.0)
    assert np.abs(batch_norm(x) - x).max() < 1e-14


def test_batch_norm_postconditions_and_error():
    x = np.random.default_rng(8).normal(size=(10, 4))
    out = batch_norm(x)
    assert np.abs(out.sum(axis=0)).max() < 1e-10
    assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-10
    with pytest.raises(DegenerateColumnError):
        batch_norm(np.full((3, 1), 5.0))


def test_overflowed_norm_is_reported_as_overflow():
    # the centred norms and the reference norms are both inf here, so a
    # relative zero test alone would call column 0 a zero vector
    x = np.array([[1e155, 0.0], [-1e155, 1.0], [3e154, 2.0]])
    for normalize in (batch_norm, lambda y: graph_norm(y, np.ones(2)),
                      pair_norm):
        with pytest.raises(DegenerateColumnError, match="overflow") as exc:
            normalize(x)
        assert exc.value.column == 0


def test_batch_norm_invariance_shift_scale():
    x = np.random.default_rng(9).normal(size=(8, 3))
    shifted = x + 7.0
    scaled = 3.0 * x
    assert np.abs(batch_norm(x) - batch_norm(shifted)).max() < 1e-10
    assert np.abs(batch_norm(x) - batch_norm(scaled)).max() < 1e-12


# ------------------------------------------------------------ graph norm

def test_graph_norm_tau1_matches_batch_norm():
    x = np.random.default_rng(10).normal(size=(9, 4))
    n = x.shape[0]
    out = graph_norm(x, tau=np.ones(4)) / np.sqrt(n)
    assert np.abs(out - batch_norm(x)).max() < 1e-12


def test_graph_norm_tau_half_golden():
    # column (2,0): mean 1, subtract 0.5 -> (1.5,-0.5); sigma=sqrt(1.25)
    out = graph_norm(np.array([[2.0], [0.0]]), tau=np.array([0.5]))
    want = np.array([[1.5], [-0.5]]) / np.sqrt(1.25)
    assert np.abs(out - want).max() < 1e-14


def test_graph_norm_tau0_centered_input():
    x = np.array([[-1.0], [0.0], [1.0]]) / np.sqrt(2.0)
    n = 3
    out = graph_norm(x, tau=np.zeros(1)) / np.sqrt(n)
    assert np.abs(out - x).max() < 1e-12


# --------------------------------------------------------- graph norm v2

def _gnv2_fixture(spec="er:12,0.4", k=2, seed=11):
    g = gen_graph(spec, seed=seed, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    ctx = build_norm_context(a, k)
    return a, ctx


def test_norm_context_orthonormal():
    a, ctx = _gnv2_fixture()
    gram = ctx.vkplus.T @ ctx.vkplus
    assert np.abs(gram - np.eye(ctx.k + 1)).max() < 1e-8
    with pytest.raises(DomainError):
        build_norm_context(a, a.n)


def test_bn_emulating_tau_reconstructs_ones():
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    tau = bn_emulating_tau(ctx)
    recon = ctx.vkplus @ tau
    assert np.abs(recon - np.ones(n) / np.sqrt(n)).max() < 1e-10


def test_gnv2_bn_emulating_matches_batch_norm_direction():
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    x = np.random.default_rng(12).normal(size=(n, 3))
    tau = np.tile(bn_emulating_tau(ctx)[:, None], (1, 3))
    out = graph_norm_v2(x, ctx, tau)
    bn = batch_norm(x)
    # same direction, sigma convention differs by a scale per column
    for j in range(3):
        cos = out[:, j] @ bn[:, j] / (np.linalg.norm(out[:, j])
                                      * np.linalg.norm(bn[:, j]))
        assert cos >= 1.0 - 1e-10


def test_gnv2_tau_zero_is_pure_scaling():
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    x = np.random.default_rng(13).normal(size=(n, 2))
    tau = np.zeros((ctx.k + 1, 2))
    out = graph_norm_v2(x, ctx, tau)
    assert np.abs(out - x / np.linalg.norm(x, axis=0)).max() < 1e-12


def test_gnv2_orthogonal_input_unchanged_before_scaling():
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    rng = np.random.default_rng(14)
    tau = rng.normal(size=(ctx.k + 1, 1))
    # build x orthogonal to V_{k+} tau
    direction = ctx.vkplus @ tau[:, 0]
    x = rng.normal(size=(n, 1))
    x -= np.outer(direction, direction @ x) / (direction @ direction)
    out = graph_norm_v2(x, ctx, tau)
    assert np.abs(out - x / np.linalg.norm(x)).max() < 1e-10


def test_gnv2_projector_idempotent():
    a, ctx = _gnv2_fixture()
    p = ctx.vkplus @ ctx.vkplus.T
    assert np.abs(p @ p - p).max() < 1e-10


def test_gnv2_tau_shape_checked():
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    with pytest.raises(ContractError):
        graph_norm_v2(np.ones((n, 2)), ctx, np.zeros((ctx.k + 1, 3)))


# ------------------------------------------------------------- pair norm

def test_pair_norm_postconditions():
    x = np.random.default_rng(15).normal(size=(7, 3))
    for s in (1.0, 2.5):
        out = pair_norm(x, s=s)
        assert abs(np.linalg.norm(out) - s * np.sqrt(7)) < 1e-10
        assert np.abs(out.mean(axis=0)).max() < 1e-10


def test_pair_norm_fixed_point_and_error():
    x = np.random.default_rng(16).normal(size=(5, 2))
    x -= x.mean(axis=0)
    x *= np.sqrt(5) / np.linalg.norm(x)
    assert np.abs(pair_norm(x, s=1.0) - x).max() < 1e-12
    with pytest.raises(DegenerateColumnError):
        pair_norm(np.ones((4, 2)))


# ----------------------------------------------------------- power embed

def test_power_embed_unit_columns_and_identity():
    a = _identity_op(4)
    x = np.random.default_rng(17).normal(size=(4, 2))
    x /= np.linalg.norm(x, axis=0)
    out = power_embed_step(a, x, np.eye(2))
    assert np.abs(out - x).max() < 1e-12
    assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-12


def test_power_embed_power_iteration():
    g = gen_graph("er:30,0.3", seed=18, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    es = symmetric_eig(a)
    x = np.random.default_rng(18).normal(size=(a.n, 1))
    x /= np.linalg.norm(x)
    cfg = LayerConfig(variant="powerembed",
                      weight_spec=WeightSpec(mode="identity"))
    log = run_trajectory(a, x, cfg, 200, np.random.default_rng(0))
    v = es.vectors[:, 0]
    resid = min(np.linalg.norm(log.final[:, 0] - v),
                np.linalg.norm(log.final[:, 0] + v))
    assert resid <= 1e-6


# ----------------------------------------------------------- trajectories

def test_run_trajectory_single_step_matches_vanilla():
    a = build_operator(gen_graph("path:4"), "adjacency")
    x0 = np.random.default_rng(19).normal(size=(4, 2))
    cfg = LayerConfig(variant="vanilla",
                      weight_spec=WeightSpec(mode="identity"))
    log = run_trajectory(a, x0, cfg, 1, np.random.default_rng(0),
                         observer=lambda t, x: x.copy())
    assert len(log) == 1
    assert np.abs(log.final - step_vanilla(a, x0, np.eye(2))).max() < 1e-14


def test_run_trajectory_deterministic():
    a = build_operator(gen_graph("er:15,0.3", seed=20, largest_cc=True),
                       "sym_normalized")
    x0 = np.random.default_rng(20).normal(size=(a.n, 3))
    cfg = LayerConfig(variant="vanilla")
    f1 = run_trajectory(a, x0, cfg, 20, np.random.default_rng(42)).final
    f2 = run_trajectory(a, x0, cfg, 20, np.random.default_rng(42)).final
    assert np.array_equal(f1, f2)


def test_run_trajectory_abort_on_degenerate():
    a = _identity_op(3)
    x0 = np.ones((3, 1))  # constant column: batch norm degenerates at once
    cfg = LayerConfig(variant="batchnorm",
                      weight_spec=WeightSpec(mode="identity"))
    log = run_trajectory(a, x0, cfg, 5, np.random.default_rng(0),
                         observer=lambda t, x: t)
    assert log.aborted
    assert log.abort_step == 1
    assert log.records == []
    assert "degenerate column" in log.abort_reason


def test_run_trajectory_validation():
    a = _identity_op(3)
    cfg = LayerConfig()
    with pytest.raises(DomainError):
        run_trajectory(a, np.zeros((3, 1)), cfg, 0, np.random.default_rng(0))
    with pytest.raises(ContractError):
        run_trajectory(a, np.zeros((4, 1)), cfg, 1, np.random.default_rng(0))
    with pytest.raises(DomainError):
        LayerConfig(variant="nope")
    with pytest.raises(DomainError):
        LayerConfig(nonlinearity="tanh")
    with pytest.raises(DomainError):
        LayerConfig(variant="residual", alpha=0.0)


# --------------------------------------------------------- stacked trials

# Per variant: layer options and step count under which five trials stop
# at different steps and, for every variant but residual, at least one
# runs to the end.  Plain and residual updates with std 1e3 overflow
# near step 100; the normalizing variants get weights so large that a
# column norm overflows after a few steps; relu power embedding hits
# zero columns.
_STACK_CASES = {
    "vanilla": (dict(weight_spec=WeightSpec(std=1e3)), 103),
    "residual": (dict(weight_spec=WeightSpec(std=1e3)), 107),
    "batchnorm": (dict(weight_spec=WeightSpec(std=1.2e154)), 10),
    "pairnorm": (dict(weight_spec=WeightSpec(std=3e153)), 14),
    "graphnorm": (dict(weight_spec=WeightSpec(std=3e153)), 10),
    "graphnormv2": (dict(weight_spec=WeightSpec(std=1.2e154)), 10),
    "powerembed": (dict(nonlinearity="relu"), 3),
}


def _stack_fixture(spec="er:12,0.4", kind="sym_normalized"):
    a = build_operator(gen_graph(spec, seed=3, largest_cc=True), kind)
    x0 = np.random.default_rng(5).normal(size=(a.n, 2))
    return a, x0 / np.linalg.norm(x0, axis=0)


def _trial_rngs(trials):
    return [np.random.default_rng((9, t)) for t in range(trials)]


def _replay(a, x0, cfg, steps, rng, observe):
    """One trial of run_trajectory, step by step: weights drawn straight
    from rng, A X W in plain numpy, then the public per-matrix
    normalizer.  Returns (records, final, abort_step, abort_reason)."""
    k = x0.shape[1]
    std = cfg.weight_spec.std or 1.0 / np.sqrt(k)
    ctx = build_norm_context(a, cfg.gnv2_k)
    tau = np.tile(bn_emulating_tau(ctx)[:, None], (1, k))
    normalize = {
        "batchnorm": batch_norm,
        "pairnorm": lambda y: pair_norm(y, cfg.scale),
        "graphnorm": lambda y: graph_norm(y, np.ones(k)),
        "graphnormv2": lambda y: graph_norm_v2(y, ctx, tau),
    }
    x, records = x0, []
    for t in range(1, steps + 1):
        w = rng.normal(0.0, std, size=(k, k))
        try:
            if cfg.variant == "vanilla":
                y = a.data @ x @ w
            elif cfg.variant == "residual":
                w2 = rng.normal(0.0, std, size=(k, k))
                y = (1 - cfg.alpha) * (a.data @ x @ w) + cfg.alpha * (x0 @ w2)
            elif cfg.variant == "powerembed":
                y = power_embed_step(a, x, w, cfg.nonlinearity)
            else:
                y = normalize[cfg.variant](a.data @ x @ w)
        except DegenerateColumnError as exc:
            return records, x, t, str(exc)
        if not np.all(np.isfinite(y)):
            return records, x, t, "non-finite features"
        x = y
        records.append(observe(t, x))
    return records, x, None, None


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_trials_match_single_runs(variant):
    options, steps = _STACK_CASES[variant]
    cfg = LayerConfig(variant=variant, **options)

    def observe(t, x):
        return x.copy()
    # path:100's adjacency takes the sliced product; each of its rows
    # sums at most two exact products, so it rounds as the dense replay
    # does.  The step counts are set for the first fixture only.
    sliced = _stack_fixture("path:100", "adjacency")
    assert sliced[0]._slices is not None
    for fixture, (a, x0) in enumerate((_stack_fixture(), sliced)):
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = run_trajectory(a, x0, cfg, steps, _trial_rngs(5),
                                     observer=observe)
            replays = [_replay(a, x0, cfg, steps, rng, observe)
                       for rng in _trial_rngs(5)]
        if fixture == 0:
            assert len({stop for _, _, stop, _ in replays if stop}) > 1
        assert len(stacked.trials) == 5
        for got, (records, final, stop, reason) in zip(stacked.trials,
                                                       replays):
            assert (got.aborted, got.abort_step, got.abort_reason) == (
                stop is not None, stop, reason)
            assert len(got.records) == len(records)
            for rec, ref in zip(got.records, records):
                np.testing.assert_allclose(rec, ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.final, final, rtol=1e-12, atol=0)


def test_stacked_abort_reports_the_trials_own_column():
    # column 1 is constant, so every trial's BatchNorm degenerates there
    # at step 1; the reason names column 1, not its column in the block
    a = _identity_op(3)
    x0 = np.array([[1.0, 2.0], [2.0, 2.0], [4.0, 2.0]])
    cfg = LayerConfig(variant="batchnorm",
                      weight_spec=WeightSpec(mode="identity"))
    log = run_trajectory(a, x0, cfg, 3, _trial_rngs(3))
    assert [(tr.abort_step, tr.abort_reason) for tr in log.trials] == [
        (1, "degenerate column 1: zero vector after centering")] * 3


def test_stacked_log_describes_the_loop():
    a, x0 = _stack_fixture()
    options, steps = _STACK_CASES["vanilla"]
    cfg = LayerConfig(variant="vanilla", **options)
    with np.errstate(over="ignore", invalid="ignore"):
        partial = run_trajectory(a, x0, cfg, steps, _trial_rngs(5))
        stopped = run_trajectory(a, x0, cfg, 200, _trial_rngs(5))
    assert not partial.aborted and partial.abort_step is None
    assert any(tr.aborted for tr in partial.trials)
    assert np.array_equal(partial.final, np.concatenate(
        [tr.final for tr in partial.trials], axis=1))
    assert stopped.aborted
    assert stopped.abort_step == max(tr.abort_step for tr in stopped.trials)
    assert stopped.records == []


def test_single_generator_returns_the_trial_log():
    a, x0 = _stack_fixture()
    cfg = LayerConfig(variant="residual")
    single = run_trajectory(a, x0, cfg, 5, np.random.default_rng((9, 0)))
    stacked = run_trajectory(a, x0, cfg, 5, _trial_rngs(1))
    assert single.trials == ()
    assert np.array_equal(single.final, stacked.trials[0].final)
    with pytest.raises(DomainError):
        run_trajectory(a, x0, cfg, 5, [])
