"""Layer forward dynamics, normalizations and trajectory running."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oversmooth import layers
from oversmooth.errors import (ContractError, DegenerateColumnError,
                               DomainError)
from oversmooth.graphio import build_operator, gen_graph, make_graph
from oversmooth.layers import (VARIANTS, LayerConfig, NormContext,
                               WeightSpec, bn_emulating_tau,
                               build_norm_context, run_trajectory)
from oversmooth.metrics import mu
from oversmooth.spectral import symmetric_eig, top_k


def _identity_op(n):
    return build_operator(make_graph(n, [(i, i, 1.0) for i in range(n)]),
                          "adjacency")


def _one_step(variant, x, **options):
    """The log of one ``variant`` step from x on the identity operator
    with identity weights.  I @ X @ I is exact, so a normalizing
    variant's final features are its normalizer's bits on x."""
    cfg = LayerConfig(variant=variant,
                      weight_spec=WeightSpec(mode="identity"), **options)
    return run_trajectory(_identity_op(x.shape[0]), x, cfg, 1,
                          np.random.default_rng(0))


def _normalize(normalizer, x, *args):
    """A block normalizer of ``layers`` applied to one (n, k) matrix y
    (also the step's input), with run arguments args no run uses.  The
    normalizer works in place on a copy."""
    y = np.array(x, dtype=np.float64)[:, None, :]
    assert not layers._block_normalized(*normalizer(
        y, np.empty_like(y), y.copy(), *args))
    return y[:, 0, :]


# ------------------------------------------------------------- weights

def test_sample_weight_identity_and_zero():
    weights = layers._Weights((WeightSpec(mode="identity"),
                               WeightSpec(std=0.0)),
                              [np.random.default_rng(0)], 3, 1)
    eye, zero = weights.at(0, [0])
    assert np.array_equal(eye, np.eye(3)[None])
    assert np.array_equal(zero, np.zeros((1, 3, 3)))


def test_sample_weight_gaussian_statistics():
    weights = layers._Weights((WeightSpec(std=1.0),),
                              [np.random.default_rng(1)], 10, 100)
    draws = np.concatenate([weights.at(t, [0])[0].ravel()
                            for t in range(100)])
    assert abs(draws.mean()) < 4.0 / np.sqrt(draws.size)
    assert abs(draws.std() - 1.0) < 0.05


def test_sample_weight_explicit():
    mats = (np.eye(2), 2 * np.eye(2))
    cfg = LayerConfig(weight_spec=WeightSpec(mode="explicit", matrices=mats))
    a = _identity_op(2)
    x0 = np.random.default_rng(0).normal(size=(2, 2))
    rng = np.random.default_rng(0)
    assert np.array_equal(run_trajectory(a, x0, cfg, 2, rng).final, 2 * x0)
    with pytest.raises(DomainError, match="exhausted at step 2"):
        run_trajectory(a, x0, cfg, 3, rng)
    with pytest.raises(ContractError, match="explicit weight shape"):
        run_trajectory(a, np.ones((2, 3)), cfg, 1, rng)
    with pytest.raises(DomainError):
        WeightSpec(mode="explicit")
    with pytest.raises(DomainError):
        WeightSpec(mode="nope")
    with pytest.raises(DomainError):
        WeightSpec(std=-1.0)


# --------------------------------------------------------------- steps

def test_step_vanilla_identity():
    x = np.random.default_rng(0).normal(size=(3, 2))
    assert np.array_equal(_one_step("vanilla", x).final, x)


def test_step_vanilla_eigenvector():
    a = build_operator(gen_graph("star:4"), "adjacency")
    es = symmetric_eig(a)
    nu = es.vectors[:, :1]
    cfg = LayerConfig(weight_spec=WeightSpec(mode="identity"))
    out = run_trajectory(a, nu, cfg, 1, np.random.default_rng(0)).final
    assert np.abs(out - es.values[0] * nu).max() < 1e-12


def test_step_vanilla_relu_and_shapes():
    x = np.array([[1.0], [-2.0]])
    assert np.array_equal(_one_step("vanilla", x, nonlinearity="relu").final,
                          np.array([[1.0], [0.0]]))
    with pytest.raises(ContractError):
        run_trajectory(_identity_op(2), np.zeros((3, 1)), LayerConfig(), 1,
                       np.random.default_rng(0))


def _residual_step(a, x0, w1, w2, alpha):
    """One residual step from x0 with explicit weights W1 and W2."""
    cfg = LayerConfig(
        variant="residual", alpha=alpha,
        weight_spec=WeightSpec(mode="explicit", matrices=(w1,)),
        weight_spec2=WeightSpec(mode="explicit", matrices=(w2,)))
    return run_trajectory(a, x0, cfg, 1, np.random.default_rng(0)).final


def test_step_residual_midpoint():
    # from x0 with W1 = M, W2 = I: the midpoint of X = x0 M and x0
    x0 = np.random.default_rng(3).normal(size=(3, 2))
    m = np.random.default_rng(2).normal(size=(2, 2))
    out = _residual_step(_identity_op(3), x0, m, np.eye(2), alpha=0.5)
    assert np.abs(out - (0.5 * (x0 @ m) + 0.5 * x0)).max() < 1e-14


def test_step_residual_w1_zero():
    a = build_operator(gen_graph("path:4"), "adjacency")
    x0 = np.random.default_rng(5).normal(size=(4, 2))
    w2 = np.random.default_rng(6).normal(size=(2, 2))
    out = _residual_step(a, x0, np.zeros((2, 2)), w2, alpha=0.3)
    assert np.abs(out - 0.3 * (x0 @ w2)).max() < 1e-14
    with pytest.raises(DomainError):
        LayerConfig(variant="residual", alpha=1.0)


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
    x = np.array([[1.0], [2.0], [3.0]])
    want = np.array([[-1.0], [0.0], [1.0]]) / np.sqrt(2.0)
    assert np.abs(_one_step("batchnorm", x).final - want).max() < 1e-14


def test_batch_norm_idempotent_on_centered_unit():
    x = np.array([[-1.0], [0.0], [1.0]]) / np.sqrt(2.0)
    assert np.abs(_one_step("batchnorm", x).final - x).max() < 1e-14


def test_batch_norm_postconditions_and_error():
    x = np.random.default_rng(8).normal(size=(10, 4))
    out = _one_step("batchnorm", x).final
    assert np.abs(out.sum(axis=0)).max() < 1e-10
    assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-10
    # a constant column stops the run with its DegenerateColumnError,
    # keeping the features before the failed step
    log = _one_step("batchnorm", np.full((3, 1), 5.0))
    assert (log.abort_step, log.abort_reason) == (
        1, "degenerate column 0: zero vector after centering")
    assert log.abort_reason == str(
        DegenerateColumnError(0, "zero vector after centering"))
    assert log.final.tolist() == [[5.0]] * 3


def test_overflowed_norm_is_reported_as_overflow():
    # the centred norms and the reference norms are both inf here, so a
    # relative zero test alone would call column 0 a zero vector
    x = np.array([[1e155, 0.0], [-1e155, 1.0], [3e154, 2.0]])
    for variant in ("batchnorm", "graphnorm", "pairnorm"):
        log = _one_step(variant, x)
        assert (log.abort_step, log.abort_reason) == (
            1, "degenerate column 0: norm overflowed"), variant


def test_batch_norm_invariance_shift_scale():
    x = np.random.default_rng(9).normal(size=(8, 3))
    out = _one_step("batchnorm", x).final
    shifted = _one_step("batchnorm", x + 7.0).final
    scaled = _one_step("batchnorm", 3.0 * x).final
    assert np.abs(out - shifted).max() < 1e-10
    assert np.abs(out - scaled).max() < 1e-12


# ------------------------------------------------------------ graph norm

def test_graph_norm_tau1_matches_batch_norm():
    # the graphnorm variant centres with tau = 1
    x = np.random.default_rng(10).normal(size=(9, 4))
    n = x.shape[0]
    out = _one_step("graphnorm", x).final / np.sqrt(n)
    assert np.abs(out - _one_step("batchnorm", x).final).max() < 1e-12


def test_graph_norm_golden():
    # column (3,0,0): mean 1 -> (2,-1,-1); sigma = sqrt(6)/sqrt(3)
    out = _normalize(layers._gn, np.array([[3.0], [0.0], [0.0]]))
    want = np.array([[2.0], [-1.0], [-1.0]]) / np.sqrt(2.0)
    assert np.abs(out - want).max() < 1e-14


# --------------------------------------------------------- graph norm v2

def _gnv2_fixture(spec="er:12,0.4", k=2, seed=11):
    g = gen_graph(spec, seed=seed, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    ctx = build_norm_context(top_k(symmetric_eig(a), k))
    return a, ctx


def test_norm_context_orthonormal():
    a, ctx = _gnv2_fixture()
    gram = ctx.vkplus.T @ ctx.vkplus
    assert np.abs(gram - np.eye(ctx.k + 1)).max() < 1e-8
    with pytest.raises(DomainError):
        build_norm_context(top_k(symmetric_eig(a), a.n))


def test_graphnormv2_needs_a_norm_context():
    # the layer solves no eigenproblem: its caller passes V_{k+}
    with pytest.raises(DomainError, match="norm_context"):
        LayerConfig(variant="graphnormv2")


def test_bn_emulating_tau_reconstructs_ones():
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    tau = bn_emulating_tau(ctx)
    recon = ctx.vkplus @ tau
    assert np.abs(recon - np.ones(n) / np.sqrt(n)).max() < 1e-10


def test_gnv2_bn_emulating_matches_batch_norm_direction():
    # the graphnormv2 variant centres with the BN-emulating tau
    a, ctx = _gnv2_fixture()
    n = ctx.vkplus.shape[0]
    x = np.random.default_rng(12).normal(size=(n, 3))
    out = _one_step("graphnormv2", x, norm_context=ctx).final
    bn = _one_step("batchnorm", x).final
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
    out = _normalize(layers._gn2, x, ctx, tau)
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
    out = _normalize(layers._gn2, x, ctx, tau)
    assert np.abs(out - x / np.linalg.norm(x)).max() < 1e-10


def test_gnv2_projector_idempotent():
    a, ctx = _gnv2_fixture()
    p = ctx.vkplus @ ctx.vkplus.T
    assert np.abs(p @ p - p).max() < 1e-10


# ------------------------------------------------------------- pair norm

def test_pair_norm_postconditions():
    x = np.random.default_rng(15).normal(size=(7, 3))
    for s in (1.0, 2.5):
        out = _one_step("pairnorm", x, scale=s).final
        assert abs(np.linalg.norm(out) - s * np.sqrt(7)) < 1e-10
        assert np.abs(out.mean(axis=0)).max() < 1e-10


def test_pair_norm_fixed_point_and_error():
    x = np.random.default_rng(16).normal(size=(5, 2))
    x -= x.mean(axis=0)
    x *= np.sqrt(5) / np.linalg.norm(x)
    assert np.abs(_one_step("pairnorm", x).final - x).max() < 1e-12
    log = _one_step("pairnorm", np.ones((4, 2)))
    assert (log.abort_step, log.abort_reason) == (
        1, "degenerate column 0: all columns zero after centering")


# ----------------------------------------------------------- power embed

@pytest.mark.parametrize("shape", [(1000, 20, 4), (100, 50, 4), (7, 1, 3),
                                   (7, 3, 1), (7, 1, 1), (200, 1, 32)],
                         ids=lambda s: "x".join(map(str, s)))
def test_trial_major_copy_and_frobenius(shape):
    # the pairnorm norms, one np.linalg.norm per trial of the block, are
    # those of each trial's contiguous (trial-major) copy, bit for bit:
    # its np.linalg.norm and the dot product of its flattened features
    # with themselves
    n, trials, k = shape
    y = np.random.default_rng(sum(shape)).normal(size=shape)
    copy = np.ascontiguousarray(y.transpose(1, 0, 2))
    norms = layers._frobenius(y)
    assert norms.shape == (trials, 1)
    assert np.array_equal(norms, [[np.linalg.norm(c)] for c in copy])
    flat = copy.reshape(trials, 1, n * k)
    assert np.array_equal(norms, np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0])


def test_power_embed_unit_columns_and_identity():
    x = np.random.default_rng(17).normal(size=(4, 2))
    x /= np.linalg.norm(x, axis=0)
    out = _one_step("powerembed", x).final
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
    assert len(log.records) == 1
    assert np.abs(log.final - a.data @ x0).max() < 1e-14


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
    # V_{k+} is checked to spectral.ORTHO_TOL = 1e-8, as any basis is
    with pytest.raises(ContractError, match="vkplus is not orthonormal"):
        NormContext(vkplus=np.eye(3)[:, :2] * (1.0 + 1e-7))
    NormContext(vkplus=np.eye(3)[:, :2] * (1.0 + 1e-9))


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


def _stack_fixture(spec="er:12,0.4", kind="sym_normalized", k=2):
    a = build_operator(gen_graph(spec, seed=3, largest_cc=True), kind)
    x0 = np.random.default_rng(5).normal(size=(a.n, k))
    return a, x0 / np.linalg.norm(x0, axis=0)


def _trial_rngs(trials):
    return [np.random.default_rng((9, t)) for t in range(trials)]


def _vkplus(a, width):
    """V_{k+} from numpy's eigh: the top ``width`` eigenvectors by
    |lambda|, completed by the unit part of 1 outside their span."""
    vals, vecs = np.linalg.eigh(a.data)
    vk = vecs[:, np.argsort(-np.abs(vals), kind="stable")[:width]]
    r = np.ones(a.n) - vk @ (vk.T @ np.ones(a.n))
    return np.column_stack([vk, r / np.linalg.norm(r)])


def _normalizer_terms(cfg, y, x, vkplus):
    """(numerator, denominators, reference norms, reason) of a
    normalizing variant's formula on y = sigma(A X W), x the features
    before the step."""
    n = y.shape[0]
    centered = y - y.mean(axis=0)
    if cfg.variant == "batchnorm":
        return (centered, np.linalg.norm(centered, axis=0),
                np.linalg.norm(y, axis=0), "zero vector after centering")
    if cfg.variant == "graphnorm":      # tau = 1, scaled to unit RMS
        return (centered, np.linalg.norm(centered, axis=0) / np.sqrt(n),
                np.linalg.norm(y, axis=0),
                "zero spread after partial centering")
    if cfg.variant == "graphnormv2":
        # tau = V_{k+}^T 1/sqrt(n) for every column: subtract the
        # projection V tau tau^T V^T y_j of y_j on u = V_{k+} tau,
        # multiplied out from the right
        tau = vkplus.T @ (np.ones(n) / np.sqrt(n))
        scal = (tau[:, None] * (vkplus.T @ y)).sum(axis=0)
        projected = y - vkplus @ (tau[:, None] * scal)
        return (projected, np.linalg.norm(projected, axis=0),
                np.linalg.norm(y, axis=0),
                "zero vector after projection centering")
    if cfg.variant == "pairnorm":
        return (cfg.scale * np.sqrt(n) * centered,
                np.array([np.linalg.norm(centered)]),
                np.array([np.linalg.norm(y)]),
                "all columns zero after centering")
    return (y, np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0),
            "zero column")


def _normalized(num, den, ref, what):
    """(num / den, None), or (None, the abort reason) when a denominator
    overflowed or is at rounding level of its reference norm."""
    over = np.isinf(den)
    bad = over | (den <= 1e-14 * np.maximum(1.0, ref))
    if not bad.any():
        return num / den, None
    i = int(np.argmax(over if over.any() else bad))
    return None, (f"degenerate column {i}: "
                  + ("norm overflowed" if over[i] else what))


def _replay(a, x0, cfg, steps, rng, observe):
    """One trial of run_trajectory as an independent oracle: weights
    drawn straight from rng, the step in plain numpy, the normalizer's
    formula and the degenerate-column rule restated here.  Returns
    (records, final, abort_step, abort_reason)."""
    k = x0.shape[1]
    std = cfg.weight_spec.std or 1.0 / np.sqrt(k)
    vkplus = cfg.norm_context.vkplus if cfg.norm_context else None
    x, records = x0, []
    for t in range(1, steps + 1):
        y = a.data @ x @ rng.normal(0.0, std, size=(k, k))
        if cfg.variant == "residual":
            w2 = rng.normal(0.0, std, size=(k, k))
            y = (1 - cfg.alpha) * y + cfg.alpha * (x0 @ w2)
        if cfg.nonlinearity == "relu":
            y = np.maximum(y, 0.0)
        if cfg.variant not in ("vanilla", "residual"):
            y, reason = _normalized(*_normalizer_terms(cfg, y, x, vkplus))
            if reason is not None:
                return records, x, t, reason
        if not np.all(np.isfinite(y)):
            return records, x, t, "non-finite features"
        x = y
        records.append(observe(t, x))
    return records, x, None, None


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_trials_match_single_runs(variant):
    options, steps = _STACK_CASES[variant]

    def observe(t, x):
        return x.copy()
    # path:100's adjacency takes the sliced product; each of its rows
    # sums at most two exact products, so A @ X rounds alike at any
    # block width, and from k = 2 on a stacked trial is its lone replay
    # bit for bit.  The dense product may round a column by the block's
    # width.  At k = 1 the block's column sums add node by node, while a
    # lone (n, 1) column is contiguous and numpy sums it pairwise, so a
    # centred entry near 0 carries that rounding: there the bound is
    # relative to the largest entry.  The step counts are set for the
    # dense fixture at k = 2.
    assert _stack_fixture("path:100", "adjacency")[0]._slices is not None
    for spec, kind in (("er:12,0.4", "sym_normalized"),
                       ("path:100", "adjacency")):
        for k in (1, 2, 5):
            a, x0 = _stack_fixture(spec, kind, k)
            exact = a._slices is not None and k > 1
            ctx = (NormContext(vkplus=_vkplus(a, 2))
                   if variant == "graphnormv2" else None)
            cfg = LayerConfig(variant=variant, norm_context=ctx, **options)
            with np.errstate(over="ignore", invalid="ignore"):
                stacked = run_trajectory(a, x0, cfg, steps, _trial_rngs(5),
                                         observer=observe)
                replays = [_replay(a, x0, cfg, steps, rng, observe)
                           for rng in _trial_rngs(5)]
            if (spec, k) == ("er:12,0.4", 2):
                assert len({stop for _, _, stop, _ in replays if stop}) > 1
            assert len(stacked.trials) == 5
            for got, (records, final, stop, reason) in zip(stacked.trials,
                                                           replays):
                assert (got.aborted, got.abort_step, got.abort_reason) == (
                    stop is not None, stop, reason), (spec, k)
                assert len(got.records) == len(records)
                for rec, ref in zip([*got.records, got.final],
                                    [*records, final]):
                    if exact:
                        assert np.array_equal(rec, ref), (spec, k)
                        continue
                    atol = 0 if k > 1 else 1e-12 * np.abs(ref).max()
                    np.testing.assert_allclose(rec, ref, rtol=1e-12,
                                               atol=atol)


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


# ------------------------------------------------------ chunked weights

def _weight_specs(cfg):
    """The specs a step draws from, W1 before W2."""
    specs = (cfg.weight_spec, cfg.weight_spec2 or cfg.weight_spec)
    return specs[:2 if cfg.variant == "residual" else 1]


def _draw(spec, k, rng):
    """One step's (k, k) weight of an identity or Gaussian spec."""
    if spec.mode == "identity":
        return np.eye(k)
    std = spec.std if spec.std is not None else 1.0 / np.sqrt(k)
    return rng.normal(0.0, std, size=(k, k))


def _per_step_replay(a, x0, cfg, steps, rng):
    """One trial whose weights are drawn step by step from rng, W1
    before W2, replayed as explicit weight lists."""
    k = x0.shape[1]
    drawn = [[_draw(spec, k, rng) for spec in _weight_specs(cfg)]
             for _ in range(steps)]
    explicit = [WeightSpec(mode="explicit", matrices=tuple(ws))
                for ws in zip(*drawn)]
    cfg = replace(cfg, weight_spec=explicit[0],
                  weight_spec2=explicit[1] if len(explicit) > 1 else None)
    return run_trajectory(a, x0, cfg, steps, np.random.default_rng(0))


def _chunk_fixture():
    a = build_operator(gen_graph("path:12"), "adjacency")
    return a, np.random.default_rng(4).normal(size=(a.n, 2))


# (layer options, steps, steps per chunk or None for the default
# budget).  Each row of a path's adjacency has at most two nonzero
# entries, so A @ X rounds alike at any block width and a stacked trial
# matches its lone replay bit for bit.  With std 1e3 the plain update
# overflows near step 93, each trial at its own step, and one trial
# runs all 94 steps.
_CHUNK_CASES = {
    "different-stds": (dict(variant="residual",
                            weight_spec=WeightSpec(std=0.7),
                            weight_spec2=WeightSpec(std=1.3)), 23, 5),
    "identity-w2": (dict(variant="residual",
                         weight_spec2=WeightSpec(mode="identity")), 23, 5),
    "default-budget": (dict(variant="residual"), 23, None),
    "abort-mid-chunk": (dict(variant="vanilla",
                             weight_spec=WeightSpec(std=1e3)), 94, 7),
}


@pytest.mark.parametrize("case", _CHUNK_CASES)
def test_chunked_weights_match_per_step_draws(case, monkeypatch):
    options, steps, chunk = _CHUNK_CASES[case]
    cfg = LayerConfig(**options)
    a, x0 = _chunk_fixture()
    trials, k = 5, x0.shape[1]
    gaussian = sum(spec.mode == "gaussian" for spec in _weight_specs(cfg))
    if chunk is not None:
        monkeypatch.setattr(layers, "_WEIGHT_FLOATS",
                            chunk * trials * gaussian * k * k)
        assert steps % chunk
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = run_trajectory(a, x0, cfg, steps, _trial_rngs(trials))
        replays = [_per_step_replay(a, x0, cfg, steps, rng)
                   for rng in _trial_rngs(trials)]
    if case == "abort-mid-chunk":
        stops = [tr.abort_step for tr in stacked.trials if tr.aborted]
        assert len(set(stops)) > 1 and len(stops) < trials
        assert any((stop - 1) % chunk for stop in stops)
    for got, ref in zip(stacked.trials, replays):
        assert (got.aborted, got.abort_step, got.abort_reason) == (
            ref.aborted, ref.abort_step, ref.abort_reason)
        assert np.array_equal(got.final, ref.final)


def test_chunked_zero_std_weights_are_positive_zeros():
    # rng.normal(0, 0) gives 0.0 + 0 * z = +0.0; the chunk must too
    rng = np.random.default_rng(1)
    assert not np.signbit(rng.normal(0.0, 0.0, size=(3, 3))).any()
    chunk = layers._Weights((WeightSpec(std=0.0),), _trial_rngs(2), 3, 4)
    for t in range(4):
        (w,) = chunk.at(t, [0, 1])
        assert w.shape == (2, 3, 3) and not w.any()
        assert not np.signbit(w).any()


def test_stacked_observer_sees_the_live_block_once_per_step():
    options, steps, _ = _CHUNK_CASES["abort-mid-chunk"]
    a, x0 = _chunk_fixture()
    calls = []

    def observe(t, x):
        calls.append((t, x.shape))
        return [t] * len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        log = run_trajectory(a, x0, LayerConfig(**options), steps,
                             _trial_rngs(5), observer=observe)
    assert [t for t, _ in calls] == list(range(1, steps + 1))
    for t, shape in calls:
        live = sum(not tr.aborted or tr.abort_step > t for tr in log.trials)
        assert shape == (live, a.n, 2)
    assert calls[-1][1][0] < calls[0][1][0]
    for tr in log.trials:
        done = tr.abort_step - 1 if tr.aborted else steps
        assert tr.records == list(range(1, done + 1))


def test_stacked_observer_must_return_a_record_per_trial():
    a, x0 = _chunk_fixture()
    with pytest.raises(ContractError):
        run_trajectory(a, x0, LayerConfig(), 3, _trial_rngs(2),
                       observer=lambda t, x: [t])


# ------------------------------------------------------ working set

def test_stacked_observer_gets_a_view_equal_to_the_trial_major_copy():
    a, x0 = _stack_fixture("path:100", "adjacency", k=3)
    seen = []

    def observe(t, x):
        seen.append((x.copy(), x.flags.owndata))
        return [None] * len(x)
    log = run_trajectory(a, x0, LayerConfig(variant="residual"), 4,
                         _trial_rngs(6), observer=observe)
    assert not any(owned for _, owned in seen)
    # the last step's block is the stacked final
    block = log.final.reshape(a.n, 6, 3)
    assert np.array_equal(seen[-1][0],
                          np.ascontiguousarray(block.transpose(1, 0, 2)))


def test_finals_are_views_unless_a_trial_stops():
    a, x0 = _stack_fixture()
    whole = run_trajectory(a, x0, LayerConfig(variant="residual"), 5,
                           _trial_rngs(4))
    assert not any(tr.aborted for tr in whole.trials)
    for tr in whole.trials:
        assert not tr.final.flags.owndata
        assert np.shares_memory(tr.final, whole.final)
    assert np.array_equal(whole.final, np.concatenate(
        [tr.final for tr in whole.trials], axis=1))
    single = run_trajectory(a, x0, LayerConfig(variant="residual"), 5,
                            np.random.default_rng((9, 0)))
    assert np.array_equal(single.final, whole.trials[0].final)
    options, steps = _STACK_CASES["vanilla"]
    with np.errstate(over="ignore", invalid="ignore"):
        partial = run_trajectory(a, x0, LayerConfig(**options), steps,
                                 _trial_rngs(5))
    assert any(tr.aborted for tr in partial.trials)
    assert not all(tr.aborted for tr in partial.trials)
    finals = [tr.final for tr in partial.trials] + [partial.final]
    assert all(f.flags.owndata for f in finals)
    assert not any(np.shares_memory(f, g) for i, f in enumerate(finals)
                   for g in finals[i + 1:])


def test_stacked_residual_working_set():
    # (n, T, k) = (about 3000, 20, 4) with prop 1's mu observer: the
    # loop keeps x, y, A @ X (also the step's scratch) and the bool
    # mask, mu its residual, and the product one gather piece of at most
    # 512 KB, so the peak stays under 5.5 blocks plus 1 MB
    g = gen_graph("er:3000,0.002", seed=0, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    x0 = np.random.default_rng(0).normal(size=(g.n, 4))
    a @ x0      # builds the sliced layout outside the traced run
    v = np.ones(g.n) / np.sqrt(g.n)
    block = g.n * 20 * 4 * 8
    tracemalloc.start()
    try:
        run_trajectory(a, x0, LayerConfig(variant="residual"), 4,
                       _trial_rngs(20), observer=lambda _, x: mu(x, v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a._slices is not None
    assert peak <= 5.5 * block + (1 << 20), peak / block
