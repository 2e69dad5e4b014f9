"""Numerical verification of the package's seven dynamical claims.

Each check is deterministic given (graph, seed, trial count).  Each
trial draws its weights from its own (seed, trial) generator; a check's
trials advance together as one stacked ``run_trajectory`` call, in which
a trial that aborts stops alone.  Each check uses one fixed operator.
Probability-bound checks compare an empirical frequency against the
theoretical bound with a 3-sigma binomial slack, so only one-sided
violations fail.  Spectral-gap degeneracies yield "inconclusive", never
"fail"; a trial check asked for zero trials yields "undefined", never a
vacuous "pass".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphio import Graph, OperatorMatrix, build_operator, is_connected
from .layers import LayerConfig, WeightSpec, batch_norm, run_trajectory
from .metrics import ReferenceVector, mu
from .partition import check_centering_effect
from .spectral import (KrylovBasis, centered_eig, krylov_generators,
                       numerical_rank, subspace_distance, symmetric_eig)

DEFAULT_TRIALS = 50
DEFAULT_STEPS = 256

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
UNDEFINED = "undefined"

# A trace value this far below its own maximum is float64 rounding noise
# reinjected by the dynamics, not signal; slope fits stop there.
_TRACE_FLOOR = 1e-13
# Steps a slope fit skips at the start of a trace, before it decays.
_SLOPE_SKIP = 4

_GAP_TOL = 1e-8


@dataclass(frozen=True)
class PropReport:
    """Outcome of one proposition check."""

    proposition: int
    verdict: str
    trials: int
    successes: int
    bound: float | None = None
    evidence: tuple = ()
    notes: str = ""

    def __post_init__(self):
        if self.successes > self.trials:
            raise DomainError("successes exceed trials")

    def to_json(self) -> dict:
        return {
            "id": self.proposition,
            "verdict": self.verdict,
            "trials": self.trials,
            "successes": self.successes,
            "bound": self.bound,
            "evidence": [float(e) for e in self.evidence],
            "notes": self.notes,
        }


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-step eigendirection projections and their fitted log-slopes.

    Keys of ``projections`` are 1-based eigenindices q; values are the
    per-step ‖ν_q-projection‖ sequences (all non-negative).
    """

    projections: dict
    slopes: dict
    target_rate: float
    verdict: str
    notes: str = ""

    def __post_init__(self):
        for q, vals in self.projections.items():
            if np.any(np.asarray(vals) < 0):
                raise DomainError(f"negative projection trace for q={q}")

    def to_json(self) -> dict:
        return {
            "slopes": {int(q): float(s) for q, s in self.slopes.items()},
            "target_rate": float(self.target_rate),
            "verdict": self.verdict,
            "notes": self.notes,
        }


def fit_log_slope(values: np.ndarray) -> float:
    """Least-squares slope of log(values) per step over the final half
    of the decaying segment, from step _SLOPE_SKIP on.

    The segment ends where the trace first drops below _TRACE_FLOOR
    times its maximum (rounding-noise floor).  Returns nan if fewer
    than three usable points remain.
    """
    values = np.asarray(values, dtype=np.float64)
    t = np.arange(len(values))
    top = values.max(initial=0.0)
    if top <= 0.0:
        return float("nan")
    alive = np.flatnonzero(values > _TRACE_FLOOR * top)
    alive = alive[alive >= _SLOPE_SKIP]
    if alive.size < 3:
        return float("nan")
    last = alive[-1]
    start = max(_SLOPE_SKIP, (last + _SLOPE_SKIP) // 2)
    window = np.flatnonzero((t >= start) & (t <= last) & (values > _TRACE_FLOOR * top))
    if window.size < 3:
        window = alive
    return float(np.polyfit(t[window], np.log(values[window]), 1)[0])


def _trial_rngs(seed: int, trials: int) -> list:
    """One generator per trial, trial t seeded with (seed, t)."""
    return [np.random.default_rng((seed, t)) for t in range(trials)]


def check_prop1_residual_no_collapse(
        g: Graph, x0: np.ndarray, v: ReferenceVector | np.ndarray,
        alpha: float = 0.2, trials: int = DEFAULT_TRIALS,
        steps: int = DEFAULT_STEPS, seed: int = 0) -> PropReport:
    """Residual updates keep mu_v bounded away from zero.

    Per trial, records min_t mu_v(X^(t)) over ``steps`` residual layers
    with Gaussian weights; a trial succeeds if the min stays >= 1e-6.
    Pass requires >= 90% successes.
    """
    if mu(x0, v) <= 1e-20 * max(1.0, float(np.sum(x0 * x0))):
        raise DomainError("x0 already collapsed onto v: mu_v(x0) = 0")
    if trials == 0:
        return PropReport(proposition=1, verdict=UNDEFINED, trials=0,
                          successes=0, bound=0.9, notes="no trials requested")
    a = build_operator(g, "sym_normalized")
    cfg = LayerConfig(variant="residual", alpha=alpha)
    c_star = 1e-6
    log = run_trajectory(a, x0, cfg, steps, _trial_rngs(seed, trials),
                         observer=lambda _, x: mu(x, v))
    mins = [0.0 if tr.aborted else float(min(tr.records))
            for tr in log.trials]
    successes = int(sum(m >= c_star for m in mins))
    verdict = PASS if successes >= int(np.ceil(0.9 * trials)) else FAIL
    return PropReport(proposition=1, verdict=verdict, trials=trials,
                      successes=successes, bound=0.9, evidence=tuple(mins))


def check_prop2_signal_retention(
        g: Graph, x0: np.ndarray, alpha: float, s: float, eps: float,
        trials: int = DEFAULT_TRIALS, steps: int = 64,
        seed: int = 0) -> PropReport:
    """Initial-signal retention: ||x_0^T X^(steps)|| >= eps with
    probability at least p = 1 - exp(-eps^2 / (2 alpha^2 s^2)).

    The event is evaluated for the first feature column.  Frequency must
    reach p minus a 3-sigma binomial slack.
    """
    norms = np.linalg.norm(x0, axis=0)
    if np.abs(norms - 1.0).max(initial=0.0) > 1e-8:
        raise DomainError("x0 columns must be unit vectors")
    p = 1.0 if s == 0.0 else 1.0 - np.exp(-eps**2 / (2.0 * alpha**2 * s**2))
    if trials == 0:
        return PropReport(proposition=2, verdict=UNDEFINED, trials=0,
                          successes=0, bound=p, notes="no trials requested")
    a = build_operator(g, "sym_normalized")
    spec = WeightSpec(mode="identity") if s == 0.0 else WeightSpec(std=s)
    cfg = LayerConfig(variant="residual", alpha=alpha, weight_spec=spec)
    log = run_trajectory(a, x0, cfg, steps, _trial_rngs(seed, trials))
    values = [float(np.linalg.norm(x0[:, 0] @ tr.final))
              for tr in log.trials]
    successes = int(sum(val >= eps for val in values))
    slack = 3.0 * np.sqrt(p * (1.0 - p) / trials)
    verdict = PASS if successes / trials >= p - slack else FAIL
    return PropReport(proposition=2, verdict=verdict, trials=trials,
                      successes=successes, bound=float(p),
                      evidence=tuple(values))


def _krylov_schedule(a: OperatorMatrix, x0: np.ndarray, y: np.ndarray):
    """Weight schedule reaching y through n residual layers (alpha=0.5).

    Expands y in the Krylov generators A^{i-1} X0 (least squares on
    unit-scaled columns) and spreads the coefficients over the W2
    sequence; W1 is zero at step 0 and identity afterwards.  Returns
    (w1_list, w2_list, expansion_residual).
    """
    n, k = x0.shape
    gen = krylov_generators(a, x0)
    scales = np.linalg.norm(gen, axis=0)
    scales[scales == 0] = 1.0
    coef_scaled, *_ = np.linalg.lstsq(gen / scales, y, rcond=None)
    coef = coef_scaled / scales[:, None]
    resid = float(np.linalg.norm(gen @ coef - y))
    # the unrolled update pairs the A^{i-1} term with W2 of step n-i
    w2s: list = [None] * n
    for i in range(1, n + 1):
        w2s[n - i] = coef[(i - 1) * k:i * k, :] / 0.5**i
    w1s = [np.zeros((k, k))] + [np.eye(k)] * (n - 1)
    return w1s, w2s, resid


def check_prop3_krylov_reachability(
        g: Graph, x0: np.ndarray, y: np.ndarray, kb: KrylovBasis,
        seed: int = 0) -> PropReport:
    """Exact reachability of the Krylov subspace under residual updates.

    ``kb`` is ``krylov_basis`` of g's adjacency operator and x0; the
    caller builds it, usually to draw y from it too.  Forward: if y
    lies in Kr(A, x0), the constructed n-step schedule must land on y to
    1e-6 relative error.  Converse: if y has a component of norm rho
    outside the subspace, every produced X^(n) stays at distance >=
    rho - 1e-8 from y.
    """
    a = build_operator(g, "adjacency")
    n, k = x0.shape
    proj_resid = float(np.linalg.norm(y - kb.basis @ (kb.basis.T @ y)))
    y_norm = float(np.linalg.norm(y))

    if proj_resid < 1e-8:
        w1s, w2s, exp_resid = _krylov_schedule(a, x0, y)
        cfg = LayerConfig(
            variant="residual", alpha=0.5,
            weight_spec=WeightSpec(mode="explicit", matrices=tuple(w1s)),
            weight_spec2=WeightSpec(mode="explicit", matrices=tuple(w2s)))
        log = run_trajectory(a, x0, cfg, n, np.random.default_rng(seed))
        err = float(np.linalg.norm(log.final - y))
        ok = err <= 1e-6 * max(y_norm, 1e-300)
        notes = f"forward; expansion residual {exp_resid:.3e}"
        if exp_resid > 1e-6 * max(y_norm, 1e-300):
            notes += " (rank-deficient expansion)"
        return PropReport(proposition=3, verdict=PASS if ok else FAIL,
                          trials=1, successes=int(ok), bound=1e-6,
                          evidence=(err, exp_resid), notes=notes)

    # converse: try the schedule aimed at the projection of y, plus
    # random Gaussian schedules; none may get closer than rho - 1e-8
    rho = proj_resid
    finals = []
    y_in = kb.basis @ (kb.basis.T @ y)
    w1s, w2s, _ = _krylov_schedule(a, x0, y_in)
    cfg = LayerConfig(
        variant="residual", alpha=0.5,
        weight_spec=WeightSpec(mode="explicit", matrices=tuple(w1s)),
        weight_spec2=WeightSpec(mode="explicit", matrices=tuple(w2s)))
    finals.append(run_trajectory(a, x0, cfg, n,
                                 np.random.default_rng(seed)).final)
    log = run_trajectory(a, x0, LayerConfig(variant="residual", alpha=0.5),
                         n, _trial_rngs(seed, 5))
    finals.extend(tr.final for tr in log.trials)
    dists = [float(np.linalg.norm(f - y)) for f in finals]
    ok = all(d >= rho - 1e-8 for d in dists)
    return PropReport(proposition=3, verdict=PASS if ok else FAIL,
                      trials=len(dists), successes=sum(d >= rho - 1e-8
                                                       for d in dists),
                      bound=rho, evidence=tuple(dists),
                      notes="converse; rho is the out-of-subspace norm")


def check_prop4_bn_no_collapse(
        g: Graph, x0: np.ndarray, v: ReferenceVector | np.ndarray,
        trials: int = DEFAULT_TRIALS, steps: int = DEFAULT_STEPS,
        seed: int = 0) -> PropReport:
    """BatchNorm keeps mu_v above a positive constant.

    The floor follows from BatchNorm output columns being centered unit
    vectors: mu_v >= k (v^T 1 / sqrt(n))^2, applied with a small safety
    margin and never below 1e-8.
    """
    vec = v.v if isinstance(v, ReferenceVector) else np.asarray(v)
    n = g.n
    ones_overlap = float(vec @ np.ones(n)) / np.sqrt(n)
    if ones_overlap <= 0:
        raise DomainError("v must have positive overlap with the ones vector")
    a = build_operator(g, "sym_normalized")
    es_hat = centered_eig(a, 1.0)
    scale = max(1.0, float(np.abs(es_hat.values).max(initial=0.0)))
    nonzero = np.abs(es_hat.values) > 1e-10 * scale
    v_nonzero = es_hat.vectors[:, nonzero]
    if numerical_rank(v_nonzero.T @ x0) < 2:
        raise DomainError(
            "rank precondition failed: V_nonzero^T x0 has rank < 2")
    k = x0.shape[1]
    c_star = max(k * ones_overlap**2 * (1.0 - 1e-6), 1e-8)
    if trials == 0:
        return PropReport(proposition=4, verdict=UNDEFINED, trials=0,
                          successes=0, bound=float(c_star),
                          notes="no trials requested")

    log = run_trajectory(a, x0, LayerConfig(variant="batchnorm"), steps,
                         _trial_rngs(seed, trials),
                         observer=lambda _, x: mu(x, vec))
    mins = [0.0 if tr.aborted else float(min(tr.records))
            for tr in log.trials]
    successes = int(sum(m >= c_star for m in mins))
    verdict = PASS if successes == trials else FAIL
    return PropReport(proposition=4, verdict=verdict, trials=trials,
                      successes=successes, bound=float(c_star),
                      evidence=tuple(mins))


def _centered_system(a: OperatorMatrix):
    """Centered eigensystem plus the pieces the BN convergence checks
    need: orthonormal eigenvectors of the ones-complement restriction
    and the absolute eigenvalues."""
    es = centered_eig(a, 1.0)
    n = a.n
    lifted = es.vectors[:, :n - 1]   # orthonormal, spans the 1-complement
    absl = np.abs(es.values)
    return es, lifted, absl


def check_prop5_topk_convergence(
        g: Graph, x0: np.ndarray, k: int, steps: int = DEFAULT_STEPS,
        seed: int = 0) -> ConvergenceTrace:
    """BatchNorm dynamics converge to the top-k centered eigenspace.

    Records ||nu_q^T X^(t)|| for every q > k under Gaussian weights and
    fits per-q log-slopes.  Pass requires the q = k+1 slope to respect
    the one-sided bound log(|l_{k+1}|/|l_k|) + 0.05 and the top-k
    distance to drop below 1e-6.
    """
    a = build_operator(g, "adjacency")
    n = g.n
    if not 1 <= k <= n - 2:
        raise DomainError(f"k={k} outside [1, n-2]")
    es, lifted, absl = _centered_system(a)
    target = None
    if absl[k - 1] <= _GAP_TOL or (absl[k - 1] - absl[k]) <= _GAP_TOL * max(
            1.0, absl[0]):
        verdict = INCONCLUSIVE
        notes = "no spectral gap at k: |l_k| ~ |l_{k+1}|"
        target = 0.0
    vk = es.vectors[:, :k]
    if numerical_rank(vk.T @ x0) < k:
        raise DomainError("rank precondition failed: V_k^T x0 is singular")

    rng = np.random.default_rng(seed)
    x = np.array(x0, dtype=np.float64)
    rest = lifted[:, k:]
    traces = np.zeros((steps, rest.shape[1]))
    tkd = np.zeros(steps)
    cfg = LayerConfig(variant="batchnorm")

    def observe(t: int, xt: np.ndarray):
        traces[t - 1] = np.linalg.norm(rest.T @ xt, axis=1)
        tkd[t - 1] = subspace_distance(xt, vk)

    run_trajectory(a, x, cfg, steps, rng, observer=observe)
    projections = {k + 1 + j: traces[:, j] for j in range(rest.shape[1])}
    slopes = {q: fit_log_slope(vals) for q, vals in projections.items()}
    if target is None:
        target = float(np.log(absl[k] / absl[k - 1]))
        slope = slopes[k + 1]
        ok = (np.isfinite(slope) and slope <= target + 0.05
              and tkd[-1] < 1e-6)
        verdict = PASS if ok else FAIL
        notes = f"final top-k distance {tkd[-1]:.3e}"
    return ConvergenceTrace(projections=projections, slopes=slopes,
                            target_rate=float(target), verdict=verdict,
                            notes=notes)


def build_tightness_schedule(a: OperatorMatrix, x0: np.ndarray, k: int,
                             eps: float):
    """Explicit BatchNorm weight schedule recovering the top-k centered
    eigenvectors: k Gaussian-elimination steps, then identity weights
    until the analytic step bound T.

    Projection coefficients are recomputed at each elimination step from
    the current features (exact in the linear setting).  Returns
    (weights, T, final_features); raises DomainError on a tiny pivot.
    """
    n, kdim = x0.shape
    if k > kdim:
        raise DomainError(f"k={k} exceeds feature width {kdim}")
    es, lifted, absl = _centered_system(a)
    scale = max(1.0, absl[0])
    if absl[k - 1] <= 1e-12 * scale:
        raise DomainError("elimination failure: |l_k| is numerically zero")
    x = np.array(x0, dtype=np.float64)
    weights = []
    for m in range(k):
        sig = lifted.T @ (a @ x)
        pivot = sig[m, m]
        if abs(pivot) <= 1e-12:
            raise DomainError(
                f"elimination failure: pivot {m} below 1e-12 "
                "(rank precondition violated)")
        w = np.eye(kdim)
        for i in range(kdim):
            if i != m:
                w[m, i] = -sig[m, i] / pivot
        weights.append(w)
        x = batch_norm(a @ x @ w)
    sig = lifted.T @ x
    t_extra = 0
    for i in range(k):
        sii = abs(sig[i, i])
        tail = np.abs(sig[k:, i]).max(initial=0.0)
        if tail == 0.0 or sii == 0.0:
            continue
        num = np.log(eps * sii**2 / ((n - k) * tail**2))
        den = 2.0 * np.log(absl[k] / absl[i])
        if den < 0 and num < 0:
            t_extra = max(t_extra, int(np.ceil(num / den)))
    for _ in range(t_extra):
        weights.append(np.eye(kdim))
        x = batch_norm(a @ x)
    return weights, k + t_extra, x


def check_prop6_tightness(g: Graph, x0: np.ndarray, k: int, eps: float,
                          seed: int = 0) -> PropReport:
    """The top-k convergence is tight: an explicit schedule aligns
    column i with the i-th centered eigenvector, |nu_i^T X_{:,i}| >=
    1/sqrt(1+eps) for all i <= k after the analytic step bound."""
    if not 1 <= k <= g.n - 2:
        raise DomainError(f"k={k} outside [1, n-2]")
    a = build_operator(g, "adjacency")
    es, lifted, absl = _centered_system(a)
    scale = max(1.0, absl[0])
    if absl[k - 1] <= 1e-12 * scale:
        return PropReport(proposition=6, verdict=INCONCLUSIVE, trials=k,
                          successes=0, bound=None,
                          notes="|l_k| = 0: tightness assumption violated")
    if abs(absl[k] - absl[k - 1]) <= _GAP_TOL * scale:
        return PropReport(proposition=6, verdict=INCONCLUSIVE, trials=k,
                          successes=0, bound=None,
                          notes="no spectral gap: |l_{k+1}| = |l_k|")
    vk = es.vectors[:, :k]
    if numerical_rank(vk.T @ x0) < k:
        raise DomainError("rank precondition failed: V_k^T x0 is singular")
    try:
        weights, t_total, x_final = build_tightness_schedule(a, x0, k, eps)
    except DomainError as exc:
        return PropReport(proposition=6, verdict=FAIL, trials=k, successes=0,
                          bound=None, notes=str(exc))
    # cross-check: replay the schedule through the generic runner
    cfg = LayerConfig(variant="batchnorm",
                      weight_spec=WeightSpec(mode="explicit",
                                             matrices=tuple(weights)))
    log = run_trajectory(a, x0, cfg, t_total, np.random.default_rng(seed))
    replay_gap = float(np.linalg.norm(log.final - x_final))
    overlaps = np.abs(np.diag(vk.T @ log.final[:, :k]))
    threshold = 1.0 / np.sqrt(1.0 + eps)
    successes = int(np.sum(overlaps >= threshold))
    verdict = PASS if successes == k and replay_gap <= 1e-10 else FAIL
    return PropReport(proposition=6, verdict=verdict, trials=k,
                      successes=successes, bound=float(threshold),
                      evidence=tuple(float(o) for o in overlaps),
                      notes=f"T={t_total}, replay gap {replay_gap:.3e}")


def check_prop7_centering(g: Graph, tau: float) -> PropReport:
    """Centering leaves rest eigenpairs intact, distorts the dominant
    eigenvector of non-regular graphs, and shrinks the eigenvalue sum."""
    rep = check_centering_effect(g, tau)
    has_edges = g.num_edges > 0
    claims = [rep.rest_preserved]
    if not rep.graph_is_regular:
        claims.append(rep.dominant_distorted)
    if has_edges:
        claims.append(rep.trace_gap_positive)
    successes = int(sum(claims))
    if not has_edges:
        verdict = INCONCLUSIVE
        notes = "edgeless graph: trace gap is zero by construction"
    else:
        verdict = PASS if all(claims) else FAIL
        notes = (f"rest residual {rep.rest_max_residual:.3e}, "
                 f"rayleigh residual {rep.dominant_rayleigh_residual:.3e}, "
                 f"trace gap {rep.trace_gap:.6g}"
                 + ("; claim 2 skipped (regular graph)"
                    if rep.graph_is_regular else ""))
    return PropReport(proposition=7, verdict=verdict, trials=len(claims),
                      successes=successes, bound=None,
                      evidence=(rep.rest_max_residual,
                                rep.dominant_rayleigh_residual,
                                rep.trace_gap),
                      notes=notes)


def check_vanilla_oversmoothing(
        g: Graph, x0: np.ndarray, steps: int = DEFAULT_STEPS,
        seed: int = 0) -> ConvergenceTrace:
    """Baseline contrast: plain updates collapse onto the dominant
    eigenvector exponentially.

    Gaussian weights are rescaled to spectral norm <= 1 so the collapse
    rate is read off the normalized trace sqrt(mu_v)/||X||_F, whose
    log-slope matches log|l_2/l_1|.
    """
    if not is_connected(g):
        raise DomainError("oversmoothing baseline requires a connected graph")
    a = build_operator(g, "sym_normalized")
    es = symmetric_eig(a)
    v = es.vectors[:, 0]
    target = float(np.log(abs(es.values[1] / es.values[0])))
    rng = np.random.default_rng(seed)
    n, kdim = x0.shape
    x = np.array(x0, dtype=np.float64)
    mu0 = mu(x, v)
    trace = np.zeros(steps)
    mus = np.zeros(steps)
    for t in range(steps):
        w = rng.normal(0.0, 1.0 / np.sqrt(kdim), size=(kdim, kdim))
        top = np.linalg.norm(w, 2)
        if top > 1.0:
            w = w / top
        x = a @ x @ w
        m = mu(x, v)
        fn = float(np.linalg.norm(x))
        mus[t] = m
        trace[t] = np.sqrt(m) / fn if fn > 0 else 0.0
    slope = fit_log_slope(trace)
    ok = mus[-1] <= 1e-6 * mu0 and np.isfinite(slope) and slope < 0
    return ConvergenceTrace(projections={2: trace}, slopes={2: slope},
                            target_rate=target,
                            verdict=PASS if ok else FAIL,
                            notes=f"mu ratio {mus[-1] / mu0:.3e}")

