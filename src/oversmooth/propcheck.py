"""Numerical verification of the package's seven dynamical claims.

Each check is deterministic given (graph, seed, trial count).  Each
trial draws its weights from its own (seed, trial) generator; a check's
trials advance together as one stacked ``run_trajectory`` call, in which
a trial that aborts stops alone.  Props 1-6 take the operator they
verify, and props 5-6 also its ``ones_complement_eig`` system, from the
caller, so a run that checks several builds each operator and solves
each eigenproblem once; prop 7 takes the graph beside its adjacency
operator, and the vanilla baseline the graph alone.
Probability-bound checks compare an empirical frequency against the
theoretical bound with a 3-sigma binomial slack, so only one-sided
violations fail.  Spectral-gap degeneracies yield "inconclusive", never
"fail"; a trial check asked for zero trials yields "undefined", never a
vacuous "pass".  An x0 that misses a check's precondition raises
PreconditionError, which ``verify`` reports as "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .graphio import Graph, OperatorMatrix, build_operator, is_connected
from .layers import LayerConfig, WeightSpec, run_trajectory
from .metrics import ReferenceVector, mu
from .partition import check_centering_effect
from .spectral import (KRYLOV_DROP_TOL, EigenSystem, check_orthonormal,
                       krylov_basis, numerical_rank, subspace_distance,
                       symmetric_eig)

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
# Bound on the gap between prop 6's n-space replay and its schedule.
_REPLAY_GAP = 1e-10
# Prop 3: the forward relative error bar, which also sets the float64
# horizon, the converse's slack and its number of random schedules.
_REACH_TOL = 1e-6
_CONVERSE_SLACK = 1e-8
_CONVERSE_TRIALS = 5


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
    """A convergence check's fitted log-slope per step, keyed by the
    1-based eigenindex q of the direction whose trace it fits; None
    where the verdict does not read it."""

    slopes: dict
    target_rate: float
    verdict: str
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "slopes": {int(q): None if s is None else float(s)
                       for q, s in self.slopes.items()},
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
        a: OperatorMatrix, x0: np.ndarray, v: ReferenceVector | np.ndarray,
        alpha: float = 0.2, trials: int = DEFAULT_TRIALS,
        steps: int = DEFAULT_STEPS, seed: int = 0) -> PropReport:
    """Residual updates on the operator ``a`` (``verify`` passes the
    symmetric-normalized one) keep mu_v bounded away from zero.

    Per trial, records min_t mu_v(X^(t)) over ``steps`` residual layers
    with Gaussian weights; a trial succeeds if the min stays >= 1e-6.
    Pass requires >= 90% successes.
    """
    if mu(x0, v) <= 1e-20 * max(1.0, float(np.sum(x0 * x0))):
        raise PreconditionError("x0 already collapsed onto v: mu_v(x0) = 0")
    if trials == 0:
        return PropReport(proposition=1, verdict=UNDEFINED, trials=0,
                          successes=0, bound=0.9, notes="no trials requested")
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
        a: OperatorMatrix, x0: np.ndarray, alpha: float, s: float,
        eps: float, trials: int = DEFAULT_TRIALS, steps: int = 64,
        seed: int = 0) -> PropReport:
    """Initial-signal retention under residual updates on ``a``
    (``verify`` passes the symmetric-normalized operator):
    ||x_0^T X^(steps)|| >= eps with probability at least
    p = 1 - exp(-eps^2 / (2 alpha^2 s^2)).

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


def check_prop3_krylov_reachability(a: OperatorMatrix, x0: np.ndarray,
                                    seed: int = 0) -> PropReport:
    """Exact reachability of the block Krylov space Kr(A, X0) under
    residual updates on ``a`` (``verify`` passes the adjacency operator),
    decided at each depth d up to the float64 horizon d_f: the last at
    which eps times the condition number of Kr_d's unit-column
    generators A^i X0, i < d, over their singular values above
    KRYLOV_DROP_TOL sigma_1, stays within _REACH_TOL, the rounding an
    expansion over them costs (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 20).  Forward: y drawn from Kr_d is reached
    in d steps to _REACH_TOL relative error.  Converse: each random
    schedule's X_d has at most _CONVERSE_SLACK |X_d| outside Kr_{d+1}
    while that is a proper subspace, so every y with a component rho
    outside it stays rho - _CONVERSE_SLACK away (the nearest adds rho
    along that part to X_d's projection).  Fail if a depth fails; pass
    only if Kr closes within d_f (a ``krylov_basis`` block adds no
    direction); else inconclusive."""
    n, k = x0.shape
    rng = np.random.default_rng((seed, 303))
    gen, scales = np.empty((n, 0)), np.empty(0)
    block, scale, rank = x0, np.ones(k), 0
    forward = []    # relative error at each decided depth
    # the rank grows at each decided depth, so some depth <= n + 1 stops
    for d in range(1, n + 2):
        norms = np.linalg.norm(block, axis=0)
        block = block / np.where(norms > 0, norms, 1.0)
        scale = scale * norms
        gen = np.concatenate([gen, block], axis=1)
        scales = np.concatenate([scales, scale])
        # least squares from the SVD, which also gives cond and a basis
        u, sigma, vt = np.linalg.svd(gen, full_matrices=False)
        kept = sigma > KRYLOV_DROP_TOL * sigma[0]
        cond = sigma[0] / sigma[kept][-1] if kept.any() else np.inf
        if cond * np.finfo(float).eps > _REACH_TOL or kept.sum() == rank:
            break
        rank = int(kept.sum())
        z = rng.normal(size=(rank, k))
        coef = vt[kept].T @ (z / sigma[kept, None])
        coef /= np.where(scales > 0, scales, np.inf)[:, None]
        y = u[:, kept] @ z
        final = run_trajectory(a, x0, _reach_config(coef, d), d,
                               np.random.default_rng(seed)).final
        forward.append(float(np.linalg.norm(final - y) / np.linalg.norm(y)))
        block = a @ block
    d_f = len(forward)
    notes = f"decided to depth d_f={d_f}; cond at depth {d} {cond:.3e}"
    if d_f == 0:
        return PropReport(proposition=3, verdict=INCONCLUSIVE, trials=0,
                          successes=0, bound=_REACH_TOL, notes=notes)
    kb = krylov_basis(a, x0, d_f + 1)
    # dims[d-1] = dim Kr_d, which stops growing once a block adds nothing
    dims = np.cumsum(kb.blocks + (0,) * (d_f + 1 - len(kb.blocks)))
    converse = np.zeros(int(np.sum(dims[1:] < n)))

    def outside(t: int, xt: np.ndarray):
        q = kb.basis[:, :dims[t]]
        rel = (np.linalg.norm(xt - q @ (q.T @ xt), axis=(1, 2))
               / np.linalg.norm(xt, axis=(1, 2)))
        converse[t - 1] = rel.max()
        return rel
    if converse.size:
        run_trajectory(a, x0, LayerConfig(variant="residual", alpha=0.5),
                       converse.size, _trial_rngs(seed, _CONVERSE_TRIALS),
                       observer=outside)
    notes += f"; dim Kr_{d_f} = {dims[d_f - 1]}"
    closed = len(kb.blocks) <= d_f
    if closed:
        notes += f"; Kr closes at depth D={len(kb.blocks)} with r={dims[-1]}"
    checks = {"forward fails at depth": [e <= _REACH_TOL for e in forward],
              "converse fails at step": list(converse <= _CONVERSE_SLACK)}
    for name, oks in checks.items():
        if not all(oks):
            notes += f"; {name} {oks.index(False) + 1}"
    ok = [o for oks in checks.values() for o in oks]
    verdict = FAIL if not all(ok) else PASS if closed else INCONCLUSIVE
    return PropReport(proposition=3, verdict=verdict, trials=len(ok),
                      successes=int(sum(ok)), bound=_REACH_TOL,
                      evidence=(*forward, *converse), notes=notes)


def _reach_config(coef: np.ndarray, d: int) -> LayerConfig:
    """d residual steps (alpha = 0.5) landing on sum_i A^i X0 coef_i:
    W1 is zero at step 0 and identity after, and W2 of step d-1-i
    carries coef_i / 0.5^(i+1)."""
    k = coef.shape[1]
    w1s = (np.zeros((k, k)),) + (np.eye(k),) * (d - 1)
    w2s = [coef[i * k:(i + 1) * k] / 0.5**(i + 1) for i in range(d)]
    return LayerConfig(
        variant="residual", alpha=0.5,
        weight_spec=WeightSpec(mode="explicit", matrices=w1s),
        weight_spec2=WeightSpec(mode="explicit", matrices=tuple(w2s[::-1])))


def check_prop4_bn_no_collapse(
        a: OperatorMatrix, x0: np.ndarray, v: ReferenceVector | np.ndarray,
        trials: int = DEFAULT_TRIALS, steps: int = DEFAULT_STEPS,
        seed: int = 0) -> PropReport:
    """BatchNorm on ``a`` (``verify`` passes the symmetric-normalized
    operator) keeps mu_v above a positive constant.  x0 must reach two
    nonzero centred pairs, rank(V_nonzero^T x0) >= 2, read with no solve
    as rank(P A P x0), P = I - 11^T/n: P A P = V_nz diag(l_nz) V_nz^T.

    The floor follows from BatchNorm output columns being centered unit
    vectors: mu_v >= k (v^T 1 / sqrt(n))^2, applied with a small safety
    margin and never below 1e-8.
    """
    vec = v.v if isinstance(v, ReferenceVector) else np.asarray(v)
    n = a.n
    ones_overlap = float(vec @ np.ones(n)) / np.sqrt(n)
    if ones_overlap <= 0:
        raise DomainError("v must have positive overlap with the ones vector")
    pap = a @ (x0 - x0.mean(axis=0))
    if numerical_rank(pap - pap.mean(axis=0)) < 2:
        raise PreconditionError("rank of V_nonzero^T x0 is below 2")
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


def check_prop5_topk_convergence(
        a: OperatorMatrix, es: EigenSystem, x0: np.ndarray, k: int,
        steps: int = DEFAULT_STEPS, seed: int = 0) -> ConvergenceTrace:
    """BatchNorm dynamics on ``a`` (``verify`` passes the adjacency
    operator) converge to the top-k centered eigenspace; ``es`` is
    ``ones_complement_eig(a)``.

    With no spectral gap at k it is inconclusive and runs nothing.
    Else it records ||nu_{k+1}^T X^(t)|| under Gaussian weights and
    fits the trace's log-slope, reported under q = k+1.  Pass requires
    that slope to respect the one-sided bound log(|l_{k+1}|/|l_k|) +
    0.05 and the final features' top-k distance to be below 1e-6; when
    |l_{k+1}| is numerically zero the trace would be rounding noise, so
    only the distance is checked and the slope is None.
    """
    if not 1 <= k <= a.n - 2:
        raise DomainError(f"k={k} outside [1, n-2]")
    absl = np.abs(es.values)
    vk = check_orthonormal(es.vectors[:, :k])
    if numerical_rank(vk.T @ x0) < k:
        raise PreconditionError("V_k^T x0 is singular: its rank is below k")
    scale = max(1.0, absl[0])
    if absl[k - 1] <= _GAP_TOL or absl[k - 1] - absl[k] <= _GAP_TOL * scale:
        return ConvergenceTrace(slopes={k + 1: None}, target_rate=0.0,
                                verdict=INCONCLUSIVE, notes="no spectral "
                                "gap at k: |l_k| ~ |l_{k+1}|")
    fits = absl[k] > 1e-10 * scale
    nu = es.vectors[:, k]
    observe = (lambda _, xt: np.linalg.norm(nu @ xt)) if fits else None
    log = run_trajectory(a, x0, LayerConfig(variant="batchnorm"), steps,
                         np.random.default_rng(seed), observer=observe)
    dist = subspace_distance(log.final, vk)
    notes = f"final top-k distance {dist:.3e}"
    if fits:
        slope = fit_log_slope(np.array(log.records))
        target = float(np.log(absl[k] / absl[k - 1]))
        ok = np.isfinite(slope) and slope <= target + 0.05 and dist < 1e-6
    else:
        slope, target, ok = None, float("nan"), dist < 1e-6
        notes += "; |l_{k+1}| is numerically zero, so the slope is not checked"
    return ConvergenceTrace(slopes={k + 1: slope}, target_rate=target,
                            verdict=PASS if ok else FAIL, notes=notes)


def identity_steps(values: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
    """Eigen-coordinates c after t identity BatchNorm steps (t = 0 only
    normalises): column i is l^t c_i renormalised, formed as (l/rho_i)^t
    c_i, rho_i the largest |l_j| on the column's nonzero entries, so no
    power overflows.  A vanishing column raises DomainError."""
    lam = np.where(c != 0, values[:, None], 0.0)
    rho = np.abs(lam).max(axis=0)
    c = (lam / np.where(rho > 0, rho, np.inf)) ** t * c
    norms = np.linalg.norm(c, axis=0)
    if not np.all(norms > 0):
        raise DomainError("elimination failure: a column vanishes")
    return c / norms


def build_tightness_schedule(a: OperatorMatrix, es: EigenSystem,
                             x0: np.ndarray, k: int, eps: float):
    """BatchNorm weight schedule recovering the top-k centered
    eigenvectors: k Gaussian-elimination steps, then identity weights
    until the analytic step bound T, in the coordinates c = V^T X of
    ``es = ones_complement_eig(a)``.  BatchNorm's centred columns live
    on the 1-complement, where the centred A acts as diag(l): only the
    first step reads the graph, c <- colnorm(V^T A X0 W), and step m is
    c <- colnorm(diag(l) c W).  Its weight eliminates row m off the
    diagonal, set to exact zeros, so the rows above column i stay zero.
    Returns (the k weights, T, c after step k)."""
    n, kdim = x0.shape
    if k > kdim:
        raise DomainError(f"k={k} exceeds feature width {kdim}")
    absl = np.abs(es.values)
    if absl[k - 1] <= 1e-12 * max(1.0, absl[0]):
        raise DomainError("elimination failure: |l_k| is numerically zero")
    sig = es.vectors.T @ (a @ x0)
    weights = []
    for m in range(k):
        if abs(sig[m, m]) <= 1e-12:
            raise DomainError(f"elimination failure: pivot {m} below "
                              "1e-12 (rank precondition violated)")
        w = np.eye(kdim)
        w[m] = -sig[m] / sig[m, m]
        w[m, m] = 1.0
        weights.append(w)
        c = sig @ w
        c[m, :m] = c[m, m + 1:] = 0.0
        c = identity_steps(es.values, c, 0)
        sig = es.values[:, None] * c
    t_extra = 0
    for i in range(k):
        sii, tail = abs(c[i, i]), np.abs(c[k:, i]).max(initial=0.0)
        num = (np.log(eps * sii**2 / ((n - k) * tail**2)) if tail and sii
               else 0.0)
        den = 2.0 * np.log(absl[k] / absl[i])
        if den < 0 and num < 0:
            t_extra = max(t_extra, int(np.ceil(num / den)))
    return weights, k + t_extra, c


def check_prop6_tightness(a: OperatorMatrix, es: EigenSystem,
                          x0: np.ndarray, k: int, eps: float,
                          seed: int = 0) -> PropReport:
    """The top-k convergence on ``a`` (``verify`` passes the adjacency
    operator) is tight: an explicit schedule aligns column i with the
    i-th centered eigenvector, |nu_i^T X_{:,i}| >= 1/sqrt(1+eps) for all
    i <= k after the analytic step bound T, read from the schedule's
    eigen-coordinates c in ``es = ones_complement_eig(a)``.  Its first
    k + t_f steps, replayed in n-space by ``run_trajectory``, must land
    within _REPLAY_GAP of V c: t_f is the last step at which rounding of
    size n u reinjected on nu_j (j < i <= k), growing by |l_1 / l_k| per
    identity step, stays below _REPLAY_GAP."""
    if not 1 <= k <= a.n - 2:
        raise DomainError(f"k={k} outside [1, n-2]")
    absl = np.abs(es.values)
    scale = max(1.0, absl[0])
    if absl[k - 1] <= 1e-12 * scale:
        return PropReport(proposition=6, verdict=INCONCLUSIVE, trials=k,
                          successes=0, bound=None,
                          notes="|l_k| = 0: tightness assumption violated")
    if abs(absl[k] - absl[k - 1]) <= _GAP_TOL * scale:
        return PropReport(proposition=6, verdict=INCONCLUSIVE, trials=k,
                          successes=0, bound=None,
                          notes="no spectral gap: |l_{k+1}| = |l_k|")
    if numerical_rank(check_orthonormal(es.vectors[:, :k]).T @ x0) < k:
        raise PreconditionError("V_k^T x0 is singular: its rank is below k")
    try:
        weights, t_total, c = build_tightness_schedule(a, es, x0, k, eps)
        growth = np.log(absl[0] / absl[k - 1])
        budget = np.log(_REPLAY_GAP / (a.n * np.finfo(float).eps))
        t_f = min(t_total - k, int(budget / growth) if growth else t_total)
        final = identity_steps(es.values, c, t_total - k)
        replayed = es.vectors @ identity_steps(es.values, c, t_f)
    except DomainError as exc:
        return PropReport(proposition=6, verdict=FAIL, trials=k, successes=0,
                          bound=None, notes=str(exc))
    cfg = LayerConfig(variant="batchnorm", weight_spec=WeightSpec(
        mode="explicit", matrices=(*weights, *[np.eye(x0.shape[1])] * t_f)))
    log = run_trajectory(a, x0, cfg, k + t_f, np.random.default_rng(seed))
    gap = float(np.linalg.norm(log.final - replayed))
    threshold = 1.0 / np.sqrt(1.0 + eps)
    overlaps = np.abs(np.diag(final))[:k]
    successes = int(np.sum(overlaps >= threshold))
    ok = successes == k and gap <= _REPLAY_GAP and not log.aborted
    span = (f"all {t_total} steps" if t_f == t_total - k else
            f"{k + t_f} of {t_total} steps (float64 horizon)")
    notes = f"T={t_total}, t_f={t_f}, replay gap {gap:.3e} after {span}"
    if log.aborted:
        notes += f"; replay aborted: {log.abort_reason}"
    return PropReport(proposition=6, verdict=PASS if ok else FAIL, trials=k,
                      successes=successes, bound=float(threshold),
                      evidence=tuple(float(o) for o in overlaps),
                      notes=notes)


def check_prop7_centering(g: Graph, a: OperatorMatrix,
                          tau: float) -> PropReport:
    """Centering g's adjacency operator ``a`` leaves rest eigenpairs
    intact, distorts the dominant eigenvector of non-regular graphs, and
    shrinks the eigenvalue sum.

    Each claim counts as a trial only where the graph can test it: claim
    1 needs rest pairs (a discrete WL partition has none), claim 2 a
    non-regular graph and claim 3 an edge."""
    rep = check_centering_effect(g, a, tau)
    has_edges = g.num_edges > 0
    claims = []
    if rep.rest_pairs:
        claims.append(rep.rest_preserved)
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
                 if rep.rest_pairs else "")
        notes += (f"rayleigh residual {rep.dominant_rayleigh_residual:.3e}, "
                  f"trace gap {rep.trace_gap:.6g}")
        if rep.graph_is_regular:
            notes += "; claim 2 skipped (regular graph)"
        if not rep.rest_pairs:
            notes += "; no rest pairs: the WL partition is discrete"
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

    Each step's Gaussian weight is divided by max(1, its spectral norm),
    drawn ahead into an explicit schedule for ``run_trajectory``, so the
    collapse rate is read off the normalized trace sqrt(mu_v)/||X||_F,
    whose log-slope matches log|l_2/l_1|.
    """
    if not is_connected(g):
        raise DomainError("oversmoothing baseline requires a connected graph")
    a = build_operator(g, "sym_normalized")
    es = symmetric_eig(a)
    v = es.vectors[:, 0]
    target = float(np.log(abs(es.values[1] / es.values[0])))
    mu0 = mu(x0, v)
    rng = np.random.default_rng(seed)
    kdim = x0.shape[1]
    draws = (rng.normal(0.0, 1.0 / np.sqrt(kdim), size=(kdim, kdim))
             for _ in range(steps))
    weights = tuple(w / max(1.0, np.linalg.norm(w, 2)) for w in draws)
    cfg = LayerConfig(weight_spec=WeightSpec(mode="explicit",
                                             matrices=weights))
    log = run_trajectory(a, x0, cfg, steps, rng, observer=lambda _, x: (
        mu(x, v), float(np.linalg.norm(x))))
    trace = np.array([np.sqrt(m) / fn if fn > 0 else 0.0
                      for m, fn in log.records])
    mu_end = log.records[-1][0]
    slope = fit_log_slope(trace)
    ok = mu_end <= 1e-6 * mu0 and np.isfinite(slope) and slope < 0
    return ConvergenceTrace(slopes={2: slope}, target_rate=target,
                            verdict=PASS if ok else FAIL,
                            notes=f"mu ratio {mu_end / mu0:.3e}")

