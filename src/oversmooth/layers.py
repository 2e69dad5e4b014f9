"""Forward dynamics of every layer variant, plus weight sampling.

Feature matrices are plain float64 arrays of shape (n, k).  All layer
functions are pure; ``run_trajectory`` owns the only mutable state of a
run and looks each variant's step up in one table.  Given one generator
per trial, it advances T trials from a shared x0 as one stack: the
operator is applied once per step to the (n, T*k) block, and the rest of
the step runs on each trial's (n, k) slice.  Degenerate (zero/constant)
normalization columns abort a trial rather than being masked with an
epsilon; the other trials of a stack go on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DegenerateColumnError, DomainError
from .graphio import OperatorMatrix
from .spectral import symmetric_eig, top_k

NONLINEARITIES = ("identity", "relu")

_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class WeightSpec:
    """How layer weights are produced.

    gaussian: i.i.d. N(0, std^2) entries, std=None meaning 1/sqrt(k)
    (variance-preserving at init).  identity: I_k.  explicit: a fixed
    per-step list of matrices.
    """

    mode: str = "gaussian"
    std: Optional[float] = None
    matrices: Optional[tuple] = None

    def __post_init__(self):
        if self.mode not in ("gaussian", "identity", "explicit"):
            raise DomainError(f"unknown weight mode {self.mode!r}")
        if self.std is not None and self.std < 0:
            raise DomainError("weight std must be >= 0")
        if self.mode == "explicit" and not self.matrices:
            raise DomainError("explicit weight spec needs matrices")


def sample_weight(spec: WeightSpec, shape: tuple[int, int],
                  rng: np.random.Generator, step: int = 0) -> np.ndarray:
    """Draw (or look up) the weight matrix for one step."""
    if spec.mode == "identity":
        return np.eye(shape[0], shape[1])
    if spec.mode == "explicit":
        if step >= len(spec.matrices):
            raise DomainError(f"explicit weight list exhausted at step {step}")
        w = np.asarray(spec.matrices[step], dtype=np.float64)
        if w.shape != shape:
            raise ContractError(f"explicit weight shape {w.shape} != {shape}")
        return w
    std = spec.std if spec.std is not None else 1.0 / np.sqrt(shape[0])
    return rng.normal(0.0, std, size=shape)


@dataclass(frozen=True)
class NormContext:
    """Top-k eigenvector basis augmented with the all-ones completion,
    used by the projection-centered normalization layer."""

    vkplus: np.ndarray

    def __post_init__(self):
        gram = self.vkplus.T @ self.vkplus
        if np.abs(gram - np.eye(gram.shape[0])).max(initial=0.0) > 1e-8:
            raise ContractError("vkplus is not orthonormal")

    @property
    def k(self) -> int:
        return self.vkplus.shape[1] - 1


def build_norm_context(a: OperatorMatrix, k: int) -> NormContext:
    """V_{k+} = [V_k | r/||r||] with r = 1 - V_k V_k^+ 1."""
    n = a.n
    if not 0 <= k <= n - 1:
        raise DomainError(f"projection width k={k} must be in [0, n-1]")
    vk = top_k(symmetric_eig(a), k)
    ones = np.ones(n)
    r = ones - vk @ (vk.T @ ones)
    norm = np.linalg.norm(r)
    if norm < 1e-12 * np.sqrt(n):
        raise DomainError("all-ones vector already lies in the top-k basis")
    return NormContext(vkplus=np.concatenate([vk, (r / norm)[:, None]], axis=1))


def bn_emulating_tau(ctx: NormContext) -> np.ndarray:
    """Coordinates of 1/sqrt(n) in the V_{k+} basis; with this tau the
    projection centering reproduces the plain mean subtraction."""
    n = ctx.vkplus.shape[0]
    return ctx.vkplus.T @ (np.ones(n) / np.sqrt(n))


@dataclass(frozen=True)
class LayerConfig:
    """One layer variant plus its parameters."""

    variant: str = "vanilla"
    nonlinearity: str = "identity"
    weight_spec: WeightSpec = field(default_factory=WeightSpec)
    weight_spec2: Optional[WeightSpec] = None  # residual W2 (default: weight_spec)
    alpha: float = 0.2                # residual strength
    scale: float = 1.0                # pairnorm target scale
    gnv2_k: int = 2                   # projection width
    norm_context: Optional[NormContext] = None   # precomputed V_{k+}

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown layer variant {self.variant!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise DomainError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.variant == "residual" and not 0.0 < self.alpha < 1.0:
            raise DomainError(f"residual alpha={self.alpha} outside (0,1)")


def _apply_nl(x: np.ndarray, nl: str) -> np.ndarray:
    if nl == "relu":
        return np.maximum(x, 0.0)
    return x


def _residual_mix(ax: np.ndarray, x0: np.ndarray, w1: np.ndarray,
                  w2: np.ndarray, alpha: float, nl: str) -> np.ndarray:
    """sigma((1-alpha) AX W1 + alpha X0 W2) from the propagated AX."""
    return _apply_nl((1.0 - alpha) * (ax @ w1) + alpha * (x0 @ w2), nl)


def step_vanilla(a: OperatorMatrix, x: np.ndarray, w: np.ndarray,
                 nl: str = "identity") -> np.ndarray:
    """X <- sigma(A X W)."""
    if x.shape[0] != a.n or w.shape[0] != x.shape[1]:
        raise ContractError(
            f"shape mismatch: A {a.data.shape}, X {x.shape}, W {w.shape}")
    return _apply_nl(a.data @ x @ w, nl)


def step_residual(a: OperatorMatrix, x: np.ndarray, x0: np.ndarray,
                  w1: np.ndarray, w2: np.ndarray, alpha: float,
                  nl: str = "identity") -> np.ndarray:
    """X <- sigma((1-alpha) A X W1 + alpha X0 W2)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0,1)")
    if x0.shape != x.shape:
        raise ContractError(f"x0 shape {x0.shape} != x shape {x.shape}")
    return _residual_mix(a.data @ x, x0, w1, w2, alpha, nl)


def _check_denominators(norms: np.ndarray, ref: np.ndarray, what: str):
    bad = norms <= _DEGENERATE_TOL * np.maximum(1.0, ref)
    if np.any(bad):
        raise DegenerateColumnError(int(np.flatnonzero(bad)[0]), what)


def batch_norm(x: np.ndarray) -> np.ndarray:
    """Center each column, then divide by its 2-norm."""
    centered = x - x.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(centered, axis=0)
    _check_denominators(norms, np.linalg.norm(x, axis=0),
                        "zero vector after centering")
    return centered / norms


def graph_norm(x: np.ndarray, tau: np.ndarray, gamma=None,
               beta=None) -> np.ndarray:
    """Partial-mean centering: subtract tau_j of the column mean, scale
    by the root-mean-square, then apply the affine parameters."""
    n, k = x.shape
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (k,))
    gamma = np.ones(k) if gamma is None else np.asarray(gamma, dtype=np.float64)
    beta = np.zeros(k) if beta is None else np.asarray(beta, dtype=np.float64)
    centered = x - tau[None, :] * x.mean(axis=0, keepdims=True)
    sigma = np.linalg.norm(centered, axis=0) / np.sqrt(n)
    _check_denominators(sigma, np.linalg.norm(x, axis=0),
                        "zero spread after partial centering")
    return gamma[None, :] * centered / sigma[None, :] + beta[None, :]


def graph_norm_v2(x: np.ndarray, ctx: NormContext, tau: np.ndarray,
                  gamma=None, beta=None) -> np.ndarray:
    """Projection centering: subtract (V_{k+} tau_j tau_j^T V_{k+}^T) x_j,
    scale each column by the 2-norm of the result, apply the affine."""
    n, k = x.shape
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (ctx.vkplus.shape[1], k):
        raise ContractError(
            f"tau shape {tau.shape} != ({ctx.vkplus.shape[1]}, {k})")
    gamma = np.ones(k) if gamma is None else np.asarray(gamma, dtype=np.float64)
    beta = np.zeros(k) if beta is None else np.asarray(beta, dtype=np.float64)
    coords = ctx.vkplus.T @ x                       # (k+1, k)
    # column j: V tau_j tau_j^T coords_j
    scal = np.sum(tau * coords, axis=0)             # tau_j^T V^T x_j
    centered = x - ctx.vkplus @ (tau * scal[None, :])
    sigma = np.linalg.norm(centered, axis=0)
    _check_denominators(sigma, np.linalg.norm(x, axis=0),
                        "zero vector after projection centering")
    return gamma[None, :] * centered / sigma[None, :] + beta[None, :]


def pair_norm(x: np.ndarray, s: float = 1.0) -> np.ndarray:
    """Column-mean centering followed by global Frobenius rescaling to
    s * sqrt(n)."""
    n = x.shape[0]
    centered = x - x.mean(axis=0, keepdims=True)
    total = np.linalg.norm(centered)
    if total <= _DEGENERATE_TOL * max(1.0, float(np.linalg.norm(x))):
        raise DegenerateColumnError(0, "all columns zero after centering")
    return s * np.sqrt(n) * centered / total


def _unit_columns(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-column 2-norm scaling of the step output y of features x."""
    norms = np.linalg.norm(y, axis=0)
    _check_denominators(norms, np.linalg.norm(x, axis=0), "zero column")
    return y / norms


def power_embed_step(a: OperatorMatrix, x: np.ndarray, w: np.ndarray,
                     nl: str = "identity") -> np.ndarray:
    """sigma(A X W) followed by per-column 2-norm scaling (no centering)."""
    return _unit_columns(step_vanilla(a, x, w, nl), x)


# A variant's factory runs once per trajectory with (a, x0, cfg) and
# returns its step X <- step(X, AX, *weights), where AX = A @ X is the
# trial's slice of the product run_trajectory forms for the whole stack.

def _vanilla(a, x0, cfg):
    return lambda x, ax, w: _apply_nl(ax @ w, cfg.nonlinearity)


def _residual(a, x0, cfg):
    return lambda x, ax, w1, w2: _residual_mix(ax, x0, w1, w2, cfg.alpha,
                                               cfg.nonlinearity)


def _batchnorm(a, x0, cfg):
    return lambda x, ax, w: batch_norm(_apply_nl(ax @ w, cfg.nonlinearity))


def _pairnorm(a, x0, cfg):
    return lambda x, ax, w: pair_norm(_apply_nl(ax @ w, cfg.nonlinearity),
                                      cfg.scale)


def _graphnorm(a, x0, cfg):
    tau = np.ones(x0.shape[1])
    return lambda x, ax, w: graph_norm(_apply_nl(ax @ w, cfg.nonlinearity),
                                       tau)


def _graphnormv2(a, x0, cfg):
    ctx = cfg.norm_context or build_norm_context(a, cfg.gnv2_k)
    tau = np.tile(bn_emulating_tau(ctx)[:, None], (1, x0.shape[1]))
    return lambda x, ax, w: graph_norm_v2(_apply_nl(ax @ w, cfg.nonlinearity),
                                          ctx, tau)


def _powerembed(a, x0, cfg):
    return lambda x, ax, w: _unit_columns(
        _apply_nl(ax @ w, cfg.nonlinearity), x)


# variant -> (step factory, weights drawn per step); the weights are
# drawn from (weight_spec, weight_spec2) in that order.
_STEPS = {
    "vanilla": (_vanilla, 1),
    "residual": (_residual, 2),
    "batchnorm": (_batchnorm, 1),
    "pairnorm": (_pairnorm, 1),
    "graphnorm": (_graphnorm, 1),
    "graphnormv2": (_graphnormv2, 1),
    "powerembed": (_powerembed, 1),
}
VARIANTS = tuple(_STEPS)


@dataclass
class TrajectoryLog:
    """Per-step observer records for one simulated run.

    A stacked run returns one log whose ``trials`` holds each trial's
    own log.  Its other fields then describe the shared loop: no
    records, ``final`` is the (n, T*k) block of the trials' final
    features, and the loop counts as aborted, at the step where it
    stopped, only once every trial has aborted.
    """

    records: list
    final: np.ndarray
    aborted: bool = False
    abort_step: Optional[int] = None
    abort_reason: Optional[str] = None
    trials: tuple = ()

    def __len__(self):
        return len(self.records)


def run_trajectory(a: OperatorMatrix, x0: np.ndarray, cfg: LayerConfig,
                   steps: int,
                   rng: np.random.Generator | Sequence[np.random.Generator],
                   observer: Optional[Callable[[int, np.ndarray], object]] = None,
                   ) -> TrajectoryLog:
    """Apply the configured layer ``steps`` times.

    ``rng`` is one generator, or one generator per trial.  The T trials
    of a sequence start from the shared x0 and advance as one stack:
    each step applies the operator once to the (n, T*k) block of the
    live trials.  Each trial draws its own weights (W1 before W2 for the
    residual variant), and its X W, normalization, non-finite check and
    observer record are computed on its own (n, k) slice.  The observer
    is invoked after every step with (step, X) and its return value is
    appended to that trial's records.

    Degenerate columns or non-finite features stop a trial with its
    partial records, the features before the failed step, the abort
    step and the reason; the other trials go on.  A single generator
    returns that trial's log; a sequence returns a stacked log whose
    ``trials`` are the per-trial logs in order.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    x = np.array(x0, dtype=np.float64, copy=True)
    if x.ndim != 2 or x.shape[0] != a.n:
        raise ContractError(f"x0 shape {x.shape} incompatible with n={a.n}")
    k = x.shape[1]
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise DomainError("a stacked run needs at least one generator")
    factory, n_weights = _STEPS[cfg.variant]
    step = factory(a, x0, cfg)
    specs = (cfg.weight_spec, cfg.weight_spec2 or cfg.weight_spec)[:n_weights]
    xs = [x] * len(rngs)
    records = [[] for _ in rngs]
    logs: list = [None] * len(rngs)
    live = list(range(len(rngs)))
    for t in range(steps):
        if not live:
            break
        ws = [[sample_weight(spec, (k, k), rngs[i], step=t) for spec in specs]
              for i in live]
        ax = a.data @ np.concatenate([xs[i] for i in live], axis=1)
        still = []
        for j, i in enumerate(live):
            try:
                x_new = step(xs[i], ax[:, j * k:(j + 1) * k], *ws[j])
            except DegenerateColumnError as exc:
                reason = str(exc)
            else:
                reason = (None if np.all(np.isfinite(x_new))
                          else "non-finite features")
            if reason is not None:
                logs[i] = TrajectoryLog(records=records[i], final=xs[i],
                                        aborted=True, abort_step=t + 1,
                                        abort_reason=reason)
                continue
            xs[i] = x_new
            if observer is not None:
                records[i].append(observer(t + 1, x_new))
            still.append(i)
        live = still
    for i in live:
        logs[i] = TrajectoryLog(records=records[i], final=xs[i])
    if single:
        return logs[0]
    stopped = not live
    return TrajectoryLog(
        records=[], final=np.concatenate(xs, axis=1), aborted=stopped,
        abort_step=max(log.abort_step for log in logs) if stopped else None,
        abort_reason="every trial aborted" if stopped else None,
        trials=tuple(logs))
