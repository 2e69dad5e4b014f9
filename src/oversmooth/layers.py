"""Forward dynamics of every layer variant, plus weight sampling.

Feature matrices are plain float64 arrays of shape (n, k).  All layer
functions are pure; ``run_trajectory`` owns the only mutable state of a
run and looks each variant's step up in one table.  Given one generator
per trial, it advances T trials from a shared x0 as one (n, T, k) block:
every step applies the operator once to the (n, T*k) block, multiplies
each trial by its own weights in one batched product, normalizes the
block once, column statistics along axis 0, and calls the observer once
with the (T, n, k) trial-major block of the live trials.  Each trial's
Gaussian weights are drawn from its own generator a chunk of steps at a
time.  A single generator is the T = 1 block, and the public per-matrix
functions (``batch_norm``, ``pair_norm`` ...) run the same block
arithmetic on one matrix.  Degenerate (zero/constant) normalization
columns abort a trial rather than being masked with an epsilon; the
other trials of a block go on.
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

# Gaussian weight entries drawn ahead across a stacked run's live
# trials: each trial draws its next m steps in one call, m sized so the
# drawn-ahead block stays within this many floats (32 KB) at any T and
# k.  A 64 or 128 KB chunk raised simulate's peak RSS by 0.25 MB.
_WEIGHT_FLOATS = 4096


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
    return rng.normal(0.0, _gaussian_std(spec, shape[0]), size=shape)


def _gaussian_std(spec: WeightSpec, k: int) -> float:
    return spec.std if spec.std is not None else 1.0 / np.sqrt(k)


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


# Block arithmetic.  A block is an (n, T, k) array holding T trials' (n, k)
# features side by side; column statistics run along axis 0.  The public
# per-matrix functions below run the same arithmetic on T = 1.

def _xw(ax: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each trial's slice of the (n, T, k) block ax times its own weight
    from the (T, k, k) stack w."""
    return np.matmul(ax.transpose(1, 0, 2), w).transpose(1, 0, 2)


def _residual_mix(ax: np.ndarray, x0: np.ndarray, w1: np.ndarray,
                  w2: np.ndarray, alpha: float, nl: str) -> np.ndarray:
    """sigma((1-alpha) AX W1 + alpha X0 W2) from the propagated block AX."""
    return _apply_nl((1.0 - alpha) * _xw(ax, w1)
                     + alpha * np.matmul(x0, w2).transpose(1, 0, 2), nl)


def _check_denominators(norms: np.ndarray, ref: np.ndarray):
    """Masks (bad, over) of the (T, m) denominators: over marks an
    overflowed norm, bad also one at rounding level of its reference."""
    # an overflowed norm passes the zero test too (its ref is inf), so
    # an overflow is reported before any zero column of its trial
    over = np.isinf(norms)
    return over | (norms <= _DEGENERATE_TOL * np.maximum(1.0, ref)), over


def _block_normalized(num: np.ndarray, den: np.ndarray, ref: np.ndarray,
                      what: str):
    """num / den, and the DegenerateColumnError of each trial, by its
    position in the block, whose denominators fail the check."""
    bad, over = _check_denominators(den, ref)
    faults = {}
    if bad.any():
        for t in np.flatnonzero(bad.any(axis=1)):
            i = int(np.argmax(over[t] if over[t].any() else bad[t]))
            faults[int(t)] = DegenerateColumnError(
                i, "norm overflowed" if over[t, i] else what)
        # a failing trial's quotient is discarded with the trial
        den = np.where(bad, 1.0, den)
    return num / den, faults


def _normalized(x: np.ndarray, normalizer, *args) -> np.ndarray:
    """A block normalizer applied to one (n, k) matrix; an overflow is
    reported as its DegenerateColumnError, not as a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        y, faults = _block_normalized(*normalizer(x[:, None, :], *args))
    if faults:
        raise faults[0]
    return y[:, 0, :]


# A block normalizer maps an (n, T, k) block to (numerator, denominators,
# reference norms, reason); the result is numerator / denominators.

def _bn(y):
    centered = y - y.mean(axis=0, keepdims=True)
    return (centered, np.linalg.norm(centered, axis=0),
            np.linalg.norm(y, axis=0), "zero vector after centering")


def _gn(y, tau):
    centered = y - tau * y.mean(axis=0, keepdims=True)
    return (centered, np.linalg.norm(centered, axis=0) / np.sqrt(y.shape[0]),
            np.linalg.norm(y, axis=0), "zero spread after partial centering")


def _gn2(y, ctx, tau):
    coords = ctx.vkplus.T @ y.transpose(1, 0, 2)    # (T, k+1, k)
    # column j: V tau_j tau_j^T coords_j
    scal = np.sum(tau * coords, axis=1, keepdims=True)  # tau_j^T V^T y_j
    centered = y - (ctx.vkplus @ (tau * scal)).transpose(1, 0, 2)
    return (centered, np.linalg.norm(centered, axis=0),
            np.linalg.norm(y, axis=0),
            "zero vector after projection centering")


def _frobenius(y: np.ndarray) -> np.ndarray:
    """Per-trial Frobenius norm of the block, as (T, 1): the dot product
    of each trial's flattened features with itself, the sum
    np.linalg.norm forms for one matrix."""
    flat = y.transpose(1, 0, 2).reshape(y.shape[1], 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0]


def _pn(y, s):
    centered = y - y.mean(axis=0, keepdims=True)
    return (s * np.sqrt(y.shape[0]) * centered, _frobenius(centered),
            _frobenius(y), "all columns zero after centering")


def _unit_columns(y, x):
    """Per-column 2-norm scaling of the step output y of features x."""
    return (y, np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0),
            "zero column")


def step_vanilla(a: OperatorMatrix, x: np.ndarray, w: np.ndarray,
                 nl: str = "identity") -> np.ndarray:
    """X <- sigma(A X W)."""
    if x.shape[0] != a.n or w.shape[0] != x.shape[1]:
        raise ContractError(
            f"shape mismatch: A {a.data.shape}, X {x.shape}, W {w.shape}")
    return _apply_nl(a @ x @ w, nl)


def step_residual(a: OperatorMatrix, x: np.ndarray, x0: np.ndarray,
                  w1: np.ndarray, w2: np.ndarray, alpha: float,
                  nl: str = "identity") -> np.ndarray:
    """X <- sigma((1-alpha) A X W1 + alpha X0 W2)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0,1)")
    if x0.shape != x.shape:
        raise ContractError(f"x0 shape {x0.shape} != x shape {x.shape}")
    return _residual_mix((a @ x)[:, None, :], x0, w1[None], w2[None],
                         alpha, nl)[:, 0, :]


def batch_norm(x: np.ndarray) -> np.ndarray:
    """Center each column, then divide by its 2-norm."""
    return _normalized(x, _bn)


def graph_norm(x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Partial-mean centering: subtract tau_j of the column mean, then
    scale by the root-mean-square."""
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (x.shape[1],))
    return _normalized(x, _gn, tau)


def graph_norm_v2(x: np.ndarray, ctx: NormContext,
                  tau: np.ndarray) -> np.ndarray:
    """Projection centering: subtract (V_{k+} tau_j tau_j^T V_{k+}^T) x_j,
    then scale each column by the 2-norm of the result."""
    k = x.shape[1]
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (ctx.vkplus.shape[1], k):
        raise ContractError(
            f"tau shape {tau.shape} != ({ctx.vkplus.shape[1]}, {k})")
    return _normalized(x, _gn2, ctx, tau)


def pair_norm(x: np.ndarray, s: float = 1.0) -> np.ndarray:
    """Column-mean centering followed by global Frobenius rescaling to
    s * sqrt(n)."""
    return _normalized(x, _pn, s)


def power_embed_step(a: OperatorMatrix, x: np.ndarray, w: np.ndarray,
                     nl: str = "identity") -> np.ndarray:
    """sigma(A X W) followed by per-column 2-norm scaling (no centering)."""
    return _normalized(step_vanilla(a, x, w, nl), _unit_columns,
                       x[:, None, :])


# A variant's factory runs once per trajectory with (a, x0, cfg) and
# returns its block step (X, AX, *weights) -> (X', faults): X and AX =
# A @ X are (n, T, k) blocks, each weight a (T, k, k) stack, and faults
# maps a trial's position in the block to the DegenerateColumnError
# that stops it.

def _sigma_xw(ax, w, cfg):
    return _apply_nl(_xw(ax, w), cfg.nonlinearity)


def _vanilla(a, x0, cfg):
    return lambda x, ax, w: (_sigma_xw(ax, w, cfg), {})


def _residual(a, x0, cfg):
    return lambda x, ax, w1, w2: (
        _residual_mix(ax, x0, w1, w2, cfg.alpha, cfg.nonlinearity), {})


def _batchnorm(a, x0, cfg):
    return lambda x, ax, w: _block_normalized(*_bn(_sigma_xw(ax, w, cfg)))


def _pairnorm(a, x0, cfg):
    return lambda x, ax, w: _block_normalized(
        *_pn(_sigma_xw(ax, w, cfg), cfg.scale))


def _graphnorm(a, x0, cfg):
    tau = np.ones(x0.shape[1])
    return lambda x, ax, w: _block_normalized(
        *_gn(_sigma_xw(ax, w, cfg), tau))


def _graphnormv2(a, x0, cfg):
    ctx = cfg.norm_context or build_norm_context(a, cfg.gnv2_k)
    tau = np.tile(bn_emulating_tau(ctx)[:, None], (1, x0.shape[1]))
    return lambda x, ax, w: _block_normalized(
        *_gn2(_sigma_xw(ax, w, cfg), ctx, tau))


def _powerembed(a, x0, cfg):
    return lambda x, ax, w: _block_normalized(
        *_unit_columns(_sigma_xw(ax, w, cfg), x))


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


class _Weights:
    """The live trials' weights for one step: per spec, a (T, k, k) stack.

    Each trial draws a Gaussian spec's weights from its own generator,
    one call per chunk of steps: the call fills (m, specs, k, k) in the
    order per-step (k, k) ``rng.normal`` draws would, step by step and
    W1 before W2, so the weights are bit for bit those draws.
    Identity and explicit weights are the same for every trial.
    """

    def __init__(self, specs, rngs, k: int, steps: int):
        self.specs, self.rngs, self.k, self.steps = specs, rngs, k, steps
        # spec position -> its slot among the Gaussian specs
        self.slot = {}
        stds = []
        for pos, spec in enumerate(specs):
            if spec.mode == "gaussian":
                self.slot[pos] = len(stds)
                stds.append(_gaussian_std(spec, k))
        self.scale = np.array(stds)[:, None, None]
        per_step = len(rngs) * len(stds) * k * k
        self.chunk = max(1, _WEIGHT_FLOATS // max(per_step, 1))
        self.drawn = None       # (T, m, Gaussian specs, k, k)

    def at(self, t: int, live: list) -> list:
        """Step t's weight stacks for the trials ``live``; a chunk's
        first step draws the chunk."""
        s = t % self.chunk
        if self.slot and s == 0:
            size = (min(self.chunk, self.steps - t), len(self.slot),
                    self.k, self.k)
            # filled in place, after the spent chunk is freed: rng.normal
            # (0, std) is 0.0 + std * z of the same standard normals z
            self.drawn = None
            self.drawn = np.empty((len(live), *size))
            for j, i in enumerate(live):
                self.rngs[i].standard_normal(out=self.drawn[j])
            self.drawn *= self.scale
            self.drawn += 0.0       # turns std * z = -0.0 into +0.0
        return [self.drawn[:, s, self.slot[pos]] if pos in self.slot
                else np.broadcast_to(
                    sample_weight(spec, (self.k, self.k), None, step=t),
                    (len(live), self.k, self.k))
                for pos, spec in enumerate(self.specs)]

    def keep(self, rows: list):
        """Drop the drawn weights of every trial not in ``rows``."""
        if self.drawn is not None:
            self.drawn = self.drawn[rows]


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
    start from the shared x0 and advance as one (n, T, k) block of the
    live trials, a single generator being T = 1: each step applies the
    operator once to the (n, T*k) block, multiplies each trial by its
    own weights in one batched product, normalizes the block once and
    checks it for non-finite features once.  Each trial draws its own
    Gaussian weights (W1 before W2 for the residual variant) from its
    own generator, a chunk of steps per call, so a generator may be
    advanced by up to one chunk past the last step it was used for.

    The observer is called once after every step.  A single generator
    passes (step, X), X the trial's (n, k) features, and the return
    value is appended to the trial's records.  A sequence passes
    (step, X), X the (T_live, n, k) trial-major block of the trials
    still running, in trial order; the observer returns one record per
    live trial, and the i-th goes to the i-th live trial's records.
    Step and observer run with numpy's overflow and invalid-value
    warnings silenced; the non-finite check reports an overflow as the
    abort reason.

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
    n, k = x.shape
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise DomainError("a stacked run needs at least one generator")
    factory, n_weights = _STEPS[cfg.variant]
    step = factory(a, x, cfg)
    weights = _Weights(
        (cfg.weight_spec, cfg.weight_spec2 or cfg.weight_spec)[:n_weights],
        rngs, k, steps)
    records = [[] for _ in rngs]
    logs: list = [None] * len(rngs)
    live = list(range(len(rngs)))
    # trial-major: block[j] is live trial j's (n, k) features, laid out
    # as a lone trial's are, so its column sums and its observer see the
    # same bytes; block.transpose(1, 0, 2) is the (n, T, k) view
    block = np.repeat(x[None], len(rngs), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if not live:
                break
            xb = block.transpose(1, 0, 2)
            # a C-ordered operand: at k = 1 a plain reshape would give a
            # Fortran-ordered view, whose product BLAS rounds differently
            ax = (a @ np.ascontiguousarray(xb).reshape(n, -1)
                  ).reshape(xb.shape)
            y, faults = step(xb, ax, *weights.at(t, live))
            y_trials = y.transpose(1, 0, 2)
            finite = np.isfinite(y).all(axis=(0, 2))
            if faults or not finite.all():
                keep = []
                for j, i in enumerate(live):
                    reason = (str(faults[j]) if j in faults else None
                              if finite[j] else "non-finite features")
                    if reason is None:
                        keep.append(j)
                        continue
                    logs[i] = TrajectoryLog(
                        records=records[i], final=block[j].copy(),
                        aborted=True, abort_step=t + 1, abort_reason=reason)
                live = [live[j] for j in keep]
                y_trials = y_trials[keep]
                weights.keep(keep)
            block = y_trials
            if observer is None or not live:
                continue
            if single:
                records[0].append(observer(t + 1, block[0]))
                continue
            observed = observer(t + 1, block)
            if len(observed) != len(live):
                raise ContractError(
                    f"observer returned {len(observed)} records for "
                    f"{len(live)} live trials")
            for i, rec in zip(live, observed):
                records[i].append(rec)
    for j, i in enumerate(live):
        logs[i] = TrajectoryLog(records=records[i], final=block[j].copy())
    if single:
        return logs[0]
    stopped = not live
    return TrajectoryLog(
        records=[], final=np.concatenate([log.final for log in logs], axis=1),
        aborted=stopped,
        abort_step=max(log.abort_step for log in logs) if stopped else None,
        abort_reason="every trial aborted" if stopped else None,
        trials=tuple(logs))
