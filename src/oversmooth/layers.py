"""Forward dynamics of every layer variant, plus weight sampling.

Feature matrices are plain float64 arrays of shape (n, k).
``run_trajectory`` owns the only mutable state of a run and looks each
variant's step up in one table.  It advances T trials, one generator
each, as one node-major (n, T, k) block that every step rewrites in
place (its docstring has the layout); a single generator is the T = 1
block, so every variant runs through this one block step.
Nothing here solves an eigenproblem: graphnormv2 reads V_{k+} from
``LayerConfig.norm_context``, built from the caller's top-k block.
Degenerate (zero/constant) normalization columns abort a trial rather
than being masked with an epsilon; the other trials of a block go on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DegenerateColumnError, DomainError
from .graphio import OperatorMatrix

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
            raise DomainError(f"weight std={self.std} must be >= 0")
        if self.mode == "explicit" and not self.matrices:
            raise DomainError("explicit weight spec needs matrices")


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


def build_norm_context(vk: np.ndarray) -> NormContext:
    """V_{k+} = [V_k | r/||r||] with r = 1 - V_k V_k^+ 1, from the (n, k)
    block V_k of top-k eigenvectors."""
    n = vk.shape[0]
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
    norm_context: Optional[NormContext] = None   # graphnormv2's V_{k+}

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown layer variant {self.variant!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise DomainError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.variant == "residual" and not 0.0 < self.alpha < 1.0:
            raise DomainError(f"residual alpha={self.alpha} outside (0,1)")
        if self.variant == "graphnormv2" and self.norm_context is None:
            raise DomainError("graphnormv2 needs a norm_context (V_{k+})")


def _apply_nl(y: np.ndarray, nl: str):
    """The nonlinearity, applied to y in place."""
    if nl == "relu":
        np.maximum(y, 0.0, out=y)


# Block arithmetic.  A block is a C-contiguous (n, T, k) array holding T
# trials' (n, k) features side by side, node-major: row i is node i in
# every trial.  Column statistics run along axis 0, so their inner loops
# run over all T*k columns.  Everything here writes its result into a
# block it is given, and squares into a scratch block s of that shape
# (the step passes its spent A @ X block).

def _xw(ax: np.ndarray, w: np.ndarray, out: np.ndarray):
    """Each trial's slice of the block ax times its own weight from the
    (T, k, k) stack w, written to the block out."""
    np.matmul(ax.transpose(1, 0, 2), w, out=out.transpose(1, 0, 2))


def _mean(y: np.ndarray) -> np.ndarray:
    """Column means of the block, as y.mean(axis=0, keepdims=True)."""
    m = np.add.reduce(y, axis=0, keepdims=True)
    m /= y.shape[0]
    return m


def _col_norms(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Column 2-norms of the block, the sums np.linalg.norm(y, axis=0)
    forms, squared into the scratch block s."""
    np.multiply(y, y, out=s)
    norms = np.add.reduce(s, axis=0)
    return np.sqrt(norms, out=norms)


def _check_denominators(norms: np.ndarray, ref: np.ndarray):
    """Masks (bad, over) of the (T, m) denominators: over marks an
    overflowed norm, bad also one at rounding level of its reference."""
    # an overflowed norm passes the zero test too (its ref is inf), so
    # an overflow is reported before any zero column of its trial
    over = np.isinf(norms)
    return over | (norms <= _DEGENERATE_TOL * np.maximum(1.0, ref)), over


def _block_normalized(num: np.ndarray, den: np.ndarray, ref: np.ndarray,
                      what: str) -> dict:
    """Divide the block num by den in place; returns the
    DegenerateColumnError of each trial, by its position in the block,
    whose denominators fail the check."""
    bad, over = _check_denominators(den, ref)
    faults = {}
    if bad.any():
        for t in np.flatnonzero(bad.any(axis=1)):
            i = int(np.argmax(over[t] if over[t].any() else bad[t]))
            faults[int(t)] = DegenerateColumnError(
                i, "norm overflowed" if over[t, i] else what)
        # a failing trial's quotient is discarded with the trial
        den = np.where(bad, 1.0, den)
    num /= den
    return faults


# A block normalizer turns the block y, in place, into its numerator and
# returns (numerator, denominators, reference norms, reason); the step's
# output is numerator / denominators.

def _bn(y, s):
    ref = _col_norms(y, s)
    y -= _mean(y)
    return y, _col_norms(y, s), ref, "zero vector after centering"


def _gn(y, s):
    y, den, ref, _ = _bn(y, s)
    return (y, den / np.sqrt(y.shape[0]), ref,
            "zero spread after partial centering")


def _gn2(y, s, ctx, tau):
    ref = _col_norms(y, s)
    coords = ctx.vkplus.T @ y.transpose(1, 0, 2)    # (T, k+1, k)
    # column j: V tau_j tau_j^T coords_j
    scal = np.sum(tau * coords, axis=1, keepdims=True)  # tau_j^T V^T y_j
    np.matmul(ctx.vkplus, tau * scal, out=s.transpose(1, 0, 2))
    y -= s
    return (y, _col_norms(y, s), ref,
            "zero vector after projection centering")


def _trial_major(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the block y into out, a C-contiguous (T, n, k) array, each
    trial's k-float row of a node moved as one np.void element, so the
    transposing copy loops over n*T rows rather than n*T*k floats."""
    row = np.dtype((np.void, y.shape[2] * y.itemsize))
    np.copyto(out.view(row)[..., 0], y.view(row)[..., 0].T)
    return out


def _frobenius(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-trial Frobenius norm of the block, as (T, 1): the dot product
    of each trial's flattened features with itself, the sum
    np.linalg.norm forms for one matrix, over the trials copied
    trial-major into the scratch block s."""
    n, trials, k = y.shape
    flat = _trial_major(y, s.reshape(trials, n, k)).reshape(trials, 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0]


def _pn(y, s, scale):
    ref = _frobenius(y, s)
    y -= _mean(y)
    den = _frobenius(y, s)
    y *= scale * np.sqrt(y.shape[0])
    return y, den, ref, "all columns zero after centering"


def _unit_columns(y, s, x):
    """Per-column 2-norm scaling of the step output y of features x."""
    return y, _col_norms(y, s), _col_norms(x, s), "zero column"


# A variant's factory runs once per trajectory with (a, x0, cfg) and
# returns its block step (X, AX, Y, *weights) -> faults: X, AX = A @ X
# and Y are (n, T, k) blocks, each weight a (T, k, k) stack.  The step
# writes X's successor into Y and leaves X as it is.  Its first
# operation, _xw(AX, W, Y), is its last read of AX, so it then uses AX
# as its scratch block.  faults maps a trial's position in the block to
# the DegenerateColumnError that stops it.

def _sigma_xw(ax, w, y, cfg):
    _xw(ax, w, y)
    _apply_nl(y, cfg.nonlinearity)
    return y


def _vanilla(a, x0, cfg):
    def step(x, ax, y, w):
        _sigma_xw(ax, w, y, cfg)
        return {}
    return step


def _residual(a, x0, cfg):
    """sigma((1-alpha) AX W1 + alpha X0 W2) from the propagated block AX."""
    def step(x, ax, y, w1, w2):
        _xw(ax, w1, y)
        y *= 1.0 - cfg.alpha
        # X0 [W2_1 ... W2_T] as one product into the spent AX; a view at
        # T = 1
        np.matmul(x0, w2.transpose(1, 0, 2).reshape(x0.shape[1], -1),
                  out=ax.reshape(len(ax), -1))
        ax *= cfg.alpha
        y += ax
        _apply_nl(y, cfg.nonlinearity)
        return {}
    return step


def _batchnorm(a, x0, cfg):
    return lambda x, ax, y, w: _block_normalized(
        *_bn(_sigma_xw(ax, w, y, cfg), ax))


def _pairnorm(a, x0, cfg):
    return lambda x, ax, y, w: _block_normalized(
        *_pn(_sigma_xw(ax, w, y, cfg), ax, cfg.scale))


def _graphnorm(a, x0, cfg):
    return lambda x, ax, y, w: _block_normalized(
        *_gn(_sigma_xw(ax, w, y, cfg), ax))


def _graphnormv2(a, x0, cfg):
    ctx = cfg.norm_context
    tau = np.tile(bn_emulating_tau(ctx)[:, None], (1, x0.shape[1]))
    return lambda x, ax, y, w: _block_normalized(
        *_gn2(_sigma_xw(ax, w, y, cfg), ax, ctx, tau))


def _powerembed(a, x0, cfg):
    return lambda x, ax, y, w: _block_normalized(
        *_unit_columns(_sigma_xw(ax, w, y, cfg), ax, x))


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
        self.eye = np.eye(k)
        # spec position -> its slot among the Gaussian specs
        self.slot = {}
        stds = []
        for pos, spec in enumerate(specs):
            if spec.mode == "gaussian":
                self.slot[pos] = len(stds)
                stds.append(spec.std if spec.std is not None
                            else 1.0 / np.sqrt(k))
        self.scale = np.array(stds)[:, None, None]
        per_step = len(rngs) * len(stds) * k * k
        self.chunk = max(1, _WEIGHT_FLOATS // max(per_step, 1))
        self.drawn = None       # (T, m, Gaussian specs, k, k)

    def _fixed(self, spec: WeightSpec, t: int) -> np.ndarray:
        """Step t's (k, k) identity or explicit weight."""
        if spec.mode == "identity":
            return self.eye
        if t >= len(spec.matrices):
            raise DomainError(f"explicit weight list exhausted at step {t}")
        w = np.asarray(spec.matrices[t], dtype=np.float64)
        if w.shape != self.eye.shape:
            raise ContractError(
                f"explicit weight shape {w.shape} != {self.eye.shape}")
        return w

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
                else np.broadcast_to(self._fixed(spec, t),
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


def run_trajectory(a: OperatorMatrix, x0: np.ndarray, cfg: LayerConfig,
                   steps: int,
                   rng: np.random.Generator | Sequence[np.random.Generator],
                   observer: Optional[Callable[[int, np.ndarray], object]] = None,
                   ) -> TrajectoryLog:
    """Apply the configured layer ``steps`` times.

    ``rng`` is one generator, or one generator per trial.  The T trials
    start from the shared x0 and advance as one C-contiguous node-major
    (n, T, k) block of the live trials, a single generator being T = 1:
    each step applies the operator once to the block's (n, T*k) view,
    multiplies each trial by its own weights in one batched product,
    normalizes the block once and checks it for non-finite features
    once.  The loop keeps four blocks: x, the output block y (the two
    swap roles every step), ax for A @ X, which the step's first product
    spends and then uses as its scratch, and the bool non-finite mask.
    ``OperatorMatrix.multiplier`` writes A @ X into ax and sorts its
    rows in y, which the step has not yet written, so a step allocates
    no block-sized array.  All are reallocated only when a trial stops.
    Each trial draws its own Gaussian weights (W1 before W2 for the
    residual variant) from its own generator, a chunk of steps per call,
    so a generator may be advanced by up to one chunk past the last step
    it was used for.

    The observer is called once after every step.  A single generator
    passes (step, X), X the trial's (n, k) features, and the return
    value is appended to the trial's records.  A sequence passes
    (step, X), X the (T_live, n, k) transposed view of the live block,
    the trials still running in trial order (not C-contiguous unless
    T_live = 1); the observer returns one record per live trial, and the
    i-th goes to the i-th live trial's records.  Either X is valid only
    during the call: it is a view of a buffer that later steps
    overwrite, so an observer that keeps features must copy them.  Step
    and observer run with numpy's overflow and invalid-value warnings
    silenced; the non-finite check reports an overflow as the abort
    reason.

    Degenerate columns or non-finite features stop a trial with its
    partial records, the features before the failed step, the abort
    step and the reason; the other trials go on.  A single generator
    returns that trial's log; a sequence returns a stacked log whose
    ``trials`` are the per-trial logs in order.  When no trial stops,
    the finals are views of the last block: the stacked ``final`` is its
    (n, T*k) reshape and trial j's is its (n, k) slice [:, j].  When
    some trial stops, every final is a copy.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    x0 = np.array(x0, dtype=np.float64, copy=True)
    if x0.ndim != 2 or x0.shape[0] != a.n:
        raise ContractError(f"x0 shape {x0.shape} incompatible with n={a.n}")
    n, k = x0.shape
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise DomainError("a stacked run needs at least one generator")
    factory, n_weights = _STEPS[cfg.variant]
    step = factory(a, x0, cfg)
    weights = _Weights(
        (cfg.weight_spec, cfg.weight_spec2 or cfg.weight_spec)[:n_weights],
        rngs, k, steps)
    records = [[] for _ in rngs]
    logs: list = [None] * len(rngs)
    live = list(range(len(rngs)))

    def buffers(x):
        """For the block x: y, which receives the step's output, ax for
        A @ x and the step's scratch, the non-finite check's mask and
        the product writing A @ x, all reused until a trial stops."""
        return (np.empty_like(x), np.empty_like(x),
                np.empty(x.shape, dtype=bool),
                a.multiplier(x.shape[1] * x.shape[2]))

    # x holds the live trials' features
    x = np.repeat(x0[:, None, :], len(rngs), axis=1)
    y, ax, finite, product = buffers(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if not live:
                break
            # y is dead until the step writes it, so the product sorts
            # its rows there
            product(x.reshape(n, -1), ax.reshape(n, -1), y.reshape(n, -1))
            faults = step(x, ax, y, *weights.at(t, live))
            np.isfinite(y, out=finite)
            # one pass over the whole block; per-trial masks only when
            # some trial stops (all(axis=(0, 2)) would loop k at a time)
            if faults or not finite.all():
                trial_finite = finite.all(axis=0).all(axis=1)
                keep = []
                for j, i in enumerate(live):
                    reason = (str(faults[j]) if j in faults else None
                              if trial_finite[j] else "non-finite features")
                    if reason is None:
                        keep.append(j)
                        continue
                    logs[i] = TrajectoryLog(
                        records=records[i], final=x[:, j].copy(),
                        aborted=True, abort_step=t + 1, abort_reason=reason)
                live = [live[j] for j in keep]
                weights.keep(keep)
                # y[:, keep] is laid out trial-major, a layout empty_like
                # would copy; the product reads and writes the blocks
                # through reshapes, which must be views
                x = np.ascontiguousarray(y[:, keep])
                y, ax, finite, product = buffers(x)
            else:
                x, y = y, x
            if observer is None or not live:
                continue
            if single:
                records[0].append(observer(t + 1, x[:, 0]))
                continue
            observed = observer(t + 1, x.transpose(1, 0, 2))
            if len(observed) != len(live):
                raise ContractError(
                    f"observer returned {len(observed)} records for "
                    f"{len(live)} live trials")
            for i, rec in zip(live, observed):
                records[i].append(rec)
    # with every trial live the finals are views of the last block, else
    # the survivors' are copies, like the stopped trials'
    whole = len(live) == len(rngs)
    for j, i in enumerate(live):
        logs[i] = TrajectoryLog(records=records[i],
                                final=x[:, j] if whole else x[:, j].copy())
    if single:
        return logs[0]
    stopped = not live
    return TrajectoryLog(
        records=[], final=x.reshape(n, -1) if whole else np.concatenate(
            [log.final for log in logs], axis=1),
        aborted=stopped,
        abort_step=max(log.abort_step for log in logs) if stopped else None,
        abort_reason="every trial aborted" if stopped else None,
        trials=tuple(logs))
