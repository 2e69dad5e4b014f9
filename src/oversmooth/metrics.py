"""Oversmoothing and convergence measures.

CSV schema for trajectory logs (exact header order):
step,mu_v,dirichlet,d_col,d_pcol,rank,top_k_dist

There is no distance to the full eigenbasis: that basis spans R^n, so
the distance is rounding noise; top_k_dist is the meaningful version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DomainError
from .graphio import SYM_NORMALIZED, Graph, OperatorMatrix
from .spectral import (EigenSystem, check_orthonormal, numerical_rank,
                       subspace_distance)

CSV_COLUMNS = ("step", "mu_v", "dirichlet", "d_col", "d_pcol", "rank",
               "top_k_dist")

_ZERO_COL_TOL = 1e-12

# Edges gathered at once by dirichlet: bounds its block x k gathers
# (2 MB each at k=32) however dense the graph.
_EDGE_BLOCK = 8192

# ||A nu - nu|| above which the closed-form nu_1 of a symmetric-normalized
# operator is rejected.  The residual is rounding of one product: at most
# 2.7e-16 on er, sbm, path, star, cycle, reg and weighted self-loop
# graphs, against O(1) for a vector off the eigenline.
_NU1_TOL = 1e-12


@dataclass(frozen=True)
class MetricRecord:
    step: int
    mu_v: float
    dirichlet: float
    d_col: float
    d_pcol: float
    rank: int
    top_k_dist: float

    def row(self) -> tuple:
        return (self.step, self.mu_v, self.dirichlet, self.d_col,
                self.d_pcol, self.rank, self.top_k_dist)


@dataclass(frozen=True)
class ReferenceVector:
    """Unit vector spanning the collapse subspace that mu measures."""

    v: np.ndarray
    kind: str  # all_ones | degree_sqrt | dominant_eig | custom

    def __post_init__(self):
        if abs(np.linalg.norm(self.v) - 1.0) > 1e-10:
            raise ContractError("reference vector must have unit norm")


def all_ones_reference(n: int) -> ReferenceVector:
    return ReferenceVector(v=np.ones(n) / np.sqrt(n), kind="all_ones")


def degree_sqrt_reference(g: Graph) -> ReferenceVector:
    d = np.sqrt(g.degrees())
    norm = np.linalg.norm(d)
    if norm == 0:
        raise DomainError("graph has no edges: zero degree vector")
    return ReferenceVector(v=d / norm, kind="degree_sqrt")


def dominant_eig_reference(es: EigenSystem) -> ReferenceVector:
    return ReferenceVector(v=es.vectors[:, 0].copy(), kind="dominant_eig")


def normalized_dominant_reference(g: Graph,
                                  a: OperatorMatrix) -> ReferenceVector:
    """nu_1 of the symmetric-normalized operator a of the connected
    graph g in closed form, D^{1/2} 1 / ||D^{1/2} 1|| (Oono & Suzuki,
    ICLR 2020): A D^{1/2} 1 = D^{-1/2} W 1 = D^{1/2} 1, and every other
    eigenvalue of A has modulus at most 1, with -1 sorted after it.  The
    vector is certified by one product, ||A nu - nu|| <= _NU1_TOL, so no
    eigenproblem is solved and a sparse operator's dense matrix is not
    built."""
    if a.kind != SYM_NORMALIZED:
        raise ContractError("the closed-form reference needs the graph's "
                            f"{SYM_NORMALIZED} operator, got {a.kind}")
    nu = degree_sqrt_reference(g).v
    resid = float(np.linalg.norm(a @ nu - nu))
    if not resid <= _NU1_TOL:
        raise ContractError(
            f"D^1/2 1 is not fixed by the operator: ||A v - v|| = {resid:.3e}")
    return ReferenceVector(v=nu, kind="dominant_eig")


class Workspace:
    """float64 work arrays by name, kept between calls and reallocated
    only when a call asks for another shape.  The metrics take one as
    ``work``; without it each call allocates its own arrays, with the
    same results bit for bit."""

    def __init__(self):
        self._arrays = {}
        self._repeated = None   # (vec, np.repeat(vec, k))

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = self._arrays[name] = np.empty(shape)
        return arr

    def repeated(self, vec: np.ndarray, k: int) -> np.ndarray:
        """np.repeat(vec, k), kept while vec's values and k stay the same."""
        held = self._repeated
        if (held is None or held[1].size != vec.size * k
                or not np.array_equal(held[0], vec)):
            held = self._repeated = (vec.copy(), np.repeat(vec, k))
        return held[1]


def mu(x: np.ndarray, v: ReferenceVector | np.ndarray,
       work: Optional[Workspace] = None) -> float | np.ndarray:
    """Squared Frobenius distance of X from the line spanned by v.

    Reduces over the last two axes: a float for one (n, k) matrix, the
    per-trial values for a (T, n, k) block of trials.
    """
    vec = v.v if isinstance(v, ReferenceVector) else np.asarray(v)
    n, k = x.shape[-2:]
    work = work or Workspace()
    # the residual over the flattened (..., n*k) view of one C-contiguous
    # buffer, so the multiply and the sum run one long inner loop; entry
    # i*k + j of the projection is (vec^T x)_j vec_i, its first factor
    # tiled by taking row 0 of vec^T x n times
    resid = work("resid", x.shape)
    flat = resid.reshape(*x.shape[:-2], n * k)
    np.take((vec @ x)[..., None, :], np.zeros(n, dtype=np.intp), axis=-2,
            out=resid, mode="clip")
    flat *= work.repeated(vec, k)
    np.subtract(x, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    sq = np.add.reduce(flat, axis=-1)
    return float(sq) if sq.ndim == 0 else sq


def _sqrt_degrees(g: Graph) -> np.ndarray:
    """sqrt(degree) as an (n, 1) column; DomainError on an isolated node."""
    deg = g.degrees()
    if np.any(deg <= 0):
        raise DomainError(
            f"isolated node {int(np.flatnonzero(deg <= 0)[0])}")
    return np.sqrt(deg)[:, None]


def _dirichlet(g: Graph, sqrt_deg: np.ndarray, x: np.ndarray,
               work: Optional[Workspace] = None) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != g.n:
        x = x.T
    work = work or Workspace()
    scaled = np.divide(x, sqrt_deg, out=work("scaled", x.shape))
    u, v, w = g.u, g.v, g.w
    rows = (min(len(w), _EDGE_BLOCK), x.shape[1])
    head, tail = work("head", rows), work("tail", rows)
    edge_sq = work("edge_sq", rows[:1])
    total = 0.0
    for lo in range(0, len(w), _EDGE_BLOCK):
        hi = min(lo + _EDGE_BLOCK, len(w))
        diff, other, sq = head[:hi - lo], tail[:hi - lo], edge_sq[:hi - lo]
        # mode="raise" would buffer each take's out through a temporary
        np.take(scaled, u[lo:hi], axis=0, out=diff, mode="clip")
        np.take(scaled, v[lo:hi], axis=0, out=other, mode="clip")
        diff -= other
        np.einsum("ij,ij->i", diff, diff, out=sq)
        total += float(w[lo:hi] @ sq)
    return 0.5 * total


def dirichlet(g: Graph, x: np.ndarray,
              work: Optional[Workspace] = None) -> float:
    """Degree-normalized edge-difference energy, each undirected edge
    once, with edge weights as multipliers."""
    return _dirichlet(g, _sqrt_degrees(g), x, work)


def _unit_columns(x: np.ndarray, norms: np.ndarray,
                  xn: np.ndarray) -> np.ndarray:
    """x with each column divided by its norm, written to xn; columns of
    norm below _ZERO_COL_TOL are exact zeros.  Returns their mask."""
    zero = norms < _ZERO_COL_TOL
    np.divide(x, np.where(zero, 1.0, norms), out=xn)
    xn[:, zero] = 0.0
    return zero


def col_distance(x: np.ndarray, work: Optional[Workspace] = None) -> float:
    """Mean pairwise distance between 1-norm-normalized columns.

    Zero columns contribute 0 to their own pair; a pair with exactly one
    zero column contributes the 2-norm of the nonzero column's
    normalized form.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k = x.shape[1]
    if k == 0:
        return 0.0
    xn = (work or Workspace())("cols", x.shape)
    _unit_columns(x, np.add.reduce(np.abs(x, out=xn), axis=0), xn)
    gram = xn.T @ xn
    sq = np.add.reduce(np.multiply(xn, xn, out=xn), axis=0)
    # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b; zero columns are exact 0s
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.fill_diagonal(d2, 0.0)  # self pairs are exactly zero
    total = float(np.sqrt(np.maximum(d2, 0.0)).sum())
    return total / (k * k)


def col_projection_distance(x: np.ndarray,
                            work: Optional[Workspace] = None) -> float:
    """Mean (1 - cosine) over ordered column pairs; zero columns treated
    as having zero cosine with everything, except with themselves."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k = x.shape[1]
    if k == 0:
        return 0.0
    xn = (work or Workspace())("cols", x.shape)
    # the sums np.linalg.norm(x, axis=0) forms
    norms = np.sqrt(np.add.reduce(np.multiply(x, x, out=xn), axis=0))
    zero = _unit_columns(x, norms, xn)
    cos = xn.T @ xn
    terms = 1.0 - cos
    for i in np.flatnonzero(zero):
        terms[i, i] = 0.0
    return float(terms.sum()) / (k * k)


def eigenspace_distance(x: np.ndarray, es: EigenSystem,
                        k: Optional[int] = None) -> float:
    """(1/n) ||X - V V^T X||_F against the full (or top-k) eigenbasis."""
    basis = es.vectors if k is None else es.vectors[:, :k]
    return subspace_distance(x, check_orthonormal(basis))


class MetricObserver:
    """Computes one MetricRecord per step for run_trajectory.

    Holds the per-graph context (reference vector, top-k basis, the
    checked sqrt-degree column) so the per-step work is pure evaluation;
    rank uses spectral.RANK_REL_TOL.  A graph with an isolated node, or
    a top-k basis whose columns are not orthonormal, is rejected here,
    not at the first step.  The observer keeps its work arrays, so a
    call allocates none the size of the (n, k) features or of an edge
    block's gathers; its records are those of the free metric
    functions, bit for bit.
    """

    def __init__(self, g: Graph, v: ReferenceVector,
                 top_k_basis: Optional[np.ndarray] = None):
        self.g = g
        self.v = v
        self.top_k_basis = (None if top_k_basis is None
                            else check_orthonormal(top_k_basis))
        self.sqrt_deg = _sqrt_degrees(g)
        self.work = Workspace()

    def __call__(self, step: int, x: np.ndarray) -> MetricRecord:
        work = self.work
        tkd = (subspace_distance(x, self.top_k_basis,
                                 out=work("resid", x.shape))
               if self.top_k_basis is not None else 0.0)
        return MetricRecord(
            step=step,
            mu_v=mu(x, self.v, work),
            dirichlet=_dirichlet(self.g, self.sqrt_deg, x, work),
            d_col=col_distance(x, work),
            d_pcol=col_projection_distance(x, work),
            rank=numerical_rank(x),
            top_k_dist=tkd,
        )
