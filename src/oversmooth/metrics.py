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
from .graphio import Graph
from .spectral import EigenSystem, numerical_rank, subspace_distance

CSV_COLUMNS = ("step", "mu_v", "dirichlet", "d_col", "d_pcol", "rank",
               "top_k_dist")

_ZERO_COL_TOL = 1e-12

# Edges gathered at once by dirichlet: bounds its block x k temporaries
# (2 MB each at k=32) however dense the graph.
_EDGE_BLOCK = 8192


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


def mu(x: np.ndarray, v: ReferenceVector | np.ndarray) -> float | np.ndarray:
    """Squared Frobenius distance of X from the line spanned by v.

    Reduces over the last two axes: a float for one (n, k) matrix, the
    per-trial values for a (T, n, k) block of trials.
    """
    vec = v.v if isinstance(v, ReferenceVector) else np.asarray(v)
    resid = x - vec[:, None] * (vec @ x)[..., None, :]
    sq = np.sum(resid * resid, axis=(-2, -1))
    return float(sq) if sq.ndim == 0 else sq


def dirichlet(g: Graph, x: np.ndarray) -> float:
    """Degree-normalized edge-difference energy, each undirected edge
    once, with edge weights as multipliers."""
    deg = g.degrees()
    if np.any(deg <= 0):
        raise DomainError(
            f"isolated node {int(np.flatnonzero(deg <= 0)[0])}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != g.n:
        x = x.T
    scaled = x / np.sqrt(deg)[:, None]
    u, v, w = g.u, g.v, g.w
    total = 0.0
    for lo in range(0, len(w), _EDGE_BLOCK):
        hi = lo + _EDGE_BLOCK
        diff = scaled[u[lo:hi]] - scaled[v[lo:hi]]
        total += float(w[lo:hi] @ np.einsum("ij,ij->i", diff, diff))
    return 0.5 * total


def _l1_normalized(x: np.ndarray):
    norms = np.abs(x).sum(axis=0)
    flagged = norms < _ZERO_COL_TOL
    safe = np.where(flagged, 1.0, norms)
    return x / safe, flagged


def col_distance(x: np.ndarray) -> float:
    """Mean pairwise distance between 1-norm-normalized columns.

    Zero columns contribute 0 to their own pair; a pair with exactly one
    zero column contributes the 2-norm of the nonzero column's
    normalized form.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k = x.shape[1]
    if k == 0:
        return 0.0
    xn, zero = _l1_normalized(x)
    xn = np.where(zero[None, :], 0.0, xn)
    sq = np.sum(xn * xn, axis=0)
    # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b; zero columns are exact 0s
    d2 = sq[:, None] + sq[None, :] - 2.0 * (xn.T @ xn)
    np.fill_diagonal(d2, 0.0)  # self pairs are exactly zero
    total = float(np.sqrt(np.maximum(d2, 0.0)).sum())
    return total / (k * k)


def col_projection_distance(x: np.ndarray) -> float:
    """Mean (1 - cosine) over ordered column pairs; zero columns treated
    as having zero cosine with everything, except with themselves."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    k = x.shape[1]
    if k == 0:
        return 0.0
    norms = np.linalg.norm(x, axis=0)
    zero = norms < _ZERO_COL_TOL
    xn = x / np.where(zero, 1.0, norms)
    xn = np.where(zero[None, :], 0.0, xn)
    cos = xn.T @ xn
    terms = 1.0 - cos
    for i in np.flatnonzero(zero):
        terms[i, i] = 0.0
    return float(terms.sum()) / (k * k)


def eigenspace_distance(x: np.ndarray, es: EigenSystem,
                        k: Optional[int] = None) -> float:
    """(1/n) ||X - V V^T X||_F against the full (or top-k) eigenbasis."""
    basis = es.vectors if k is None else es.vectors[:, :k]
    return subspace_distance(x, basis)


class MetricObserver:
    """Computes one MetricRecord per step for run_trajectory.

    Holds the per-graph context (reference vector, top-k basis) so the
    per-step work is pure evaluation; rank uses spectral.RANK_REL_TOL.
    """

    def __init__(self, g: Graph, v: ReferenceVector,
                 top_k_basis: Optional[np.ndarray] = None):
        self.g = g
        self.v = v
        self.top_k_basis = top_k_basis

    def __call__(self, step: int, x: np.ndarray) -> MetricRecord:
        tkd = (subspace_distance(x, self.top_k_basis)
               if self.top_k_basis is not None else 0.0)
        return MetricRecord(
            step=step,
            mu_v=mu(x, self.v),
            dirichlet=dirichlet(self.g, x),
            d_col=col_distance(x),
            d_pcol=col_projection_distance(x),
            rank=numerical_rank(x),
            top_k_dist=tkd,
        )
