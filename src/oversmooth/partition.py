"""Coarsest equitable partitions, quotient graphs and structural
eigenpairs.

Color refinement starts from the constant coloring and re-hashes each
node with the multiset of (neighbor color, edge weight) pairs until the
class count stabilizes.  Class indices are canonical: assigned by first
node occurrence.  Edge weights are quantized to 12 decimal digits so
the multiset comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .graphio import Graph, OperatorMatrix, center_operator, is_regular
from .spectral import EigenSystem, symmetric_eig

EQUITABLE_TOL = 1e-9
STRUCTURAL_TOL = 1e-8
_EIG_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class EquitablePartition:
    colors: tuple[int, ...]
    m: int

    @property
    def indicator(self) -> np.ndarray:
        h = np.zeros((len(self.colors), self.m))
        h[np.arange(len(self.colors)), self.colors] = 1.0
        return h

    def class_sizes(self) -> np.ndarray:
        return np.bincount(np.array(self.colors), minlength=self.m)


@dataclass(frozen=True)
class QuotientGraph:
    a_pi: np.ndarray
    class_sizes: tuple[int, ...]


@dataclass(frozen=True)
class EigenpairSplit:
    structural: tuple[int, ...]
    rest: tuple[int, ...]
    vectors: np.ndarray  # possibly rotated within degenerate clusters


def _canonical_colors(raw: list) -> tuple[tuple[int, ...], int]:
    mapping: dict = {}
    out = []
    for sig in raw:
        if sig not in mapping:
            mapping[sig] = len(mapping)
        out.append(mapping[sig])
    return tuple(out), len(mapping)


def wl_refine(g: Graph) -> EquitablePartition:
    """Coarsest equitable partition via color refinement."""
    n = g.n
    loop = g.u == g.v
    src = np.concatenate([g.u, g.v[~loop]])
    dst = np.concatenate([g.v, g.u[~loop]])
    # edge weight classes, equal exactly when weights agree to 12 decimals
    _, wcls = np.unique(np.round(g.w, 12), return_inverse=True)
    wcls = np.concatenate([wcls, wcls[~loop]])
    n_w = int(wcls.max(initial=-1)) + 1
    bounds = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    colors = np.zeros(n, dtype=np.intp)
    m = 1 if n else 0
    while True:
        # a node's signature: its color and the sorted multiset of
        # (neighbor color, weight class) codes
        code = colors[dst] * n_w + wcls
        code = code[np.lexsort((code, src))]
        sigs = [(colors[i], code[bounds[i]:bounds[i + 1]].tobytes())
                for i in range(n)]
        new_colors, new_m = _canonical_colors(sigs)
        if new_m == m:
            return EquitablePartition(colors=new_colors, m=new_m)
        colors, m = np.array(new_colors, dtype=np.intp), new_m


def quotient(g: Graph, ep: EquitablePartition) -> QuotientGraph:
    """Mean-connectivity matrix between partition classes."""
    h = ep.indicator
    a = g.adjacency()
    sizes = ep.class_sizes()
    a_pi = (h.T @ a @ h) / sizes[:, None]
    if np.abs(a @ h - h @ a_pi).max(initial=0.0) > EQUITABLE_TOL:
        raise ContractError("partition not equitable")
    return QuotientGraph(a_pi=a_pi, class_sizes=tuple(int(s) for s in sizes))


def _rotate_cluster(block: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Re-orthogonalize a degenerate eigenvector block so that the
    directions inside the projector's range come first."""
    c = block.T @ proj @ block
    c = (c + c.T) / 2.0
    vals, vecs = np.linalg.eigh(c)
    order = np.argsort(-vals)
    return block @ vecs[:, order]


def split_eigenpairs(es: EigenSystem, ep: EquitablePartition) -> EigenpairSplit:
    """Classify eigenpairs as structural (inside col(H)) or rest.

    Within each eigenvalue cluster the eigenvector block is first
    rotated so the intersection with col(H) is spanned by dedicated
    basis vectors; the split is a statement about subspaces.
    """
    h = ep.indicator
    sizes = ep.class_sizes().astype(float)
    proj = h @ np.diag(1.0 / sizes) @ h.T  # orthogonal projector on col(H)
    vectors = np.array(es.vectors, copy=True)
    values = es.values
    n = len(values)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(values[j] - values[i]) < _EIG_CLUSTER_TOL:
            j += 1
        if j - i > 1:
            vectors[:, i:j] = _rotate_cluster(vectors[:, i:j], proj)
        i = j
    resid = vectors - proj @ vectors
    dist = np.sqrt(np.sum(resid * resid, axis=0))
    structural = tuple(int(i) for i in np.flatnonzero(dist <= STRUCTURAL_TOL))
    rest = tuple(int(i) for i in np.flatnonzero(dist > STRUCTURAL_TOL))
    return EigenpairSplit(structural=structural, rest=rest, vectors=vectors)


@dataclass(frozen=True)
class CenteringReport:
    """Numeric evidence for the three centering-effect claims."""

    rest_preserved: bool
    rest_max_residual: float
    dominant_distorted: bool
    dominant_rayleigh_residual: float
    graph_is_regular: bool
    trace_gap: float
    trace_gap_positive: bool


def check_centering_effect(g: Graph, tau: float) -> CenteringReport:
    """Evaluate the effect of the centering operator (I - tau 11^T/n)
    on the adjacency spectrum.

    Claim 1: rest eigenpairs survive centering unchanged.  Claim 2: the
    dominant eigenvector stops being an eigenvector (non-regular
    graphs), measured by its Rayleigh residual under the centered
    operator.  Claim 3: the trace (eigenvalue sum) drops by
    tau * (1^T A 1) / n.
    """
    if tau <= 0:
        raise DomainError(f"tau={tau} must be positive")
    a = OperatorMatrix(data=g.adjacency(), kind="adjacency", symmetric=True)
    es = symmetric_eig(a)
    ep = wl_refine(g)
    split = split_eigenpairs(es, ep)
    centered = center_operator(a, tau).data

    rest_resid = 0.0
    for i in split.rest:
        nu = split.vectors[:, i]
        rest_resid = max(rest_resid, float(np.linalg.norm(
            centered @ nu - es.values[i] * nu)))

    nu1 = es.vectors[:, 0]
    rho = float(nu1 @ centered @ nu1)
    rayleigh_resid = float(np.linalg.norm(centered @ nu1 - rho * nu1))

    trace_gap = float(np.trace(a.data) - np.trace(centered))
    return CenteringReport(
        rest_preserved=bool(rest_resid <= STRUCTURAL_TOL),
        rest_max_residual=rest_resid,
        dominant_distorted=bool(rayleigh_resid > 1e-6),
        dominant_rayleigh_residual=rayleigh_resid,
        graph_is_regular=is_regular(g),
        trace_gap=trace_gap,
        trace_gap_positive=bool(trace_gap > 0.0),
    )
