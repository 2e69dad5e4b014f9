"""Coarsest equitable partitions, quotient graphs and structural
eigenpairs.

Color refinement starts from the constant coloring and re-hashes each
node with the multiset of (neighbor color, edge weight) pairs until the
class count stabilizes.  Class indices are canonical: assigned by first
node occurrence.  Edge weights are quantized to 12 decimal digits so
the multiset comparison is exact.
The class indicator H is never formed: H^T x is a class sum, and the
projector onto col(H) takes class means (``_class_means``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .graphio import ADJACENCY, Graph, OperatorMatrix, is_regular
from .spectral import EigenSystem, symmetric_eig

EQUITABLE_TOL = 1e-9
STRUCTURAL_TOL = 1e-8
_EIG_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class EquitablePartition:
    colors: tuple[int, ...]
    m: int

    def class_sizes(self) -> np.ndarray:
        return np.bincount(np.asarray(self.colors, dtype=np.intp),
                           minlength=self.m)


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
    src, dst, edge = g.entries
    # edge weight classes, equal exactly when weights agree to 12 decimals
    _, wcls = np.unique(np.round(g.w, 12), return_inverse=True)
    wcls = wcls[edge]
    n_w = int(wcls.max(initial=-1)) + 1
    bounds = np.searchsorted(src, np.arange(n + 1))  # src is sorted
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


def _class_means(ep: EquitablePartition, x: np.ndarray) -> np.ndarray:
    """diag(1/s) H^T x: each class's mean of the (n, c) x's rows, so
    ``_class_means(ep, x)[colors]`` is x projected onto col(H)."""
    sums = np.zeros((ep.m, x.shape[1]))
    np.add.at(sums, np.asarray(ep.colors, dtype=np.intp), x)
    return sums / ep.class_sizes()[:, None]


def quotient(g: Graph, ep: EquitablePartition) -> QuotientGraph:
    """Mean-connectivity matrix between partition classes: the class
    means of A H, which is summed from the graph's entry list."""
    rows, cols, edge = g.entries
    colors = np.asarray(ep.colors, dtype=np.intp)
    ah = np.zeros((g.n, ep.m))
    np.add.at(ah, (rows, colors[cols]), g.w[edge])
    a_pi = _class_means(ep, ah)
    if np.abs(ah - a_pi[colors]).max(initial=0.0) > EQUITABLE_TOL:
        raise ContractError("partition not equitable")
    return QuotientGraph(a_pi=a_pi, class_sizes=tuple(
        int(s) for s in ep.class_sizes()))


def split_eigenpairs(es: EigenSystem, ep: EquitablePartition) -> EigenpairSplit:
    """Classify eigenpairs as structural (inside col(H)) or rest.

    Within each eigenvalue cluster the eigenvector block is first
    rotated so the intersection with col(H) is spanned by dedicated
    basis vectors, those most inside col(H) first; the split is a
    statement about subspaces.
    """
    if ep.m == es.vectors.shape[0]:
        # discrete: the projector is the identity, every residual 0
        return EigenpairSplit(structural=tuple(range(len(es.values))),
                              rest=(), vectors=es.vectors)
    colors = np.asarray(ep.colors, dtype=np.intp)
    vectors = np.array(es.vectors, copy=True)
    values = es.values
    n = len(values)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(values[j] - values[i]) < _EIG_CLUSTER_TOL:
            j += 1
        if j - i > 1:
            block = vectors[:, i:j]
            c = block.T @ _class_means(ep, block)[colors]
            vals, vecs = np.linalg.eigh((c + c.T) / 2.0)
            vectors[:, i:j] = block @ vecs[:, np.argsort(-vals)]
        i = j
    resid = vectors - _class_means(ep, vectors)[colors]
    dist = np.sqrt(np.sum(resid * resid, axis=0))
    structural = tuple(int(i) for i in np.flatnonzero(dist <= STRUCTURAL_TOL))
    rest = tuple(int(i) for i in np.flatnonzero(dist > STRUCTURAL_TOL))
    return EigenpairSplit(structural=structural, rest=rest, vectors=vectors)


@dataclass(frozen=True)
class CenteringReport:
    """Numeric evidence for the three centering-effect claims."""

    rest_pairs: int
    rest_preserved: bool
    rest_max_residual: float
    dominant_distorted: bool
    dominant_rayleigh_residual: float
    graph_is_regular: bool
    trace_gap: float
    trace_gap_positive: bool


def centred_product(a: OperatorMatrix, tau: float,
                    v: np.ndarray) -> np.ndarray:
    """(I - tau 11^T/n) A V in one operator product: A V minus tau
    times its column means."""
    av = a @ v
    return av - tau * av.mean(axis=0)


def check_centering_effect(g: Graph, a: OperatorMatrix,
                           tau: float) -> CenteringReport:
    """Evaluate the effect of the centering operator (I - tau 11^T/n)
    on the spectrum of g's adjacency operator ``a``.

    Claim 1: rest eigenpairs survive centering unchanged
    (``rest_pairs`` counts them; none exist when the WL partition is
    discrete).  Claim 2: the dominant eigenvector stops being an
    eigenvector (non-regular graphs), measured by its Rayleigh residual
    under the centered operator.  Both are read from one centred
    product of the rest vectors and nu_1.  Claim 3: the trace
    (eigenvalue sum) drops by tau * (1^T A 1) / n, read in closed form
    from A's entries.
    """
    if tau <= 0:
        raise DomainError(f"tau={tau} must be positive")
    if a.kind != ADJACENCY or a.n != g.n:
        raise ContractError(f"need the graph's {ADJACENCY} operator, got "
                            f"{a.kind} on {a.n} nodes")
    es = symmetric_eig(a)
    split = split_eigenpairs(es, wl_refine(g))
    rest = list(split.rest)
    vr, nu1 = split.vectors[:, rest], es.vectors[:, 0]
    cv = centred_product(a, tau, np.column_stack([vr, nu1]))
    moved = cv[:, :-1] - vr * es.values[rest]
    rest_resid = float(np.linalg.norm(moved, axis=0).max(initial=0.0))
    rho = float(nu1 @ cv[:, -1])
    rayleigh_resid = float(np.linalg.norm(cv[:, -1] - rho * nu1))
    trace_gap = float(tau * a.vals.sum() / a.n)
    return CenteringReport(
        rest_pairs=len(rest),
        rest_preserved=bool(rest_resid <= STRUCTURAL_TOL),
        rest_max_residual=rest_resid,
        dominant_distorted=bool(rayleigh_resid > 1e-6),
        dominant_rayleigh_residual=rayleigh_resid,
        graph_is_regular=is_regular(g),
        trace_gap=trace_gap,
        trace_gap_positive=bool(trace_gap > 0.0),
    )
