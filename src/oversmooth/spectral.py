"""Dense eigendecompositions, numerical rank, projections, Krylov bases.

The symmetric path is LAPACK via numpy (``np.linalg.eigh``).  Eigen
systems are deterministic: eigenpairs are sorted by descending |lambda|,
|lambda|-ties put the positive eigenvalue first, then ascending index of
the first nonzero eigenvector entry, and each eigenvector's sign is
fixed so its largest-magnitude entry is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .graphio import OperatorMatrix, center_operator

ORTHO_TOL = 1e-8
RANK_REL_TOL = 1e-10
KRYLOV_DROP_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs sorted by descending |lambda|; column i of ``vectors``
    is the unit eigenvector for ``values[i]``."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def residuals(self, m: np.ndarray) -> np.ndarray:
        """||M v_i - lambda_i v_i||_2 for each returned eigenpair."""
        r = m @ self.vectors - self.vectors * self.values[None, :]
        return np.sqrt(np.sum(r * r, axis=0))


@dataclass(frozen=True)
class KrylovBasis:
    """Orthonormal basis of span({A^{i-1} X0_{:,j}})."""

    basis: np.ndarray
    r: int


def _first_nonzero(vec: np.ndarray) -> int:
    scale = np.abs(vec).max(initial=0.0)
    if scale == 0.0:
        return vec.shape[0]
    return int(np.flatnonzero(np.abs(vec) > 1e-12 * scale)[0])


def _canonicalize(values: np.ndarray, vectors: np.ndarray):
    """Apply the deterministic ordering and sign convention."""
    # sign: largest-magnitude entry positive (first such entry on ties)
    for i in range(vectors.shape[1]):
        col = vectors[:, i]
        if col.size and col[int(np.argmax(np.abs(col)))] < 0:
            vectors[:, i] = -col
    # magnitudes quantized to 12 significant digits so +/- pairs tie
    order = sorted(
        range(len(values)),
        key=lambda i: (-float("%.12g" % abs(values[i])),
                       0.0 if values[i] > 0 else 1.0,
                       _first_nonzero(vectors[:, i])),
    )
    return values[order], vectors[:, order]


def _as_matrix(m) -> tuple[np.ndarray, bool]:
    if isinstance(m, OperatorMatrix):
        return np.asarray(m.data, dtype=np.float64), m.symmetric
    arr = np.asarray(m, dtype=np.float64)
    sym = bool(np.abs(arr - arr.T).max(initial=0.0) <= 1e-12)
    return arr, sym


def symmetric_eig(m) -> EigenSystem:
    """Full eigendecomposition of a symmetric operator (LAPACK via numpy)."""
    data, sym = _as_matrix(m)
    if not sym:
        raise ContractError("symmetric_eig requires a symmetric operator")
    values, vectors = np.linalg.eigh(data)
    values, vectors = _canonicalize(values, vectors)
    return EigenSystem(values=values, vectors=vectors)


def _ones_complement_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of the all-ones
    direction (Helmert construction), shape n x (n-1)."""
    q = np.zeros((n, n - 1))
    for j in range(1, n):
        q[:j, j - 1] = 1.0
        q[j, j - 1] = -j
        q[:, j - 1] /= np.sqrt(j * (j + 1))
    return q


def centered_eig(a: OperatorMatrix, tau: float) -> EigenSystem:
    """Eigenpairs of the centered operator (I - tau 11^T/n) A.

    tau=0 falls back to the symmetric decomposition of A.  tau=1 is
    computed exactly through the symmetric restriction to the complement
    of the all-ones direction, augmented with the kernel direction.
    Other tau use a dense general eigensolver; complex pairs are
    dropped.
    """
    if not a.symmetric:
        raise ContractError("centered_eig requires a symmetric source operator")
    if tau == 0.0:
        return symmetric_eig(a)
    data = np.asarray(a.data, dtype=np.float64)
    n = a.n
    if tau == 1.0:
        q = _ones_complement_basis(n)
        vals, vecs = np.linalg.eigh(q.T @ data @ q)
        lifted = q @ vecs
        kernel = _centered_kernel_vector(data)
        values = np.concatenate([vals, [0.0]])
        vectors = np.concatenate([lifted, kernel[:, None]], axis=1)
        values, vectors = _canonicalize(values, vectors)
        return EigenSystem(values=values, vectors=vectors)
    centered = center_operator(a, tau).data
    vals_c, vecs_c = np.linalg.eig(centered)
    scale = max(1.0, float(np.abs(vals_c).max(initial=0.0)))
    real = np.abs(vals_c.imag) <= 1e-9 * scale
    values = vals_c[real].real.copy()
    vectors = vecs_c[:, real].real.copy()
    norms = np.sqrt(np.sum(vectors * vectors, axis=0))
    norms[norms == 0] = 1.0
    vectors = vectors / norms
    values, vectors = _canonicalize(values, vectors)
    return EigenSystem(values=values, vectors=vectors)


def _centered_kernel_vector(data: np.ndarray) -> np.ndarray:
    """Unit vector spanning the kernel direction of (I - 11^T/n) A."""
    n = data.shape[0]
    es = symmetric_eig(data)
    scale = max(1.0, float(np.abs(es.values).max(initial=0.0)))
    small = np.abs(es.values) <= 1e-10 * scale
    if np.any(small):
        # A itself is singular: any null vector of A is annihilated.
        return es.vectors[:, np.flatnonzero(small)[0]].copy()
    # A invertible: w = A^{-1} 1 satisfies (I - 11^T/n) A w = 0.
    w = es.vectors @ ((es.vectors.T @ np.ones(n)) / es.values)
    return w / np.linalg.norm(w)


def top_k(es: EigenSystem, k: int) -> np.ndarray:
    """First k eigenvector columns."""
    if k > es.vectors.shape[1]:
        raise DomainError(f"k={k} exceeds system size {es.vectors.shape[1]}")
    return es.vectors[:, :k].copy()


def numerical_rank(x: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Count singular values above rel_tol * sigma_max * max(n, k)."""
    if rel_tol <= 0:
        raise DomainError("rel_tol must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0
    sigma = np.linalg.svd(x, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    threshold = rel_tol * sigma[0] * max(x.shape)
    return int(np.sum(sigma > threshold))


def subspace_distance(x: np.ndarray, basis: np.ndarray) -> float:
    """(1/n) ||X - B B^T X||_F for an orthonormal basis B."""
    basis = np.asarray(basis, dtype=np.float64)
    n = basis.shape[0]
    gram = basis.T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max(initial=0.0) > ORTHO_TOL:
        raise ContractError("basis is not orthonormal")
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(x - basis @ (basis.T @ x)) / n)


def krylov_generators(a: OperatorMatrix, x0: np.ndarray) -> np.ndarray:
    """All vectors A^{i-1} X0_{:,j}, i=1..n then j=1..k, as columns."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n = a.n
    blocks = []
    power = x0.copy()
    for _ in range(n):
        blocks.append(power)
        power = a.data @ power
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))


def krylov_basis(a: OperatorMatrix, x0: np.ndarray) -> KrylovBasis:
    """Orthonormal basis of the Krylov subspace by modified Gram-Schmidt.

    Generated vectors whose residual after projection is below
    KRYLOV_DROP_TOL times the largest generator norm seen so far are
    discarded.
    """
    gen = krylov_generators(a, x0)
    n = a.n
    basis: list[np.ndarray] = []
    running_max = 0.0
    for col in gen.T:
        running_max = max(running_max, float(np.linalg.norm(col)))
        v = col.copy()
        for b in basis:
            v -= (b @ v) * b
        # second MGS pass for orthogonality at tight tolerances
        for b in basis:
            v -= (b @ v) * b
        norm = float(np.linalg.norm(v))
        if norm >= KRYLOV_DROP_TOL * running_max and norm > 0.0:
            basis.append(v / norm)
            if len(basis) == n:
                break
    if not basis:
        return KrylovBasis(basis=np.zeros((n, 0)), r=0)
    return KrylovBasis(basis=np.stack(basis, axis=1), r=len(basis))
