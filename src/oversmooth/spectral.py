"""Dense eigendecompositions, numerical rank, projections, Krylov bases.

The symmetric path is LAPACK via numpy (``np.linalg.eigh``).  Eigen
systems are deterministic: eigenpairs are sorted by descending |lambda|,
|lambda|-ties put the positive eigenvalue first, then ascending index of
the first nonzero eigenvector entry, and each eigenvector's sign is
fixed so its largest-magnitude entry is positive.

The mean-centred operator (I - 11^T/n) A is read through its n-1 pairs
on the complement of 1 (``ones_complement_eig``): one solve of A
reflected by the Householder reflector that sends 1/sqrt(n) to e_n.
``centered_eig(a, 1.0)`` adds the kernel column, read from the same
solve.

Krylov bases come from block Arnoldi (Saad, Iterative Methods for
Sparse Linear Systems, 6.12), up to an optional depth, and record how
many directions each depth adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .graphio import OperatorMatrix, center_operator

ORTHO_TOL = 1e-8
RANK_REL_TOL = 1e-10
# block Arnoldi keeps a direction whose singular value after projection
# exceeds this times the 2-norm of its block before projection
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
    """Orthonormal basis of span({A^{i-1} X0_{:,j}}); depth i added the
    next ``blocks[i-1]`` columns."""

    basis: np.ndarray
    blocks: tuple


def _canonicalize(values: np.ndarray, vectors: np.ndarray):
    """Apply the deterministic ordering and sign convention."""
    n, m = vectors.shape
    first = np.full(m, n)
    if n:
        mag = np.abs(vectors)
        top = mag.max(axis=0)
        # sign: the first entry within 1e-12 relative of the column's
        # largest magnitude is positive, so entries that tie in exact
        # arithmetic pick the same one whatever the rounding
        lead = np.argmax(mag >= (1.0 - 1e-12) * top, axis=0)
        flip = vectors[lead, np.arange(m)] < 0
        vectors *= np.where(flip, -1.0, 1.0)
        # first entry above 1e-12 of its column's largest, n if all zero
        hit = mag > 1e-12 * top
        del mag     # freed before the ordered copy
        first = np.where(hit.any(axis=0), np.argmax(hit, axis=0), n)
    # magnitudes quantized to 12 significant digits so +/- pairs tie
    quant = np.array([float("%.12g" % x) for x in np.abs(values)])
    order = np.lexsort((first, np.where(values > 0, 0.0, 1.0), -quant))
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


def ones_complement_eig(a: OperatorMatrix) -> EigenSystem:
    """The n-1 eigenpairs of (I - 11^T/n) A on the complement of 1.

    The Householder reflector H = I - 2uu^T with H e_n = 1/sqrt(n)
    (Golub & Van Loan, Matrix Computations, 5.1) turns its first n-1
    columns into an orthonormal basis of the complement, so the pairs
    are those of the leading (n-1) x (n-1) block of B = HAH, one
    symmetric solve, lifted by H.  B is A - uz^T - zu^T with
    z = 2Au - 2(u^T A u)u, and the lift is a rank-1 update.
    """
    if not a.symmetric:
        raise ContractError(
            "ones_complement_eig requires a symmetric source operator")
    u = np.full(a.n, -1.0 / np.sqrt(a.n))
    u[-1] += 1.0
    # n = 1 has no complement: u = 0 leaves H = I
    u /= np.linalg.norm(u) or 1.0
    au = a @ u
    z = 2.0 * au - 2.0 * float(u @ au) * u
    head = u[:-1]
    b11 = a.data[:-1, :-1] - np.outer(head, z[:-1])
    b11 -= np.outer(z[:-1], head)
    vals, y = np.linalg.eigh(b11)
    vecs = np.outer(-2.0 * u, head @ y)
    vecs[:-1] += y
    del b11, y      # freed before canonicalizing
    values, vectors = _canonicalize(vals, vecs)
    return EigenSystem(values=values, vectors=vectors)


def centered_eig(a: OperatorMatrix, tau: float) -> EigenSystem:
    """Eigenpairs of the centered operator (I - tau 11^T/n) A.

    tau=0 falls back to the symmetric decomposition of A.  tau=1 is
    ``ones_complement_eig`` augmented with the kernel direction, read
    from that solve.  Other tau use a dense general eigensolver;
    complex pairs are dropped.
    """
    if not a.symmetric:
        raise ContractError("centered_eig requires a symmetric source operator")
    if tau == 0.0:
        return symmetric_eig(a)
    if tau == 1.0:
        # canonical pairs keep their signs and order; the kernel pair
        # is sorted in among them
        es = ones_complement_eig(a)
        values = np.concatenate([es.values, [0.0]])
        vectors = np.concatenate(
            [es.vectors, _centered_kernel_vector(a, es)[:, None]], axis=1)
    else:
        vals_c, vecs_c = np.linalg.eig(center_operator(a, tau))
        scale = max(1.0, float(np.abs(vals_c).max(initial=0.0)))
        real = np.abs(vals_c.imag) <= 1e-9 * scale
        values = vals_c[real].real.copy()
        vectors = vecs_c[:, real].real.copy()
        norms = np.sqrt(np.sum(vectors * vectors, axis=0))
        norms[norms == 0] = 1.0
        vectors = vectors / norms
    values, vectors = _canonicalize(values, vectors)
    return EigenSystem(values=values, vectors=vectors)


def _centered_kernel_vector(a: OperatorMatrix, es: EigenSystem) -> np.ndarray:
    """Unit vector w outside the 1-complement with (I - 11^T/n) A w = 0,
    from es = ``ones_complement_eig(a)``: w = e - C^+ (I - ee^T) A e,
    e = 1/sqrt(n) and C^+ the pseudo-inverse of the complement system
    over its pairs with |l| > 1e-10 max(1, |l_1|).  In that solve's
    reflected frame this is H[-B11^+ b; 1], b the last column of B above
    its corner; it is the part of 1 in ker A, or A^+ 1 when 1 has none.
    """
    e = np.full(es.n, 1.0 / np.sqrt(es.n))
    scale = max(1.0, float(np.abs(es.values).max(initial=0.0)))
    keep = np.abs(es.values) > 1e-10 * scale
    vecs = es.vectors[:, keep]
    w = e - vecs @ ((vecs.T @ (a @ e)) / es.values[keep])
    return w / np.linalg.norm(w)


def top_k(es: EigenSystem, k: int) -> np.ndarray:
    """First k eigenvector columns."""
    if k > es.vectors.shape[1]:
        raise DomainError(f"k={k} exceeds system size {es.vectors.shape[1]}")
    return es.vectors[:, :k].copy()


def numerical_rank(x: np.ndarray) -> int:
    """Count singular values above RANK_REL_TOL * sigma_max * max(n, k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0
    sigma = np.linalg.svd(x, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    threshold = RANK_REL_TOL * sigma[0] * max(x.shape)
    return int(np.sum(sigma > threshold))


def check_orthonormal(basis: np.ndarray) -> np.ndarray:
    """The basis as a float64 array; ContractError unless its columns
    are orthonormal to ORTHO_TOL.  Check a basis once, before the
    distances that read it."""
    basis = np.asarray(basis, dtype=np.float64)
    gram = basis.T @ basis
    if np.abs(gram - np.eye(basis.shape[1])).max(initial=0.0) > ORTHO_TOL:
        raise ContractError("basis is not orthonormal")
    return basis


def subspace_distance(x: np.ndarray, basis: np.ndarray,
                      out: np.ndarray | None = None) -> float:
    """(1/n) ||X - B B^T X||_F for a basis B with orthonormal columns
    (see ``check_orthonormal``); the residual is formed in out, a
    C-contiguous array of X's shape, when one is given."""
    x = np.asarray(x, dtype=np.float64)
    resid = np.matmul(basis, basis.T @ x, out=out)
    np.subtract(x, resid, out=resid)
    return float(np.linalg.norm(resid) / basis.shape[0])


def krylov_basis(a: OperatorMatrix, x0: np.ndarray,
                 depth: int | None = None) -> KrylovBasis:
    """Orthonormal basis of the Krylov subspace by block Arnoldi, to
    ``depth`` blocks (default: until it stops growing).

    Each block is projected off the basis twice (classical Gram-Schmidt,
    repeated), and its SVD keeps the directions whose singular value
    exceeds KRYLOV_DROP_TOL times the block's own 2-norm before the
    projection.  The next block is A times the last kept directions, so
    no power A^i X0 is ever formed.  Stops when a block keeps nothing, the
    basis spans R^n or ``depth`` blocks are kept.
    """
    n = a.n
    block = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    depth = n if depth is None else depth
    # columns [:r] are the basis
    basis = np.empty((n, min(n, depth * block.shape[1])), order="F")
    blocks: list = []
    r = 0
    while r < n and len(blocks) < depth and block.size:
        if blocks:
            block = a @ basis[:, r - blocks[-1]:r]
        q = basis[:, :r]
        scale = np.linalg.norm(block, 2)
        for _ in range(2):
            block = block - q @ (q.T @ block)
        u, sigma, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, sigma > KRYLOV_DROP_TOL * scale][:, :n - r]
        if new.shape[1] == 0:
            break
        basis[:, r:r + new.shape[1]] = new
        r += new.shape[1]
        blocks.append(new.shape[1])
    return KrylovBasis(basis=np.ascontiguousarray(basis[:, :r]),
                       blocks=tuple(blocks))
