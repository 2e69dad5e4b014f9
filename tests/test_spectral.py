"""Eigendecompositions (LAPACK via numpy), numerical rank and Krylov
bases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth.cli import _initial_features
from oversmooth.errors import ContractError, DomainError
from oversmooth.graphio import (build_operator, gen_graph, load_graph,
                                make_graph)
from oversmooth.spectral import (_canonicalize, centered_eig,
                                 check_orthonormal, krylov_basis,
                                 numerical_rank, ones_complement_eig,
                                 subspace_distance, symmetric_eig, top_k)


def _rand_sym(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


# ----------------------------------------------------------- eigensystems

def test_path3_adjacency_golden():
    es = symmetric_eig(build_operator(gen_graph("path:3"), "adjacency"))
    r2 = np.sqrt(2.0)
    assert np.abs(es.values - np.array([r2, -r2, 0.0])).max() < 1e-10


def test_identity_and_zero():
    es = symmetric_eig(np.eye(4))
    assert np.abs(es.values - 1.0).max() < 1e-12
    es = symmetric_eig(np.zeros((4, 4)))
    assert np.abs(es.values).max() == 0.0


def test_symmetric_eig_edge_cases():
    es = symmetric_eig(np.zeros((3, 3)))
    assert np.array_equal(es.values, np.zeros(3))
    assert np.abs(es.vectors.T @ es.vectors - np.eye(3)).max() < 1e-12
    es = symmetric_eig(np.empty((0, 0)))
    assert es.values.shape == (0,) and es.vectors.shape == (0, 0)


def test_eigensystem_invariants():
    g = gen_graph("er:30,0.2", seed=4)
    a = build_operator(g, "adjacency")
    es = symmetric_eig(a)
    assert es.residuals(a.data).max() < 1e-8 * max(1.0, abs(es.values[0]))
    assert np.abs(es.vectors.T @ es.vectors - np.eye(g.n)).max() < 1e-8
    assert np.all(np.abs(es.values[:-1]) >= np.abs(es.values[1:]) - 1e-9)
    # sign convention: largest-magnitude entry of each column positive
    for i in range(g.n):
        col = es.vectors[:, i]
        assert col[int(np.argmax(np.abs(col)))] >= 0


def test_symmetric_eig_rejects_nonsymmetric():
    with pytest.raises(ContractError):
        symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eig_deterministic():
    a = build_operator(gen_graph("er:20,0.3", seed=9), "adjacency")
    e1, e2 = symmetric_eig(a), symmetric_eig(a)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_centered_eig_tau0():
    a = build_operator(gen_graph("star:4"), "adjacency")
    es0 = centered_eig(a, 0.0)
    es = symmetric_eig(a)
    assert np.array_equal(es0.values, es.values)


def test_centered_eig_regular_graph():
    # Cycle(4) is regular: centering keeps every eigenpair of A except
    # the all-ones one, whose eigenvalue becomes 0
    a = build_operator(gen_graph("cycle:4"), "adjacency")
    es = symmetric_eig(a)
    esc = centered_eig(a, 1.0)
    want = sorted([0.0] + [v for v in es.values if abs(v - 2.0) > 1e-9],
                  key=lambda v: -abs(v))
    assert np.abs(esc.values - np.array(want)).max() < 1e-9


def test_centered_eig_star4_retains_orthogonal_pairs():
    a = build_operator(gen_graph("star:4"), "adjacency")
    es = symmetric_eig(a)
    centered = a.data - np.outer(np.ones(4), a.data.sum(axis=0)) / 4.0
    for i in range(4):
        nu = es.vectors[:, i]
        if abs(nu @ np.ones(4)) < 1e-12:
            assert np.linalg.norm(centered @ nu - es.values[i] * nu) < 1e-10


def test_centered_eig_residuals_general_tau():
    a = build_operator(gen_graph("er:12,0.4", seed=1), "adjacency")
    tau = 0.7
    es = centered_eig(a, tau)
    n = a.n
    centered = a.data - (tau / n) * np.outer(np.ones(n), a.data.sum(axis=0))
    assert es.residuals(centered).max() < 1e-8


def test_centered_eig_tau1_eigvectors_orthogonal_to_kernel_dir():
    a = build_operator(gen_graph("er:10,0.5", seed=0), "adjacency")
    es = centered_eig(a, 1.0)
    n = a.n
    centered = a.data - np.outer(np.ones(n), a.data.sum(axis=0)) / n
    assert es.residuals(centered).max() < 1e-8
    # exactly one (numerically) zero eigenvalue from the kernel direction
    assert np.sum(np.abs(es.values) < 1e-9) >= 1


@pytest.mark.parametrize("kind", ["adjacency", "sym_normalized"])
@pytest.mark.parametrize("spec", ["path:3", "path:7", "star:8", "star:16"])
def test_centered_eig_full_basis_on_kernel_orthogonal_to_ones(spec, kind):
    # ker A is orthogonal to 1, so the restriction to the 1-complement
    # already holds it; the kernel column must be A^+ 1, not a null
    # vector of A repeating a lifted column
    a = build_operator(gen_graph(spec), kind)
    es = centered_eig(a, 1.0)
    n = a.n
    centered = a.data - np.outer(np.ones(n), a.data.sum(axis=0)) / n
    assert np.linalg.svd(es.vectors, compute_uv=False).min() > 0.1
    assert es.residuals(centered).max() < 1e-14


@pytest.mark.parametrize("kind", ["adjacency", "sym_normalized"])
@pytest.mark.parametrize("spec", ["er:100,0.1", "path:3", "path:7", "star:8",
                                  "star:16", "cycle:8", "reg:10,3",
                                  "sbm:10+10,0.5,0.1"])
def test_ones_complement_eig_is_centered_eig_without_its_kernel_column(
        spec, kind):
    # the checks of props 5 and 6 read the complement system where they
    # once sliced the kernel column off centered_eig(a, 1.0)
    a = build_operator(load_graph(spec, largest_cc=True), kind)
    full, comp = centered_eig(a, 1.0), ones_complement_eig(a)
    kernel = [j for j in range(a.n) if full.values[j] == 0.0
              and np.array_equal(np.delete(full.values, j), comp.values)
              and np.array_equal(np.delete(full.vectors, j, axis=1),
                                 comp.vectors)]
    assert len(kernel) == 1


def _loop_canonicalize(values, vectors):
    """The per-column loop _canonicalize replaced, kept as its oracle."""
    def first_nonzero(vec):
        scale = np.abs(vec).max(initial=0.0)
        if scale == 0.0:
            return vec.shape[0]
        return int(np.flatnonzero(np.abs(vec) > 1e-12 * scale)[0])

    for i in range(vectors.shape[1]):
        col = vectors[:, i]
        if col.size and col[int(np.argmax(np.abs(col)))] < 0:
            vectors[:, i] = -col
    order = sorted(
        range(len(values)),
        key=lambda i: (-float("%.12g" % abs(values[i])),
                       0.0 if values[i] > 0 else 1.0,
                       first_nonzero(vectors[:, i])))
    return values[order], vectors[:, order]


def _canonical_cases():
    rng = np.random.default_rng(5)
    vals = np.array([2.0, -2.0, 0.5, 0.0, -0.5, 2.0 + 1e-14, 0.0, 1.0])
    vecs = rng.normal(size=(6, 8))
    vecs[:, 3] = 0.0                        # a zero column
    vecs[:, 4] = [0.0, 0.0, -1.0, 0.0, 1.0, 0.0]    # a +/- magnitude tie
    vecs[:, 6] = [0.0, 1e-13, 0.0, -3.0, 0.0, 0.0]  # below 1e-12 of max
    yield vals, vecs
    for n in (1, 7, 60):
        m = rng.normal(size=(n, n))
        v, w = np.linalg.eigh(m + m.T)
        yield np.round(v, 1), w           # rounded values force ties
    yield np.zeros(0), np.zeros((4, 0))
    yield np.zeros(2), np.zeros((0, 2))


@pytest.mark.parametrize("vals, vecs", list(_canonical_cases()))
def test_canonicalize_matches_loop_oracle(vals, vecs):
    want = _loop_canonicalize(vals.copy(), vecs.copy())
    got = _canonicalize(vals.copy(), vecs.copy())
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_canonicalize_sign_ignores_rounding_of_tied_entries():
    # entries tied in exact arithmetic, one nudged by a few ulps either
    # way: the first of the tied entries still sets the sign
    col = np.array([0.1, -0.5, 0.3, 0.5, -0.5, 0.2])
    for bump in (1e-15, -1e-15):
        for i in (1, 3, 4):
            moved = col.copy()
            moved[i] += bump * np.sign(moved[i])
            got = _canonicalize(np.ones(1), moved[:, None])[1][:, 0]
            assert got[1] > 0 > got[3], (bump, i)


def _helmert_complement_eig(a):
    """The 1-complement pairs from the dense Helmert basis, as
    ones_complement_eig once solved them: Q^T A Q lifted by Q."""
    n = a.n
    q = np.zeros((n, n - 1))
    for j in range(1, n):
        q[:j, j - 1] = 1.0
        q[j, j - 1] = -j
        q[:, j - 1] /= np.sqrt(j * (j + 1))
    vals, vecs = np.linalg.eigh(q.T @ a.data @ q)
    return _canonicalize(vals, q @ vecs)


def _old_kernel_vector(data):
    """centered_eig(a, 1.0)'s kernel column from a second full solve:
    the part of 1 in ker A, else A^+ 1."""
    n = data.shape[0]
    es = symmetric_eig(data)
    scale = max(1.0, float(np.abs(es.values).max(initial=0.0)))
    small = np.abs(es.values) <= 1e-10 * scale
    ones = np.ones(n)
    w = es.vectors[:, small] @ (es.vectors[:, small].T @ ones)
    if np.linalg.norm(w) <= 1e-10 * np.sqrt(n):
        vecs = es.vectors[:, ~small]
        w = vecs @ ((vecs.T @ ones) / es.values[~small])
    return w / np.linalg.norm(w)


def _clusters(values, tol):
    """Index runs of values within tol of the run's first value."""
    runs, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > tol:
            runs.append(slice(start, i))
            start = i
    return runs


# path:5 and path:9 have a null vector with nonzero sum, so their kernel
# column is the part of 1 in ker A; the others take A^+ 1
_SPECTRA = ["star:16", "star:4", "path:3", "path:5", "path:7", "path:8",
            "path:9", "cycle:12", "reg:20,3", "er:30,0.2", "er:100,0.1",
            "sbm:60+40,0.2,0.05"]


@pytest.mark.parametrize("kind", ["adjacency", "sym_normalized"])
@pytest.mark.parametrize("spec", _SPECTRA)
def test_ones_complement_eig_matches_helmert_oracle(spec, kind):
    # repeated spectra (star:16, cycle:12, reg:20,3) are compared by
    # their eigenprojectors, since the vectors may turn inside them
    a = build_operator(load_graph(spec, largest_cc=True), kind)
    es = ones_complement_eig(a)
    values, vectors = _helmert_complement_eig(a)
    scale = max(1.0, abs(values[0]))
    assert np.abs(es.values - values).max() <= 1e-12 * scale
    for run in _clusters(values, 1e-8 * scale):
        ours, theirs = es.vectors[:, run], vectors[:, run]
        assert np.abs(ours @ ours.T - theirs @ theirs.T).max() <= 1e-10
    gram = es.vectors.T @ es.vectors
    assert np.abs(gram - np.eye(a.n - 1)).max() <= 1e-12
    assert np.abs(es.vectors.sum(axis=0)).max() <= 1e-12 * np.sqrt(a.n)


@pytest.mark.parametrize("kind", ["adjacency", "sym_normalized"])
@pytest.mark.parametrize("spec", _SPECTRA)
def test_centered_kernel_column_matches_full_solve(spec, kind):
    # the kernel column read from the 1-complement solve is the one a
    # full solve of A gives
    a = build_operator(load_graph(spec, largest_cc=True), kind)
    full, comp = centered_eig(a, 1.0), ones_complement_eig(a)
    j = next(j for j in range(a.n) if full.values[j] == 0.0
             and np.array_equal(np.delete(full.vectors, j, axis=1),
                                comp.vectors))
    # under the sign convention: on path:9 the largest entries tie in
    # exact arithmetic and the two solves round them apart
    w = _old_kernel_vector(np.asarray(a.data))
    w = _canonicalize(np.zeros(1), w[:, None])[1][:, 0]
    assert np.abs(full.vectors[:, j] - w).max() <= 1e-12


def test_ones_complement_eig_single_node():
    a = build_operator(make_graph(1, []), "adjacency")
    assert ones_complement_eig(a).vectors.shape == (1, 0)
    es = centered_eig(a, 1.0)
    assert es.values.tolist() == [0.0] and es.vectors.tolist() == [[1.0]]


def test_top_k():
    es = symmetric_eig(np.eye(3))
    assert top_k(es, 2).shape == (3, 2)
    assert top_k(es, 0).shape == (3, 0)
    with pytest.raises(DomainError):
        top_k(es, 4)


# --------------------------------------------------------- numerical rank

def test_numerical_rank_goldens():
    assert numerical_rank(np.zeros((4, 3))) == 0
    v = np.array([1.0, 2.0, 3.0])
    assert numerical_rank(np.stack([v, 2 * v], axis=1)) == 1
    rng = np.random.default_rng(0)
    assert numerical_rank(rng.normal(size=(20, 6))) == 6


def test_numerical_rank_empty_and_zero():
    assert numerical_rank(np.zeros((3, 0))) == 0
    assert numerical_rank(np.zeros((3, 2))) == 0


def test_numerical_rank_column_scaling():
    # rank survives column scaling while it stays above the relative
    # threshold (RANK_REL_TOL * sigma_max * max(n, k))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(15, 4))
    scaled = x * np.array([1.0, 1e-4, 1e4, 1e-2])
    assert numerical_rank(scaled) == 4
    # a column below the threshold no longer counts
    far = x * np.array([1.0, 1e-16, 1.0, 1.0])
    assert numerical_rank(far) == 3


def test_numerical_rank_graded_columns():
    # orthonormal columns graded down to a smallest singular value that
    # decides the count on either side of the threshold
    # RANK_REL_TOL * sigma_max * max(n, k) = 1e-10 * 20 = 2e-9; at 1e-9
    # only the max(n, k) factor keeps it out
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(20, 4)))
    for smallest, rank in ((1e-8, 4), (1e-9, 3), (1e-10, 3)):
        x = q * np.array([1.0, 1e-4, 1e-6, smallest])
        assert numerical_rank(x) == rank, smallest


# ------------------------------------------------------------- projections

def test_subspace_distance_goldens():
    basis = np.eye(4)[:, :2]
    inside = basis @ np.array([[1.0, 2.0], [3.0, 4.0]])
    assert subspace_distance(inside, basis) == 0.0
    ortho = np.zeros((4, 1))
    ortho[3, 0] = 1.0
    assert abs(subspace_distance(ortho, basis) - 0.25) < 1e-14
    es = symmetric_eig(_rand_sym(8, 3))
    x = np.random.default_rng(3).normal(size=(8, 5))
    assert subspace_distance(x, es.vectors) < 1e-8
    # the basis is checked once, before the distances that read it
    assert check_orthonormal(basis) is basis
    with pytest.raises(ContractError, match="basis is not orthonormal"):
        check_orthonormal(np.ones((8, 2)))
    out = np.empty_like(x)
    assert subspace_distance(x, es.vectors[:, :3], out=out) == \
        subspace_distance(x, es.vectors[:, :3])


# -------------------------------------------------------------- Krylov

def test_krylov_identity():
    a = build_operator(make_graph(3, [(i, i, 1.0) for i in range(3)]),
                       "adjacency")
    assert np.array_equal(a.data, np.eye(3))
    e1 = np.eye(3)[:, :1]
    kb = krylov_basis(a, e1)
    assert kb.blocks == (1,)
    assert np.abs(np.abs(kb.basis[:, 0]) - e1[:, 0]).max() < 1e-12


def test_krylov_path3():
    a = build_operator(gen_graph("path:3"), "adjacency")
    kb = krylov_basis(a, np.eye(3)[:, :1])
    assert kb.blocks == (1, 1, 1)
    assert np.abs(kb.basis.T @ kb.basis - np.eye(3)).max() < 1e-10


def test_krylov_zero_and_generators():
    a = build_operator(gen_graph("path:3"), "adjacency")
    kb = krylov_basis(a, np.zeros((3, 1)))
    assert kb.blocks == () and kb.basis.shape == (3, 0)


def test_krylov_depth_bound():
    # path:5 from e1: depth d spans e1..e_d
    a = build_operator(gen_graph("path:5"), "adjacency")
    for depth in (1, 2, 3):
        kb = krylov_basis(a, np.eye(5)[:, :1], depth)
        assert kb.blocks == (1,) * depth
        assert np.abs(np.abs(kb.basis) - np.eye(5)[:, :depth]).max() < 1e-12
    # a depth past closure stops where the space closes
    assert krylov_basis(a, np.eye(5)[:, :1], 9).blocks == (1,) * 5


def test_krylov_invariance():
    a = build_operator(gen_graph("er:10,0.4", seed=6), "adjacency")
    x0 = np.random.default_rng(6).normal(size=(10, 2))
    kb = krylov_basis(a, x0)
    # maximal subspace is A-invariant
    img = a.data @ kb.basis
    resid = img - kb.basis @ (kb.basis.T @ img)
    assert np.abs(resid).max() < 1e-7 * max(1.0, np.abs(img).max())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_krylov_full_rank_on_verify_graph(seed):
    # verify's graph and x0: A has 100 distinct eigenvalues, so the
    # Krylov space of a generic x0 is all of R^100
    g = load_graph("er:100,0.1", seed=seed, largest_cc=True)
    x0 = _initial_features(g, 4, (seed, 202), True)
    kb = krylov_basis(build_operator(g, "adjacency"), x0)
    assert g.n == 100 and kb.basis.shape == (100, 100)
    assert kb.blocks == (4,) * 25
    assert np.abs(kb.basis.T @ kb.basis - np.eye(100)).max() < 1e-12


@pytest.mark.parametrize("n, k", [(10, 4), (50, 4), (200, 8)])
def test_krylov_star_closed_form(n, k):
    # star:n has eigenvalues +-sqrt(n-1) and 0 (n-2 times): a generic x0
    # spans k directions of the kernel plus the two outer eigenvectors
    a = build_operator(gen_graph(f"star:{n}"), "adjacency")
    x0 = np.random.default_rng(n).normal(size=(n, k))
    kb = krylov_basis(a, x0)
    assert kb.blocks == (k, 2)
    assert np.abs(kb.basis.T @ kb.basis - np.eye(k + 2)).max() < 1e-12


def test_krylov_no_overflow_on_large_graph():
    # no power A^i X0 is formed, so lambda_max^i cannot overflow
    g = gen_graph("er:300,0.05", seed=0)
    x0 = np.random.default_rng(0).normal(size=(g.n, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kb = krylov_basis(build_operator(g, "adjacency"), x0)
    assert kb.basis.shape == (g.n, 300)
    assert np.abs(kb.basis.T @ kb.basis - np.eye(300)).max() < 1e-12


# ------------------------------------------------------ property tests

@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(0, 10**6))
def test_eig_reconstruction_property(n, seed):
    m = _rand_sym(n, seed)
    es = symmetric_eig(m)
    assert abs(np.sum(es.values) - np.trace(m)) < 1e-8 * max(
        1.0, abs(np.trace(m)))
    assert es.residuals(m).max() < 1e-8 * max(1.0, np.abs(es.values).max())
