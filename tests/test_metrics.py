"""Collapse measures and their identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oversmooth import metrics
from oversmooth.errors import ContractError, DomainError
from oversmooth.graphio import build_operator, gen_graph, make_graph
from oversmooth.metrics import (CSV_COLUMNS, MetricObserver, ReferenceVector,
                                all_ones_reference, col_distance,
                                col_projection_distance,
                                degree_sqrt_reference, dirichlet,
                                dominant_eig_reference, eigenspace_distance,
                                mu)
from oversmooth.spectral import symmetric_eig


def _unit(v):
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------- mu

def test_mu_goldens():
    v = _unit(np.array([1.0, 2.0, 2.0]))
    assert mu(v[:, None], v) < 1e-15
    u = _unit(np.array([2.0, -1.0, 0.0]))  # orthogonal to v
    assert abs(mu(u[:, None], v) - 1.0) < 1e-12
    assert abs(mu(np.stack([v, u], axis=1), v) - 1.0) < 1e-12


def test_reference_vectors():
    r = all_ones_reference(4)
    assert abs(np.linalg.norm(r.v) - 1.0) < 1e-12
    g = gen_graph("star:4")
    d = degree_sqrt_reference(g)
    assert abs(np.linalg.norm(d.v) - 1.0) < 1e-12
    es = symmetric_eig(build_operator(g, "adjacency"))
    assert dominant_eig_reference(es).kind == "dominant_eig"
    with pytest.raises(ContractError):
        ReferenceVector(v=np.array([1.0, 1.0]), kind="custom")
    with pytest.raises(DomainError):
        degree_sqrt_reference(make_graph(3, []))


# -------------------------------------------------------------- dirichlet

def test_dirichlet_kernel():
    g = gen_graph("er:20,0.3", seed=0, largest_cc=True)
    x = np.sqrt(g.degrees())[:, None]  # D^{1/2} 1
    assert dirichlet(g, x) < 1e-12


def test_dirichlet_single_edge_golden():
    g = make_graph(2, [(0, 1, 1.0)])
    assert abs(dirichlet(g, np.array([[1.0], [-1.0]])) - 2.0) < 1e-14


def test_dirichlet_quadratic_scaling():
    g = gen_graph("path:5")
    x = np.random.default_rng(0).normal(size=(5, 2))
    assert abs(dirichlet(g, 3.0 * x) - 9.0 * dirichlet(g, x)) < 1e-9


def test_dirichlet_rejects_isolated_node():
    with pytest.raises(DomainError):
        dirichlet(make_graph(3, [(0, 1, 1.0)]), np.ones((3, 1)))


def _dirichlet_loop(g, x):
    """Reference: one Python term per undirected edge."""
    s = x / np.sqrt(g.degrees())[:, None]
    return 0.5 * sum(w * float((s[u] - s[v]) @ (s[u] - s[v]))
                     for u, v, w in zip(g.u, g.v, g.w))


def _weighted_er(n, p, seed):
    g = gen_graph(f"er:{n},{p}", seed=seed, largest_cc=True)
    w = np.random.default_rng(seed).uniform(0.1, 3.0, size=g.num_edges)
    return make_graph(g.n, np.column_stack([g.u, g.v, w]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dirichlet_matches_edge_loop_weighted(seed):
    g = _weighted_er(40, 0.2, seed)
    assert len(np.unique(g.w)) > 1
    x = np.random.default_rng((seed, 1)).normal(size=(g.n, 5))
    ref = _dirichlet_loop(g, x)
    assert abs(dirichlet(g, x) - ref) <= 1e-12 * ref
    assert abs(dirichlet(g, x.T) - ref) <= 1e-12 * ref  # transposed input


def test_dirichlet_many_edge_blocks():
    # more edges than one gather block
    g = gen_graph("er:200,0.5", seed=3)
    assert g.num_edges > metrics._EDGE_BLOCK
    x = np.random.default_rng(3).normal(size=(g.n, 2))
    ref = _dirichlet_loop(g, x)
    assert abs(dirichlet(g, x) - ref) <= 1e-12 * ref


def test_dirichlet_matches_laplacian_trace_on_trajectory():
    g = _weighted_er(30, 0.3, 4)
    a = build_operator(g, "sym_normalized")
    lap = np.eye(g.n) - a.data
    rng = np.random.default_rng(4)
    x = rng.normal(size=(g.n, 3))
    for _ in range(5):
        ref = 0.5 * float(np.trace(x.T @ lap @ x))
        assert abs(dirichlet(g, x) - ref) <= 1e-12 * ref
        x = a.data @ x @ rng.normal(size=(3, 3))


def test_dirichlet_rejects_edgeless_graph():
    with pytest.raises(DomainError):
        dirichlet(make_graph(3, []), np.ones((3, 2)))


def test_dirichlet_permutation_equivariance():
    g = gen_graph("er:12,0.4", seed=1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 3))
    perm = rng.permutation(12)
    gp = make_graph(12, np.column_stack([perm[g.u], perm[g.v], g.w]))
    assert abs(dirichlet(g, x) - dirichlet(gp, x[np.argsort(perm)])) < 1e-10


# ------------------------------------------------------- column distances

def test_col_distance_goldens():
    v = np.array([1.0, 2.0])
    # sqrt of a ~1e-16 rounding residual: identical columns land at ~1e-8
    assert col_distance(np.stack([v, v, v], axis=1)) < 1e-7
    # I2: normalized columns e1, e2 at distance sqrt(2); mean over 4 pairs
    assert abs(col_distance(np.eye(2)) - np.sqrt(2.0) / 2.0) < 1e-14
    assert col_distance(v[:, None]) == 0.0
    assert col_distance(np.zeros((3, 0))) == 0.0


def test_col_projection_distance_goldens():
    v = np.array([3.0, 4.0])
    assert col_projection_distance(np.stack([v, 2 * v], axis=1)) < 1e-14
    assert abs(col_projection_distance(np.eye(2)) - 0.5) < 1e-14
    assert abs(col_projection_distance(np.stack([v, -v], axis=1)) - 1.0) < 1e-14


def test_col_distances_scaling_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 4))
    scale = rng.uniform(0.1, 10.0, size=4)
    assert abs(col_distance(x) - col_distance(x * scale)) < 1e-10
    assert abs(col_projection_distance(x)
               - col_projection_distance(x * scale)) < 1e-10


def test_col_distances_zero_column_handling():
    x = np.zeros((3, 2))
    x[:, 0] = np.array([1.0, 1.0, 1.0])
    # pair (0,1): one zero column contributes the norm of the other
    d = col_distance(x)
    expected = 2.0 * np.linalg.norm(np.full(3, 1.0 / 3.0)) / 4.0
    assert abs(d - expected) < 1e-12
    assert abs(col_projection_distance(x) - 0.5) < 1e-12


# ------------------------------------------------------ eigenspace distance

def test_eigenspace_distance():
    es = symmetric_eig(build_operator(gen_graph("er:10,0.5", seed=3),
                                      "adjacency"))
    x = np.random.default_rng(3).normal(size=(10, 4))
    assert eigenspace_distance(x, es) < 1e-8
    vk = es.vectors[:, :2]
    assert eigenspace_distance(vk, es, k=2) < 1e-10


# ---------------------------------------------------------- observer

def test_metric_observer_record():
    g = gen_graph("er:12,0.5", seed=6, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    es = symmetric_eig(a)
    v = dominant_eig_reference(es)
    obs = MetricObserver(g, v, top_k_basis=es.vectors[:, :2])
    x = np.random.default_rng(6).normal(size=(g.n, 3))
    rec = obs(5, x)
    assert rec.step == 5
    assert rec.rank == 3
    assert len(rec.row()) == len(CSV_COLUMNS)
    assert abs(rec.mu_v - mu(x, v)) < 1e-12


@pytest.mark.parametrize("shape", [(50, 100, 4), (20, 1000, 4)])
def test_mu_on_a_block_is_per_trial_mu(shape):
    rng = np.random.default_rng(11)
    block = rng.normal(size=shape)
    v = _unit(rng.normal(size=shape[1]))
    got = mu(block, v)
    assert got.shape == (shape[0],)
    assert np.array_equal(got, [mu(b, v) for b in block])
    assert isinstance(mu(block[0], v), float)


# ------------------------------------------------------ property tests

@settings(max_examples=100, deadline=None)
@given(st.integers(2, 20), st.integers(1, 6), st.integers(0, 10**6))
def test_mu_pythagoras(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    v = _unit(rng.normal(size=n))
    total = float(np.sum(x * x))
    along = float(np.sum((v @ x) ** 2))
    assert abs(mu(x, v) - (total - along)) < 1e-8 * max(1.0, total)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 10**6))
def test_col_distances_scale_property(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    scale = rng.uniform(0.5, 2.0, size=k)
    assert abs(col_distance(x) - col_distance(x * scale)) < 1e-8
    assert abs(col_projection_distance(x)
               - col_projection_distance(x * scale)) < 1e-8
