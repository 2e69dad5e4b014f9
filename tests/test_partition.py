"""Equitable partitions, quotient graphs and structural eigenpairs."""

import tracemalloc

import numpy as np
import pytest

from oversmooth.errors import ContractError, DomainError
from oversmooth.graphio import (build_operator, center_operator, gen_graph,
                                make_graph)
from oversmooth.partition import (STRUCTURAL_TOL, EquitablePartition,
                                  check_centering_effect, quotient,
                                  split_eigenpairs, wl_refine)
from oversmooth.spectral import symmetric_eig
from test_graphio import _weighted_graph_with_self_loops


def _indicator(ep):
    """The dense n x m class indicator H."""
    h = np.zeros((len(ep.colors), ep.m))
    h[np.arange(len(ep.colors)), ep.colors] = 1.0
    return h


def _dense_quotient(g, ep):
    """H^T A H / s from the dense adjacency."""
    h = _indicator(ep)
    return (h.T @ g.adjacency() @ h) / ep.class_sizes()[:, None]


def _dense_split(es, ep):
    """split_eigenpairs through the dense projector H diag(1/s) H^T.
    Clusters break at gaps of 1e-8 between neighbours, which on the
    graphs below gives the clusters split_eigenpairs finds."""
    h = _indicator(ep)
    proj = h @ np.diag(1.0 / ep.class_sizes()) @ h.T
    vectors = np.array(es.vectors, copy=True)
    clusters = np.split(np.arange(len(es.values)), 1 + np.flatnonzero(
        np.abs(np.diff(es.values)) >= 1e-8))
    for c in clusters:
        if len(c) > 1:
            block = vectors[:, c]
            m = block.T @ proj @ block
            vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
            vectors[:, c] = block @ vecs[:, np.argsort(-vals)]
    dist = np.linalg.norm(vectors - proj @ vectors, axis=0)
    return (tuple(np.flatnonzero(dist <= STRUCTURAL_TOL)),
            tuple(np.flatnonzero(dist > STRUCTURAL_TOL)), vectors)


def _dense_centering(a, es, rest, vectors, tau):
    """(rest residual, Rayleigh residual of nu_1, trace gap) from the
    dense centred matrix, one rest pair at a time."""
    centered = center_operator(a, tau)
    rest_resid = max((np.linalg.norm(centered @ vectors[:, i]
                                     - es.values[i] * vectors[:, i])
                      for i in rest), default=0.0)
    nu1 = es.vectors[:, 0]
    rho = nu1 @ centered @ nu1
    return (rest_resid, np.linalg.norm(centered @ nu1 - rho * nu1),
            np.trace(a.data) - np.trace(centered))


def test_wl_star4():
    ep = wl_refine(gen_graph("star:4"))
    assert ep.m == 2
    assert ep.colors[0] != ep.colors[1]
    assert ep.colors[1] == ep.colors[2] == ep.colors[3]


def test_wl_cycle5():
    ep = wl_refine(gen_graph("cycle:5"))
    assert ep.m == 1
    assert set(ep.colors) == {0}


def test_wl_path3():
    ep = wl_refine(gen_graph("path:3"))
    assert ep.m == 2
    assert ep.colors[0] == ep.colors[2] != ep.colors[1]


def test_wl_weighted_edges_distinguish():
    # same topology as path:3 but one heavier edge breaks the symmetry
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert wl_refine(g).m == 3


def test_wl_idempotent_and_equitable():
    for spec in ("star:6", "path:5", "er:20,0.3"):
        g = gen_graph(spec, seed=3)
        ep = wl_refine(g)
        # the returned partition is equitable: quotient accepts it
        q = quotient(g, ep)
        h = _indicator(ep)
        assert np.abs(g.adjacency() @ h - h @ q.a_pi).max() < 1e-9


def test_quotient_star4_golden():
    g = gen_graph("star:4")
    q = quotient(g, wl_refine(g))
    assert np.abs(q.a_pi - np.array([[0.0, 3.0], [1.0, 0.0]])).max() < 1e-12
    assert q.class_sizes == (1, 3)


def test_quotient_cycle5_golden():
    g = gen_graph("cycle:5")
    q = quotient(g, wl_refine(g))
    assert np.abs(q.a_pi - np.array([[2.0]])).max() < 1e-12


def test_quotient_trivial_partition():
    g = gen_graph("er:8,0.5", seed=1)
    ep = EquitablePartition(colors=tuple(range(8)), m=8)
    q = quotient(g, ep)
    assert np.abs(q.a_pi - g.adjacency()).max() < 1e-12


def test_quotient_rejects_non_equitable():
    g = gen_graph("star:4")
    ep = EquitablePartition(colors=(0, 0, 1, 1), m=2)
    with pytest.raises(ContractError):
        quotient(g, ep)


def test_split_cycle5():
    g = gen_graph("cycle:5")
    es = symmetric_eig(build_operator(g, "adjacency"))
    split = split_eigenpairs(es, wl_refine(g))
    # col(H) = span(1): only the lambda=2 all-ones eigenvector is inside
    assert len(split.structural) == 1
    assert abs(es.values[split.structural[0]] - 2.0) < 1e-10


def test_split_star4():
    g = gen_graph("star:4")
    es = symmetric_eig(build_operator(g, "adjacency"))
    ep = wl_refine(g)
    split = split_eigenpairs(es, ep)
    assert len(split.structural) == ep.m == 2
    vals = sorted(es.values[list(split.structural)])
    assert np.abs(np.array(vals) - [-np.sqrt(3), np.sqrt(3)]).max() < 1e-10


def test_split_trivial_partition_all_structural():
    g = gen_graph("er:7,0.6", seed=2)
    es = symmetric_eig(build_operator(g, "adjacency"))
    ep = EquitablePartition(colors=tuple(range(7)), m=7)
    split = split_eigenpairs(es, ep)
    assert len(split.structural) == 7
    assert split.rest == ()


@pytest.mark.parametrize("spec,seed", [("er:100,0.1", 0), ("er:100,0.1", 3),
                                       ("er:300,0.05", 0)])
def test_split_discrete_partition_skips_the_projector(spec, seed):
    # WL is discrete on these graphs: the split is the dense general
    # path's, spans each cluster's eigenspace, and forms no n x n array
    g = gen_graph(spec, seed=seed, largest_cc=True)
    es = symmetric_eig(build_operator(g, "adjacency"))
    ep = wl_refine(g)
    assert ep.m == g.n
    structural, rest, vectors = _dense_split(es, ep)
    tracemalloc.start()
    try:
        split = split_eigenpairs(es, ep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (split.structural, split.rest) == (structural, rest) == (
        tuple(range(g.n)), ())
    clusters = np.split(np.arange(g.n), 1 + np.flatnonzero(
        np.abs(np.diff(es.values)) >= 1e-8))
    for c in clusters:
        ours, theirs = split.vectors[:, c], vectors[:, c]
        assert np.abs(ours @ ours.T - theirs @ theirs.T).max() <= 1e-12
    assert peak < g.n * g.n * 8 // 4, peak


@pytest.mark.parametrize("spec", ["star:4", "path:4", "cycle:6", "er:16,0.4"])
def test_inherited_spectra(spec):
    # lifted quotient eigenvectors are eigenvectors of A: A H nu = l H nu
    g = gen_graph(spec, seed=5)
    ep = wl_refine(g)
    q = quotient(g, ep)
    a = g.adjacency()
    h = _indicator(ep)
    vals, vecs = np.linalg.eig(q.a_pi)
    for i in range(ep.m):
        lifted = h @ vecs[:, i].real
        lam = vals[i].real
        assert np.linalg.norm(a @ lifted - lam * lifted) <= 1e-8 * max(
            1.0, np.linalg.norm(lifted))
    # structural count never exceeds m
    es = symmetric_eig(build_operator(g, "adjacency"))
    split = split_eigenpairs(es, ep)
    assert len(split.structural) <= ep.m
    assert len(split.structural) + len(split.rest) == g.n


def _centering(g, tau):
    return check_centering_effect(g, build_operator(g, "adjacency"), tau)


def test_centering_effect_star4():
    rep = _centering(gen_graph("star:4"), 1.0)
    assert rep.rest_preserved and rep.rest_max_residual <= 1e-8
    assert rep.dominant_distorted  # star is non-regular
    assert not rep.graph_is_regular
    assert abs(rep.trace_gap - 1.5) < 1e-10  # tau * 2|E| / n = 6/4
    assert rep.trace_gap_positive


def test_centering_effect_cycle4_regular():
    rep = _centering(gen_graph("cycle:4"), 1.0)
    assert rep.graph_is_regular
    assert not rep.dominant_distorted  # (I-P) A 1 = 0
    assert rep.rest_preserved


def test_centering_effect_tau_scaling():
    g = gen_graph("path:5")
    for tau in (0.5, 1.0):
        rep = _centering(g, tau)
        assert abs(rep.trace_gap - tau * 2 * g.num_edges / g.n) < 1e-10


def test_centering_effect_rejects_nonpositive_tau():
    with pytest.raises(DomainError):
        _centering(gen_graph("star:4"), 0.0)
    with pytest.raises(DomainError):
        _centering(gen_graph("star:4"), -1.0)


def test_centering_effect_needs_the_graphs_adjacency():
    g = gen_graph("star:4")
    for a in (build_operator(g, "sym_normalized"),
              build_operator(gen_graph("star:5"), "adjacency")):
        with pytest.raises(ContractError):
            check_centering_effect(g, a, 1.0)


def test_indicator_and_sizes():
    ep = wl_refine(gen_graph("star:4"))
    h = _indicator(ep)
    assert h.shape == (4, 2)
    assert np.array_equal(h.sum(axis=1), np.ones(4))
    assert ep.class_sizes().sum() == 4


@pytest.mark.parametrize("g", [
    gen_graph("star:16"), gen_graph("cycle:12"), gen_graph("path:7"),
    gen_graph("reg:8,3"), gen_graph("sbm:10+10,0.5,0.1"),
    _weighted_graph_with_self_loops()],
    ids=["star16", "cycle12", "path7", "reg8_3", "sbm", "weighted"])
def test_class_means_match_the_dense_projector(g):
    ep = wl_refine(g)
    assert np.array_equal(quotient(g, ep).a_pi, _dense_quotient(g, ep))
    a = build_operator(g, "adjacency")
    es = symmetric_eig(a)
    split = split_eigenpairs(es, ep)
    structural, rest, vectors = _dense_split(es, ep)
    assert (split.structural, split.rest) == (structural, rest)
    for tau in (0.5, 1.0):
        rep = check_centering_effect(g, a, tau)
        rest_resid, rayleigh, gap = _dense_centering(a, es, rest, vectors,
                                                     tau)
        assert rep.rest_pairs == len(rest)
        assert abs(rep.rest_max_residual - rest_resid) <= 1e-12
        assert abs(rep.dominant_rayleigh_residual - rayleigh) <= 1e-12
        assert rep.trace_gap == pytest.approx(gap, rel=1e-12)


def test_partition_tools_take_a_graph_with_no_nodes():
    g = make_graph(0, [])
    ep = wl_refine(g)
    assert (ep.colors, ep.m, ep.class_sizes().tolist()) == ((), 0, [])
    q = quotient(g, ep)
    assert q.a_pi.shape == (0, 0) and q.class_sizes == ()
