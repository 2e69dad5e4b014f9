"""Equitable partitions, quotient graphs and structural eigenpairs."""

import numpy as np
import pytest

from oversmooth.errors import ContractError, DomainError
from oversmooth.graphio import build_operator, gen_graph, make_graph
from oversmooth.partition import (EquitablePartition, check_centering_effect,
                                  quotient, split_eigenpairs, wl_refine)
from oversmooth.spectral import symmetric_eig


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
        h = ep.indicator
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


@pytest.mark.parametrize("spec", ["star:4", "path:4", "cycle:6", "er:16,0.4"])
def test_inherited_spectra(spec):
    # lifted quotient eigenvectors are eigenvectors of A: A H nu = l H nu
    g = gen_graph(spec, seed=5)
    ep = wl_refine(g)
    q = quotient(g, ep)
    a = g.adjacency()
    h = ep.indicator
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
    h = ep.indicator
    assert h.shape == (4, 2)
    assert np.array_equal(h.sum(axis=1), np.ones(4))
    assert ep.class_sizes().sum() == 4
