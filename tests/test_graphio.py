"""Graph parsing, generators and operator construction."""

import numpy as np
import pytest

from oversmooth.errors import ContractError, DomainError, ParseError
from oversmooth.graphio import (Graph, build_operator, center_operator,
                                gen_graph, is_connected, is_regular,
                                largest_component, make_graph,
                                parse_edge_list, parse_feature_csv)
from oversmooth.spectral import symmetric_eig


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_parse_edge_list_empty():
    g = parse_edge_list("")
    assert g.n == 0
    assert g.edges == ()


def test_parse_edge_list_negative_weight():
    with pytest.raises(DomainError):
        parse_edge_list("0 1 -2")


def test_parse_edge_list_comments_and_weights():
    g = parse_edge_list("# header\n0 1 2.5\n\n2 0\n")
    assert g.n == 3
    assert (0, 1, 2.5) in g.edges
    assert (0, 2, 1.0) in g.edges


def test_parse_edge_list_symmetrizes_directed_input():
    g = parse_edge_list("0 1\n1 0")
    assert g.edges == ((0, 1, 1.0),)


def test_parse_edge_list_malformed():
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2 3")
    with pytest.raises(ParseError):
        parse_edge_list("a b")
    with pytest.raises(ParseError):
        parse_edge_list("-1 0")


def test_parse_feature_csv():
    x = parse_feature_csv("1,0\n0,1", n=2)
    assert np.array_equal(x, np.eye(2))
    with pytest.raises(ParseError):
        parse_feature_csv("1,0\n0", n=2)
    with pytest.raises(ParseError):
        parse_feature_csv("1,2,3", n=2)


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(n=2, edges=((0, 5, 1.0),))
    with pytest.raises(DomainError):
        Graph(n=2, edges=((0, 1, -1.0),))
    with pytest.raises(DomainError):
        Graph(n=2, edges=((0, 1, 1.0), (1, 0, 2.0)))


def test_star_path_generators():
    star = gen_graph("star:4")
    assert set(star.edges) == {(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)}
    path = gen_graph("path:3")
    assert set(path.edges) == {(0, 1, 1.0), (1, 2, 1.0)}


def test_er_determinism():
    g1 = gen_graph("er:50,0.2", seed=7)
    g2 = gen_graph("er:50,0.2", seed=7)
    assert g1.edges == g2.edges
    g3 = gen_graph("er:50,0.2", seed=8)
    assert g3.edges != g1.edges


def test_gen_graph_specs():
    assert gen_graph("cycle:5").num_edges == 5
    assert gen_graph("reg:6,3").degrees().tolist() == [3.0] * 6
    sbm = gen_graph("sbm:5+5,1.0,0.0")
    assert sbm.n == 10
    assert all((u < 5) == (v < 5) for u, v, _ in sbm.edges)
    with pytest.raises(DomainError):
        gen_graph("nope:3")
    with pytest.raises(DomainError):
        gen_graph("er:10")  # missing p
    with pytest.raises(DomainError):
        gen_graph("er:10,1.5")
    with pytest.raises(DomainError):
        gen_graph("cycle:2")
    with pytest.raises(DomainError):
        gen_graph("reg:5,3")  # odd degree needs even n


def test_degrees_cached_read_only():
    g = make_graph(4, [(0, 1, 0.3), (1, 2, 0.1), (2, 3, 2.5), (0, 3, 0.7)])
    d = g.degrees()
    assert d is g.degrees()
    assert not d.flags.writeable
    assert np.array_equal(d, g.adjacency().sum(axis=1))
    with pytest.raises(ValueError):
        d[0] = 1.0


def test_edge_arrays():
    g = make_graph(4, [(0, 1, 0.3), (2, 1, 0.1), (2, 3, 2.5)])
    u, v, w = g.edge_arrays
    assert list(zip(u.tolist(), v.tolist(), w.tolist())) == list(g.edges)
    assert u.dtype == np.intp and not w.flags.writeable
    eu, ev, ew = make_graph(3, []).edge_arrays
    assert eu.shape == ev.shape == ew.shape == (0,)


def test_sym_normalized_path3_golden():
    # degrees (1,2,1): off-diagonal entries are 1/sqrt(2)
    a = build_operator(gen_graph("path:3"), "sym_normalized")
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
    assert np.abs(a.data - expected).max() < 1e-15
    assert a.symmetric


def test_adjacency_star4_golden():
    a = build_operator(gen_graph("star:4"), "adjacency")
    assert np.array_equal(a.data[0], [0, 1, 1, 1])


def test_isolated_node_rejected():
    g = make_graph(3, [(0, 1, 1.0)])  # node 2 isolated
    with pytest.raises(DomainError):
        build_operator(g, "sym_normalized")
    with pytest.raises(DomainError):
        build_operator(g, "row_stochastic")


def test_row_stochastic_rows_sum_to_one():
    a = build_operator(gen_graph("er:30,0.3", seed=1, largest_cc=True),
                       "row_stochastic")
    assert np.abs(a.data.sum(axis=1) - 1.0).max() < 1e-12
    assert not a.symmetric


def test_sym_normalized_dominant_pair():
    # dominant eigenvalue 1 with eigenvector D^{1/2}1 (connected graph)
    g = gen_graph("er:40,0.2", seed=3, largest_cc=True)
    a = build_operator(g, "sym_normalized")
    es = symmetric_eig(a)
    assert abs(es.values[0] - 1.0) < 1e-8
    d = np.sqrt(g.degrees())
    d /= np.linalg.norm(d)
    assert np.abs(np.abs(es.vectors[:, 0]) - np.abs(d)).max() < 1e-8


def test_center_operator_tau0_identity():
    a = build_operator(gen_graph("star:4"), "adjacency")
    assert np.array_equal(center_operator(a, 0.0).data, a.data)


def test_center_operator_k3_trace():
    # K3: Tr(A)=0, ones^T A ones = 6, n=3 -> centered trace is -2
    k3 = make_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    a = build_operator(k3, "adjacency")
    c = center_operator(a, 1.0)
    assert abs(np.trace(c.data) - (-2.0)) < 1e-12


def test_center_operator_column_sums_zero():
    a = build_operator(gen_graph("er:20,0.3", seed=0), "adjacency")
    c = center_operator(a, 1.0)
    assert np.abs(c.data.sum(axis=0)).max() < 1e-12


def test_center_operator_reconstruction():
    a = build_operator(gen_graph("er:15,0.4", seed=2), "adjacency")
    for tau in (0.3, 1.0):
        c = center_operator(a, tau)
        n = a.n
        recon = c.data + (tau / n) * np.outer(np.ones(n), a.data.sum(axis=0))
        assert np.abs(recon - a.data).max() < 1e-12
    with pytest.raises(ContractError):
        center_operator(center_operator(a, 1.0), 1.0)


def test_largest_component_and_connectivity():
    g = make_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    lcc = largest_component(g)
    assert lcc.n == 3
    assert is_connected(lcc)
    assert not is_connected(g)
    assert gen_graph("er:200,0.01", seed=0, largest_cc=True).n <= 200


def test_is_regular():
    assert is_regular(gen_graph("cycle:6"))
    assert is_regular(gen_graph("reg:8,3"))
    assert not is_regular(gen_graph("star:4"))


def test_build_operator_pure():
    g = gen_graph("er:25,0.3", seed=5)
    a1 = build_operator(g, "sym_normalized")
    a2 = build_operator(g, "sym_normalized")
    assert np.array_equal(a1.data, a2.data)
    with pytest.raises(DomainError):
        build_operator(g, "laplacian")
