"""Graph parsing, generators and operator construction."""

import re

import numpy as np
import pytest

from oversmooth.errors import ContractError, DomainError, ParseError
from oversmooth.graphio import (Graph, build_operator, center_operator,
                                gen_graph, is_connected, is_regular,
                                largest_component, make_graph,
                                parse_edge_list)
from oversmooth.spectral import symmetric_eig


def _triples(g):
    return list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert _triples(g) == [(0, 1, 1.0), (1, 2, 1.0)]


def test_parse_edge_list_empty():
    g = parse_edge_list("")
    assert g.n == 0
    assert _triples(g) == []


def test_parse_edge_list_negative_weight():
    with pytest.raises(DomainError):
        parse_edge_list("0 1 -2")


def test_parse_edge_list_comments_and_weights():
    g = parse_edge_list("# header\n0 1 2.5\n\n2 0\n")
    assert g.n == 3
    assert _triples(g) == [(0, 1, 2.5), (0, 2, 1.0)]


def test_parse_edge_list_symmetrizes_directed_input():
    g = parse_edge_list("0 1\n1 0")
    assert _triples(g) == [(0, 1, 1.0)]


def test_parse_edge_list_malformed():
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2 3")
    with pytest.raises(ParseError):
        parse_edge_list("a b")
    with pytest.raises(ParseError):
        parse_edge_list("-1 0")


def test_graph_validation():
    for u, v, w, message in (
            ([0], [5], [1.0], "edge (0,5) outside [0,2)"),
            ([-1], [1], [1.0], "edge (-1,1) outside [0,2)"),
            ([0, 1], [1, 1], [1.0, -0.5], "edge (1,1) has negative weight"),
            ([1], [0], [1.0], "edge (1,0) has u > v"),
            ([0, 0], [1, 1], [1.0, 2.0], "edge (0,1) is a duplicate entry"),
            ([1, 0], [1, 1], [1.0, 2.0], "edge (0,1) is out of (u, v) order"),
            ([0, 1], [1], [1.0, 1.0], "1-d arrays of one length")):
        with pytest.raises(DomainError, match=re.escape(message)):
            Graph(2, u, v, w)
    g = Graph(3, [0, 1, 1], [2, 1, 2], [0.5, 3.0, 2.0])
    assert _triples(g) == [(0, 2, 0.5), (1, 1, 3.0), (1, 2, 2.0)]


def test_make_graph_last_weight_wins():
    g = make_graph(4, [(0, 1, 1.0), (2, 3, 4.0), (1, 0, 2.0), (3, 2, 5.0),
                       (0, 1, 3.0), (2, 2, 0.5), (2, 2, 0.25)])
    assert _triples(g) == [(0, 1, 3.0), (2, 2, 0.25), (2, 3, 5.0)]
    table = np.array([[1, 0, 2.0], [0, 1, 7.0], [3, 1, 1.5]])
    assert _triples(make_graph(4, table)) == [(0, 1, 7.0), (1, 3, 1.5)]


def test_star_path_generators():
    star = gen_graph("star:4")
    assert _triples(star) == [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
    path = gen_graph("path:3")
    assert _triples(path) == [(0, 1, 1.0), (1, 2, 1.0)]


def test_er_determinism():
    g1 = gen_graph("er:50,0.2", seed=7)
    g2 = gen_graph("er:50,0.2", seed=7)
    assert _triples(g1) == _triples(g2)
    g3 = gen_graph("er:50,0.2", seed=8)
    assert _triples(g3) != _triples(g1)


def test_gen_graph_specs():
    assert gen_graph("cycle:5").num_edges == 5
    assert gen_graph("reg:6,3").degrees().tolist() == [3.0] * 6
    sbm = gen_graph("sbm:5+5,1.0,0.0")
    assert sbm.n == 10
    assert np.array_equal(sbm.u < 5, sbm.v < 5)
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


def test_degrees_match_dense_row_sums():
    # weighted, with self-loops: each loop's weight counts once
    rng = np.random.default_rng(3)
    n = 60
    ends = rng.integers(0, n, size=(400, 2))
    g = make_graph(n, np.column_stack([ends, rng.uniform(0.1, 5.0, 400)]))
    assert np.any(g.u == g.v)
    dense = g.adjacency().sum(axis=1)
    assert np.allclose(g.degrees(), dense, rtol=1e-14, atol=0.0)
    loops = make_graph(2, [(0, 0, 2.0), (0, 1, 1.0)])
    assert loops.degrees().tolist() == [3.0, 1.0]
    # unit weights: exactly the dense sums
    for spec in ("er:300,0.05", "sbm:20+30,0.4,0.1", "star:9", "reg:8,3"):
        unit = gen_graph(spec, seed=2)
        assert np.array_equal(unit.degrees(), unit.adjacency().sum(axis=1))
    assert make_graph(3, []).degrees().tolist() == [0.0] * 3


def test_edge_arrays():
    g = make_graph(4, [(0, 1, 0.3), (2, 1, 0.1), (2, 3, 2.5)])
    assert _triples(g) == [(0, 1, 0.3), (1, 2, 0.1), (2, 3, 2.5)]
    assert g.u.dtype == np.intp and not g.w.flags.writeable
    empty = make_graph(3, [])
    assert empty.u.shape == empty.v.shape == empty.w.shape == (0,)


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


def _bfs_labels(n, u, v):
    """Reference: each node's smallest component member, by a BFS from
    every unlabelled node in index order."""
    neighbors = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        neighbors[a].append(b)
        neighbors[b].append(a)
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        queue = [start]
        for node in queue:
            for nb in neighbors[node]:
                if label[nb] < 0:
                    label[nb] = start
                    queue.append(nb)
    return label


def _bfs_largest_component(g):
    label = _bfs_labels(g.n, g.u, g.v)
    sizes = {c: label.count(c) for c in label}
    best = max(sizes.values())
    keep = min(c for c in sizes if sizes[c] == best)  # tie: smallest node
    old_ids = [i for i in range(g.n) if label[i] == keep]
    new_id = {old: new for new, old in enumerate(old_ids)}
    pairs = [(new_id[a], new_id[b], w) for a, b, w in _triples(g)
             if label[a] == keep]
    return len(old_ids), pairs, len(sizes) == 1


def test_largest_component_matches_bfs():
    ties = isolated = loops = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, n + 3))
        ends = rng.integers(0, n, size=(m, 2))  # self-loops included
        g = make_graph(n, np.column_stack([ends, rng.uniform(0.1, 3.0, m)]))
        want_n, want_pairs, connected = _bfs_largest_component(g)
        got = largest_component(g)
        assert (got.n, _triples(got)) == (want_n, want_pairs), seed
        assert is_connected(g) == connected
        sizes = np.bincount(_bfs_labels(g.n, g.u, g.v))
        ties += int(np.sum(sizes == sizes.max()) > 1)
        isolated += int(g.n > np.unique(np.concatenate([g.u, g.v])).size)
        loops += int(np.any(g.u == g.v))
    assert ties and isolated and loops


def test_largest_component_tie_keeps_smallest_node():
    # two triangles; the one holding node 0 is listed second
    g = make_graph(7, [(2, 4, 1.0), (4, 6, 1.0), (6, 2, 1.0),
                       (5, 0, 2.0), (0, 3, 1.0), (3, 5, 1.0)])
    lcc = largest_component(g)
    assert _triples(lcc) == [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)]


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
