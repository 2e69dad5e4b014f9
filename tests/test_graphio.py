"""Graph parsing, generators and operator construction."""

import re
import tracemalloc

import numpy as np
import pytest

from oversmooth import graphio
from oversmooth.errors import ContractError, DomainError, ParseError
from oversmooth.graphio import (OPERATOR_KINDS, Graph, build_operator,
                                center_operator, gen_graph, is_connected,
                                is_regular, largest_component, make_graph,
                                parse_edge_list)
from oversmooth.layers import LayerConfig, run_trajectory
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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_edge_list_non_finite_weight(bad):
    with pytest.raises(DomainError,
                       match=f"^line 2: non-finite weight {bad}$"):
        parse_edge_list(f"0 1\n1 2 {bad}\n")


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
            ([0, 1], [1, 1], [1.0, np.nan], "edge (1,1) has non-finite"),
            ([0], [1], [np.inf], "edge (0,1) has non-finite weight"),
            ([0], [1], [-np.inf], "edge (0,1) has non-finite weight"),
            ([1], [0], [1.0], "edge (1,0) has u > v"),
            ([0, 0], [1, 1], [1.0, 2.0], "edge (0,1) is a duplicate entry"),
            ([1, 0], [1, 1], [1.0, 2.0], "edge (0,1) is out of (u, v) order"),
            ([0, 1], [1], [1.0, 1.0], "1-d arrays of one length")):
        with pytest.raises(DomainError, match=re.escape(message)):
            Graph(2, u, v, w)
    with pytest.raises(DomainError, match="node count -1 is negative"):
        Graph(-1, [], [], [])
    g = Graph(3, [0, 1, 1], [2, 1, 2], [0.5, 3.0, 2.0])
    assert _triples(g) == [(0, 2, 0.5), (1, 1, 3.0), (1, 2, 2.0)]
    # a zero weight is no edge: the pair is dropped
    g = Graph(3, [0, 1, 1], [2, 1, 2], [0.5, 0.0, 2.0])
    assert _triples(g) == [(0, 2, 0.5), (1, 2, 2.0)] and g.num_edges == 2


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


def _one_draw_pairs(n, prob, seed):
    """The generators' reference draw: every upper-triangle pair at
    once, one uniform each from a single ``rng.random`` call."""
    iu, ju = np.triu_indices(n, k=1)
    keep = np.random.default_rng(seed).random(len(iu)) < prob(iu, ju)
    return iu[keep], ju[keep]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_generators_match_one_draw(seed):
    # er:3000 draws 294 chunks of pairs and sbm:700+500 46; the block
    # boundary of the sbm falls inside a chunk
    cases = [(f"er:{n},{p}", n, lambda i, j, p=p: p)
             for n, p in ((0, 0.7), (1, 0.7), (2, 0.7), (3000, 0.005))]
    for sizes in ((0,), (1,), (1, 1), (700, 500)):
        block = np.repeat(np.arange(len(sizes)), sizes)
        cases.append((f"sbm:{'+'.join(map(str, sizes))},0.02,0.005",
                      len(block), lambda i, j, block=block: np.where(
                          block[i] == block[j], 0.02, 0.005)))
    for spec, n, prob in cases:
        g = gen_graph(spec, seed=seed)
        u, v = _one_draw_pairs(n, prob, seed)
        assert g.n == n, spec
        assert np.array_equal(g.u, u) and np.array_equal(g.v, v), spec
        assert np.array_equal(g.w, np.ones(len(u))), spec


def _dense_operator(g, kind):
    """The operator's matrix from the dense adjacency: the reference the
    edge-wise build must reproduce bit for bit."""
    a = g.adjacency()
    deg = a.sum(axis=1)
    if kind == "adjacency":
        return a
    if kind == "row_stochastic":
        return a / deg[:, None]
    dinv = 1.0 / np.sqrt(deg)
    scaled = a * dinv[:, None] * dinv[None, :]
    return (scaled + scaled.T) / 2.0


def test_sparse_path_makes_no_dense_matrix():
    # generating the graph, building each operator, one product at 80
    # columns and a short stacked run stay under a quarter of the bytes
    # of one dense n x n float64 matrix
    tracemalloc.start()
    try:
        g = gen_graph("er:3000,0.002", largest_cc=True)
        ops = [build_operator(g, kind) for kind in OPERATOR_KINDS]
        assert all(op._slices is not None for op in ops)
        x = np.random.default_rng(0).normal(size=(g.n, 80))
        product = ops[1] @ x
        run_trajectory(ops[1], x[:, :4], LayerConfig(variant="batchnorm"),
                       4, [np.random.default_rng(t) for t in range(5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8 / 4
    # the dense matrix, built on its first read, is the dense reference
    for op in ops:
        assert np.array_equal(op.data, _dense_operator(g, op.kind)), op.kind
    scale = (np.abs(ops[1].data) @ np.abs(x)).max()
    assert np.abs(product - ops[1].data @ x).max() <= 1e-14 * scale


def test_zero_entries_are_left_out():
    # a zero-weight edge is no edge of the graph and no entry of any
    # operator, as count_nonzero drops it
    g = make_graph(4, [(0, 1, 2.0), (1, 2, 0.0), (2, 3, 1.0), (3, 3, 0.5),
                       (0, 3, 1.5)])
    assert g.num_edges == 4 and (1, 2, 0.0) not in _triples(g)
    for kind in OPERATOR_KINDS:
        op = build_operator(g, kind)
        assert np.array_equal(op.data, _dense_operator(g, kind)), kind
        rows, cols = np.nonzero(op.data)
        assert np.array_equal(op.rows, rows), kind
        assert np.array_equal(op.cols, cols), kind


def test_underflowing_values_are_left_out():
    # row 0's degree is 1e300, so its entry 1e-300 / 1e300 underflows
    g = make_graph(3, [(0, 1, 1e-300), (0, 2, 1e300), (1, 1, 1.0)])
    op = build_operator(g, "row_stochastic")
    assert op.data[0, 1] == 0.0 and g.adjacency()[0, 1] > 0.0
    assert np.array_equal(op.data, _dense_operator(g, "row_stochastic"))
    rows, cols = np.nonzero(op.data)
    assert np.array_equal(op.rows, rows) and np.array_equal(op.cols, cols)


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
    for spec, n in (("er:-5,0.1", -5), ("path:-3", -3), ("star:-1", -1)):
        with pytest.raises(DomainError, match=f"node count {n} is negative"):
            gen_graph(spec)


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


def test_degrees_keep_the_concatenation_order_bits():
    # the sum over the entry list adds each row's weights in the order
    # the concatenation (v below, then u) did: column order
    g = _weighted_graph_with_self_loops()
    off = g.u != g.v
    want = np.bincount(np.concatenate([g.v[off], g.u]),
                       np.concatenate([g.w[off], g.w]), minlength=g.n)
    assert np.array_equal(g.degrees(), want)


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
    assert np.array_equal(center_operator(a, 0.0), a.data)


def test_center_operator_k3_trace():
    # K3: Tr(A)=0, ones^T A ones = 6, n=3 -> centered trace is -2
    k3 = make_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    a = build_operator(k3, "adjacency")
    c = center_operator(a, 1.0)
    assert abs(np.trace(c) - (-2.0)) < 1e-12


def test_center_operator_column_sums_zero():
    a = build_operator(gen_graph("er:20,0.3", seed=0), "adjacency")
    c = center_operator(a, 1.0)
    assert np.abs(c.sum(axis=0)).max() < 1e-12


def test_center_operator_reconstruction():
    a = build_operator(gen_graph("er:15,0.4", seed=2), "adjacency")
    for tau in (0.3, 1.0):
        c = center_operator(a, tau)
        n = a.n
        recon = c + (tau / n) * np.outer(np.ones(n), a.data.sum(axis=0))
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
    # two triangles joined by a zero-weight pair are two components
    joined = make_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                            (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
                            (2, 3, 0.0)])
    assert not is_connected(joined)
    assert largest_component(joined).n == 3


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


def _weighted_graph_with_self_loops():
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 300, size=(1500, 2))
    loops = np.arange(0, 300, 7)
    return make_graph(300, np.concatenate([
        np.column_stack([pairs, rng.uniform(0.1, 5.0, len(pairs))]),
        np.column_stack([loops, loops, rng.uniform(0.1, 3.0, len(loops))])]))


@pytest.mark.parametrize("g", [
    gen_graph("er:1000,0.01"), gen_graph("er:200,0.05", largest_cc=True),
    _weighted_graph_with_self_loops()], ids=["er1000", "er200", "weighted"])
def test_normalized_operators_match_dense_scaling(g):
    # the edge-wise build reproduces the dense scalings bit for bit
    a = g.adjacency()
    deg = a.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    scaled = a * dinv[:, None] * dinv[None, :]
    assert np.array_equal(build_operator(g, "sym_normalized").data,
                          (scaled + scaled.T) / 2.0)
    assert np.array_equal(build_operator(g, "row_stochastic").data,
                          a / deg[:, None])


@pytest.mark.parametrize("g", [
    _weighted_graph_with_self_loops(), gen_graph("star:5"),
    gen_graph("er:200,0.05", largest_cc=True), make_graph(3, [])],
    ids=["weighted", "star5", "er200", "edgeless"])
def test_entries_list_the_adjacency_once(g):
    rows, cols, edge = g.entries
    assert g.entries is g.entries
    assert not any(arr.flags.writeable for arr in g.entries)
    a = g.adjacency()
    want_rows, want_cols = np.nonzero(a)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(g.w[edge], a[rows, cols])
    # with no value underflowing, every operator shares the list's indices
    for kind in OPERATOR_KINDS if g.num_edges else ("adjacency",):
        op = build_operator(g, kind)
        assert op.rows is rows and op.cols is cols, kind


def _product_graph(spec):
    if spec == "cycle:200+isolated":   # 100 isolated nodes: empty rows
        g = gen_graph("cycle:200")
        return Graph(300, g.u, g.v, g.w)
    return gen_graph(spec, seed=0, largest_cc=True)


# graph -> whether a @ x takes the sliced product; er:200,0.05,
# er:100,0.1 and er:1000,0.01 are the benchmark graphs
@pytest.mark.parametrize("spec, sliced", [
    ("cycle:200", True), ("cycle:200+isolated", True),
    ("er:1000,0.01", True), ("er:200,0.05", False), ("er:100,0.1", False),
    ("star:1000", False)])
def test_operator_product_matches_dense(spec, sliced):
    g = _product_graph(spec)
    kinds = ["adjacency"] + (["sym_normalized", "row_stochastic"]
                             if g.degrees().all() else [])
    for kind in kinds:
        a = build_operator(g, kind)
        assert (a._slices is not None) == sliced, kind
        for width in (1, 4, 80):
            x = np.random.default_rng(width).normal(size=(g.n, width))
            got = a @ x
            assert got.shape == x.shape
            scale = (np.abs(a.data) @ np.abs(x)).max()
            assert np.abs(got - a.data @ x).max() <= 1e-14 * scale
            # the in-place product, run twice on its kept buffers and a
            # rows block holding whatever the last call left there
            out, rows = np.full_like(x, np.nan), np.full_like(x, np.nan)
            apply = a.multiplier(width)
            for _ in range(2):
                apply(x, out, rows)
                assert np.array_equal(out, got)
    with pytest.raises(ContractError):
        a @ np.ones((g.n + 1, 2))


def _single_gather_product(a, x):
    """The sliced product with each whole slice gathered at once, as
    the product summed it before it was cut into pieces."""
    rank, slices = a._slices
    summed = np.empty((a.n, 1, x.shape[1]))
    for lo, (index, value) in zip(range(0, a.n, graphio._SLICE_ROWS),
                                  slices):
        np.matmul(value, x[index], out=summed[lo:lo + len(index)])
    return summed[rank, 0]


@pytest.mark.parametrize("cap", [None, 7], ids=["default", "row-pieces"])
@pytest.mark.parametrize("spec", ["er:1000,0.01", "cycle:200+isolated"])
def test_pieced_product_matches_single_gather(spec, cap, monkeypatch):
    # a cap of 7 floats puts every row in a piece of its own
    if cap is not None:
        monkeypatch.setattr(graphio, "_GATHER_FLOATS", cap)
    a = build_operator(_product_graph(spec), "adjacency")
    widest = max(index.size for index, _ in a._slices[1])
    if spec == "er:1000,0.01":
        assert widest * 200 > graphio._GATHER_FLOATS
    for width in (0, 1, 4, 200):
        x = np.random.default_rng(width).normal(size=(a.n, width))
        want = _single_gather_product(a, x)
        out, rows = np.full_like(x, np.nan), np.full_like(x, np.nan)
        a.multiplier(width)(x, out, rows)
        assert np.array_equal(out, want), width
        assert np.array_equal(a @ x, want), width
