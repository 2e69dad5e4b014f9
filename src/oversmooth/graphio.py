"""Graph construction, parsing, generators and message-passing operators.

A graph is symmetric with finite positive weights, stored as edge
arrays (one entry per unordered pair); a zero weight is no edge, and
no weighted degree nor their total may overflow.  The graph lists its
adjacency's entries once (``Graph.entries``), and its color
refinement, the quotient and every operator read that list.  Its one
degree vector (``Graph.degrees()``), each row summed in the list's
column order, is summed when the graph is built, to reject overflow;
it feeds the metrics and scales the normalized operators.  An
operator holds the nonzero entries of its matrix and multiplies
features by it through ``a @ x``: through a sliced-ELLPACK copy of the
entries when the matrix is sparse enough for that to be cheaper, else
densely (see ``OperatorMatrix``).  Its dense float64 matrix ``data``
is built only when something reads it: the eigensolvers,
``center_operator`` or the dense product.  So on a
sparse graph, generating it, building its operators and running the
layer loop make no n x n array.  Edge lists are symmetrized on input
(directed input is silently symmetrized).
Generators draw from ``numpy.random.default_rng`` (PCG64) seeded per
call, so a (spec, seed) pair reproduces exactly within this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, DomainError, ParseError

ADJACENCY = "adjacency"
SYM_NORMALIZED = "sym_normalized"
ROW_STOCHASTIC = "row_stochastic"

OPERATOR_KINDS = (ADJACENCY, SYM_NORMALIZED, ROW_STOCHASTIC)

_SYM_TOL = 1e-12

# Sliced-ELLPACK layout: rows per slice, and the cost of one padded
# entry of the sliced product in multiply-adds of the dense product;
# the sliced product is taken when _SLICED_COST * (padded entries) is
# below n * n.  Measured with one BLAS thread (2-core Xeon, numpy
# 2.4.6), a padded entry cost 13-24 dense multiply-adds at 32-80
# columns on er:1000,0.01, er:2000,0.02 and er:3000,0.005 (1000 x 80:
# 0.87 ms sliced against 3.39 ms dense), and 37-38 where per-slice
# overhead dominates (cycle:200 at 80 columns, er:1000,0.01 at 4).  At
# 32, er:200,0.05 (0.118 against 0.078 ms at 32 columns) and star:1000
# (8.1 against 3.3 ms at 80) stay dense.
_SLICE_ROWS = 64
_SLICED_COST = 32
# Floats of one piece's gather in the sliced product (512 KB), whatever
# the slice's width times the product's.  Measured as above at 200
# columns, a piece of 64 K floats took 7.1-7.8 ms on er:3000,0.005
# against 8.2-8.6 at 32 K, 9.9-10.3 at 128 K and 11.3-12.2 for one
# gather of each whole slice, and 34 against 35-44 ms on
# er:10000,0.0015; at 80 columns every size was within 10 %.
_GATHER_FLOATS = 1 << 16

# Random graphs draw one uniform per upper-triangle pair, about
# _PAIR_CHUNK pairs per call, so each chunk's index arrays stay at
# 128 KB; at 64 K pairs, whose 512 KB arrays glibc maps and unmaps
# chunk after chunk, the first sbm:5000+5000,0.002,0.001 of a process
# took 174 000 minor faults and 0.75 s, against 3 000 and 0.52 s here.
_PAIR_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class Graph:
    """Symmetric weighted graph on n >= 0 nodes 0..n-1, stored as edge
    arrays: read-only ``u``, ``v`` (intp) and ``w`` (float64) hold one
    entry per unordered pair, with u <= v and finite w >= 0, sorted by
    (u, v).  A pair of weight 0 is no edge: it is dropped here, so
    components, color refinement, ``num_edges`` and every operator see
    the same edges.  A graph whose weighted degrees, or their sum
    1^T A 1, overflow float64 is rejected.  ``make_graph`` builds one
    from pairs in any order."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"node count {self.n} is negative")
        u, v = np.array(self.u, dtype=np.intp), np.array(self.v, dtype=np.intp)
        w = np.array(self.w, dtype=np.float64)
        if not u.shape == v.shape == w.shape == (len(w),):
            raise DomainError("u, v and w must be 1-d arrays of one length")
        step = np.diff(u * self.n + v, prepend=-1)
        for bad, what in ((u > v, "has u > v"),
                          ((u < 0) | (v >= self.n), f"outside [0,{self.n})"),
                          (~np.isfinite(w), "has non-finite weight"),
                          (w < 0, "has negative weight"),
                          (step == 0, "is a duplicate entry for its pair"),
                          (step < 0, "is out of (u, v) order")):
            if bad.any():
                i = int(np.argmax(bad))
                raise DomainError(f"edge ({u[i]},{v[i]}) {what}")
        kept = w != 0
        for name, arr in (("u", u[kept]), ("v", v[kept]), ("w", w[kept])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        with np.errstate(over="ignore"):
            total = self._degrees.sum()
        if not np.isfinite(total):
            big = ~np.isfinite(self._degrees)
            raise DomainError(
                f"weighted degree of node {int(np.argmax(big))} overflows"
                if big.any() else "total weight 1^T A 1 overflows")

    @property
    def num_edges(self) -> int:
        return len(self.w)

    @cached_property
    def entries(self) -> tuple:
        """The adjacency's entries as read-only (rows, cols, edge), row
        by row, columns ascending: edge e = (u, v) sits at (u, v) and,
        off the diagonal, at (v, u); ``edge`` holds each entry's edge
        index, so ``w[edge]`` are the entries' values."""
        off = np.flatnonzero(self.u != self.v)
        rows = np.concatenate([self.u, self.v[off]])
        cols = np.concatenate([self.v, self.u[off]])
        order = np.argsort(rows * self.n + cols)
        entries = (rows[order], cols[order],
                   np.concatenate([np.arange(self.num_edges), off])[order])
        for arr in entries:
            arr.setflags(write=False)
        return entries

    @cached_property
    def _degrees(self) -> np.ndarray:
        # each row summed in column order, as the entry list holds it:
        # the mirrored (v, u) entries, columns below the row, then the
        # (u, v) ones, a self-loop counted once.  The list is not sorted
        # for this, as every graph sums its degrees when it is built.
        # With no edges bincount returns integers
        off = self.u != self.v
        deg = np.bincount(np.concatenate([self.v[off], self.u]),
                          np.concatenate([self.w[off], self.w]),
                          minlength=self.n).astype(np.float64, copy=False)
        deg.setflags(write=False)
        return deg

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.u, self.v] = self.w
        a[self.v, self.u] = self.w
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degree vector (row sums of the adjacency), computed
        once per graph and returned as the same read-only array."""
        return self._degrees


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """n x n message-passing operator, held as its nonzero entries.

    ``rows``, ``cols`` and ``vals`` (read-only) list the nonzero entries
    row by row, columns ascending, the order ``np.nonzero`` gives on the
    dense matrix.  ``build_operator`` derives them from a graph's entry
    list, so building an operator, choosing its product and running
    the sliced product make no n x n array.  ``data``, the dense matrix,
    is built from the entries on its first read and kept: the
    eigensolvers, ``center_operator`` and the dense product read it.

    ``a @ x`` multiplies an (n, ...) array by A in one of two ways,
    chosen from the entries' per-row counts.  For the sliced product
    the rows, sorted by nonzero count, are cut into slices of
    _SLICE_ROWS rows, each padded to its widest row (SELL-C-sigma,
    Kreutzer et al., SIAM J. Sci. Comput. 2014); each slice costs one
    gather of x and one batched matmul.  It is taken when _SLICED_COST
    times the padded entries is below n^2; any other matrix, a skewed
    one whose hub pads its slice to n entries included, takes the dense
    product ``data @ x``.  The two sum a row in different orders, so
    they agree to rounding, not bit for bit, and on the sliced product
    a column's rounding can also depend on how many columns x has.
    ``multiplier`` gives the same product as a function that writes
    into a given block, for a loop that applies A every step: it sorts
    the rows into a second block the caller passes, and gathers x's
    rows a piece of slice rows at a time, each piece at most
    _GATHER_FLOATS floats (cache blocking, Williams et al., SC 2007),
    so the function keeps only that gather buffer.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    kind: str

    def __post_init__(self):
        for arr in (self.rows, self.cols, self.vals):
            arr.setflags(write=False)
        if self.vals.size and self.vals.min() < 0:
            raise ContractError(f"{self.kind} operator has negative entries")
        if self.symmetric:
            # sorted by column, then row, the entries list their mirrors
            mirror = np.argsort(self.cols * self.n + self.rows)
            if not (np.array_equal(self.rows[mirror], self.cols)
                    and np.array_equal(self.cols[mirror], self.rows)) or (
                    np.abs(self.vals[mirror] - self.vals).max(initial=0.0)
                    > _SYM_TOL):
                raise ContractError(
                    f"{self.kind} operator data is not symmetric")

    @property
    def symmetric(self) -> bool:
        return self.kind != ROW_STOCHASTIC

    @cached_property
    def data(self) -> np.ndarray:
        """The dense matrix (read-only), built on first read."""
        data = np.zeros((self.n, self.n))
        data[self.rows, self.cols] = self.vals
        data.setflags(write=False)
        return data

    @cached_property
    def _slices(self) -> tuple | None:
        """The sliced layout (rank, slices), or None where the dense
        product is cheaper.  Row r is row rank[r] of the rows sorted by
        descending nonzero count; slice s holds sorted rows
        s * _SLICE_ROWS onwards as a (column index, value) pair of
        (rows, width) and (rows, 1, width) arrays.  A padded entry is
        column 0 with value 0."""
        n, rows = self.n, self.rows
        counts = np.bincount(rows, minlength=n)
        order = np.argsort(-counts, kind="stable")
        widths = counts[order[::_SLICE_ROWS]]   # each slice's first row
        heights = np.diff(np.append(np.arange(0, n, _SLICE_ROWS), n))
        size = widths * heights
        if _SLICED_COST * int(size.sum()) >= n * n:
            return None
        # entry j of row r goes to slot (rank of r in its slice, j) of
        # its slice, in one buffer of the slices laid end to end
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        start = np.cumsum(size) - size
        within = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        s = rank[rows] // _SLICE_ROWS
        slot = start[s] + (rank[rows] % _SLICE_ROWS) * widths[s] + within
        index = np.zeros(int(size.sum()), dtype=np.intp)
        value = np.zeros(len(index))
        index[slot], value[slot] = self.cols, self.vals
        slices = tuple(
            (index[b:b + h * w].reshape(h, w),
             value[b:b + h * w].reshape(h, 1, w))
            for b, h, w in zip(start, heights, widths))
        return rank, slices

    def multiplier(self, width: int) -> Callable[[np.ndarray, np.ndarray,
                                                  np.ndarray], None]:
        """A function (x, out, rows) that writes A @ x, bit for bit the
        product ``a @ x`` gives, into out; x, out and rows are distinct
        C-contiguous (n, width) float64 arrays.  On the sliced layout
        the product rows, in sorted order, go to rows, whose contents
        the call overwrites, and then out; the dense product leaves rows
        alone.  Each slice is gathered and summed in pieces of rows, a
        piece's gather at most _GATHER_FLOATS floats (or one row, where
        a row alone is wider), into one kept buffer, so repeated calls
        allocate no float array; a row's sum is the same whatever piece
        it is in."""
        if self._slices is None:
            data = self.data
            return lambda x, out, rows: np.matmul(data, x, out=out)
        rank, slices = self._slices
        pieces = []
        for lo, (index, value) in zip(range(0, self.n, _SLICE_ROWS), slices):
            step = max(1, _GATHER_FLOATS // max(1, index.shape[1] * width))
            pieces.extend((lo + r, index[r:r + step], value[r:r + step])
                          for r in range(0, len(index), step))
        gathered = np.empty(max(index.size for _, index, _ in pieces) * width)
        pieces = [(lo, lo + len(index), index, value,
                   gathered[:index.size * width].reshape(*index.shape, width))
                  for lo, index, value in pieces]

        def apply(x: np.ndarray, out: np.ndarray, rows: np.ndarray):
            summed = rows.reshape(self.n, 1, width)
            # mode="raise" would buffer each take's out through a temporary
            for lo, hi, index, value, g in pieces:
                np.take(x, index, axis=0, out=g, mode="clip")
                np.matmul(value, g, out=summed[lo:hi])
            np.take(rows, rank, axis=0, out=out, mode="clip")
        return apply

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product A @ x of an (n, ...) array, as ``data @ x`` but
        summed slice by slice on the sliced layout."""
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[0] != self.n:
            raise ContractError(
                f"shape mismatch: A {(self.n, self.n)}, x {x.shape}")
        if self._slices is None:
            return self.data @ x
        cols = np.ascontiguousarray(x.reshape(self.n, -1), dtype=np.float64)
        out = np.empty_like(cols)
        self.multiplier(cols.shape[1])(cols, out, np.empty_like(cols))
        return out.reshape(x.shape)


def make_graph(n: int, pairs: Iterable | np.ndarray) -> Graph:
    """Graph from (u, v, w) triples or an (m, 3) array: one entry per
    unordered pair, the last weight given for a pair winning (a last
    weight of 0 leaves the pair out)."""
    table = np.asarray(pairs, dtype=np.float64).reshape(-1, 3)
    ends = np.sort(table[:, :2].astype(np.intp), axis=1)
    order = np.lexsort((ends[:, 1], ends[:, 0]))  # stable within a pair
    ends, w = ends[order], table[order, 2]
    last = np.ones(len(w), dtype=bool)
    last[:-1] = np.any(ends[1:] != ends[:-1], axis=1)
    return Graph(n, ends[last, 0], ends[last, 1], w[last])


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse "u v [w]" lines (0-indexed, '#' comments) into a Graph."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    pairs = []
    max_index = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v' or 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative node index")
        if not math.isfinite(w):
            raise DomainError(f"line {lineno}: non-finite weight {w}")
        if w < 0:
            raise DomainError(f"line {lineno}: negative weight {w}")
        max_index = max(max_index, u, v)
        pairs.append((u, v, w))
    return make_graph(max_index + 1, pairs)


def _check_prob(p: float, name: str):
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name}={p} outside [0,1]")


def _random_pairs(n: int, prob: Callable, seed: int) -> Graph:
    """Unit-weight graph keeping each pair i < j when its uniform draw
    is below prob(i, j), for (i, j) arrays of pairs.  The pairs are
    drawn in ``np.triu_indices(n, 1)`` order, a chunk of rows of about
    _PAIR_CHUNK pairs per ``rng.random`` call into one reused buffer, so
    the draws are bit for bit those of one call over all pairs, with no
    n^2 array."""
    rng = np.random.default_rng(seed)
    length = np.arange(n - 1, -1, -1)             # pairs in row i
    first = np.concatenate([[0], np.cumsum(length)])  # row i's first pair
    us, vs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    draws = np.empty(max(_PAIR_CHUNK, n))
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(
            first, first[lo] + _PAIR_CHUNK, side="right")) - 1)
        i = np.repeat(np.arange(lo, hi), length[lo:hi])
        j = np.arange(first[lo] + 1, first[hi] + 1)
        j -= first[i]
        j += i
        d = draws[:len(i)]
        rng.random(out=d)
        keep = d < prob(i, j)
        us.append(i[keep])
        vs.append(j[keep])
        lo = hi
    u = np.concatenate(us)
    return Graph(n, u, np.concatenate(vs), np.ones(len(u)))


def gen_erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    _check_prob(p, "p")
    return _random_pairs(n, lambda i, j: p, seed)


def gen_sbm(block_sizes: list[int], p_in: float, p_out: float, seed: int = 0) -> Graph:
    _check_prob(p_in, "p_in")
    _check_prob(p_out, "p_out")
    block = np.repeat(np.arange(len(block_sizes)), block_sizes)
    return _random_pairs(
        len(block),
        lambda i, j: np.where(block[i] == block[j], p_in, p_out), seed)


def gen_path(n: int) -> Graph:
    v = np.arange(1, n)
    return Graph(n, v - 1, v, np.ones(len(v)))


def gen_star(n: int) -> Graph:
    v = np.arange(1, n)
    return Graph(n, np.zeros_like(v), v, np.ones(len(v)))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    u = np.arange(n)
    return make_graph(n, np.column_stack([u, (u + 1) % n, np.ones(n)]))


def gen_complete_regular(n: int, d: int) -> Graph:
    """Deterministic d-regular circulant: node i joined to i +- 1..d/2.

    For odd d, n must be even and the antipodal edge i -- i + n/2 is added.
    """
    if d < 1 or d >= n:
        raise DomainError(f"degree d={d} must be in [1, n)")
    if d % 2 == 1 and n % 2 == 1:
        raise DomainError("odd degree requires an even node count")
    u = np.tile(np.arange(n), d // 2)
    v = (u + np.repeat(np.arange(1, d // 2 + 1), n)) % n
    if d % 2 == 1:
        half = np.arange(n // 2)
        u, v = np.concatenate([u, half]), np.concatenate([v, half + n // 2])
    return make_graph(n, np.column_stack([u, v, np.ones(len(u))]))


def _component_labels(g: Graph) -> np.ndarray:
    """Each node's label: the smallest node index in its component,
    by min-label propagation (take the smallest label at an edge's ends,
    then the label's label) until nothing changes."""
    label = np.arange(g.n)
    while True:
        low = np.minimum(label[g.u], label[g.v])
        new = label.copy()
        np.minimum.at(new, g.u, low)
        np.minimum.at(new, g.v, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def largest_component(g: Graph) -> Graph:
    """Restrict to the largest connected component, relabeling nodes in
    their original order; of equal-size components, the one holding the
    smallest node index wins."""
    if g.n == 0:
        return g
    label = _component_labels(g)
    keep = label == np.argmax(np.bincount(label))
    new_id = np.cumsum(keep) - 1
    inside = keep[g.u]  # both ends share a component
    return Graph(int(keep.sum()), new_id[g.u[inside]], new_id[g.v[inside]],
                 g.w[inside])


def is_connected(g: Graph) -> bool:
    return not _component_labels(g).any()


_GENERATORS = {
    "er": lambda args, seed: gen_erdos_renyi(int(args[0]), float(args[1]), seed),
    "sbm": lambda args, seed: gen_sbm([int(s) for s in args[0].split("+")],
                                      float(args[1]), float(args[2]), seed),
    "path": lambda args, seed: gen_path(int(args[0])),
    "star": lambda args, seed: gen_star(int(args[0])),
    "cycle": lambda args, seed: gen_cycle(int(args[0])),
    "reg": lambda args, seed: gen_complete_regular(int(args[0]), int(args[1])),
}


def gen_graph(spec: str, seed: int = 0, largest_cc: bool = False) -> Graph:
    """Build a graph from a spec string like "er:100,0.1" or "star:4".

    Known specs: er:n,p | sbm:n1+n2,pin,pout | path:n | star:n | cycle:n
    | reg:n,d.  Deterministic given (spec, seed).
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name not in _GENERATORS:
        raise DomainError(f"unknown generator spec {spec!r}")
    args = [a.strip() for a in argstr.split(",")] if argstr else []
    try:
        g = _GENERATORS[name](args, seed)
    except (IndexError, ValueError) as exc:
        raise DomainError(f"bad generator arguments in {spec!r}: {exc}") from exc
    return largest_component(g) if largest_cc else g


def load_graph(source: str, seed: int = 0, largest_cc: bool = False) -> Graph:
    """Read an edge-list file if ``source`` names one, else build the
    generator spec through ``gen_graph``; optionally keep only the
    largest connected component.  A graph with no nodes is rejected."""
    path = Path(source)
    if path.is_file():
        g = parse_edge_list(path.read_text())
    elif source.partition(":")[0].strip().lower() not in _GENERATORS:
        raise DomainError(f"no such file or generator spec {source!r}")
    else:
        g = gen_graph(source, seed=seed)
    if g.n == 0:
        raise DomainError(f"graph {source!r} has no nodes")
    return largest_component(g) if largest_cc else g


def build_operator(g: Graph, kind: str) -> OperatorMatrix:
    """Derive a message-passing operator from a graph's entry list.

    adjacency -> A; sym_normalized -> D^-1/2 A D^-1/2; row_stochastic
    -> D^-1 A, with D the graph's one degree vector ``g.degrees()``.
    Normalized kinds require every node to have positive degree.  A
    graph has no zero weights, so only a normalized value that
    underflows to zero is left out; where none does, the operator
    shares the graph's ``rows`` and ``cols`` arrays.
    """
    if kind not in OPERATOR_KINDS:
        raise DomainError(f"unknown operator kind {kind!r}")
    rows, cols, edge = g.entries
    vals = g.w[edge]
    if kind != ADJACENCY:
        deg = g.degrees()
        isolated = np.flatnonzero(deg <= 0)
        if isolated.size:
            raise DomainError(
                f"cannot normalize: node {int(isolated[0])} has degree 0")
        # the values of the dense scalings a * dinv[:, None] *
        # dinv[None, :] (then symmetrized as (data + data.T) / 2) and
        # a / deg[:, None]
        if kind == SYM_NORMALIZED:
            dinv = 1.0 / np.sqrt(deg)
            wu, wv = g.w * dinv[g.u], g.w * dinv[g.v]
            vals = ((wu * dinv[g.v] + wv * dinv[g.u]) / 2.0)[edge]
        else:
            vals = vals / deg[rows]
    nonzero = vals != 0
    if not nonzero.all():
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    return OperatorMatrix(g.n, rows, cols, vals, kind)


def is_regular(g: Graph) -> bool:
    deg = g.degrees()
    return g.n == 0 or bool(np.allclose(deg, deg[0], atol=1e-12))


def center_operator(a: OperatorMatrix, tau: float) -> np.ndarray:
    """The dense centred matrix (I - tau * 11^T/n) A of an operator."""
    if not isinstance(a, OperatorMatrix):
        raise ContractError("center_operator takes an operator, "
                            "not an already centred matrix")
    n = a.n
    return a.data - (tau / n) * np.outer(np.ones(n), a.data.sum(axis=0))
