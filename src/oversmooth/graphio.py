"""Graph construction, parsing, generators and message-passing operators.

A graph is symmetric and non-negative, stored as edge arrays (one
entry per unordered pair); operators are dense float64 matrices, as the
target scale is a few thousand nodes at most.  Edge lists are
symmetrized on input (directed input is silently symmetrized).
Generators draw from ``numpy.random.default_rng`` (PCG64) seeded per
call, so a (spec, seed) pair reproduces exactly within this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ContractError, DomainError, ParseError

ADJACENCY = "adjacency"
SYM_NORMALIZED = "sym_normalized"
ROW_STOCHASTIC = "row_stochastic"
CENTERED = "centered"

OPERATOR_KINDS = (ADJACENCY, SYM_NORMALIZED, ROW_STOCHASTIC)

_SYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Graph:
    """Symmetric weighted graph on nodes 0..n-1, stored as edge arrays:
    read-only ``u``, ``v`` (intp) and ``w`` (float64) hold one entry
    per unordered pair, with u <= v and w >= 0, sorted by (u, v).
    ``make_graph`` builds one from pairs in any order."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        u, v = np.array(self.u, dtype=np.intp), np.array(self.v, dtype=np.intp)
        w = np.array(self.w, dtype=np.float64)
        if not u.shape == v.shape == w.shape == (len(w),):
            raise DomainError("u, v and w must be 1-d arrays of one length")
        step = np.diff(u * self.n + v, prepend=-1)
        for bad, what in ((u > v, "has u > v"),
                          ((u < 0) | (v >= self.n), f"outside [0,{self.n})"),
                          (w < 0, "has negative weight"),
                          (step == 0, "is a duplicate entry for its pair"),
                          (step < 0, "is out of (u, v) order")):
            if bad.any():
                i = int(np.argmax(bad))
                raise DomainError(f"edge ({u[i]},{v[i]}) {what}")
        for name, arr in (("u", u), ("v", v), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_edges(self) -> int:
        return len(self.w)

    @cached_property
    def _degrees(self) -> np.ndarray:
        # each node's entries in column order: as a v below it, then as
        # a u (a self-loop, u == v, counted once, as on the diagonal);
        # with no edges bincount returns integers
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense n x n message-passing operator."""

    data: np.ndarray
    kind: str
    symmetric: bool

    def __post_init__(self):
        self.data.setflags(write=False)
        if self.kind in (ADJACENCY, SYM_NORMALIZED):
            if not self.symmetric:
                raise ContractError(f"{self.kind} operator must be symmetric")
            if np.abs(self.data - self.data.T).max(initial=0.0) > _SYM_TOL:
                raise ContractError(f"{self.kind} operator data is not symmetric")
        if self.kind in OPERATOR_KINDS and self.data.size and self.data.min() < 0:
            raise ContractError(f"{self.kind} operator has negative entries")

    @property
    def n(self) -> int:
        return self.data.shape[0]


def make_graph(n: int, pairs: Iterable | np.ndarray) -> Graph:
    """Graph from (u, v, w) triples or an (m, 3) array: one entry per
    unordered pair, the last weight given for a pair winning."""
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
        if w < 0:
            raise DomainError(f"line {lineno}: negative weight {w}")
        max_index = max(max_index, u, v)
        pairs.append((u, v, w))
    return make_graph(max_index + 1, pairs)


def _check_prob(p: float, name: str):
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name}={p} outside [0,1]")


def gen_erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    _check_prob(p, "p")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return Graph(n, iu[mask], ju[mask], np.ones(mask.sum()))


def gen_sbm(block_sizes: list[int], p_in: float, p_out: float, seed: int = 0) -> Graph:
    _check_prob(p_in, "p_in")
    _check_prob(p_out, "p_out")
    n = sum(block_sizes)
    block = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(block[iu] == block[ju], p_in, p_out)
    mask = rng.random(len(iu)) < prob
    return Graph(n, iu[mask], ju[mask], np.ones(mask.sum()))


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
    largest connected component."""
    path = Path(source)
    if path.is_file():
        g = parse_edge_list(path.read_text())
        return largest_component(g) if largest_cc else g
    if source.partition(":")[0].strip().lower() not in _GENERATORS:
        raise DomainError(f"no such file or generator spec {source!r}")
    return gen_graph(source, seed=seed, largest_cc=largest_cc)


def build_operator(g: Graph, kind: str) -> OperatorMatrix:
    """Derive a message-passing operator from a graph.

    adjacency -> A; sym_normalized -> D^-1/2 A D^-1/2; row_stochastic
    -> D^-1 A.  Normalized kinds require every node to have positive
    degree.
    """
    a = g.adjacency()
    if kind == ADJACENCY:
        return OperatorMatrix(data=a, kind=ADJACENCY, symmetric=True)
    if kind in (SYM_NORMALIZED, ROW_STOCHASTIC):
        deg = a.sum(axis=1)
        isolated = np.flatnonzero(deg <= 0)
        if isolated.size:
            raise DomainError(
                f"cannot normalize: node {int(isolated[0])} has degree 0")
        if kind == SYM_NORMALIZED:
            dinv = 1.0 / np.sqrt(deg)
            data = a * dinv[:, None] * dinv[None, :]
            data = (data + data.T) / 2.0
            return OperatorMatrix(data=data, kind=SYM_NORMALIZED, symmetric=True)
        return OperatorMatrix(data=a / deg[:, None], kind=ROW_STOCHASTIC,
                              symmetric=False)
    raise DomainError(f"unknown operator kind {kind!r}")


def is_regular(g: Graph) -> bool:
    deg = g.degrees()
    return g.n == 0 or bool(np.allclose(deg, deg[0], atol=1e-12))


def center_operator(a: OperatorMatrix, tau: float) -> OperatorMatrix:
    """Apply the column-mean subtraction (I - tau * 11^T/n) to an operator."""
    if a.kind == CENTERED:
        raise ContractError("operator is already centered")
    n = a.n
    data = a.data - (tau / n) * np.outer(np.ones(n), a.data.sum(axis=0))
    symmetric = bool(np.abs(data - data.T).max(initial=0.0) <= _SYM_TOL)
    return OperatorMatrix(data=data, kind=CENTERED, symmetric=symmetric)
