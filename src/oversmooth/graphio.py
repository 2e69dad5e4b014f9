"""Graph construction, parsing, generators and message-passing operators.

Graphs are symmetric, non-negative and dense: the target scale is a few
thousand nodes at most, so everything is a plain float64 array.  Edge
lists are symmetrized on input (directed input is silently symmetrized).
Generators draw from ``numpy.random.default_rng`` (PCG64) seeded per
call, so a (spec, seed) pair reproduces exactly within this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import ContractError, DomainError, ParseError

ADJACENCY = "adjacency"
SYM_NORMALIZED = "sym_normalized"
ROW_STOCHASTIC = "row_stochastic"
CENTERED = "centered"

OPERATOR_KINDS = (ADJACENCY, SYM_NORMALIZED, ROW_STOCHASTIC)

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Graph:
    """Symmetric weighted graph with optional node features.

    edges holds one entry per unordered pair (u <= v), all weights >= 0.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    features: Optional[np.ndarray] = None

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DomainError(f"edge ({u},{v}) outside [0,{self.n})")
            if w < 0:
                raise DomainError(f"negative weight {w} on edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge entry for pair {key}")
            seen.add(key)
        if self.features is not None and self.features.shape[0] != self.n:
            raise DomainError("feature row count does not match node count")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, w): endpoint indices and weights, in the
        order of ``edges``."""
        table = np.array(self.edges, dtype=np.float64).reshape(-1, 3)
        u, v = table[:, :2].T.astype(np.intp)
        w = table[:, 2]
        for arr in (u, v, w):
            arr.setflags(write=False)
        return u, v, w

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = self.adjacency().sum(axis=1)
        deg.setflags(write=False)
        return deg

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u, v] = w
            a[v, u] = w
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
    tau: Optional[float] = None

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


def _edges_from_pairs(pairs: Iterable[tuple[int, int, float]]):
    """Symmetrize: keep one entry per unordered pair, last weight wins."""
    merged: dict[tuple[int, int], float] = {}
    for u, v, w in pairs:
        merged[(min(u, v), max(u, v))] = float(w)
    return tuple(sorted((u, v, w) for (u, v), w in merged.items()))


def make_graph(n: int, pairs: Iterable[tuple[int, int, float]],
               features: Optional[np.ndarray] = None) -> Graph:
    return Graph(n=n, edges=_edges_from_pairs(pairs), features=features)


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


def parse_feature_csv(text: str | bytes, n: int) -> np.ndarray:
    """Parse an n-row comma-separated feature matrix."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric cell ({exc})") from exc
    if len(rows) != n:
        raise ParseError(f"expected {n} feature rows, got {len(rows)}")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged feature rows")
    return np.array(rows, dtype=np.float64).reshape(n, -1)


def _check_prob(p: float, name: str):
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name}={p} outside [0,1]")


def gen_erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    _check_prob(p, "p")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < p
    pairs = [(int(u), int(v), 1.0) for u, v in zip(iu[0][mask], iu[1][mask])]
    return make_graph(n, pairs)


def gen_sbm(block_sizes: list[int], p_in: float, p_out: float, seed: int = 0) -> Graph:
    _check_prob(p_in, "p_in")
    _check_prob(p_out, "p_out")
    n = sum(block_sizes)
    block = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    prob = np.where(block[iu[0]] == block[iu[1]], p_in, p_out)
    mask = rng.random(len(iu[0])) < prob
    pairs = [(int(u), int(v), 1.0) for u, v in zip(iu[0][mask], iu[1][mask])]
    return make_graph(n, pairs)


def gen_path(n: int) -> Graph:
    return make_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def gen_star(n: int) -> Graph:
    return make_graph(n, [(0, i, 1.0) for i in range(1, n)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def gen_complete_regular(n: int, d: int) -> Graph:
    """Deterministic d-regular circulant: node i joined to i +- 1..d/2.

    For odd d, n must be even and the antipodal edge i -- i + n/2 is added.
    """
    if d < 1 or d >= n:
        raise DomainError(f"degree d={d} must be in [1, n)")
    if d % 2 == 1 and n % 2 == 1:
        raise DomainError("odd degree requires an even node count")
    pairs = []
    for off in range(1, d // 2 + 1):
        for i in range(n):
            pairs.append((i, (i + off) % n, 1.0))
    if d % 2 == 1:
        for i in range(n // 2):
            pairs.append((i, i + n // 2, 1.0))
    return make_graph(n, pairs)


def largest_component(g: Graph) -> Graph:
    """Restrict to the largest connected component, relabeling nodes."""
    if g.n == 0:
        return g
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = np.full(g.n, -1)
    n_comp = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = n_comp
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = n_comp
                    stack.append(v)
        n_comp += 1
    sizes = np.bincount(comp)
    keep = int(np.argmax(sizes))
    old_ids = np.flatnonzero(comp == keep)
    relabel = {int(old): new for new, old in enumerate(old_ids)}
    pairs = [(relabel[u], relabel[v], w) for u, v, w in g.edges
             if comp[u] == keep and comp[v] == keep]
    feats = g.features[old_ids] if g.features is not None else None
    return make_graph(len(old_ids), pairs, features=feats)


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or largest_component(g).n == g.n


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
    return OperatorMatrix(data=data, kind=CENTERED, symmetric=symmetric, tau=tau)
