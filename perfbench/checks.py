"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made here
in plain numpy, or with a property the method must have; none compares
with a stored copy of an earlier output.  Graphs are rebuilt from the
generator's documented protocol (PCG64 ``default_rng(seed)``, one
uniform draw per upper-triangle pair, largest component kept with its
nodes in their original order).  A check returns error strings, per
proposition id for ``verify``; no strings means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

RANK_REL_TOL = 1e-10   # the CLI's numerical-rank threshold factor
BOUND_SLACK = 1e-9     # relative slack on 12-digit CSV values
REPLAY_STEPS = 32      # simulate steps replayed in numpy
REPLAY_RTOL = 1e-8
RANK_MARGIN = 0.01     # rank is compared where no sigma is this close


def er_adjacency(n: int, p: float, seed: int) -> np.ndarray:
    """Adjacency of er:n,p restricted to its largest component."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    a = np.zeros((n, n))
    a[iu[mask], ju[mask]] = 1.0
    a += a.T
    label = np.full(n, -1)
    for start in range(n):
        if label[start] >= 0:
            continue
        reached = np.zeros(n, dtype=bool)
        reached[start] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = (a[frontier].sum(axis=0) > 0) & ~reached
            reached |= frontier
        label[reached] = start
    sizes = np.bincount(label[label >= 0], minlength=n)
    keep = np.flatnonzero(label == int(np.argmax(sizes)))
    return a[np.ix_(keep, keep)]


def sym_normalized(a: np.ndarray) -> np.ndarray:
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * dinv[:, None] * dinv[None, :]


def read_csv(text: str):
    """Columns by header name, and whether the run was aborted."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    cols = {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}
    return cols, any(line.startswith("#") for line in lines[1:])


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def _rank(x: np.ndarray):
    """Numerical rank, or None when a singular value lies within
    RANK_MARGIN (relative) of the threshold."""
    sigma = np.linalg.svd(x, compute_uv=False)
    threshold = RANK_REL_TOL * sigma[0] * max(x.shape)
    if np.any(np.abs(sigma / threshold - 1.0) < RANK_MARGIN):
        return None
    return int(np.sum(sigma > threshold))


def check_simulate(text: str, seed: int, graph_seed: int, k: int,
                   steps: int) -> list:
    """simulate-er200: batchnorm on er:200,0.05 (largest component)."""
    cols, aborted = read_csv(text)
    errors = []
    if aborted or len(cols.get("step", ())) != steps:
        return [f"expected {steps} complete steps, aborted={aborted}"]
    for name in ("mu_v", "dirichlet", "rank"):
        if name not in cols:
            return [f"column {name} missing"]
    adj = er_adjacency(200, 0.05, graph_seed)
    n = adj.shape[0]
    a_hat = sym_normalized(adj)
    v = np.sqrt(adj.sum(axis=1))
    v /= np.linalg.norm(v)
    mu_low = k * float(v @ np.ones(n)) ** 2 / n
    mu, dirichlet, rank = cols["mu_v"], cols["dirichlet"], cols["rank"]
    if np.any((rank < 1) | (rank > k)):
        errors.append(f"rank outside [1, {k}]")
    if np.any(mu < mu_low * (1 - BOUND_SLACK)) or np.any(
            mu > k * (1 + BOUND_SLACK)):
        errors.append(f"mu_v outside [{mu_low:.12g}, {k}]")
    if np.any(dirichlet < -1e-12):
        errors.append("negative dirichlet energy")

    # Replay the first steps: X <- BN(A_hat X W), W ~ N(0, 1/k) from
    # default_rng(seed); x0 from default_rng((seed, 101)), unit columns.
    x = np.random.default_rng((seed, 101)).normal(size=(n, k))
    x /= np.linalg.norm(x, axis=0)
    rng = np.random.default_rng(seed)
    lap = np.eye(n) - a_hat
    for t in range(REPLAY_STEPS):
        y = a_hat @ x @ rng.normal(0.0, 1.0 / np.sqrt(k), size=(k, k))
        y -= y.mean(axis=0)
        x = y / np.linalg.norm(y, axis=0)
        resid = x - np.outer(v, v @ x)
        want = {"mu_v": float(np.sum(resid * resid)),
                "dirichlet": 0.5 * float(np.trace(x.T @ lap @ x)),
                "rank": _rank(x)}
        for name, ref in want.items():
            if ref is not None and not _close(float(cols[name][t]), ref,
                                              REPLAY_RTOL):
                errors.append(f"step {t + 1}: {name} {cols[name][t]!r} "
                              f"!= replay {ref!r}")
    return errors


def _by_id(reports) -> dict:
    return {int(r["id"]): r for r in reports}


def check_verify_er100(reports, k: int = 4, eps: float = 0.01) -> dict:
    """verify-er100: errors per proposition id (props 3 and 6 are only
    checked for shape; their verdicts are counted, not checked)."""
    reps = _by_id(reports)
    errors = {pid: [] for pid in range(1, 8)}
    for pid in range(1, 8):
        if pid not in reps:
            errors[pid].append("no report")
    for pid in (1, 2, 4, 5, 7):
        if pid in reps and reps[pid]["verdict"] != "pass":
            errors[pid].append(f"verdict {reps[pid]['verdict']}")
    adj = er_adjacency(100, 0.1, 0)
    n = adj.shape[0]
    if 2 in reps and not _close(reps[2]["bound"], 0.5, 1e-12):
        errors[2].append(f"bound {reps[2]['bound']!r} != 0.5")
    if 4 in reps and not _close(reps[4]["bound"], k * (1 - 1e-6), 1e-12):
        errors[4].append(f"bound {reps[4]['bound']!r} != k(1-1e-6)")
    if 5 in reps:
        centered = adj - np.ones((n, n)) @ adj / n
        lam = np.sort(np.abs(np.linalg.eigvals(centered)))[::-1]
        rate = math.log(lam[k] / lam[k - 1])
        if abs(reps[5]["target_rate"] - rate) > 1e-8:
            errors[5].append(f"target_rate {reps[5]['target_rate']!r} "
                             f"!= {rate!r}")
    if 6 in reps and reps[6]["bound"] is not None and not _close(
            reps[6]["bound"], 1 / math.sqrt(1 + eps), 1e-12):
        errors[6].append(f"bound {reps[6]['bound']!r} != 1/sqrt(1+eps)")
    if 7 in reps:
        gap = reps[7]["evidence"][2]
        if not _close(gap, adj.sum() / n, 1e-12):
            errors[7].append(f"trace gap {gap!r} != 2m/n {adj.sum() / n!r}")
    return errors


def check_residual_er1000(reports, seed: int, k: int = 4,
                          alpha: float = 0.2, steps: int = 256) -> dict:
    """residual-er1000: props 1 and 2 pass, and prop 1's first trial
    replayed in numpy gives the reported minimum mu."""
    reps = _by_id(reports)
    errors = {1: [], 2: []}
    for pid in (1, 2):
        if pid not in reps:
            errors[pid].append("no report")
        elif reps[pid]["verdict"] != "pass":
            errors[pid].append(f"verdict {reps[pid]['verdict']}")
    if 1 not in reps or not reps[1]["evidence"]:
        return errors
    a_hat = sym_normalized(er_adjacency(1000, 0.01, seed))
    n = a_hat.shape[0]
    x0 = np.random.default_rng((seed, 202)).normal(size=(n, k))
    x0 /= np.linalg.norm(x0, axis=0)
    v = np.ones(n) / np.sqrt(n)
    rng = np.random.default_rng((seed, 0))
    x, mins = x0, math.inf
    for _ in range(steps):
        w1 = rng.normal(0.0, 1.0 / np.sqrt(k), size=(k, k))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(k), size=(k, k))
        x = (1 - alpha) * (a_hat @ x @ w1) + alpha * (x0 @ w2)
        resid = x - np.outer(v, v @ x)
        mins = min(mins, float(np.sum(resid * resid)))
    if not _close(reps[1]["evidence"][0], mins, 1e-9):
        errors[1].append(f"trial 0 min mu {reps[1]['evidence'][0]!r} "
                         f"!= replay {mins!r}")
    return errors
