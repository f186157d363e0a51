"""Ground-truth solvers for desk-scale graphs.

Fixed-point iteration of the one-step recurrence, truncated once the
geometric tail drops below the requested tolerance.  An anchored solve
(pi(s,.) or pi(.,t)) runs only on the anchor's support, the nodes within
the truncation depth of the anchor along out-edges (source) or in-edges
(target), found by one frontier BFS over the CSR arrays; PageRank takes
every node as the support.  The terms the restricted solve leaves out
are exact zeros, so its values are bit-equal to the loop over every
edge.  These solvers read the graph directly (no oracle, no query
metering): they exist to check the metered estimators, not to compete
with them.

brute_force_pair is an independent oracle: it sums discounted k-step
transition mass through dense numpy matrix products, sharing no code
with the adjacency-list iteration above it.
"""

from __future__ import annotations

import math

import numpy as np

from .classic import check_params
from .graph import PprqueryError, check_nodes, csr_entries

MAX_DEPTH = 10 ** 6  # iterations of a fixed-point solve


class ExplosionGuard(PprqueryError):
    """brute_force_pair past 64 nodes, or a solve past MAX_DEPTH steps."""


def _reach(ptr, nbrs, root, depth):
    """Sorted ids of the nodes within `depth` steps of root along the CSR
    (ptr, nbrs).  Each level costs O(frontier entries).  mark[v] is -1
    until v is reached; a node reached twice in one level is kept once,
    at the one position whose mark write survived."""
    mark = np.full(len(ptr) - 1, -1, dtype=np.intp)
    mark[root] = 0
    frontier = np.array([root], dtype=np.intp)
    for _ in range(depth):
        found = nbrs[csr_entries(ptr, frontier)[0]]
        found = found[mark[found] < 0]
        if not found.size:
            break
        pos = np.arange(found.size)
        mark[found] = pos
        frontier = found[mark[found] == pos]
    return np.flatnonzero(mark >= 0)


def _propagate(g, init, alpha, tol, backward):
    """sum_k alpha (1-alpha)^k of the k-step propagation of the initial
    mass, for k = 0..K with (1-alpha)^(K+1) <= tol: one unit on node
    `init`, or 1/n on every node when init is None.  Forward steps push
    mass along out-edges (pi(s,.)); backward steps average over
    out-neighbors (pi(.,t)).

    With an anchor, only nodes within K steps of it (forward: along
    out-edges; backward: along in-edges) can hold mass, so the loop runs
    on them alone; for PageRank the support is every node.  The support
    is relabelled in increasing id order, its out-edges taken from their
    CSR slices in list order, minus the edges whose head lies outside,
    with the full d_out, so the arrays scale with the support's
    out-edges.  Every term dropped is an exact +0.0 added to a
    non-negative sum, and each bincount bucket adds the surviving terms
    in the same order as over all edges, so the values are bit-equal.
    bincount indexes by intp, so dst is built as intp once here instead
    of cast on every step."""
    check_params(alpha=alpha, tol=tol)
    n = g.node_count
    if init is not None:
        check_nodes(n, anchor=init)
    # K = smallest count with (1-alpha)^(K+1) <= tol; none below alpha 2^-53
    decay = math.log(1.0 - alpha)
    K = math.ceil(math.log(tol) / decay) if decay else math.inf
    if K > MAX_DEPTH:
        raise ExplosionGuard(f"alpha={alpha!r}, tol={tol!r}: {K:.4g} "
                             f"steps > MAX_DEPTH = {MAX_DEPTH}")
    if init is None:  # every node: its out-list positions are 0..m-1
        nodes, idx, lens = np.arange(n), None, g.out_deg
    else:
        ptr, nbrs = ((g.in_ptr, g.in_nbrs) if backward
                     else (g.out_ptr, g.out_nbrs))
        nodes = _reach(ptr, nbrs, init, K)
        idx, lens = csr_entries(g.out_ptr, nodes)
    size = len(nodes)
    local = np.full(n, -1, dtype=np.intp)
    local[nodes] = np.arange(size)
    dst = local[g.out_nbrs if idx is None else g.out_nbrs[idx]]
    del idx  # up to m entries: freed before the filter copies
    keep = dst >= 0
    src = np.repeat(np.arange(size), lens)[keep]
    dst = dst[keep]
    dout = g.out_deg[nodes].astype(np.float64)
    if init is None:
        cur = np.full(n, 1.0 / n)
    else:
        cur = np.zeros(size)
        cur[local[init]] = 1.0
    acc = np.zeros(size)
    for _ in range(K + 1):
        acc += alpha * cur
        if backward:
            # pi_k+1(u) = (1-alpha)/d_out(u) * sum_{v in N_out(u)} pi_k(v)
            cur = (np.bincount(src, weights=cur[dst], minlength=size)
                   * (1.0 - alpha) / dout)
        else:
            w = (1.0 - alpha) * cur / dout
            cur = np.bincount(dst, weights=w[src], minlength=size)
    values = np.zeros(n)
    values[nodes] = acc
    return values


def exact_single_source(g, s, alpha, tol=1e-12):
    """pi(s, .) for all targets as a float64 n-vector, each entry within
    tol of the truth.

    Raises NodeIdOutOfRange unless s is a node id (exact_single_target
    likewise for t) and, like every solver here, PprqueryError for alpha
    or tol outside (0, 1) and ExplosionGuard, before any step, past
    MAX_DEPTH steps (alpha below about 2.8e-5 at the default tol)."""
    return _propagate(g, s, alpha, tol, False)


def exact_single_target(g, t, alpha, tol=1e-12):
    """pi(., t) for all sources via the backward form of the recurrence."""
    return _propagate(g, t, alpha, tol, True)


def exact_pagerank(g, alpha, tol=1e-12):
    """pi(t) = (1/n) sum_s pi(s,t): forward iteration from uniform mass."""
    return _propagate(g, None, alpha, tol, False)


def brute_force_pair(g, s, t, alpha, horizon):
    """sum_{k<=horizon} alpha (1-alpha)^k (P^k)[s,t] by dense matrix powers.

    Independent of the fixed-point solvers; differs from the truth by
    at most (1-alpha)^(horizon+1).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = g.node_count
    if n > 64:
        raise ExplosionGuard(f"n={n} > 64")
    P = np.zeros((n, n))
    src, dst = g.edge_arrays()
    P[src, dst] = 1.0 / g.out_deg[src]
    vec = np.zeros(n)
    vec[s] = 1.0
    total = 0.0
    coef = alpha
    for _ in range(horizon + 1):
        total += coef * vec[t]
        vec = vec @ P
        coef *= 1.0 - alpha
    return float(total)


def dump_csv(values, path):
    """Write a solver's vector as "node,value" rows."""
    with open(path, "w") as f:
        f.write("node,value\n")
        for v, x in enumerate(values):
            f.write(f"{v},{float(x)!r}\n")
