"""Ground-truth solvers for desk-scale graphs.

Dense fixed-point iteration of the one-step recurrence, truncated once
the geometric tail drops below the requested tolerance.  These solvers
read the graph directly (no oracle, no query metering): they exist to
check the metered estimators, not to compete with them.

brute_force_pair is an independent oracle: it sums discounted k-step
transition mass through dense numpy matrix products, sharing no code
with the adjacency-list iteration above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ExplosionGuard(ValueError):
    """brute_force_pair only accepts tiny graphs (dense matrix powers)."""


@dataclass
class PprVector:
    """Per-node probabilities anchored at a fixed source or target.

    direction is "source" (values[t] ~ pi(anchor,t)), "target"
    (values[s] ~ pi(s,anchor)) or "pagerank" (values[t] ~ pi(t),
    anchor None).
    """

    values: np.ndarray
    anchor: int | None
    direction: str
    tolerance: float

    def __getitem__(self, v):
        return float(self.values[v])


def _propagate(g, init, alpha, tol, backward):
    """sum_k alpha (1-alpha)^k of the k-step propagation of the initial
    mass: one unit on node `init`, or 1/n on every node when init is
    None.  Forward steps push mass along out-edges (pi(s,.)); backward
    steps average over out-neighbors (pi(.,t)).  bincount indexes by
    intp, so dst is cast once here instead of on every step."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0,1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = g.node_count
    src, dst = g.edge_arrays()
    dst = dst.astype(np.intp)
    dout = g.out_deg.astype(np.float64)
    if init is None:
        cur = np.full(n, 1.0 / n)
    else:
        cur = np.zeros(n)
        cur[init] = 1.0
    acc = np.zeros(n)
    # K = smallest count with (1-alpha)^(K+1) <= tol
    K = max(1, math.ceil(math.log(tol) / math.log(1.0 - alpha)))
    for _ in range(K + 1):
        acc += alpha * cur
        if backward:
            # pi_k+1(u) = (1-alpha)/d_out(u) * sum_{v in N_out(u)} pi_k(v)
            cur = np.bincount(src, weights=cur[dst], minlength=n) * (1.0 - alpha) / dout
        else:
            w = (1.0 - alpha) * cur / dout
            cur = np.bincount(dst, weights=w[src], minlength=n)
    return acc


def exact_single_source(g, s, alpha, tol=1e-12):
    """pi(s, .) for all targets, each entry within tol of the truth."""
    return PprVector(_propagate(g, s, alpha, tol, False), s, "source", tol)


def exact_single_target(g, t, alpha, tol=1e-12):
    """pi(., t) for all sources via the backward form of the recurrence."""
    return PprVector(_propagate(g, t, alpha, tol, True), t, "target", tol)


def exact_pagerank(g, alpha, tol=1e-12):
    """pi(t) = (1/n) sum_s pi(s,t): forward iteration from uniform mass."""
    return PprVector(_propagate(g, None, alpha, tol, False), None,
                     "pagerank", tol)


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


def dump_csv(vec, path):
    """Write a PprVector as "node,value" rows."""
    with open(path, "w") as f:
        f.write("node,value\n")
        for v, x in enumerate(vec.values):
            f.write(f"{v},{float(x)!r}\n")
