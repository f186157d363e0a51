"""Single-node (PageRank-style) estimation of pi(t).

Three routes: an adaptive-threshold loop over the randomized backward
single-target solver, and two reductions that add a virtual source
s' = n with an out-edge to every node and run a single-pair estimator
from it, using pi_aug(s', t) = (1-alpha) * pi(t), on a SuperSourceView,
which charges by the oracle module's super-source rule.  Both run at
delta = alpha/(2n) on the view's n + 1 nodes (`reduction`).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .classic import (DEFAULT_WALK_MULT, bippr_pair, check_params,
                      default_r_max_pair, rbs_single_target, rbs_levels)
from .bidir import single_pair_ppr
from .graph import check_nodes, derived, frozen_graph
from .oracle import CapabilityDisabled, OracleHandle


def _augmented(g):
    """g plus s' = n with an out-edge to every node, from g's CSR arrays:
    g's lists keep their order and s' ends every IN and IN-SORTED list
    (its out-degree n and id are maximal)."""
    n, m = g.node_count, g.edge_count
    real, ends = np.arange(n), g.in_ptr[1:]
    return frozen_graph(
        n + 1, m + n, out_ptr=np.append(g.out_ptr, m + n),
        out_nbrs=np.append(g.out_nbrs, real), out_deg=np.append(g.out_deg, n),
        out_sorted=np.append(g.out_sorted, real),
        in_ptr=np.append(g.in_ptr + np.arange(n + 1), m + n),
        in_nbrs=np.insert(g.in_nbrs, ends, n), in_deg=np.append(g.in_deg + 1, 0),
        in_sorted=np.insert(g.in_sorted, ends, n))


class SuperSourceView(OracleHandle):
    """Oracle handle over the base's graph plus s' = n, built once per
    graph (derived(g, _augmented)), so a cell's trials share one copy,
    freed with g; it shares the base's capabilities, counters and JUMP
    generator, and its own jump() is uniform over all n + 1 nodes."""

    __slots__ = ("base",)

    def __init__(self, base):
        super().__init__(derived(base.graph, _augmented), base.caps, base._rng)
        self.stats = base.stats
        self.base = base
        self.virtual = base.node_count


Size = namedtuple("Size", "node_count edge_count")  # what r_max reads


def reduction(g, alpha):
    """delta = alpha/(2n) on a graph g of n nodes and m edges, and the
    Size of its view, n + 1 nodes and m + n edges; no view is built."""
    n = g.node_count
    return alpha / (2.0 * n), Size(n + 1, g.edge_count + n)


def adaptive_rounds(n, alpha):
    """Upper bound on adaptive-loop rounds: delta halves from 1 until
    the alpha/(2n) floor."""
    return max(1, math.ceil(math.log2(2 * n / alpha)))


def single_node_adaptive(o, t, alpha, eps, p_f, rng, theta_mult=1.0):
    """Adaptive threshold loop over the randomized single-target solver.

    Tries delta = 1 and halves it until the averaged estimate clears
    (1+eps)*delta or delta falls below alpha/(2n) (pi(t) >= alpha/n
    always, so the floor round is accepted unconditionally).  Each round
    runs at accuracy eps/2 with failure budget p_f / #rounds.
    """
    if not o.caps.in_sorted:
        raise CapabilityDisabled("single_node_adaptive needs IN-SORTED")
    check_nodes(o.node_count, t=t)
    check_params(alpha=alpha, eps=eps, p_f=p_f, theta_mult=theta_mult)
    n = o.node_count
    rounds = adaptive_rounds(n, alpha)
    eps_in = eps / 2.0
    delta = 1.0
    floor = alpha / (2.0 * n)
    while True:
        L = rbs_levels(alpha, delta, eps_in)
        theta = theta_mult * eps_in * delta / math.log(math.e * rounds / p_f)
        est = rbs_single_target(o, t, alpha, delta, theta, rng, L=L, eps=eps_in)
        pi_hat = sum(est.values()) / n
        if delta <= floor or pi_hat > (1.0 + eps) * delta:
            return pi_hat
        delta /= 2.0


def single_node_avg_jump(o, t, alpha, eps, p_f, rng, c=DEFAULT_WALK_MULT):
    """Super-source reduction run through the bidirectional walk/push
    pair estimator at delta = alpha/(2n) (needs JUMP)."""
    if not o.caps.jump:
        raise CapabilityDisabled("single_node_avg_jump needs JUMP")
    check_nodes(o.node_count, t=t)
    check_params(alpha=alpha)
    delta, size = reduction(o, alpha)
    view = SuperSourceView(o)
    est = bippr_pair(view, view.virtual, t, alpha, delta, eps, p_f,
                     default_r_max_pair(size, delta), rng, c=c)
    return est / (1.0 - alpha)


def single_node_avg_full(o, t, params, rng):
    """Super-source reduction run through the randomized bidirectional
    single-pair estimator (needs JUMP, IN-SORTED and ADJ), with params
    derived at the reduction's delta on its view's node count."""
    if not (o.caps.jump and o.caps.in_sorted and o.caps.adj):
        raise CapabilityDisabled("single_node_avg_full needs JUMP+IN-SORTED+ADJ")
    check_nodes(o.node_count, t=t)
    view = SuperSourceView(o)
    est = single_pair_ppr(view, view.virtual, t, params, rng)
    return est / (1.0 - params.alpha)
