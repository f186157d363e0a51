"""Single-node (PageRank-style) estimation of pi(t).

Three routes: an adaptive-threshold loop over the randomized backward
single-target solver, and two reductions that add a virtual source
s' = n with an out-edge to every node and run a single-pair estimator
from it, using pi_aug(s', t) = (1-alpha) * pi(t), on a SuperSourceView,
which charges by the oracle module's super-source rule.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .classic import (DEFAULT_WALK_MULT, bippr_pair, check_params,
                      default_r_max_pair, rbs_single_target, rbs_levels)
from .bidir import _cell_params, single_pair_ppr
from .graph import check_nodes, frozen_graph
from .oracle import CapabilityDisabled, OracleHandle


_augmented_of = weakref.WeakKeyDictionary()  # g -> _augmented(g)


def _augmented(g):
    """g plus s' = n with an out-edge to every node, from g's CSR arrays:
    g's lists keep their order and s' ends every IN and IN-SORTED list
    (its out-degree n and id are maximal).  Kept while g lives, so a
    cell's trials share one copy, and freed with g."""
    aug = _augmented_of.get(g)
    if aug is None:
        n, m = g.node_count, g.edge_count
        real, ends = np.arange(n), g.in_ptr[1:]
        aug = _augmented_of[g] = frozen_graph(
            n + 1, m + n, out_ptr=np.append(g.out_ptr, m + n),
            out_nbrs=np.append(g.out_nbrs, real), out_deg=np.append(g.out_deg, n),
            out_sorted=np.append(g.out_sorted, real),
            in_ptr=np.append(g.in_ptr + np.arange(n + 1), m + n),
            in_nbrs=np.insert(g.in_nbrs, ends, n), in_deg=np.append(g.in_deg + 1, 0),
            in_sorted=np.insert(g.in_sorted, ends, n))
    return aug


class SuperSourceView(OracleHandle):
    """Oracle handle over the base's graph plus s' = n (`_augmented`)
    that shares the base's capabilities, counters and JUMP generator;
    its own jump() is uniform over all n + 1 nodes."""

    __slots__ = ("base",)

    def __init__(self, base):
        super().__init__(_augmented(base.graph), base.caps, base._rng)
        self.stats = base.stats
        self.base = base
        self.virtual = base.node_count


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
    view = SuperSourceView(o)
    delta = alpha / (2.0 * o.node_count)
    r_max = default_r_max_pair(view, delta)
    est = bippr_pair(view, view.virtual, t, alpha, delta, eps, p_f, r_max,
                     rng, c=c)
    return est / (1.0 - alpha)


def single_node_avg_full(o, t, alpha, eps, p_f, rng, multipliers=None):
    """Super-source reduction run through the randomized bidirectional
    single-pair estimator (needs JUMP, IN-SORTED and ADJ)."""
    if not (o.caps.jump and o.caps.in_sorted and o.caps.adj):
        raise CapabilityDisabled("single_node_avg_full needs JUMP+IN-SORTED+ADJ")
    check_nodes(o.node_count, t=t)
    view = SuperSourceView(o)
    delta = alpha / (2.0 * o.node_count)
    check_params(**(multipliers or {}))  # named, before the cache hashes them
    params = _cell_params(alpha, delta, eps, p_f, view.node_count,
                          **(multipliers or {}))
    est = single_pair_ppr(view, view.virtual, t, params, rng)
    return est / (1.0 - alpha)
