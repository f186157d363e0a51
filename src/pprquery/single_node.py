"""Single-node (PageRank-style) estimation of pi(t).

Three routes: an adaptive-threshold loop over the randomized backward
single-target solver, and two reductions that bolt a virtual uniform
super-source onto the graph and run a single-pair estimator from it,
using pi_aug(s', t) = (1-alpha) * pi(t).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .classic import (DEFAULT_WALK_MULT, bippr_pair, check_params,
                      default_r_max_pair, rbs_single_target, rbs_levels)
from .bidir import derive_params, single_pair_ppr
from .graph import check_nodes
from .oracle import CapabilityDisabled, IndexOutOfRange


# derive_params once per argument set: the trials of a harness cell share
# the result (here and in the single_pair_ppr runner), so never mutate it
_cell_params = functools.lru_cache(maxsize=16, typed=True)(derive_params)


class SuperSourceView:
    """Oracle view of the base graph plus a virtual source s' = n.

    s' has an out-edge to every real node (served through JUMP, so a
    fresh out-neighbor draw costs one query) and no in-edges; every
    real node reports s' as one extra in-neighbor, placed last in both
    the plain and the out-degree-sorted in-lists (d_out(s') = n is
    maximal and s' carries the largest id).  Construction knowledge
    (sizes, s' degrees) is free; all real accesses are forwarded to the
    base handle and metered there.

    The batch methods `deg_out_many`, `out_nbr_many`, `walk_step_many`
    and `adj_many` split off the virtual elements: their degree and
    their ADJ pairs are free, and each of their OUT queries (or walk
    steps) is one JUMP of the base handle (`jump_many`), drawn in
    element order.  Everything else goes to the base's batch methods,
    one query per element.
    """

    def __init__(self, base):
        self.base = base
        self.virtual = base.node_count
        self.caps = base.caps
        self.graph = None  # not materialized; exact checks build it separately
        self._din = base.graph.in_degrees

    @property
    def node_count(self):
        return self.base.node_count + 1

    @property
    def edge_count(self):
        return self.base.edge_count + self.base.node_count

    @property
    def stats(self):
        return self.base.stats

    def deg_out(self, v):
        if v == self.virtual:
            return self.base.node_count
        return self.base.deg_out(v)

    def deg_in(self, v):
        if v == self.virtual:
            return 0
        return self.base.deg_in(v) + 1

    def out_nbr(self, v, i):
        if v == self.virtual:
            if not 0 <= i < self.virtual:
                raise IndexOutOfRange(f"OUT({v},{i}) with d_out={self.virtual}")
            return self.base.jump()
        return self.base.out_nbr(v, i)

    def deg_out_many(self, vs):
        vs = np.asarray(vs, dtype=np.int64)
        virt = vs == self.virtual
        if not np.count_nonzero(virt):
            return self.base.deg_out_many(vs)
        d = np.full(vs.shape, self.virtual, dtype=np.int64)
        real = ~virt
        d[real] = self.base.deg_out_many(vs[real])
        return d

    def out_nbr_many(self, vs, idx):
        vs = np.asarray(vs, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        virt = vs == self.virtual
        k = np.count_nonzero(virt)
        if not k:
            return self.base.out_nbr_many(vs, idx)
        vi = idx[virt]
        bad = (vi < 0) | (vi >= self.virtual)
        if bad.any():
            raise IndexOutOfRange(f"OUT({self.virtual},{vi[np.argmax(bad)]}) "
                                  f"with d_out={self.virtual}")
        out = np.empty(vs.shape, dtype=np.int64)
        real = ~virt
        out[real] = self.base.out_nbr_many(vs[real], idx[real])
        out[virt] = self.base.jump_many(k)
        return out

    def walk_step_many(self, vs, u):
        vs = np.asarray(vs, dtype=np.int64)
        virt = vs == self.virtual
        k = np.count_nonzero(virt)
        if not k:
            return self.base.walk_step_many(vs, u)
        u = np.asarray(u, dtype=np.float64)
        out = np.empty(vs.shape, dtype=np.int64)
        real = ~virt
        out[real] = self.base.walk_step_many(vs[real], u[real])
        out[virt] = self.base.jump_many(k)
        return out

    def in_nbr(self, v, i):
        if v == self.virtual:
            raise IndexOutOfRange("virtual source has no in-neighbors")
        if i == self._din[v]:
            return self.virtual
        return self.base.in_nbr(v, i)

    def in_sorted(self, v, i):
        if v == self.virtual:
            raise IndexOutOfRange("virtual source has no in-neighbors")
        if i == self._din[v]:
            if not self.caps.in_sorted:
                raise CapabilityDisabled("IN-SORTED is not enabled")
            return self.virtual
        return self.base.in_sorted(v, i)

    def adj(self, u, v):
        if u == self.virtual or v == self.virtual:
            if not self.caps.adj:
                raise CapabilityDisabled("ADJ is not enabled")
            return u == self.virtual != v
        return self.base.adj(u, v)

    def adj_many(self, us, vs):
        if not self.caps.adj:
            raise CapabilityDisabled("ADJ is not enabled")
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        virt_u, virt_v = us == self.virtual, vs == self.virtual
        real = ~(virt_u | virt_v)
        if real.all():
            return self.base.adj_many(us, vs)
        out = virt_u & ~virt_v
        out[real] = self.base.adj_many(us[real], vs[real])
        return out

    def jump(self):
        # uniform over the n+1 view nodes, charged as one JUMP
        if not self.caps.jump:
            raise CapabilityDisabled("JUMP is not enabled")
        self.base.stats.jump += 1
        return int(self.base._rng.integers(self.node_count))


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
