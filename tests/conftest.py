"""Shared graph builders for the test suite (all seeded/deterministic)."""

import numpy as np
import pytest

from pprquery import build_graph
from pprquery.bidir import derive_params
from pprquery.single_node import reduction


def chain_graph():
    """s=0 -> t=1, t self-loop.  pi(s,t)=1-alpha, pi(s,s)=alpha."""
    return build_graph([(0, 1), (1, 1)], 2)


def star_graph():
    """s=0 -> v1, v2 (each absorbing)."""
    return build_graph([(0, 1), (0, 2), (1, 1), (2, 2)], 3)


def cycle_graph(k=3):
    return build_graph([(i, (i + 1) % k) for i in range(k)], k)


def singleton_graph():
    return build_graph([(0, 0)], 1)


def random_graph(seed, n, d=4):
    """Every node gets d distinct random out-neighbors (so out-degree in
    [1, d] after dedup); deterministic in the seed."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        targets = set(int(v) for v in rng.integers(0, n, size=d))
        edges.extend((u, v) for v in sorted(targets))
    return build_graph(edges, n)


def fan_graph(n_in, d_out):
    """Target t=0 (self-loop) with n_in in-neighbors, each of out-degree
    d_out via d_out-1 shared absorbing dummies.  Pushing t spreads tiny
    increments (1-alpha)/d_out, exercising the randomized scan."""
    t = 0
    ins = list(range(1, 1 + n_in))
    dummies = list(range(1 + n_in, n_in + d_out))
    edges = [(t, t)]
    for u in ins:
        edges.append((u, t))
        edges.extend((u, w) for w in dummies)
    edges.extend((w, w) for w in dummies)
    return build_graph(edges, n_in + d_out)


def relay_fan_graph(n_in=2200, n_relays=16, relay_out=32, in_nbr_out=30):
    """Target t fed by `n_relays` relay nodes (out-degree `relay_out`, so
    each holds residue ~(1-alpha)/relay_out), each relay with the same
    `n_in` in-neighbors of out-degree `in_nbr_out`.  Backward pushes of
    the relays are fat uniform scans with per-edge increment
    (1-alpha)^2/(relay_out*in_nbr_out): the workhorse for 1/theta query
    scaling measurements.
    """
    t = 0
    relays = list(range(1, 1 + n_relays))
    vdum = list(range(1 + n_relays, n_relays + relay_out))
    us = list(range(n_relays + relay_out,
                    n_relays + relay_out + n_in))
    udum = list(range(n_relays + relay_out + n_in,
                      n_relays + relay_out + n_in + in_nbr_out - n_relays))
    edges = [(t, t)]
    for v in relays:
        edges.append((v, t))
        edges.extend((v, d) for d in vdum)
    edges += [(d, d) for d in vdum]
    for u in us:
        edges.extend((u, v) for v in relays)
        edges.extend((u, d) for d in udum)
    edges += [(d, d) for d in udum]
    g = build_graph(edges, n_relays + relay_out + n_in + in_nbr_out - n_relays)
    return g, t


def sn_params(g, alpha, eps, p_f, **multipliers):
    """single_node_avg_full's parameters on graph g, as the harness's
    sn_avg_full set-up derives them: at the reduction's delta, on its
    view's node count."""
    delta, view = reduction(g, alpha)
    return derive_params(alpha, delta, eps, p_f, view.node_count,
                         **multipliers)


def materialize_super_source(g):
    """Explicit augmented graph for exact cross-checks: g plus a node n
    with an edge to every node of g, after g's own edges."""
    n = g.node_count
    edges = np.column_stack(g.edge_arrays())
    virtual = np.column_stack((np.full(n, n), np.arange(n)))
    return build_graph(np.concatenate((edges, virtual)), n + 1)


def out_list(g, v):
    """OUT list of v, in insertion order."""
    return g.out_nbrs[g.out_ptr[v]:g.out_ptr[v + 1]].tolist()


def in_list(g, v, by_out_degree=False):
    """IN list of v, in insertion order or in IN-SORTED order."""
    nbrs = g.in_sorted if by_out_degree else g.in_nbrs
    return nbrs[g.in_ptr[v]:g.in_ptr[v + 1]].tolist()


def r_hat_total(state, u):
    """u's residue summed over every level of a backward-phase state."""
    return sum(level.get(u, 0.0) for level in state.r_hat)


def unpushed_bound_holds(state):
    """Deterministic termination bound: r_hat_prime_i(u) <= theta_i for
    every unpushed (u, i) with i < L.  Returns (ok, worst_excess)."""
    th = state.params.theta
    worst = 0.0
    for i in range(state.params.L):
        pushed = state.pushed_amount[i]
        for u, val in state.r_hat_prime[i].items():
            if u not in pushed and val > th:
                worst = max(worst, val - th)
    return worst == 0.0, worst


def mean_queries_by_cell(results):
    """cell -> (delta, mean total queries) from TrialResults."""
    acc = {}
    for r in results:
        acc.setdefault(r.cell, (r.delta, []))[1].append(r.queries["total"])
    return {c: (d, sum(v) / len(v)) for c, (d, v) in acc.items()}


def contributions(state, v):
    """v's (receiving level i + 1, (1 - alpha) * amount) pairs, one per
    positive amount v pushed at level i, in level order."""
    alpha = state.params.alpha
    return [(i + 1, (1 - alpha) * amount)
            for i, level in enumerate(state.pushed_amount)
            if (amount := level.get(v, 0.0)) > 0.0]


def chi_of(entries, pushed_amount, u):
    """The sum, in order, of the (receiving level, value) entries whose
    level u has not pushed at."""
    total = 0.0
    for lvl, val in entries:
        if u not in pushed_amount[lvl]:
            total += val
    return total


def chi_num(state, u, v):
    """v's chi sum toward u before the division by d_out(u): the
    contributions of v whose receiving level u has not pushed at,
    added in level order."""
    return chi_of(contributions(state, v), state.pushed_amount, u)


def chi_num_sum(state, u, v):
    """The scalar level-order reference for R_hat's chi sums: the sum of
    (1 - alpha) * pushed_amount[i][v] over the levels i < L where v
    pushed a positive amount and u is not a key of pushed_amount[i + 1],
    from 0.0 in level order; the caller divides by d_out(u)."""
    pushed, alpha = state.pushed_amount, state.params.alpha
    tot = 0.0
    for i in range(state.params.L):
        amount = pushed[i].get(v, 0.0)
        if amount > 0.0 and u not in pushed[i + 1]:
            tot += (1.0 - alpha) * amount
    return tot


def seed_term(state, u):
    """The virtual level-0 seed chi_0(t, t) = 1: 1.0 for the target
    while it is unpushed at level 0, else 0.0."""
    return 1.0 if u == state.target and u not in state.pushed_amount[0] else 0.0


def compute_R(g, state, u):
    """Exact derandomized residue R(u) of a push state on graph g, from
    the stored push amounts.  Reads u's full out-list, which the metered
    algorithm itself never does."""
    nbrs = out_list(g, u)
    total = 0.0
    for v in nbrs:
        total += chi_num(state, u, v)
    return total / len(nbrs) + seed_term(state, u)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
