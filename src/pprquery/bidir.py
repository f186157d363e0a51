"""Bidirectional randomized single-pair estimator.

Backward phase: leveled randomized PushBack from the target.  A node v
is pushed at level i when its independent residue copy exceeds the
threshold theta; the push updates both residue copies of each
in-neighbor, deterministically when the increment is at least
gamma*theta and otherwise by two independent sorted-scan Bernoulli
passes (IN-SORTED gives in-neighbors by non-decreasing out-degree, so
each scan stops at the first increment below its uniform threshold).

The randomized scans fire rarely.  A push of amount a randomizes at an
in-neighbor u only when (1-alpha) * a / d_out(u) < gamma * theta, and
pushes start at a > theta, so this needs d_out(u) >~ (1-alpha)/gamma.
Under derive_params at delta = 0.01 (alpha = eps = 0.2) that is about
5.7e4 at n = 4,096 and 8.5e4 at n = 10^6.  On graphs whose
out-degrees stay below that, single_pair_ppr and single_node_avg_full
never draw a scan uniform.

Forward phase: walks from the source; each terminal u_k is scored by an
estimate R_hat(u_k) of the derandomized residue R(u_k), combining exact
ADJ-checked contributions of heavy-reserve nodes with uniform sampling
of the remaining out-neighbors.  Walk terminals repeat, and a
terminal's ADJ answers and heavy chi sums do not depend on its samples:
`estimate_R_hat` finds them once per distinct terminal in a call,
charging every occurrence the queries it would have made, reads a light
terminal's out-list at every walk, and draws the samples per walk,
block by block, by rejection in vectorized rounds of one try per
still-open sample.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .classic import (MAX_WALKS, WalkBudgetExceeded, _merge, _scratch_array,
                      _walk_terminals, check_counts, check_params)
from .graph import PprqueryError, check_nodes
from .oracle import CapabilityDisabled

log = logging.getLogger(__name__)


class ConstraintViolation(PprqueryError):
    pass


@dataclass(frozen=True)
class NewAlgoParams:
    """Parameters of one randomized bidirectional run: every level has
    threshold theta and sampling granularity gamma, and pushes happen
    at levels 0..L-1."""

    alpha: float
    delta: float
    eps: float
    p_f: float
    theta: float
    gamma: float
    L: int
    n_r: int
    n_s: int
    tau: float
    constraint_margins: dict = field(default_factory=dict)

    def __post_init__(self):
        check_params(theta=self.theta, gamma=self.gamma, tau=self.tau)
        check_counts(L=self.L, n_r=self.n_r, n_s=self.n_s)


def verify_constraints(params, n):
    """Check the four parameter constraints; returns {name: margin}.

    Margins are (satisfied quantity) / (required quantity); a margin
    below 1 raises ConstraintViolation naming the constraint.
    """
    L, theta = params.L, params.theta
    eps, delta, p_f, alpha = params.eps, params.delta, params.p_f, params.alpha
    lg = math.log(max(n * L, 2))
    margins = {}
    margins["gamma_bound"] = (eps * eps) / (params.gamma * L * L * lg)
    need_L = math.log(1.0 / theta) / alpha
    margins["level_count"] = L / need_L if need_L > 0 else math.inf
    need_nr = sum((theta,) * (L + 1)) * math.log(1.0 / p_f) / (eps * delta)
    margins["walk_count"] = params.n_r / need_nr
    need_ratio = math.log(1.0 / p_f) / (alpha * eps * delta)
    margins["sample_ratio"] = (params.n_r * params.n_s / params.tau) / need_ratio
    for name, margin in margins.items():
        if margin < 1.0 - 1e-9:
            raise ConstraintViolation(
                f"constraint {name} violated: margin {margin:.4g}")
    return margins


# derive_params's multipliers, each 1.0 unless given
MULTIPLIERS = ("c_theta", "c_L", "c_gamma", "c_nr", "c_ns", "c_tau")
MAX_LEVELS = 2 ** 20  # push levels derive_params may set


def derive_params(alpha, delta, eps, p_f, n, **multipliers):
    """Concrete parameters for the target error profile on n nodes.

    theta = c_theta * delta^(2/3); L covers the geometric decay of
    residues; gamma, n_r and tau are sized directly from their defining
    constraints (gamma <= eps^2/(L^2 log nL), n_r >= (L+1) theta
    log(1/p_f)/(eps*delta), n_r*n_s/tau >= log(1/p_f)/(alpha*eps*delta));
    n_s = ceil(c_ns / delta^(1/3)).
    `multipliers` takes any of MULTIPLIERS; another name is a TypeError.
    Before each count is used: ConstraintViolation for theta or gamma
    0.0 and L > MAX_LEVELS, WalkBudgetExceeded for n_r * n_s > MAX_WALKS
    (each >= 1).
    """
    c = {k: multipliers.pop(k, 1.0) for k in MULTIPLIERS}
    if multipliers:
        raise TypeError(f"unknown multipliers {sorted(multipliers)}")
    check_params(alpha=alpha, delta=delta, eps=eps, p_f=p_f, **c)
    check_counts(n=n)
    theta = c["c_theta"] * delta ** (2.0 / 3.0)
    if theta == 0.0:  # L takes log(1 / theta)
        raise ConstraintViolation(f"theta underflows to 0.0 (c_theta="
                                  f"{c['c_theta']!r}, delta={delta!r})")
    levels = 1.0 if theta >= 1.0 else c["c_L"] * math.log(1.0 / theta) / alpha
    if levels > MAX_LEVELS:  # gamma divides by L^2
        raise ConstraintViolation(f"L={levels:.4g} > MAX_LEVELS = {MAX_LEVELS}")
    L = max(1, math.ceil(levels))
    lg = math.log(max(n * L, 2))
    gamma = min(1.0, c["c_gamma"] * eps * eps / (L * L * lg))
    if gamma == 0.0:  # verify_constraints divides by it
        raise ConstraintViolation(f"gamma underflows to 0.0 (c_gamma="
                                  f"{c['c_gamma']!r}, eps={eps!r}, L={L})")
    log_pf = math.log(1.0 / p_f)
    den = eps * delta
    # theta added level by level: (L + 1) * theta rounds n_r differently
    n_r = c["c_nr"] * sum((theta,) * (L + 1)) * log_pf / den if den else math.inf
    n_s = c["c_ns"] / delta ** (1.0 / 3.0)
    if max(n_r, 1.0) * max(n_s, 1.0) > MAX_WALKS:
        raise WalkBudgetExceeded(f"n_r={n_r:.4g} x n_s={n_s:.4g} > MAX_WALKS")
    n_r, n_s = max(1, math.ceil(n_r)), max(1, math.ceil(n_s))
    tau = c["c_tau"] * n_r * n_s * alpha * eps * delta / log_pf
    params = NewAlgoParams(
        alpha=alpha, delta=delta, eps=eps, p_f=p_f, theta=theta, gamma=gamma,
        L=L, n_r=n_r, n_s=n_s, tau=tau)
    return replace(params, constraint_margins=verify_constraints(params, n))


# derive_params once per argument set: the trials of a harness cell share
# the result (the single_pair_ppr runner and single_node_avg_full)
_cell_params = functools.lru_cache(maxsize=16, typed=True)(derive_params)


@dataclass
class RandPushState:
    """State of one backward phase.

    r_hat / r_hat_prime hold per-level residues and their independent
    copies; pushed_amount[i] maps v to the residue amount pushed from
    (v, i): u not in pushed_amount[i] is the flag 1_i(u), and the
    amounts give each chi_{i+1}(u, v) (_chi_num_sum).  heavy (V_P =
    {v : p_hat(v) > tau}, a frozenset; p_hat never falls) and push_counts
    (pushes per level 0..L) are computed on each access, not stored.
    """

    params: NewAlgoParams
    target: int
    r_hat: list
    r_hat_prime: list
    p_hat: dict
    pushed_amount: list

    heavy = property(lambda self: frozenset(
        v for v, x in self.p_hat.items() if x > self.params.tau))
    push_counts = property(lambda self: [len(lv) for lv in self.pushed_amount])


def rand_push_threshold(o, v, i, state, rng):
    """Randomized PushBack of r_hat_i(v) into level i+1.

    Deterministic prefix of the out-degree-sorted in-list gets the exact
    increment in both copies; past it, two independent scans with their
    own uniform thresholds add gamma*theta increments, each stopping at
    the first in-neighbor whose increment falls below its threshold.
    Writes only the residues, pushed_amount and p_hat.  Raises
    ValueError before any write unless 0 <= i < L and v holds an
    unpushed residue copy at level i.
    """
    p = state.params
    if not 0 <= i < p.L:
        raise ValueError(f"push level i={i!r} outside [0, {p.L})")
    if v not in state.r_hat_prime[i]:
        raise ValueError(f"v={v!r} holds no residue copy at level {i}")
    if v in state.pushed_amount[i]:
        raise ValueError(f"v={v!r} already pushed at level {i}")
    amount = state.r_hat[i].get(v, 0.0)
    state.pushed_amount[i][v] = amount
    if amount > 0.0:
        thr = p.gamma * p.theta
        spread = (1.0 - p.alpha) * amount
        rn, rpn = state.r_hat[i + 1], state.r_hat_prime[i + 1]
        d_in = o.deg_in(v)
        idx = 0
        while idx < d_in:
            u = o.in_sorted(v, idx)
            chi = spread / o.deg_out(u)
            if chi < thr:
                break
            rn[u] = rn.get(u, 0.0) + chi
            rpn[u] = rpn.get(u, 0.0) + chi
            idx += 1
        if idx < d_in:
            for tgt in (rn, rpn):
                rand = rng.random() * thr
                for j in range(idx, d_in):
                    u = o.in_sorted(v, j)
                    if spread / o.deg_out(u) <= rand:
                        break
                    tgt[u] = tgt.get(u, 0.0) + thr
    state.p_hat[v] = state.p_hat.get(v, 0.0) + p.alpha * amount
    state.r_hat[i][v] = 0.0
    return state


def backward_phase(o, t, params, rng):
    """Run levels 0..L-1; eligibility r_hat_prime_i(v) > theta, nodes
    processed in ascending id within a level."""
    if not o.caps.in_sorted:
        raise CapabilityDisabled("backward_phase needs IN-SORTED")
    check_nodes(o.node_count, t=t)
    L, theta = params.L, params.theta
    state = RandPushState(
        params=params, target=t,
        r_hat=[{t: 1.0}] + [{} for _ in range(L)],
        r_hat_prime=[{t: 1.0}] + [{} for _ in range(L)],
        p_hat={}, pushed_amount=[{} for _ in range(L + 1)])
    for i in range(L):
        eligible = sorted(v for v, val in state.r_hat_prime[i].items() if val > theta)
        for v in eligible:
            rand_push_threshold(o, v, i, state, rng)
    if len(state.heavy) > 8 * (params.n_r + 1):
        log.warning("heavy set V_P has %d nodes (tau=%.3g); R_hat cost degrades",
                    len(state.heavy), params.tau)
    return state


def _chi_num_sum(state, u, v):
    """sum_i 1_{i+1}(u) * (1-alpha) * pushed_amount_i(v) over the levels
    i < L where v pushed a positive amount, in level order; caller
    divides by d_out(u).  The level-0 seed is virtual (_seed_term)."""
    pushed, alpha = state.pushed_amount, state.params.alpha
    tot = 0.0
    for i in range(state.params.L):
        amount = pushed[i].get(v, 0.0)
        if amount > 0.0 and u not in pushed[i + 1]:
            tot += (1.0 - alpha) * amount
    return tot


def _seed_term(state, u):
    """chi_0(t,t) = 1 seed convention: 1.0 for the target while it is
    unpushed at level 0, else 0.0."""
    return 1.0 if u == state.target and u not in state.pushed_amount[0] else 0.0


# Terminals are scored in blocks of about this many samples, which
# bounds the batch arrays whatever n_r and n_s are.
_BLOCK_SAMPLES = 1 << 14


def estimate_R_hat(o, state, terminals, params, rng):
    """Unbiased estimates R_hat(u) of R(u) for every node u of
    `terminals`, as a float64 array in that order: exact contributions
    of heavy-reserve out-neighbors via ADJ, uniform sampling of the
    rest.

    Once per call: one DEG-OUT batch over the terminals, one ADJ batch
    over terminals x V_P, and one out-list read (d_out OUT queries) per
    walk at a light terminal (d_out < 2|V_P|), in walk order, whose
    samples pick among its light out-neighbors.  An OUT(s', .) answer
    is a JUMP draw, so a light s' list can miss every light node: such
    lists are read again, in order, until none is empty (_light_out).
    A terminal's ADJ answers and chi sums over its V_P neighbors are
    fixed, so the ADJ batch holds each distinct terminal once and
    charges it once per occurrence (its `times`); with V_P empty the
    ADJ batch is empty and no chi sum or out-list read runs.  Per block
    of terminals, one uniform per sample (n_s per terminal with a
    non-empty light pool, in terminal order); the other samples are
    drawn by rejection in rounds of one try (out_step_many) per open
    sample, at its own uniform, then one fresh uniform per round; with
    V_P empty there is one round.  A sample still open after 64 tries
    reads its terminal's out-list and picks among the light
    out-neighbors with one more uniform.

    The DEG-OUT batch checks the terminals, before any query or draw
    (OracleHandle._nodes).  V_P and the nodes that pushed a positive
    amount are node masks, _chi_num_sum runs once per distinct
    (terminal, node) pair, bincount sums left to right, and the
    n-length slot that finds the distinct terminals (classic._merge) and
    the samples reuse the walk engine's scratch (classic._scratch_array).
    """
    if not o.caps.adj:
        raise CapabilityDisabled("estimate_R_hat needs ADJ")
    n = o.node_count
    du = o.deg_out_many(terminals)  # the first query checks their ids
    us = np.asarray(terminals, dtype=np.int64)
    heavy = np.array(sorted(state.heavy), dtype=np.int64)
    is_heavy, has_chi = np.zeros((2, n), dtype=bool)
    is_heavy[heavy] = True
    # the positive pushers, not p_hat > 0: alpha * amount can underflow
    has_chi[[v for lv in state.pushed_amount
             for v, x in lv.items() if x > 0.0]] = True
    memo = {}  # pair key u*n + v -> _chi_num_sum(state, u, v)

    def chi(xs, vs):
        """_chi_num_sum(state, xs[i], vs[i]) for every i."""
        keys = (xs * n + vs).tolist()
        memo.update((key, _chi_num_sum(state, *divmod(key, n)))
                    for key in set(keys) - memo.keys())
        return np.array([memo[key] for key in keys])

    k, n_s, h = us.size, params.n_s, heavy.size
    clen, start = np.zeros((2, k), dtype=np.int64)  # per walk: light list
    if h:
        # distinct terminals ds in first-appearance order, each with its
        # occurrence count; inv maps each walk to its ds entry
        slot = _scratch_array("slot", n, np.intp)
        ds, times = _merge(us, None, slot)
        slot[ds] = np.arange(ds.size)
        inv = slot[us]
        is_nbr = o.adj_many(np.repeat(ds, h), np.tile(heavy, ds.size),
                            np.repeat(times, h)).reshape(-1, h)
        rows, cols = np.nonzero(is_nbr)
        num = np.bincount(rows, chi(ds[rows], heavy[cols]),
                          minlength=ds.size)[inv]
        pool = du - is_nbr.sum(axis=1)[inv]
        lo = np.flatnonzero((pool > 0) & (du < 2 * h))  # the light walks
        cand, clen[lo], start[lo] = _light_out(o, us[lo], is_heavy)
    else:  # V_P empty: no V_P neighbor to sum over, no light terminal
        o.adj_many(us[:0], heavy)  # the ADJ batch, terminals x V_P, is empty
        num, pool, cand = 0.0, du, us[:0]
    acc = np.zeros(k)
    step = max(1, _BLOCK_SAMPLES // n_s)
    for a in range(0, k, step):
        ts, nodes = _sample_block(
            o, us, a + np.flatnonzero(pool[a:a + step] > 0),
            (cand, clen, start), is_heavy if h else None, n_s, rng)
        hit = np.flatnonzero(has_chi[nodes])  # chi is 0 off has_chi
        who, block = ts[hit // n_s], acc[a:a + step]
        block[:] = np.bincount(who - a, chi(us[who], nodes[hit]),
                               minlength=block.size)
    seed = np.where(us == state.target, _seed_term(state, state.target), 0.0)
    return seed + (num + acc * pool / n_s) / du


def _light_out(o, vs, is_heavy):
    """Read the whole out-list of each node vs[j] (out_lists: d_out OUT
    queries each) and keep its light entries: (cand, clen, start), those
    entries list after list, their count and start per list.  The lists
    with no light entry are then read again, in order, until none is
    empty: only an s' list of JUMP draws can be, since a real node's
    pool > 0 out-neighbors off V_P are in its list."""
    cand, lens = o.out_lists(vs)
    ok = ~is_heavy[cand]
    clen = np.bincount(np.arange(vs.size).repeat(lens)[ok], minlength=vs.size)
    cand, start = cand[ok].astype(np.int64), clen.cumsum() - clen
    empty = np.flatnonzero(clen == 0)
    if empty.size:
        more, clen[empty], _ = _light_out(o, vs[empty], is_heavy)
        cand = np.insert(cand, start[empty].repeat(clen[empty]), more)
        start = clen.cumsum() - clen
    return cand, clen, start


def _pick(picks, rows, x, out=None):
    """cand[start[r] + floor(u * clen[r])], r = rows[j], per u in x[j]."""
    cand, clen, start = picks
    idx = _scratch_array("off", x.size, np.int64).reshape(x.shape)
    np.multiply(x, clen[rows, None], out=idx, casting="unsafe")  # truncates
    idx += start[rows, None]
    # idx is in range: "clip" clips nothing, "raise" would copy `out`
    return np.take(cand, idx, out=out, mode="clip")


def _sample_block(o, us, ts, picks, is_heavy, n_s, rng):
    """n_s samples for us[j], j in `ts` ascending: `ts` with its light
    terminals (clen > 0 in picks) first, and the samples, n_s per j in
    that order, in scratch `cur`.  is_heavy: V_P mask, None if empty."""
    x = _scratch_array("us", ts.size * n_s, np.float64).reshape(-1, n_s)
    rng.random(out=x)  # a row per terminal of ts
    light = picks[1][ts] > 0
    ts = np.concatenate((ts[light], ts[~light]))
    split = np.count_nonzero(light)
    nodes = _scratch_array("cur", x.size, np.int64)
    if split:
        _pick(picks, ts[:split], x[light],
              nodes[:split * n_s].reshape(-1, n_s))
        x = x[~light]
    tried = nodes[split * n_s:]  # the first tries: their own uniforms
    tried[:] = o.out_step_many(us[ts[split:]].repeat(n_s), x.ravel())
    if is_heavy is None:  # no try is rejected
        return ts, nodes
    open_ = np.flatnonzero(is_heavy[tried])
    t = ts[split:][open_ // n_s]
    for _ in range(63):
        if not t.size:
            break
        got = o.out_step_many(us[t], rng.random(t.size))
        tried[open_] = got
        keep = is_heavy[got]
        open_, t = open_[keep], t[keep]
    if t.size:
        tried[open_] = _pick(_light_out(o, us[t], is_heavy),
                             slice(None), rng.random((t.size, 1))).ravel()
    return ts, nodes


def single_pair_ppr(o, s, t, params, rng):
    """Full estimator: p_hat(s) plus the average of n_r independent
    R_hat scores of walk terminals (needs IN-SORTED and ADJ).

    Repeated terminals get fresh independent R_hat evaluations.
    """
    if not (o.caps.in_sorted and o.caps.adj):
        raise CapabilityDisabled("single_pair_ppr needs IN-SORTED and ADJ")
    check_nodes(o.node_count, s=s, t=t)
    state = backward_phase(o, t, params, rng)
    n_r = params.n_r
    terminals = _walk_terminals(o, [s], params.alpha, rng, n_r)
    # accumulate adds left to right; np.sum adds pairwise and rounds otherwise
    acc = np.add.accumulate(estimate_R_hat(o, state, terminals, params, rng))
    return state.p_hat.get(s, 0.0) + float(acc[-1]) / n_r

