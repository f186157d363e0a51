"""Baseline estimators: Monte Carlo walks, backward push and their
bidirectional combinations, plus the JUMP-based single-target solvers.

Every estimator accesses the graph only through an OracleHandle (or an
object with the same query methods), so QueryStats fully accounts for
its cost.  Walk sampling queries DEG-OUT once per step and then one OUT
query: 2 queries per step.  All walks run through one lockstep engine,
`_walk_terminals`, which advances every live walk by one step per round
with one `walk_step_many` batch; it charges one DEG-OUT and one OUT
per element, so a step still costs exactly 2 queries; a walk settled
in a self-loop sink stops, its remaining steps charged as repeats.  After
the first round the walks are sorted once by length, longest first, so
each later round advances a shrinking prefix in place.  Walk lengths
are numpy's geometric draws, bit for bit, but below alpha = 1/3 they
come from one exponential fill and one divide (`_draw_moves`).  A batch
of walks from any number of sources draws all its lengths in one fill,
then all its step uniforms in one `rng.random` fill.
Power iteration, RBS and BiPPR's push (approx_contributions) share one
leveled backward loop, `_leveled_backward`: one scan batch and one numpy
merge per level, and one merge of all levels that sums the estimates in
level order, keyed in first-reach order (single_node_adaptive sums them
in that order); BiPPR's push carries the residues below r_max over.

Walk counts carry explicit constant multipliers (default
16*log(1/p_f)/eps^2 per 1/delta); the underlying analyses only give
Theta(.), so the constants are exposed as parameters.
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from typing import NamedTuple

import numpy as np

from .graph import PprqueryError, check_nodes, positions

DEFAULT_WALK_MULT = 16.0
MAX_WALKS = 2 ** 28  # per walk batch: 2 GiB of int64 moves, drawn up front

_scratch = threading.local()  # walk and R_hat arrays, see _scratch_array

# name -> (upper bound, bound included)
_RANGES = {"alpha": (1.0, False), "eps": (1.0, False), "p_f": (1.0, False),
           "tol": (1.0, False), "delta": (1.0, True), "gamma": (1.0, True),
           "tau": (math.inf, True)}


class WalkBudgetExceeded(PprqueryError):
    """A walk count past float range, or a batch past MAX_WALKS walks or 2^53 steps."""


def check_params(**named):
    """Raise PprqueryError naming the first value outside its range: alpha,
    eps, p_f and tol in (0,1), delta and gamma in (0,1], tau in (0,inf]
    (inf leaves V_P empty), any other name (a multiplier, r_max or
    theta) in (0,inf).  bool and non-numbers are rejected.  Every
    estimator calls this before its first query or random draw."""
    for name, val in named.items():
        hi, closed = _RANGES.get(name, (math.inf, False))
        if (isinstance(val, bool) or not isinstance(val, numbers.Real)
                or not (0.0 < val <= hi if closed else 0.0 < val < hi)):
            raise PprqueryError(f"{name}={val!r} outside "
                                f"(0,{hi:g}{']' if closed else ')'}")


def check_counts(**named):
    """Raise PprqueryError naming the first value that is not an integer >= 1."""
    for name, val in named.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 1:
            raise PprqueryError(f"{name}={val!r} must be an integer >= 1")


def _scratch_array(name, size, dtype):
    """The first `size` elements of this thread's grow-only scratch array
    `name`; a grow at least doubles it and keeps nothing, since each
    caller fills its slice whole (one walk batch's moves and uniforms
    are one fill each).  Reused across calls, so a trial does not fault
    freshly mapped pages back in; R_hat scoring draws into `us`, `cur`
    and `off`, dead once the walks return their terminals as a fresh
    array, and nothing either returns aliases them."""
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 0 if buf is None else 2 * buf.size), dtype)
        setattr(_scratch, name, buf)
    return buf[:size]


def _walk_terminals(o, sources, alpha, rng, count):
    """Terminals of `count` independent walks from each node of
    `sources`, as one int64 array ordered source by source.

    All randomness is drawn up front, one fill per kind for the batch:
    the moves of every walk, source by source and walk after walk
    (geometric lengths minus one, see _draw_moves), then the uniforms of
    every step, in that order; a one-source batch draws as it always
    did.  WalkBudgetExceeded above MAX_WALKS walks, before any allocation,
    and at 2^53 steps or more, before any query or uniform.
    """
    walks = len(sources) * count
    if walks > MAX_WALKS:
        raise WalkBudgetExceeded(f"{len(sources)} x {count:.4g} walks > "
                                 f"MAX_WALKS = {MAX_WALKS}")
    moves = _scratch_array("moves", walks, np.int64)
    _draw_moves(moves, alpha, rng)
    total = moves.sum(dtype=np.float64)  # one pass, no int64 wrap
    if total >= 2.0 ** 53:
        raise WalkBudgetExceeded(
            f"alpha={alpha!r}, count={count}: {total:.4g} steps >= 2^53")
    us = _scratch_array("us", int(total), np.float64)
    rng.random(out=us)
    starts = np.repeat(np.asarray(sources, dtype=np.int64), count)
    return _lockstep(o, starts, moves, us)


def _draw_moves(m, alpha, rng):
    """Fill the int64 array m with rng.geometric(alpha, m.size) - 1: the
    same values and generator end state, with no second array.

    Below alpha = 1/3 numpy's geometric draw is ceil(-E / log1p(-alpha))
    for one standard exponential E, clamped to INT64_MAX, but its
    generic per-draw call evaluates log1p every time.  Here the
    exponentials fill m's memory as float64 and one divide by libm's
    log1p (math.log1p, which numpy's C code calls too; not the np.log1p
    ufunc) and a few in-place passes finish them.  The passes hold
    h = floor(E / log1p(-alpha)) = -ceil(...), which an int64 holds
    down to -2^63, so the clamp is one at -INT64_MAX, and ~h = -h - 1.
    From alpha = 1/3 on numpy searches over uniforms instead, so the
    geometric call draws there.
    """
    if alpha >= 1.0 / 3.0:
        np.subtract(rng.geometric(alpha, size=m.size), 1, out=m)
        return
    x = m.view(np.float64)
    rng.standard_exponential(out=x)
    with np.errstate(over="ignore"):  # a tiny alpha's -inf is clamped next
        x /= math.log1p(-alpha)
    np.floor(x, out=x)
    np.maximum(x, -2.0**63, out=x)  # -inf too, for a tiny alpha
    np.copyto(m, x, casting="unsafe")  # same memory: converted in place
    np.maximum(m, 1 - 2**63, out=m)  # -INT64_MAX
    np.invert(m, out=m)


def _lockstep(o, starts, moves, us):
    """Walk j moves moves[j] times from starts[j]; returns the terminals
    as a fresh array.  The arguments are only read.

    Each round advances every walk with moves left by one step, through
    one walk_step_many batch.  Walk j's k-th step reads
    us[offset[j] + k], where offset[j] is the sum of moves[:j], until a
    step settles it: every walk reads a prefix of its uniforms.  A view's
    virtual source has no in-edges and never settles, so walks stand on
    it only in round 0, which runs in walk order: its JUMPs are drawn in
    the same order as by walking one walk after the other.  After round
    0 the walks are sorted once by moves, longest first (stable, on a
    key of the narrowest unsigned dtype, which numpy radix-sorts up to
    16 bits), so the walks still moving in round r are a prefix of that
    order, of a length read off a bincount, advanced in place.  A round
    in which walks settle writes the terminals so far and compacts the
    rest of the prefix, in order, into the arrays the sort left dead; one
    last batch charges their remaining moves, one element per node.
    """
    n = moves.size
    off = _scratch_array("off", n, np.int64)
    np.cumsum(moves, out=off)
    off -= moves
    cur = _scratch_array("cur", n, np.int64)
    cur[:] = starts
    mx = int(moves.max(initial=0))
    first = np.flatnonzero(moves > 0)  # faster on a bool mask
    cur[first], settled = o.walk_step_many(cur[first], us[off[first]])
    narrow = np.min_scalar_type(mx)
    order = np.argsort((mx - moves).astype(narrow), kind="stable")
    if settled.any():  # in sorted order, as the later rounds have it
        settled = np.isin(order[:first.size], first[settled])
    # order is a permutation, so "clip" clips nothing; "raise" would
    # copy `out` through a fresh buffer
    cur_s = np.take(cur, order, out=_scratch_array("cur_s", n, np.int64),
                    mode="clip")
    off_s = np.take(off, order, out=_scratch_array("off_s", n, np.int64),
                    mode="clip")
    terms, live, parked = np.empty(n, dtype=np.int64), n, []
    counts = np.bincount(moves, minlength=mx + 1)  # also for no walks
    left = (n - counts.cumsum()).tolist()  # left[r]: walks with > r moves
    mv = np.repeat(np.arange(mx, -1, -1, dtype=narrow), counts[::-1])  # sorted
    r = 0
    while r < len(left) - 1:
        k = left[r]
        if r:
            vs = cur_s[:k]
            vs[:], settled = o.walk_step_many(vs, us[off_s[:k] + r])
        if settled.any():
            stay, done = np.flatnonzero(~settled), np.flatnonzero(settled)
            terms[order[:live]] = cur_s[:live]  # the walks in stay: rewritten
            parked.append((cur_s.take(done), mv.take(done) - (r + 1)))
            live = stay.size
            cur, cur_s = cur_s, np.take(cur_s, stay, out=cur[:live], mode="clip")
            off, off_s = off_s, np.take(off_s, stay, out=off[:live], mode="clip")
            order, mv = order.take(stay), mv.take(stay)
            left = (live - np.bincount(mv).cumsum()).tolist()
        r += 1
    terms[order] = cur_s[:live]
    if parked:  # a node's times sum the moves its walks had left
        tot = np.bincount(*map(np.concatenate, zip(*parked)))  # exact float64
        at = np.flatnonzero(tot > 0.0)
        o.walk_step_many(at, 0.0, times=tot[at].astype(np.int64))
    return terms


def mc_walk_count(delta, eps, p_f, c=DEFAULT_WALK_MULT):
    """Walks needed for a (1 +- eps) estimate of a probability >= delta
    with failure probability p_f: c * log(1/p_f) / (eps^2 delta), or
    WalkBudgetExceeded where that overflows (eps^2 delta may be 0.0)."""
    check_params(delta=delta, eps=eps, p_f=p_f, c=c)
    den = eps * eps * delta
    walks = c * math.log(1.0 / p_f) / den if den else math.inf
    if walks == math.inf:
        raise WalkBudgetExceeded(f"eps={eps!r}, delta={delta!r}: inf walks "
                                 f"> MAX_WALKS = {MAX_WALKS}")
    return max(1, math.ceil(walks))


def monte_carlo_pair(o, s, t, alpha, delta, eps, p_f, rng, c=DEFAULT_WALK_MULT):
    """Fraction of walks from s that terminate at t.

    Returns (estimate, walk_count); walk_count is exposed for
    complexity accounting.
    """
    check_nodes(o.node_count, s=s, t=t)
    check_params(alpha=alpha)
    n_w = mc_walk_count(delta, eps, p_f, c)
    r = np.eye(1, o.node_count, t)[0]  # one-hot at t
    return _push_walk_estimates(o, [s], alpha, rng, n_w, {}, r)[s], n_w


def _push_walk_estimates(o, sources, alpha, rng, n_w, p, r):
    """s -> reserve p.get(s, 0) plus the mean residue r[terminal] of n_w
    walks from s, for every s in `sources`, all walked in one lockstep.
    The bidirectional estimators pass the dict p and dense vector r their
    backward push left; plain Monte Carlo is p = {}, r one-hot at t.  Each
    source's residues are summed left to right in walk order (cumsum),
    as a Python loop over its terminals would."""
    terms = _walk_terminals(o, sources, alpha, rng, n_w)
    sums = np.cumsum(r[terms].reshape(len(sources), n_w), axis=1)[:, -1]
    return {s: p.get(s, 0.0) + acc / n_w
            for s, acc in zip(sources, sums.tolist())}


class Push(NamedTuple):
    """Reserves p (a dict in first-push order) and dense residues r."""

    p: dict
    r: np.ndarray


def approx_contributions(o, t, alpha, r_max):
    """Backward push from t until every residue is below r_max.

    Afterwards p(s) <= pi(s,t) < p(s) + r_max for every s.  Push
    eligibility is r(v) >= r_max (so r_max=1 pushes the seed once).
    Each level of `_leveled_backward` (PowerPush's synchronous rounds,
    run backward) pushes every node whose residue reached r_max as one
    `in_scans` batch; the rest wait in r, where later arrivals add on.
    """
    check_nodes(o.node_count, t=t)
    check_params(alpha=alpha, r_max=r_max)
    r = np.zeros(o.node_count)

    def settle(vs, rv):
        rv += r[vs]  # the residue carried over, added to the arrivals
        hot = rv >= r_max
        r[vs] = np.where(hot, 0.0, rv)
        return vs[hot], rv[hot]

    return Push(_leveled_backward(o, t, alpha, None, o.in_scans, settle), r)


def _merge(ids, weights, slot):
    """Each id of `ids` once, in first-appearance order, with its weights
    summed left to right from 0.0, or its count without them (bincount).
    Written last to first, scratch slot[u] ends as u's first position."""
    pos = positions(ids.size)
    slot[ids[::-1]] = pos[::-1]
    at = slot[ids]
    first = at == pos
    return ids[first], np.bincount(at, weights, ids.size)[first]


def _leveled_backward(o, t, alpha, L, push, settle=None):
    """Level-synchronous backward propagation from t for L levels: the
    sparse estimates sum_level alpha * r_level(v), keyed in first-reach
    order (single_node_adaptive sums the values in that order).  Power
    iteration, rbs and BiPPR's push (approx_contributions) run on it.

    Level 0 is residue 1 on t.  push(vs, spread) takes a level's nodes
    with positive residue rv and their spreads (1 - alpha) * rv, and
    returns its pushes (us, x) in push order, read off one scan batch.
    Node ids are intp throughout, as the scan batches return them.  The
    next level holds each pushed node once, in first-appearance order,
    with the sum of its pushes added left to right from 0.0 (`_merge`),
    so values, key order and queries are those of a dict filled push by
    push; one `_merge` of all levels sums the estimates, in level order.
    With `settle`, L is None: settle(vs, rv) takes each level, level 0
    too, before it is recorded, and returns the part of it to push; the
    loop runs until a push reads nothing.
    """
    if settle is None:
        check_counts(L=L)
    slot = np.empty(o.node_count, dtype=np.intp)
    keep = np.asarray(1.0 - alpha)  # 0-d: no Python-float conversion
    vs, rv = np.array([t], dtype=np.intp), np.ones(1)
    levels, residues = [], []
    for level in itertools.count():
        if settle is not None:
            vs, rv = settle(vs, rv)
        levels.append(vs)
        residues.append(rv)
        if level == L:
            break
        if np.count_nonzero(rv) < rv.size:  # residues are >= 0: drop the zeros
            live = rv > 0.0
            vs, rv = vs[live], rv[live]
        us, x = push(vs, keep * rv)
        if not us.size:  # later levels would add, charge, draw nothing
            break
        vs, rv = _merge(us, x, slot)
    keys, est = _merge(np.concatenate(levels),
                       alpha * np.concatenate(residues), slot)
    return dict(zip(keys.tolist(), est.tolist()))


def power_iteration_target(o, t, alpha, L):
    """Synchronous leveled backward push; estimates pi(s,t) for all s.

    Returns a sparse dict equal to sum_{k<=L} alpha (1-alpha)^k P^k[.,t],
    i.e. brute_force_pair truncated at the same horizon; the dropped
    tail is at most (1-alpha)^L.  A level reads the full IN lists of
    its nodes as one `in_scans` batch, whose increments it pushes.
    """
    check_nodes(o.node_count, t=t)
    check_params(alpha=alpha)
    return _leveled_backward(o, t, alpha, L, o.in_scans)


def default_r_max_pair(o, delta):
    """BiPPR's balance point r_max = sqrt(delta * d), clamped to (0,1]."""
    d = o.edge_count / o.node_count
    return min(1.0, math.sqrt(delta * d))


def bippr_pair(o, s, t, alpha, delta, eps, p_f, r_max, rng, c=DEFAULT_WALK_MULT):
    """ApproxContributions from t, then walks from s scored by residue.

    The forward vectors are never materialized: each walk contributes
    r(terminal).  With r_max > 1 no push happens and this degenerates to
    plain Monte Carlo.
    """
    check_nodes(o.node_count, s=s, t=t)
    check_params(delta=delta, eps=eps, p_f=p_f, c=c, r_max=r_max)
    n_w = mc_walk_count(delta, eps, p_f, c * r_max)
    p, r = approx_contributions(o, t, alpha, r_max)
    return _push_walk_estimates(o, [s], alpha, rng, n_w, p, r)[s]


def rbs_levels(alpha, delta, eps):
    """Default level count ceil(log_{1/(1-alpha)} 1/(eps*delta))."""
    check_params(alpha=alpha, delta=delta, eps=eps)
    return max(1, math.ceil(math.log(1.0 / (eps * delta)) / math.log(1.0 / (1.0 - alpha))))


def rbs_single_target(o, t, alpha, delta, theta, rng, L=None, eps=0.5):
    """Randomized level-synchronous backward push (needs IN-SORTED).

    Residue increments below theta are randomized: one uniform threshold
    per (node, level) scan of the out-degree-sorted in-list, pushing
    theta for each scanned edge that was not deterministic, up to the
    first edge below both.  Increments are unbiased but not independent
    within a scan.  A level's nodes are scanned in id order, drawing one
    uniform each, as one `in_sorted_scans` batch, which charges what
    the scalar scans would: at spread (1-alpha) r(v) and limit
    min(uniform * theta, theta's float predecessor), v's scan ends at
    its first increment chi <= limit, and each entry before it, which
    the batch returns, pushes max(chi, theta).  Returns sparse
    per-source estimates of pi(s,t), summed in level order and keyed in
    first-reach order, the order single_node_adaptive sums in.
    """
    check_nodes(o.node_count, t=t)
    check_params(alpha=alpha, delta=delta, eps=eps, theta=theta)
    if L is None:
        L = rbs_levels(alpha, delta, eps)
    theta = np.asarray(theta, dtype=np.float64)  # 0-d operands
    below = np.nextafter(theta, 0.0, out=np.empty(()))  # chi < theta: chi <= below

    def push(vs, spread):
        order = vs.argsort(kind="stable")  # distinct ids in few runs: timsort
        lim = np.minimum(rng.random(vs.size) * theta, below)
        us, chi, _ = o.in_sorted_scans(vs[order], spread[order], lim)
        return us, np.maximum(chi, theta)  # chi, or theta below it

    return _leveled_backward(o, t, alpha, L, push)


def single_target_jump_mc(o, t, alpha, delta, eps, p_f, rng, c=DEFAULT_WALK_MULT):
    """Worst-case single-target solver: JUMP to cover sources, then
    plain Monte Carlo per discovered source, all sources walked in one
    lockstep (needs JUMP)."""
    check_nodes(o.node_count, t=t)
    check_params(alpha=alpha)
    n_w = mc_walk_count(delta, eps, p_f, c)
    return _push_walk_estimates(o, o.jump_cover(), alpha, rng, n_w,
                                {}, np.eye(1, o.node_count, t)[0])


def single_target_bidir_jump(o, t, alpha, delta, eps, p_f, rng,
                             r_max=None, c=DEFAULT_WALK_MULT):
    """Average-case single-target solver: one backward push at
    r_max = sqrt(d delta / n), then per-source walks scored by residue
    (needs JUMP)."""
    check_nodes(o.node_count, t=t)
    check_params(delta=delta, eps=eps, p_f=p_f, c=c)
    n = o.node_count
    if r_max is None:
        d = o.edge_count / n
        r_max = min(1.0, math.sqrt(d * delta / n))
    check_params(r_max=r_max)
    n_w = mc_walk_count(delta, eps, p_f, c * r_max)
    p, r = approx_contributions(o, t, alpha, r_max)
    return _push_walk_estimates(o, o.jump_cover(), alpha, rng, n_w, p, r)
