"""Deterministic generators for the lower-bound constructions.

Each family builds a layered graph with contiguous node-id blocks per
layer (roles recorded in the meta).  Regular bipartite layers use the
explicit circulant wiring N_in(B(i)) = {A(i), A(i+1 mod n), ...,
A(i+D-1 mod n)} for reproducibility.  Layers the figures leave without
out-edges get explicit self-loops (the walk must be defined
everywhere), which never creates new paths into the designated target.

The swap deletes designated edges e1=(u1,v1), e2=(u2,v2) and inserts
(u1,v2), (u2,v1) in place, preserving every in/out-degree and the
adjacency-list positions.  Closed-form pi values refer to the
designated source/target pair of the generated (possibly swapped)
instance.

Builders emit one C-contiguous int32 (m, 2) edge array, assembled in
numpy with no Python loop over edges.  Its row order is the insertion
order that fixes every out-list and in-list.  Role blocks, the target
group and the padding block are ranges, in the meta too.  Ids stay
int32 from here to the CSR arrays (read through build_graph's column
views), and generate rejects a node count past 2^31 before it builds.
generate peaks at 36.5 traced bytes per edge on st_avg_full: 8 for the
edges, 17.8 for the CSR arrays kept, the rest build temporaries.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict
from functools import partial
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .classic import check_counts, check_params
from .graph import MAX_IDS, PprqueryError, build_graph

class SpecConstraintViolation(PprqueryError):
    pass


class NoClosedForm(PprqueryError):
    pass


class RegimeUndefined(PprqueryError):
    pass


@dataclass
class InstanceSpec:
    family: str
    n: int = 0            # layer scale parameter (not the total node count)
    m: int = 0            # edge budget (0 = unconstrained)
    L: int = 1
    D: int = 1
    D2: int = 0           # lower-layer degree where it differs from D (0 = use D)
    alpha: float = 0.2
    swap: bool = False
    padding: bool = False
    variant: str = ""     # output_size_st: "worst" | "avg"
    flip_upper: bool = False  # ADJ-without-IN-SORTED variant: swap |U1| and |V1|

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


@dataclass
class InstanceMeta:
    family: str
    s: int | None
    t: int | None
    pi_pre_swap: float | None
    pi_post_swap: float | None
    pi_bounds: tuple | None       # (lo, hi) for Theta-band families
    roles: dict = field(default_factory=dict)   # name -> range or [id]
    target_group: range = range(0)
    swap_edges: tuple | None = None


def _require(cond, msg):
    if not cond:
        raise SpecConstraintViolation(msg)


def _blocks(start, *sizes):
    """Consecutive role blocks, ranges of the given sizes, from id start."""
    ends = list(accumulate(sizes, initial=start))
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _ids(ids):
    """ids as an array; a role block (a range) as np.arange."""
    return (np.arange(ids.start, ids.stop, ids.step)
            if isinstance(ids, range) else np.asarray(ids))


def _edges(u, v):
    """C-contiguous int32 (m, 2) rows (u, v) over the broadcast of u and
    v, row-major.  Ids past 2^31 - 1 would wrap here; generate rejects
    such a node count before it builds."""
    u, v = _ids(u), _ids(v)
    rows = np.empty(np.broadcast(u, v).shape + (2,), np.int32)
    rows[..., 0], rows[..., 1] = u, v
    return rows.reshape(-1, 2)


def _complete(U, V):
    """Every U node points at every V node, U-major."""
    return _edges(_ids(U)[:, None], V)


def _circulant(src_block, dst_block, degree):
    """Edges so that N_in(dst[i]) = {src[i], ..., src[i+degree-1 mod n]}."""
    n = len(dst_block)
    _require(len(src_block) == n, "circulant layers must have equal size")
    _require(1 <= degree <= n, f"circulant degree {degree} outside [1,{n}]")
    src = np.concatenate((_ids(src_block),) * 2)
    # row i views src[i:i + degree], read-only use of a strided window
    window = np.ndarray((n, degree), src.dtype, src, 0, src.strides * 2)
    return _edges(window, _ids(dst_block)[:, None])


def _complete_layer(U1, V1):
    """Every U1 node points at every V1 node; V1 nodes self-loop."""
    return np.concatenate((_complete(U1, V1), _edges(V1, V1)))


def _relay(V2, start, L):
    """The relay gadget: the i-th group of L nodes of V2 feeds relay
    X[i], which feeds the i-th group of L nodes of W2, and W2 nodes
    self-loop.  X and then W2 (as many nodes as V2) take ids from
    `start`.  Returns (edges, X, W2), the edges group by group (V2 into
    X[i], then X[i] out to W2); the designated target group is W2[:L]."""
    X, W2 = _blocks(start, math.ceil(len(V2) / L), len(V2))
    j = np.arange(len(V2))
    first = j // L * L  # index of the first node of j's group
    rows = np.empty((2 * len(V2), 2), np.int32)
    rows[first + j] = _edges(V2, start + j // L)
    rows[j + np.minimum(first + L, len(V2))] = _edges(start + j // L, W2)
    return np.concatenate((rows, _edges(W2, W2))), X, W2


def _lower_relay(base, n, degree, L):
    """The lower half the relay families share: U2, V2 and then the
    relay's X and W2 take ids from `base`, U2 -> V2 is a circulant of
    `degree`, and V2 feeds the relay in groups of L.  Returns (edges,
    U2, V2, X, W2), the circulant's edges and then the relay's."""
    U2, V2 = _blocks(base, n, n)
    relay, X, W2 = _relay(V2, V2.stop, L)
    return np.concatenate((_circulant(U2, V2, degree), relay)), U2, V2, X, W2


def _apply_swap(edges, e1, e2):
    """Replace the first rows equal to e1 -> (u1, v2) and e2 -> (u2, v1).
    Each lookup scans column 0 and tests column 1 on its hits only."""
    (u1, v1), (u2, v2) = e1, e2
    rows = [np.flatnonzero(edges[:, 0] == u) for u, _ in (e1, e2)]
    hits = [r[edges[r, 1] == v][:1] for r, (_, v) in zip(rows, (e1, e2))]
    if not all(h.size for h in hits):
        raise SpecConstraintViolation(f"swap edges {e1}, {e2} not in instance")
    edges[hits[0]] = (u1, v2)
    edges[hits[1]] = (u2, v1)
    return edges


def _pad(next_id, n_pad, m_pad):
    """Isolated block of m_pad edges on n_pad nodes from next_id,
    disconnected from the construction: self-loops, then rounds of
    i -> i + off mod n_pad with off cycling through 1..n_pad-1."""
    k = np.arange(m_pad)
    i, rnd = k % n_pad, k // n_pad
    off = np.where(rnd > 0, (rnd - 1) % max(1, n_pad - 1) + 1, 0)
    return next_id + _edges(i, (i + off) % n_pad)


def generate(spec):
    """Build the family's graph and meta; optionally swap and pad.  A bad
    family, alpha, integer field, flag or variant is named before any
    building, and a node count past 2^31, padding included, before
    build_graph."""
    if not isinstance(spec.family, str) or spec.family not in FAMILIES:
        raise SpecConstraintViolation(f"unknown family {spec.family!r}")
    _check(SpecConstraintViolation, check_params, alpha=spec.alpha)
    for name in ("n", "m", "L", "D", "D2"):
        val = getattr(spec, name)
        ok = isinstance(val, numbers.Integral) and not isinstance(val, bool)
        _require(ok, f"{name}={val!r} must be an integer")
    for name in ("swap", "padding", "flip_upper"):
        val = getattr(spec, name)
        _require(isinstance(val, bool), f"{name}={val!r} must be a bool")
    _require(spec.variant in ("", "worst", "avg"),
             f"variant={spec.variant!r} must be '', 'worst' or 'avg'")
    edges, node_count, meta = FAMILIES[spec.family].builder(spec)
    n_pad = max(1, spec.n) if spec.padding else 0
    _require(node_count + n_pad <= MAX_IDS, f"{node_count + n_pad} nodes: "
             f"int32 ids allow at most 2^31")
    if spec.swap and meta.swap_edges is not None:
        _apply_swap(edges, *meta.swap_edges)
    if spec.padding:
        edges = np.concatenate((edges, _pad(node_count, n_pad,
                                            max(spec.m, n_pad))))
        meta.roles["padding"] = range(node_count, node_count + n_pad)
        node_count += n_pad
    return build_graph(edges, node_count), meta


def closed_form_pi(spec):
    """Exact closed-form pi for the designated pair/target, matching the
    exact oracle within 1e-9 at desk scale; NoClosedForm for families
    where only a Theta band is stated."""
    _, meta = generate(spec)
    val = meta.pi_post_swap if spec.swap else meta.pi_pre_swap
    if val is None:
        raise NoClosedForm(f"{spec.family} has only a Theta band; "
                           f"use meta.pi_bounds")
    return val


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _build_folklore_pair(spec):
    """Source with K out-neighbors, target with K in-neighbors and a
    self-loop.  This family's perturbation is the folklore extra edge,
    not a degree-preserving swap: with spec.swap the first out-neighbor
    of s points at the first in-neighbor of t instead of at itself."""
    K = spec.L
    _require(K >= 1, "folklore_pair needs L = K >= 1")
    a = spec.alpha
    (s,), outs, ins, (t,) = _blocks(0, 1, K, K, 1)
    heads = [ins[0], *outs[1:]] if spec.swap else outs
    edges = np.concatenate((_edges(s, outs), _edges(outs, heads),
                            _edges(ins, t), _edges(t, t)))
    meta = InstanceMeta(
        family=spec.family, s=s, t=t,
        pi_pre_swap=0.0, pi_post_swap=(1 - a) ** 3 / K, pi_bounds=None,
        roles={"s": [s], "out_nbrs": outs, "in_nbrs": ins, "t": [t]},
        swap_edges=None)
    return edges, t + 1, meta


def _build_sp_worst(spec):
    L, D, a = spec.L, spec.D, spec.alpha
    _require(L >= 1 and D >= 1, "sp_worst needs L, D >= 1")
    if spec.m:
        _require(L * D <= spec.m, f"sp_worst needs L*D <= m, got {L * D} > {spec.m}")
    (s,), U1, V1, U2, V2, (t,) = _blocks(0, 1, L, D, L, D, 1)
    edges = np.concatenate((_edges(s, U1), _complete_layer(U1, V1),
                            _complete(U2, V2), _edges(V2, t), _edges(t, t)))
    meta = InstanceMeta(
        family=spec.family, s=s, t=t,
        pi_pre_swap=0.0, pi_post_swap=(1 - a) ** 3 / (L * D), pi_bounds=None,
        roles={"s": [s], "U1": U1, "V1": V1, "U2": U2, "V2": V2, "t": [t]},
        swap_edges=((U1[0], V1[0]), (U2[0], V2[0])))
    return edges, t + 1, meta


def _build_sp_avg(spec):
    n, L, D, a = spec.n, spec.L, spec.D, spec.alpha
    _require(n >= 1 and L >= 1 and D >= 1, "sp_avg needs n, L, D >= 1")
    _require(L <= n and D <= n, "sp_avg needs L, D <= n")
    u1_size, v1_size = (D, L) if spec.flip_upper else (L, D)
    (s,), U1, V1 = _blocks(0, 1, u1_size, v1_size)
    lower, U2, V2, X, W2 = _lower_relay(V1.stop, n, D, L)
    edges = np.concatenate((_edges(s, U1), _complete_layer(U1, V1), lower))
    group = W2[:L]  # designated target group (always full-size)
    pi_post = (1 - a) ** 4 / (u1_size * v1_size * len(group))
    meta = InstanceMeta(
        family=spec.family, s=s, t=group[0],
        pi_pre_swap=0.0, pi_post_swap=pi_post, pi_bounds=None,
        roles={"s": [s], "U1": U1, "V1": V1, "U2": U2, "V2": V2,
               "X": X, "W2": W2},
        target_group=group, swap_edges=((U1[0], V1[0]), (U2[0], V2[0])))
    return edges, W2[-1] + 1, meta


def _build_st_worst_adj(spec):
    n, a = spec.n, spec.alpha
    d = spec.D2 or spec.D
    _require(n >= 1 and d >= 1, "st_worst_adj needs n, d >= 1")
    _require(d <= n, "st_worst_adj needs d <= n")
    (u,), U2, V2, (t,) = _blocks(0, 1, n, n, 1)
    edges = np.concatenate((_edges(u, u), _circulant(U2, V2, d),
                            _edges(V2, t), _edges(t, t)))
    meta = InstanceMeta(
        family=spec.family, s=u, t=t,
        pi_pre_swap=0.0, pi_post_swap=(1 - a) ** 2, pi_bounds=None,
        roles={"u": [u], "U2": U2, "V2": V2, "t": [t]},
        swap_edges=((u, u), (U2[0], V2[0])))
    return edges, t + 1, meta


def _build_st_worst_full(spec):
    n, D, a = spec.n, spec.D, spec.alpha
    _require(n >= 1 and 1 <= D <= n, "st_worst_full needs 1 <= D <= n")
    U1, V1, U2, V2, (t,) = _blocks(0, n, n, n, n, 1)
    edges = np.concatenate((_circulant(U1, V1, D), _edges(V1, V1),
                            _circulant(U2, V2, D), _edges(V2, t),
                            _edges(t, t)))
    meta = InstanceMeta(
        family=spec.family, s=U1[0], t=t,
        pi_pre_swap=0.0, pi_post_swap=(1 - a) ** 2 / D, pi_bounds=None,
        roles={"U1": U1, "V1": V1, "U2": U2, "V2": V2, "t": [t]},
        swap_edges=((U1[0], V1[0]), (U2[0], V2[0])))
    return edges, t + 1, meta


def _build_st_avg_adj(spec):
    n, L, a = spec.n, spec.L, spec.alpha
    d = spec.D2 or spec.D
    _require(n >= 1 and 1 <= L <= n, "st_avg_adj needs 1 <= L <= n")
    _require(1 <= d <= n, "st_avg_adj needs 1 <= d <= n")
    u = 0
    lower, U2, V2, X, W2 = _lower_relay(1, n, d, L)
    edges = np.concatenate((_edges(u, u), lower))
    group = W2[:L]
    meta = InstanceMeta(
        family=spec.family, s=u, t=group[0],
        pi_pre_swap=0.0, pi_post_swap=(1 - a) ** 3 / len(group),
        pi_bounds=None,
        roles={"u": [u], "U2": U2, "V2": V2, "X": X, "W2": W2},
        target_group=group, swap_edges=((u, u), (U2[0], V2[0])))
    return edges, W2[-1] + 1, meta


def _build_st_avg_jump(spec, lower_equals_upper=False):
    n, L, D, d2, a = spec.n, spec.L, spec.D, spec.D2 or spec.D, spec.alpha
    _require(d2 == D or not lower_equals_upper, f"D2={spec.D2} must be 0 or D={D}")
    _require(n >= 1 and 1 <= L <= n, "needs 1 <= L <= n")
    _require(1 <= D <= n and 1 <= d2 <= n, "needs 1 <= D, d2 <= n")
    U1, V1 = _blocks(0, n, n)
    lower, U2, V2, X, W2 = _lower_relay(V1.stop, n, d2, L)
    edges = np.concatenate((_circulant(U1, V1, D), _edges(V1, V1), lower))
    group = W2[:L]
    meta = InstanceMeta(
        family=spec.family, s=U1[0], t=group[0],
        pi_pre_swap=0.0,
        pi_post_swap=(1 - a) ** 3 / (len(group) * D), pi_bounds=None,
        roles={"U1": U1, "V1": V1, "U2": U2, "V2": V2, "X": X, "W2": W2},
        target_group=group, swap_edges=((U1[0], V1[0]), (U2[0], V2[0])))
    return edges, W2[-1] + 1, meta


def _build_sn_avg_adj(spec):
    n, a = spec.n, spec.alpha
    d = spec.D2 or spec.D
    _require(n >= 1 and 1 <= d <= n, "sn_avg_adj needs 1 <= d <= n")
    U1, (u,) = _blocks(0, n, 1)
    lower, U2, V2, (x,), W2 = _lower_relay(u + 1, n, d, n)
    edges = np.concatenate((_edges(U1, u), _edges(u, u), lower))
    total = 4 * n + 2
    # pi(t) for t in W2: t itself, x, all of V2, all of U2 reach it
    base = (1 + (1 - a) / n + (1 - a) ** 2 + (1 - a) ** 3) / total
    meta = InstanceMeta(
        family=spec.family, s=None, t=W2[0],
        pi_pre_swap=None, pi_post_swap=None, pi_bounds=(0.9 * base, 1.1 * base),
        roles={"U1": U1, "u": [u], "U2": U2, "V2": V2, "x": [x], "W2": W2},
        swap_edges=((u, u), (U2[0], V2[0])))
    return edges, total, meta


def _build_sn_avg_insorted(spec):
    n, a = spec.n, spec.alpha
    _require(n >= 1, "sn_avg_insorted needs n >= 1")
    U1, (u,), V2 = _blocks(0, n, 1, n)
    relay, (x,), W2 = _relay(V2, V2.stop, n)
    edges = np.concatenate((_edges(U1, u), _edges(u, u), relay))
    total = 3 * n + 2
    base = (1 + (1 - a) / n + (1 - a) ** 2) / total
    meta = InstanceMeta(
        family=spec.family, s=None, t=W2[0],
        pi_pre_swap=None, pi_post_swap=None, pi_bounds=(0.9 * base, 1.1 * base),
        roles={"U1": U1, "u": [u], "V2": V2, "x": [x], "W2": W2},
        swap_edges=((u, u), (V2[0], x)))
    return edges, total, meta


def _build_sn_worst_full(spec):
    n, m, L, a = spec.n, spec.m, spec.L, spec.alpha
    _require(n >= 1 and m >= 1, "sn_worst_full needs n, m >= 1")
    sm = max(1, math.isqrt(m))
    _require(1 <= L <= sm, f"sn_worst_full needs 1 <= L <= sqrt(m)={sm}")
    X, (x,), U1, V1, U2, T, V2, (t,) = _blocks(0, n, 1, L, sm, sm, sm - L, L, 1)
    total = t + 1
    edges = np.concatenate((_edges(X, x), _edges(x, U1),
                            _complete_layer(U1, V1), _complete(U2, V2),
                            _complete(U2, T), _edges(T, T), _edges(V2, t),
                            _edges(t, t)))
    base = (1 + L * (1 - a) + L * (1 - a) ** 2) / total
    meta = InstanceMeta(
        family=spec.family, s=None, t=t,
        pi_pre_swap=None, pi_post_swap=None, pi_bounds=(0.9 * base, 1.1 * base),
        roles={"X": X, "x": [x], "U1": U1, "V1": V1, "U2": U2, "T": T,
               "V2": V2, "t": [t]},
        swap_edges=((U1[0], V1[0]), (U2[0], V2[0])))
    return edges, total, meta


def _build_sn_avg_xor(spec, lower_equals_upper=False):
    n, L, a = spec.n, spec.L, spec.alpha
    D, d2 = spec.D, spec.D2 or spec.D
    _require(d2 == D or not lower_equals_upper, f"D2={spec.D2} must be 0 or D={D}")
    _require(n >= 1 and 1 <= L <= n, "needs 1 <= L <= n")
    _require(1 <= D <= n and 1 <= d2 <= n, "needs 1 <= D, d2 <= n")
    u1_size, v1_size = (D, L) if spec.flip_upper else (L, D)
    W1, (u,), U1, V1 = _blocks(0, n, 1, u1_size, v1_size)
    lower, U2, V2, X, W2 = _lower_relay(V1.stop, n, d2, L)
    edges = np.concatenate((_edges(W1, u), _edges(u, U1),
                            _complete_layer(U1, V1), lower))
    total = W2[-1] + 1
    base = (1 + (1 - a) + (1 - a) ** 2 + 2 * (1 - a) / L) / total
    group = W2[:L]
    meta = InstanceMeta(
        family=spec.family, s=None, t=group[0],
        pi_pre_swap=None, pi_post_swap=None, pi_bounds=(0.5 * base, 2.0 * base),
        roles={"W1": W1, "u": [u], "U1": U1, "V1": V1, "U2": U2, "V2": V2,
               "X": X, "W2": W2},
        target_group=group, swap_edges=((U1[0], V1[0]), (U2[0], V2[0])))
    return edges, total, meta


def _build_output_size_st(spec):
    n, a = spec.n, spec.alpha
    _require(n >= 1, "output_size_st needs n >= 1")
    if spec.variant == "avg":
        K = spec.L
        _require(K >= 1, "output_size_st avg needs L = K >= 1")
        U, (g,), V = _blocks(0, n, 1, K)
        total = V.stop
        edges = np.concatenate((_edges(U, g), _edges(g, V), _edges(V, V)))
        meta = InstanceMeta(
            family=spec.family, s=U[0], t=V[0],
            pi_pre_swap=(1 - a) ** 2 / K, pi_post_swap=(1 - a) ** 2 / K,
            pi_bounds=None,
            roles={"U": U, "g": [g], "V": V})
        return edges, total, meta
    # worst-case variant: t with n in-neighbors and a self-loop
    U, (t,) = _blocks(0, n, 1)
    edges = np.concatenate((_edges(U, t), _edges(t, t)))
    meta = InstanceMeta(
        family=spec.family, s=U[0], t=t,
        pi_pre_swap=1 - a, pi_post_swap=1 - a, pi_bounds=None,
        roles={"U": U, "t": [t]})
    return edges, n + 1, meta


# ---------------------------------------------------------------------------
# the family table: each family's builder and its per-regime L/D preset
# ---------------------------------------------------------------------------


def _clamp(x, lo, hi):
    return max(lo, min(hi, int(round(x))))


def _guarded_c(family, k, delta, alpha):
    """c = (1-alpha)^k, for the families whose bounds assume delta <= c."""
    c = (1 - alpha) ** k
    if delta > c:
        raise RegimeUndefined(f"{family} assumes delta <= (1-alpha)^{k}={c}")
    return c


def _preset_sp_worst(n, m, d, delta, alpha):
    val = math.sqrt((1 - alpha) ** 3 * min(m, 1.0 / delta))
    if val < 1:
        raise RegimeUndefined("min{m,1/delta} too small for sp_worst")
    side = _clamp(val, 1, math.isqrt(m))
    return {"L": side, "D": side}


def _preset_sp_avg(n, m, d, delta, alpha):
    # regimes of the IN-SORTED+ADJ bound min{m, (d/delta)^0.5, delta^-2/3}
    c = (1 - alpha) ** 4
    if delta <= 1.0 / (n * m):
        return {"L": _clamp(c * n, 1, n), "D": _clamp(d, 1, n)}
    if delta <= c / d ** 3:
        return {"L": _clamp(math.sqrt(c / (d * delta)), 1, n), "D": _clamp(d, 1, n)}
    side = _clamp((c / delta) ** (1.0 / 3.0), 1, n)
    return {"L": side, "D": side}


def _preset_st_worst_full(n, m, d, delta, alpha):
    c = _guarded_c("st_worst_full", 2, delta, alpha)
    return {"D": _clamp(d if delta <= c / d else c / delta, 1, n)}


def _preset_st_avg_adj(n, m, d, delta, alpha):
    c = _guarded_c("st_avg_adj", 3, delta, alpha)
    return {"L": _clamp(c * n if delta <= 1.0 / n else c / delta, 1, n),
            "D2": _clamp(d, 1, n)}


def _preset_st_avg_jump(n, m, d, delta, alpha):
    c = _guarded_c("st_avg_jump", 3, delta, alpha)
    if delta <= 1.0 / m:
        L, D = _clamp(c * n, 1, n), _clamp(d, 1, n)
    elif delta <= d * c / n:
        L = _clamp(math.sqrt(n * c / (d * delta)), 1, n)
        D = _clamp(math.sqrt(d * c / (n * delta)), 1, n)
    else:
        L, D = _clamp(c / delta, 1, n), 1
    return {"L": L, "D": D, "D2": _clamp(d, 1, n)}


def _preset_st_avg_full(n, m, d, delta, alpha):
    c = _guarded_c("st_avg_full", 3, delta, alpha)
    if delta <= 1.0 / m:
        return {"L": _clamp(c * n, 1, n), "D": _clamp(d, 1, n)}
    if delta <= c / d:
        return {"L": _clamp(c / (d * delta), 1, n), "D": _clamp(d, 1, n)}
    return {"L": 1, "D": _clamp(c / delta, 1, n)}


class Family(NamedTuple):
    builder: Callable   # spec -> (edges, node_count, meta)
    preset: Callable    # (n, m, d = m/n, delta, alpha) -> {spec field: value}


FAMILIES = {
    "folklore_pair": Family(_build_folklore_pair, lambda n, m, d, delta, alpha: {
        "L": _clamp(min(n, 1.0 / delta), 1, n)}),
    "sp_worst": Family(_build_sp_worst, _preset_sp_worst),
    "sp_avg": Family(_build_sp_avg, _preset_sp_avg),
    "st_worst_adj": Family(_build_st_worst_adj, lambda n, m, d, delta, alpha: {
        "D": _clamp(d, 1, n)}),
    "st_worst_full": Family(_build_st_worst_full, _preset_st_worst_full),
    "st_avg_adj": Family(_build_st_avg_adj, _preset_st_avg_adj),
    "st_avg_jump": Family(_build_st_avg_jump, _preset_st_avg_jump),
    "st_avg_full": Family(partial(_build_st_avg_jump, lower_equals_upper=True),
                          _preset_st_avg_full),
    "sn_avg_adj": Family(_build_sn_avg_adj, lambda n, m, d, delta, alpha: {
        "D2": _clamp(d, 1, n)}),
    "sn_avg_insorted": Family(_build_sn_avg_insorted,
                              lambda n, m, d, delta, alpha: {}),
    "sn_worst_full": Family(_build_sn_worst_full, lambda n, m, d, delta, alpha: {
        "L": _clamp(math.sqrt(n) / m ** 0.25, 1, max(1, math.isqrt(m))),
        "swap": False}),
    "sn_avg_xor": Family(_build_sn_avg_xor, lambda n, m, d, delta, alpha: {
        "L": _clamp(math.sqrt(n / d), 1, n), "D": _clamp(d, 1, n),
        "D2": _clamp(d, 1, n)}),
    "sn_avg_full": Family(partial(_build_sn_avg_xor, lower_equals_upper=True),
                          lambda n, m, d, delta, alpha: {
        "L": _clamp(n ** (1.0 / 3.0), 1, n),
        "D": _clamp(math.sqrt(m) / n ** (1.0 / 3.0), 1, n)}),
    "output_size_st": Family(_build_output_size_st, lambda n, m, d, delta, alpha: {
        "L": _clamp(min(n, 1.0 / delta), 1, n), "variant": "avg",
        "swap": False}),
}


def _check(error, check, **named):
    """Run a classic range check, re-raising its ValueError as `error`."""
    try:
        check(**named)
    except ValueError as e:
        raise error(str(e)) from None


def parameter_presets(family, n, m, delta, alpha):
    """InstanceSpec with L, D set per the family's regime for (n, m,
    delta), including the stated (1-alpha)^k factors.  Raises
    SpecConstraintViolation for n, m or alpha out of range, and
    RegimeUndefined for a delta outside (0,1] or the family's regimes
    and for a family not in FAMILIES."""
    _check(SpecConstraintViolation, check_counts, n=n, m=m)
    _check(SpecConstraintViolation, check_params, alpha=alpha)
    _require(n <= m <= n * n, f"need n <= m <= n^2, got n={n}, m={m}")
    _check(RegimeUndefined, check_params, delta=delta)
    if not isinstance(family, str) or family not in FAMILIES:
        raise RegimeUndefined(f"no preset for family {family!r}")
    fields = FAMILIES[family].preset(n, m, m / n, delta, alpha)
    return InstanceSpec(family, n, m, alpha=alpha, **{"swap": True, **fields})
