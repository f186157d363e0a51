"""Metered, capability-gated graph oracle.

Estimators never touch a DirectedGraph directly: every access goes
through an OracleHandle, which increments exactly one query counter per
access.  DEG-IN / DEG-OUT / IN / OUT are always available; JUMP,
IN-SORTED and ADJ are optional capabilities fixed at handle creation.
Running time claims are measured in query count, not wall clock.

Scalar queries read the graph's int32 CSR arrays through memoryviews,
which return Python ints; ADJ bisects the id-sorted out-range.  Only
scalar queries take an index.  The batch methods `deg_out_many`,
`out_lists` (whole OUT lists), `adj_many` and `jump_cover` (a whole
JUMP cover) work in numpy and charge exactly one query per element,
list entry or JUMP: batching changes the wall time, never the query
count.  `adj_many` finds every pair's key u * n + v by one search of
the ascending keys of out_sorted (_adj_keys).  It and `walk_step_many`
also take a multiplicity `times`: element j then stands for times[j]
equal queries (or steps), answered once and charged times[j] times, so
a caller that asks a repeated query once still pays for every repeat.
`out_step_many(vs, u)`, OUT at floor(u * d_out(v)) for uniforms u,
charges one OUT each; `walk_step_many`, a DEG-OUT batch and then that
batch, flags the steps that settle (d_out(v) = 1 and OUT(v, 0) = v) and
repeats a step only where no uniform can change it: d_out = 1, not s'.
The scan batches `in_scans` (whole IN lists) and `in_sorted_scans`
(IN-SORTED prefixes) charge DEG-IN per list and IN or IN-SORTED plus
DEG-OUT per entry read, as a loop of scalar queries would.  List j
comes with a spread, and entry u has the push increment chi =
spread[j] / d_out(u), returned with its intp id.  With spread >= 0,
chi never rises along an IN-SORTED list, so its entries with chi <=
lim[j] are a suffix: `in_sorted_scans` reads up to the first of them
and returns only the entries before it.  Scans and walk steps keep one
operand rule: int32 storage (the CSR), intp gather indices and float64
divisors (_out_degf, _out_ptr).  Those tables and the ADJ keys are
read-only, built by the first batch that reads them and kept with the
graph (graph.derived).  A malformed batch charges and draws nothing:
each raises ValueError, naming itself, for an element argument that is
neither one value nor one per node.  `_nodes` checks the ids given to
`deg_out_many`, `out_lists` and `adj_many`, and check_nodes those of
`adj`: NodeIdOutOfRange for a float, bool or out-of-range id.  Other
scalar queries raise NodeIdOutOfRange for an id outside [0,
node_count), a view's s' included, and IndexOutOfRange for an index
outside the list, both uncharged.  Walk-step and scan batches, whose
ids are earlier answers, check lengths only.

A super-source view (single_node.SuperSourceView) sets `virtual` to
s', a node with an out-edge to every other one (None on a plain
handle), and charges by one rule in scalar calls, batches and walk
steps alike: queries about s' are free (its degrees, IN and IN-SORTED
entries equal to s', ADJ pairs with s'), and each OUT(s', .) query is
one JUMP over the other nodes, drawn in element order.

A handle is single-owner (mutable counters + PRNG); concurrent trials
each create their own handle over the shared immutable graph.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph import (NodeIdOutOfRange, PprqueryError, check_nodes, csr_entries,
                    derived, readonly)

_COVER_EXTRA = 8.0  # jump_cover misses a node with probability <= e^-8

QUERY_KINDS = ("deg_in", "deg_out", "in", "out", "in_sorted", "adj", "jump")


class CapabilityDisabled(RuntimeError):
    pass


class IndexOutOfRange(PprqueryError):
    pass


class QueryStats:
    """Per-kind query counters, one slot per QUERY_KINDS entry in its
    order (in_q and out_q hold in and out, since in is a keyword);
    monotonically non-decreasing."""

    __slots__ = tuple({"in": "in_q", "out": "out_q"}.get(k, k) for k in QUERY_KINDS)

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def total(self):
        return sum(getattr(self, name) for name in self.__slots__)

    def as_dict(self):
        counts = {k: getattr(self, name)
                  for k, name in zip(QUERY_KINDS, self.__slots__)}
        return {**counts, "total": sum(counts.values())}

    def __repr__(self):
        return f"QueryStats({self.as_dict()})"


@dataclass(frozen=True, slots=True, repr=False)
class Capabilities:
    """Optional query capabilities, one field each; immutable."""

    jump: bool = False
    in_sorted: bool = False
    adj: bool = False

    @classmethod
    def all(cls):
        return cls(**dict.fromkeys(cls.__slots__, True))

    @classmethod
    def from_names(cls, names):
        names = set(names)
        unknown = names - set(cls.__slots__)
        if unknown:
            raise ValueError(f"unknown capabilities: {sorted(unknown)}")
        return cls(**{c: c in names for c in cls.__slots__})

    def names(self):
        return [c for c in self.__slots__ if getattr(self, c)]

    def __repr__(self):
        return f"Capabilities({'+'.join(self.names()) or 'base'})"


def _out_degf(g):
    """g's out-degrees as float64: scan and walk-step divisors."""
    return readonly(g.out_deg.astype(np.float64))


def _out_ptr(g):
    """g's out-list offsets as intp: walk-step gather indices."""
    return readonly(g.out_ptr.astype(np.intp))


def _adj_keys(g):
    """u * n + v for each entry v of out_sorted in u's list, as int64
    (n <= 2^31): ascending, as the lists run by u and each is id-sorted."""
    src, _ = g.edge_arrays()
    return readonly(src * g.node_count + g.out_sorted)


def _multiplicity(method, times, size):
    """A batch's optional `times` as an int64 array: element j stands for
    times[j] equal queries, and is charged that many times unless the
    super-source rule makes it free.  ValueError naming `method`, before
    any charge, unless it holds `size` integers >= 1."""
    if times is None:
        return None
    times = np.asarray(times)
    if (times.shape != (size,) or times.dtype.kind not in "iu"
            or (size and times.min() < 1)):
        raise ValueError(f"{method}: times must hold {size} integers >= 1")
    return times.astype(np.int64, copy=False)


def _per_node(method, name, x, size, dtype):
    """Element argument `name` of a batch of `size` nodes as a `dtype`
    array of one value per node, a scalar repeated; ValueError naming
    `method`, before any charge, for any other shape.  O(1) on arrays."""
    x = np.asarray(x, dtype=dtype)
    if x.shape != (size,):
        if x.ndim:
            raise ValueError(f"{method}: {name} has shape {x.shape}, "
                             f"not () or ({size},)")
        x = np.full(size, x)
    return x


class OracleHandle:
    """Query-metered view of a DirectedGraph (the adjacency-list model).

    The graph size (n, m) is construction knowledge available to
    algorithms for free, matching how the algorithms are parameterized.
    JUMP draws from a dedicated seeded PRNG so runs are replayable.
    """

    __slots__ = ("graph", "caps", "stats", "virtual", "_rng", "_n", "_dout",
                 "_din", "_optr", "_iptr", "_out", "_in", "_ins", "_adj")

    def __init__(self, graph, caps=None, rng=None, seed=0):
        self.graph = graph
        self.caps = caps if caps is not None else Capabilities()
        self.stats = QueryStats()
        self.virtual = None  # s' on a super-source view
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._n = graph.node_count
        # local memoryviews keep the per-query overhead low
        self._dout = graph.out_degrees
        self._din = graph.in_degrees
        self._optr = memoryview(graph.out_ptr)
        self._iptr = memoryview(graph.in_ptr)
        self._out = memoryview(graph.out_nbrs)
        self._in = memoryview(graph.in_nbrs)
        self._ins = memoryview(graph.in_sorted)
        self._adj = memoryview(graph.out_sorted)

    @property
    def node_count(self):
        return self._n

    @property
    def edge_count(self):
        return self.graph.edge_count

    def _paid(self, us, vs=None, times=None):
        """The super-source rule: how many of the queries about the ids in
        the int array `us` (and `vs`, for ADJ pairs) are charged, all but
        those with an argument equal to s'.  Element j stands for times[j]
        equal queries (see _multiplicity), one each without `times`.
        Scalar queries test this inline after `virtual is None`; a call
        costs more than a query."""
        s = self.virtual
        if s is None:
            return us.size if times is None else int(times.sum())
        paid = us != s if vs is None else (us != s) & (vs != s)
        return int(times[paid].sum() if times is not None else
                   np.count_nonzero(paid))

    def _nodes(self, method, vs):
        """vs as an int64 array of node ids; NodeIdOutOfRange naming
        `method`, before any charge, for a non-empty array not of an
        integer type (bool included) or an id outside [0, node_count)."""
        vs = np.asarray(vs)
        if vs.size and vs.dtype.kind not in "iu":
            raise NodeIdOutOfRange(f"{method}: {vs.dtype} is not an integer type")
        vs = vs.astype(np.int64, copy=False)
        if vs.size and vs.view(np.uint64).max() >= self._n:  # < 0 reads huge
            bad = vs[(vs < 0) | (vs >= self._n)].flat[0]
            raise NodeIdOutOfRange(f"{method}: node {bad} outside [0, {self._n})")
        return vs

    def _draw(self, high, size=None):
        """JUMP draws uniform over [0, high), one JUMP charged each: one,
        or an array of `size`.  jump() draws over every node, a view's
        OUT(s', .) over [0, s')."""
        if not self.caps.jump:
            raise CapabilityDisabled("JUMP is not enabled")
        size = None if size is None else int(size)  # counters stay Python ints
        self.stats.jump += 1 if size is None else size
        return self._rng.integers(high, size=size)

    # -- always-available queries -------------------------------------

    def deg_out(self, v):
        if not 0 <= v < self._n:
            raise NodeIdOutOfRange(f"DEG-OUT({v}) outside [0, {self._n})")
        d = self._dout[v]  # read first: a float id raises uncharged
        if self.virtual is None or v != self.virtual:
            self.stats.deg_out += 1
        return d

    def deg_in(self, v):
        if not 0 <= v < self._n:
            raise NodeIdOutOfRange(f"DEG-IN({v}) outside [0, {self._n})")
        d = self._din[v]  # read first: a float id raises uncharged
        if self.virtual is None or v != self.virtual:
            self.stats.deg_in += 1
        return d

    def out_nbr(self, v, i):
        if not 0 <= v < self._n:
            raise NodeIdOutOfRange(f"OUT({v},{i}) outside [0, {self._n})")
        d = self._dout[v]
        if i >= d or i < 0:
            raise IndexOutOfRange(f"OUT({v},{i}) with d_out={d}")
        if self.virtual is None or v != self.virtual:
            self.stats.out_q += 1
            return self._out[self._optr[v] + i]
        return int(self._draw(v))

    def in_nbr(self, v, i):
        if not 0 <= v < self._n:
            raise NodeIdOutOfRange(f"IN({v},{i}) outside [0, {self._n})")
        d = self._din[v]
        if i >= d or i < 0:
            raise IndexOutOfRange(f"IN({v},{i}) with d_in={d}")
        u = self._in[self._iptr[v] + i]
        if self.virtual is None or u != self.virtual:
            self.stats.in_q += 1
        return u

    # -- capability-gated queries --------------------------------------

    def in_sorted(self, v, i):
        if not self.caps.in_sorted:
            raise CapabilityDisabled("IN-SORTED is not enabled")
        if not 0 <= v < self._n:
            raise NodeIdOutOfRange(f"IN-SORTED({v},{i}) outside [0, {self._n})")
        d = self._din[v]
        if i >= d or i < 0:
            raise IndexOutOfRange(f"IN-SORTED({v},{i}) with d_in={d}")
        u = self._ins[self._iptr[v] + i]
        if self.virtual is None or u != self.virtual:
            self.stats.in_sorted += 1
        return u

    def adj(self, u, v):
        if not self.caps.adj:
            raise CapabilityDisabled("ADJ is not enabled")
        check_nodes(self._n, ADJ_u=u, ADJ_v=v)  # a float or bool id too
        if self.virtual is None or self.virtual not in (u, v):
            self.stats.adj += 1
        hi = self._optr[u + 1]
        k = bisect_left(self._adj, v, self._optr[u], hi)
        return k < hi and self._adj[k] == v

    def jump(self):
        return int(self._draw(self._n))

    # -- batch queries: one query charged per element -------------------

    def deg_out_many(self, vs):
        """DEG-OUT of every node of the int array `vs`."""
        vs = self._nodes("deg_out_many", vs)
        self.stats.deg_out += self._paid(vs)
        return self.graph.out_deg[vs]

    def out_lists(self, vs):
        """Each node v = vs[j]'s whole OUT list, list after list, and the
        list lengths: d_out(v) OUT queries.  OUT(s', .) answers are JUMP
        draws in element order: CapabilityDisabled for an s' list without
        JUMP, before any charge or draw."""
        vs = self._nodes("out_lists", vs)
        virt = vs == self.virtual  # all False on a plain handle
        if virt.any() and not self.caps.jump:
            raise CapabilityDisabled("JUMP is not enabled")
        idx, lens = csr_entries(self.graph.out_ptr, vs)
        self.stats.out_q += self._paid(vs, times=lens)
        out = self.graph.out_nbrs[idx]
        if virt.any():
            out[virt.repeat(lens)] = self._draw(self.virtual, lens[virt].sum())
        return out, lens

    def out_step_many(self, vs, u):
        """OUT(v, floor(u[j] * d_out(v))) with v = vs[j], charging one OUT
        per element, for uniforms u[j] in [0, 1).  No bounds check: u <=
        1 - 2^-53, so u * d rounds below d for every d < 2^53."""
        vs = np.asarray(vs, dtype=np.int64)
        u = _per_node("out_step_many", "u", u, vs.size, np.float64)
        g = self.graph
        deg, ptr = derived(g, _out_degf), derived(g, _out_ptr)
        paid = self._paid(vs)
        if paid < vs.size and not self.caps.jump:  # s' draws: before any charge
            raise CapabilityDisabled("JUMP is not enabled")
        self.stats.out_q += paid
        x = deg[vs]
        x *= u
        idx = x.view(np.intp)
        np.copyto(idx, x, casting="unsafe")  # floor, in x's own memory
        idx += ptr[vs]
        out = g.out_nbrs[idx]
        if paid < vs.size:
            out[vs == self.virtual] = self._draw(self.virtual, vs.size - paid)
        return out

    def walk_step_many(self, vs, u, times=None):
        """One walk step from every node of `vs`: DEG-OUT, then OUT at u,
        charged times[j] times for element j if given (see _multiplicity);
        times[j] > 1 at s' or where d_out != 1 is a ValueError, raised
        before any charge.  Returns the answers and, per element, whether
        the step settled: d_out(v) = 1 and OUT(v, 0) = v."""
        vs = np.asarray(vs, dtype=np.int64)
        u = _per_node("walk_step_many", "u", u, vs.size, np.float64)
        times = _multiplicity("walk_step_many", times, vs.size)
        deg = derived(self.graph, _out_degf)
        # vs == None is all False on a plain handle
        if times is not None and np.any((times > 1) & ((deg[vs] != 1.0) | (vs == self.virtual))):
            raise ValueError("times > 1 needs a real node with d_out = 1")
        out_q = self.stats.out_q
        out = self.out_step_many(vs, u)
        if times is not None:  # each repeat is of a paid query
            self.stats.out_q += int(times.sum()) - vs.size
        self.stats.deg_out += self.stats.out_q - out_q  # paid where OUT is
        settled = out == vs
        if settled.any():  # degrees read only where some walk stayed put
            settled &= deg[vs] == 1.0
        return out, settled

    def adj_many(self, us, vs, times=None):
        """ADJ(us[j], vs[j]) for every j, as a bool array, charged
        times[j] times each if given (see _multiplicity): the key
        us[j] * n + vs[j] searched among the graph's _adj_keys."""
        if not self.caps.adj:
            raise CapabilityDisabled("ADJ is not enabled")
        us = self._nodes("adj_many", us)
        vs = _per_node("adj_many", "vs", self._nodes("adj_many", vs), us.size,
                       np.int64)
        times = _multiplicity("adj_many", times, us.size)
        self.stats.adj += self._paid(us, vs, times)
        if not us.size:
            return np.zeros(0, dtype=bool)
        keys = derived(self.graph, _adj_keys)
        q = us * self._n + vs
        i = np.searchsorted(keys, q).clip(max=keys.size - 1)  # q above every key
        return keys[i] == q

    def _scan(self, method, lists, vs, spread, lim=None):
        """Read the in-lists of `vs` in the CSR array `lists`, all of each
        without `lim`, charging DEG-IN per list and DEG-OUT per entry
        read.  Returns the IN or IN-SORTED count to charge and the scan
        batch's return value (see in_scans and in_sorted_scans)."""
        g = self.graph
        vs = np.asarray(vs, dtype=np.intp)
        spread = _per_node(method, "spread", spread, vs.size, np.float64)
        if lim is not None:
            lim = _per_node(method, "lim", lim, vs.size, np.float64)
        idx, lens = csr_entries(g.in_ptr, vs)
        nbrs = lists[idx].astype(np.intp)
        chi = spread.repeat(lens) / derived(g, _out_degf)[nbrs]
        if lim is None:
            paid, read = self._paid(nbrs), (nbrs, chi)
        else:
            # stop[1:] flags chi <= lim; a list halted iff its last entry
            # stops (an empty list reads the pad or the list before it)
            stop = np.zeros(chi.size + 1, dtype=bool)
            np.less_equal(chi, lim.repeat(lens), out=stop[1:])
            ends = lens.cumsum()
            halted = stop[ends] & lens.astype(bool)
            keep = ~stop[1:]
            read = nbrs[keep], chi[keep], halted
            paid = read[0].size + int(np.count_nonzero(halted))
            if self.virtual is not None:  # s' read, kept or stopping, is free
                kept = np.append(0, keep.cumsum())
                stops = (ends - lens + kept[ends] - kept[ends - lens])[halted]
                paid = self._paid(read[0]) + self._paid(nbrs[stops])
        self.stats.deg_in += self._paid(vs)
        self.stats.deg_out += paid
        return paid, read

    def in_scans(self, vs, spread):
        """Read the whole IN list of each node v = vs[j]: DEG-IN(v), then
        IN(v, i) and DEG-OUT of its answer u for every i, charging exactly
        those queries.  Returns (nbrs, chi), list after list: the intp
        ids u and their increments spread[j] / d_out(u)."""
        paid, read = self._scan("in_scans", self.graph.in_nbrs, vs, spread)
        self.stats.in_q += paid
        return read

    def in_sorted_scans(self, vs, spread, lim):
        """Scan the IN-SORTED list of each node v = vs[j]: DEG-IN(v), then
        IN-SORTED(v, i) and DEG-OUT of its answer u for i = 0, 1, ... up
        to and including the first u whose increment chi = spread[j] /
        d_out(u) is <= lim[j] (the whole list if none), charging exactly
        those queries.  Returns (nbrs, chi, halted): the intp ids and
        increments of the entries read with chi > lim[j], scan after
        scan, and per list whether it read that stop entry."""
        if not self.caps.in_sorted:
            raise CapabilityDisabled("IN-SORTED is not enabled")
        paid, read = self._scan("in_sorted_scans", self.graph.in_sorted, vs,
                                spread, lim)
        self.stats.in_sorted += paid
        return read

    def jump_cover(self):
        """JUMP until all n nodes are seen or n (ln n + _COVER_EXTRA) are
        drawn; returns the nodes seen, ascending, as Python ints.  One draw
        of the whole budget finds the cut where the cover completes; the
        generator is rewound and exactly that many JUMPs drawn, so answer,
        charge and end state are those of one jump() at a time, as
        integers(n, size=k) gives the first k values of a longer call and
        bit_generator.state carries PCG64's buffered 32-bit half.  Peak
        memory: 8 B per budgeted JUMP plus np.unique's sort (16 MB at 10^5)."""
        if not self.caps.jump:
            raise CapabilityDisabled("JUMP is not enabled")
        n = self._n
        budget = max(n, math.ceil(n * (math.log(n) + _COVER_EXTRA)))
        state = self._rng.bit_generator.state
        seen, first = np.unique(self._rng.integers(n, size=budget),
                                return_index=True)
        self._rng.bit_generator.state = state
        self._draw(n, first.max() + 1 if seen.size == n else budget)
        return seen.tolist()
