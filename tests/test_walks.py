"""The batch engines (lockstep walks, R_hat scoring) and the batch
oracle queries they run on.

Batch queries must answer and charge exactly like a loop of scalar
queries.  `_walk_terminals` must reproduce the step-by-step walk it
replaced (kept below as `reference_walk_terminals`), drawing as the
engine does, every walk's length in one fill and then every step's
uniform in another: the same terminals, the same QueryStats and the
same end state of both the estimator's generator and the oracle's JUMP
generator.

`estimate_R_hat` draws its samples by rejection in vectorized rounds,
so where a try is rejected it takes uniforms and JUMPs in another order
than the per-terminal scorer it replaced (kept below as
`reference_estimate_R_hat`).  It must match, in bit-equal scores, the
same QueryStats and both generator end states, `reference_rounds_R_hat`
(the round order as scalar loops) on every input and the per-terminal
scorer on every input where no try can be rejected.  A two-sample
chi-square test over thousands of seeds checks that its scores and
query counts follow the per-terminal scorer's distribution.
"""

import gc
import itertools
import math
import re
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import bidir, build_graph, classic, oracle
from pprquery.bidir import backward_phase, derive_params, estimate_R_hat
from pprquery.classic import (_lockstep, _push_walk_estimates,
                              _walk_terminals, mc_walk_count,
                              monte_carlo_pair, single_target_bidir_jump,
                              single_target_jump_mc)
from pprquery.graph import NodeIdOutOfRange
from pprquery.oracle import (QUERY_KINDS, Capabilities, CapabilityDisabled,
                             IndexOutOfRange, OracleHandle)
from pprquery.single_node import (SuperSourceView, _augmented,
                                  single_node_avg_jump)

from conftest import (chi_num, materialize_super_source, out_list,
                      random_graph, seed_term)


def reference_walk_terminals(o, sources, alpha, rng, count):
    """The step-by-step walk loop the lockstep engine replaced, over
    `count` walks from each of `sources`: one geometric call for every
    walk's length, then one random call for every step's uniform."""
    lengths = rng.geometric(alpha, size=len(sources) * count)
    steps = int(lengths.sum()) - lengths.size
    us = rng.random(size=steps).tolist() if steps > 0 else []
    out = []
    pos = 0
    for s, g in zip(np.repeat(sources, count).tolist(), lengths.tolist()):
        cur = s
        for _ in range(g - 1):
            d = o.deg_out(cur)
            cur = o.out_nbr(cur, int(us[pos] * d))
            pos += 1
        out.append(cur)
    return out


def reference_push_walk_estimates(o, sources, alpha, rng, n_w, p, r):
    """The per-terminal dict.get loop the dense cumsum replaced."""
    terms = _walk_terminals(o, sources, alpha, rng, n_w).tolist()
    est = {}
    for i, s in enumerate(sources):
        acc = 0.0
        for term in terms[i * n_w:(i + 1) * n_w]:
            acc += r.get(term, 0.0)
        est[s] = p.get(s, 0.0) + acc / n_w
    return est


def light_lists(o, us, heavy):
    """The light entries (off V_P) of each node's out-list: every list
    read in order, d_out OUT queries each and no DEG-OUT, then each list
    with no light entry read again, in order, until none is empty (only
    a view's s' list, whose entries are JUMP draws, can be)."""
    lists, todo = [[] for _ in us], list(range(len(us)))
    while todo:
        for j in todo:
            d = int(o.graph.out_deg[us[j]])  # unmetered, as in out_lists
            lists[j] = [v for v in (o.out_nbr(us[j], i) for i in range(d))
                        if v not in heavy]
        todo = [j for j in todo if not lists[j]]
    return lists


def is_light(g, u, heavy):
    """Whether u samples from its light out-list (unmetered): a pool off
    V_P and d_out(u) < 2|V_P|."""
    d = int(g.out_deg[u])
    return d < 2 * len(heavy) and d > len(heavy & set(out_list(g, u)))


def reference_estimate_R_hat(o, state, u_k, params, rng, light):
    """The per-terminal scorer the batch engine replaced; a light u_k
    takes the next list of the iterator `light`."""
    if not o.caps.adj:
        raise CapabilityDisabled("estimate_R_hat needs ADJ")
    du = o.deg_out(u_k)
    total = seed_term(state, u_k)
    heavy = state.heavy
    n_heavy_nbrs = 0
    num = 0.0
    for v in sorted(state.heavy):
        if o.adj(u_k, v):
            n_heavy_nbrs += 1
            num += chi_num(state, u_k, v)
    pool = du - n_heavy_nbrs
    if pool > 0:
        n_s = params.n_s
        acc = 0.0
        if du >= 2 * len(heavy):
            for _ in range(n_s):
                v = o.out_nbr(u_k, int(rng.random() * du))
                while v in heavy:
                    v = o.out_nbr(u_k, int(rng.random() * du))
                acc += chi_num(state, u_k, v)
        else:
            cand = next(light)
            for _ in range(n_s):
                acc += chi_num(state, u_k, cand[int(rng.random() * len(cand))])
        num += acc * pool / n_s
    return total + num / du


def reference_rounds_R_hat(o, state, terminals, params, rng):
    """The batch engine's draw order as scalar loops.  Once per call:
    DEG-OUT and ADJ over V_P of each terminal, then the light out-lists
    (light_lists) of the walks at a light terminal (d_out < 2|V_P|), in
    walk order.  Per block of terminals: one uniform per sample in
    terminal order, then rounds with one OUT query per open sample,
    which uses the sample's uniform in round 1 and a fresh one after,
    until no sample is open."""
    if not o.caps.adj:
        raise CapabilityDisabled("estimate_R_hat needs ADJ")
    n_s, heavy = params.n_s, state.heavy
    du = [o.deg_out(u) for u in terminals]
    nbrs = [[v for v in sorted(heavy) if o.adj(u, v)] for u in terminals]
    pool = [d - len(h) for d, h in zip(du, nbrs)]
    lo = [j for j, d in enumerate(du) if pool[j] > 0 and d < 2 * len(heavy)]
    cands = dict(zip(lo, light_lists(o, [terminals[j] for j in lo], heavy)))
    out = []
    step = max(1, bidir._BLOCK_SAMPLES // n_s)
    for a in range(0, len(terminals), step):
        block = range(a, min(a + step, len(terminals)))
        sampling = [j for j in block if pool[j] > 0]
        r = iter([rng.random() for _ in range(n_s * len(sampling))])
        nodes, first = {}, {}
        for j in sampling:
            if j in cands:
                for q in range(n_s):
                    nodes[j, q] = cands[j][int(next(r) * len(cands[j]))]
            else:
                for q in range(n_s):
                    first[j, q] = next(r)
        open_, rnd = list(first), 0
        while open_:
            still = []
            for j, q in open_:
                x = first[j, q] if rnd == 0 else rng.random()
                nodes[j, q] = o.out_nbr(terminals[j], int(x * du[j]))
                if nodes[j, q] in heavy:
                    still.append((j, q))
            open_, rnd = still, rnd + 1
        for j in block:
            u = terminals[j]
            num = 0.0
            for v in nbrs[j]:
                num += chi_num(state, u, v)
            if pool[j] > 0:
                acc = 0.0
                for q in range(n_s):
                    acc += chi_num(state, u, nodes[j, q])
                num += acc * pool[j] / n_s
            out.append(seed_term(state, u) + num / du[j])
    return out


def per_terminal_R_hat(o, state, terminals, params, rng):
    """The per-terminal scorer over `terminals`, with the light lists of
    the call read up front, as the engine reads them."""
    light = [u for u in terminals if is_light(o.graph, u, state.heavy)]
    lists = iter(light_lists(o, light, state.heavy))
    return [reference_estimate_R_hat(o, state, u, params, rng, lists)
            for u in terminals]


@st.composite
def graphs(draw, max_n=9):
    """Small random graphs; every node has out-degree >= 1 and its
    out-list in drawn order."""
    n = draw(st.integers(1, max_n))
    nodes = st.integers(0, n - 1)
    outs = [draw(st.lists(nodes, min_size=1, max_size=n, unique=True))
            for _ in range(n)]
    return build_graph([(u, v) for u in range(n) for v in outs[u]], n)


def twin_oracles(g, view, caps=None, seed=5):
    """Two identical oracles (or super-source views over them)."""
    caps = caps or Capabilities.all()
    pair = [OracleHandle(g, caps, seed=seed) for _ in range(2)]
    return [SuperSourceView(o) for o in pair] if view else pair


def jump_state(o):
    base = o.base if isinstance(o, SuperSourceView) else o
    return base._rng.bit_generator.state


# -- batch against scalar queries ----------------------------------------

@st.composite
def node_batches(draw, view):
    """(graph, nodes, uniforms): nodes may include the virtual source."""
    g = draw(graphs())
    top = g.node_count if view else g.node_count - 1
    vs = draw(st.lists(st.integers(0, top), max_size=40))
    us = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                       min_size=len(vs), max_size=len(vs)))
    return g, vs, us


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_matches_scalar_queries(view, data):
    """DEG-OUT batches and whole out-lists (out_lists) answer and charge
    what scalar loops do, a view's s' lists included, whose entries are
    JUMP draws in element order."""
    g, vs, _ = data.draw(node_batches(view))
    a, b = twin_oracles(g, view)
    d_scalar = [a.deg_out(v) for v in vs]
    d_batch = b.deg_out_many(np.array(vs, dtype=np.int64))
    assert d_batch.tolist() == d_scalar
    nbr_scalar = [a.out_nbr(v, i) for v, d in zip(vs, d_scalar)
                  for i in range(d)]
    nbr_batch, lens = b.out_lists(np.array(vs, dtype=np.int64))
    assert nbr_batch.tolist() == nbr_scalar
    assert lens.tolist() == d_scalar
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_multiplicity_charges_each_repeat(view, data):
    """Element j with times[j] answers once and charges as times[j] equal
    scalar queries."""
    g, vs, _ = data.draw(node_batches(view))
    a, b = twin_oracles(g, view)
    times = [data.draw(st.integers(1, 4)) for _ in vs]
    ws = data.draw(st.lists(st.integers(0, a.node_count - 1),
                            min_size=len(vs), max_size=len(vs)))
    want_adj = []
    for v, w, k in zip(vs, ws, times):
        want_adj += [a.adj(v, w) for _ in range(k)][-1:]
    times = np.array(times, dtype=np.int64)
    assert b.adj_many(vs, ws, times).tolist() == want_adj
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
def test_bad_multiplicity_raises_before_any_charge(view):
    o = twin_oracles(random_graph(1, 10), view)[0]
    before, jumps = o.stats.as_dict(), jump_state(o)
    for times in ([1], [1, 0], [2, -1], [1.0, 2.0], [True, True], [[1, 1]]):
        with pytest.raises(ValueError, match="times"):
            o.adj_many([0, 1], [1, 0], times)
    assert o.stats.as_dict() == before and jump_state(o) == jumps


# (method, arguments given the oracle's node count n, error): elements
# of the wrong length, then ids that are no node
MALFORMED = [
    ("adj_many", lambda n: ([1, 2, 3], [5, 6]), ValueError),
    ("walk_step_many", lambda n: ([1, 2], [0.5, 0.5], [1]), ValueError),
    ("out_step_many", lambda n: ([1, 2, 3], [0.5, 0.5]), ValueError),
    ("walk_step_many", lambda n: ([1, 2, 3], [0.5, 0.5]), ValueError),
    ("in_scans", lambda n: ([1, 2, 3], [0.5, 0.5]), ValueError),
    ("in_sorted_scans", lambda n: ([1, 2, 3], [0.5, 0.5], [0.1] * 3),
     ValueError),
    ("in_sorted_scans", lambda n: ([1, 2, 3], [0.5] * 3, [0.1, 0.1]),
     ValueError),
    ("deg_out_many", lambda n: ([-1],), NodeIdOutOfRange),
    ("deg_out_many", lambda n: ([0, n],), NodeIdOutOfRange),
    ("out_lists", lambda n: ([n],), NodeIdOutOfRange),
    ("out_lists", lambda n: ([0, -1],), NodeIdOutOfRange),
    ("adj_many", lambda n: ([3, n], [0, 1]), NodeIdOutOfRange),
    ("adj_many", lambda n: ([3, 4], [0, -1]), NodeIdOutOfRange),
    ("adj", lambda n: (3, 99), NodeIdOutOfRange),
    ("adj", lambda n: (-1, 3), NodeIdOutOfRange),
    # ids (and multiplicities) that are not integers: deg_out_many([1.7,
    # 2.2]) used to answer nodes 1 and 2
    ("deg_out_many", lambda n: ([1.7, 2.2],), NodeIdOutOfRange),
    ("deg_out_many", lambda n: ([True, False],), NodeIdOutOfRange),
    ("out_lists", lambda n: ([1.0],), NodeIdOutOfRange),
    ("out_lists", lambda n: ([True],), NodeIdOutOfRange),
    ("adj_many", lambda n: ([1], [0], [0.9]), ValueError),
    ("walk_step_many", lambda n: ([1, 2], [0.5, 0.5], [True, False]),
     ValueError),
    ("adj_many", lambda n: ([1.5, 2], [0, 1]), NodeIdOutOfRange),
    ("adj_many", lambda n: ([1, 2], [0.0, 1.0]), NodeIdOutOfRange),
    ("adj_many", lambda n: ([1, 2], 1.0), NodeIdOutOfRange),
    ("adj_many", lambda n: ([1, 2], [True, False]), NodeIdOutOfRange),
    # adj(1.5, 2) used to charge before a bare TypeError, and adj(1, 2.5)
    # to answer False and charge one ADJ
    ("adj", lambda n: (1.5, 2), NodeIdOutOfRange),
    ("adj", lambda n: (1, 2.5), NodeIdOutOfRange),
    ("adj", lambda n: (True, 2), NodeIdOutOfRange),
    ("adj", lambda n: (1, np.float64(2.0)), NodeIdOutOfRange),
]


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@pytest.mark.parametrize("method,args,error", MALFORMED,
                         ids=[f"{m}-{i}" for i, (m, _, _) in enumerate(MALFORMED)])
def test_malformed_batch_charges_nothing(view, method, args, error):
    """A batch whose element arguments are neither one value nor one per
    node, or whose caller-given ids are no node, raises an error naming
    the method (or the ADJ pair) and charges nothing."""
    o = twin_oracles(random_graph(1, 40), view)[0]
    with pytest.raises(error, match="ADJ" if method == "adj" else method):
        getattr(o, method)(*args(o.node_count))
    assert o.stats.total == 0


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
def test_empty_batch_of_any_dtype_is_legal(view):
    o = twin_oracles(random_graph(1, 40), view)[0]
    assert o.deg_out_many([]).size == 0
    for dtype in (np.float64, np.int32, bool):
        assert [x.size for x in o.out_lists(np.array([], dtype=dtype))] == [0, 0]
    assert o.adj_many([], []).size == 0
    assert o.stats.total == 0


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@pytest.mark.parametrize("method,query", [
    ("deg_out", "DEG-OUT({v})"), ("deg_in", "DEG-IN({v})"),
    ("out_nbr", "OUT({v},0)"), ("in_nbr", "IN({v},0)"),
    ("in_sorted", "IN-SORTED({v},0)")], ids=lambda x: x.split("(")[0])
def test_scalar_query_names_a_bad_node_before_charging(view, method, query):
    """An id outside [0, node_count) is named, charging and drawing
    nothing: deg_out(-1) used to answer node n-1 and charge it, and
    deg_out(n) or out_nbr(-1, 0) to charge before a bare IndexError.  A
    view's s', node_count - 1 there, is an id."""
    o = twin_oracles(random_graph(1, 40), view)[0]
    n = o.node_count
    args = (lambda v: (v,)) if method.startswith("deg") else (lambda v: (v, 0))
    before, jumps = o.stats.as_dict(), jump_state(o)
    for v in (-1, n):
        msg = re.escape(query.format(v=v) + f" outside [0, {n})")
        with pytest.raises(NodeIdOutOfRange, match=f"^{msg}$"):
            getattr(o, method)(*args(v))
        assert o.stats.as_dict() == before and jump_state(o) == jumps
    if view and method.startswith("in"):  # s' is an id with no in-edge
        with pytest.raises(IndexOutOfRange):
            getattr(o, method)(*args(n - 1))
    elif view:
        getattr(o, method)(*args(n - 1))


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@pytest.mark.parametrize("method", ["deg_out", "deg_in"])
def test_degree_of_a_float_id_charges_nothing(view, method):
    """deg_out(1.5) and deg_in(1.5) used to charge one query before
    memoryview's TypeError: they read before they charge.  They check no
    id type (the push calls them once per edge read), so a numpy id, or
    a bool as 0 or 1, is read like an int."""
    o = twin_oracles(random_graph(1, 40), view)[0]
    with pytest.raises(TypeError):
        getattr(o, method)(1.5)
    assert o.stats.total == 0
    assert getattr(o, method)(np.int64(1)) == getattr(o, method)(True)
    assert o.stats.total == 2


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@pytest.mark.parametrize("method", ["out_nbr", "in_nbr", "in_sorted"])
def test_scalar_query_rejects_a_bad_index_before_charging(view, method):
    """An index outside the list, -1 or its length d, raises
    IndexOutOfRange, charging and drawing nothing: out_nbr(1, 99) used to
    charge one OUT first, and in_nbr and in_sorted one IN or IN-SORTED.
    A view's s' has d_out = n (OUT(s', .) is a JUMP) and d_in = 0."""
    o = twin_oracles(random_graph(1, 40), view)[0]
    deg = o.graph.out_deg if method == "out_nbr" else o.graph.in_deg
    before, jumps = o.stats.as_dict(), jump_state(o)
    for v in [1, 3] + ([o.virtual] if view else []):
        for i in (-1, int(deg[v])):
            with pytest.raises(IndexOutOfRange):
                getattr(o, method)(v, i)
            assert o.stats.as_dict() == before and jump_state(o) == jumps


@st.composite
def scan_batches(draw, g, view, vs=None):
    """(nodes, spreads, limits) for a scan batch on g, over `vs` if given:
    nodes may include the virtual source, spreads are >= 0 and may be 0,
    and a limit may be < 0 (read the whole list), inf (stop at the first
    entry), any float, or spread / k, which an entry of out-degree k
    meets exactly."""
    top = g.node_count if view else g.node_count - 1
    if vs is None:
        vs = draw(st.lists(st.integers(0, top), max_size=12))
    spread = [draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))) for _ in vs]
    lim = [draw(st.one_of(st.just(-1.0), st.just(math.inf), st.floats(0.0, 2.0),
                          st.integers(1, g.node_count + 1).map(lambda k: sj / k)))
           for sj in spread]
    return vs, np.array(spread), np.array(lim)


def bits(xs):
    return np.asarray(xs, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_in_sorted_scans_match_scalar_scans(view, g, data):
    """A scan batch reads and charges what a loop of scalar queries does:
    DEG-IN(v), then IN-SORTED and DEG-OUT up to and including the first
    in-neighbor u whose increment chi = spread / d_out(u) is <= the
    list's limit.  It returns the entries read with chi > limit, chi
    bit-equal to the scalar division, and per list whether the loop read
    that stop entry, which is charged but not returned.  On a view, s'
    ends every real list and its entries (kept or stopping), its degrees
    and its empty list are free."""
    a, b = twin_oracles(g, view)
    vs, spread, lim = data.draw(scan_batches(g, view))
    want, read_stop = [], []
    for j, v in enumerate(vs):
        read_stop.append(False)
        for i in range(a.deg_in(v)):
            u = a.in_sorted(v, i)
            chi = spread[j] / a.deg_out(u)
            if chi <= lim[j]:
                read_stop[j] = True
                break
            want.append((u, chi))
    nbrs, chi, halted = b.in_sorted_scans(vs, spread, lim)
    assert nbrs.tolist() == [u for u, _ in want]
    assert bits(chi) == bits([c for _, c in want])
    assert halted.tolist() == read_stop
    assert nbrs.dtype == np.intp and chi.dtype == np.float64
    assert halted.dtype == bool
    assert a.stats.as_dict() == b.stats.as_dict()
    # counters stay Python ints, which the results and traces serialize
    assert {type(c) for c in b.stats.as_dict().values()} == {int}
    assert jump_state(a) == jump_state(b)
    with pytest.raises(CapabilityDisabled):
        twin_oracles(g, view, caps=Capabilities())[0].in_sorted_scans(
            vs, spread, lim)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_in_scans_match_scalar_scans(view, g, data):
    """A full-list IN batch reads, returns and charges what a loop of
    scalar queries does: DEG-IN(v), then IN and DEG-OUT for every
    in-neighbor u, with chi = spread / d_out(u) bit-equal to the scalar
    division (on a view, with s' free as in the scalar queries)."""
    a, b = twin_oracles(g, view, caps=Capabilities())
    vs, spread, _ = data.draw(scan_batches(g, view))
    want = []
    for j, v in enumerate(vs):
        for i in range(a.deg_in(v)):
            u = a.in_nbr(v, i)
            want.append((u, spread[j] / a.deg_out(u)))
    nbrs, chi = b.in_scans(vs, spread)
    assert nbrs.tolist() == [u for u, _ in want]
    assert bits(chi) == bits([c for _, c in want])
    assert nbrs.dtype == np.intp and chi.dtype == np.float64
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)
    # what a plain handle charges for the real lists, s' entries free
    real = [v for v in vs if v < g.node_count]
    entries = sum(g.in_degrees[v] for v in real)
    assert b.stats.as_dict() == {**dict.fromkeys(QUERY_KINDS, 0),
                                 "deg_in": len(real), "in": entries,
                                 "deg_out": entries,
                                 "total": len(real) + 2 * entries}


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_scan_plan_matches_fresh_handles(view, g, data):
    """A handle keeps its last scan batch's read plan, and a batch of the
    same list array over equal node values reads it instead of the CSR.
    In runs of 2-6 batches, in_scans and in_sorted_scans interleaved with
    fresh spreads and limits, each over fresh nodes or the last batch's
    nodes again as a new array, which the caller may overwrite after its
    batch, every batch returns and charges what it does on a fresh twin
    handle, and walks the CSR (csr_entries) exactly when it cannot reuse
    the plan.  A returned id array is read-only or not the plan's own,
    and a second handle on the graph walks the CSR for its first batch."""
    o, second = twin_oracles(g, view)
    top = g.node_count if view else g.node_count - 1
    nodes = st.lists(st.integers(0, top), max_size=12)
    caller = method = planned = None
    with mock.patch.object(oracle, "csr_entries",
                           wraps=oracle.csr_entries) as walk:
        for _ in range(data.draw(st.integers(2, 6))):
            again = caller is not None and data.draw(st.booleans())
            vs = np.array(caller if again else data.draw(nodes), dtype=np.intp)
            _, spread, lim = data.draw(scan_batches(g, view, vs))
            planned_method, method = method, data.draw(st.sampled_from(SCANS))
            args = (vs, spread) if method == "in_scans" else (vs, spread, lim)
            before = o.stats.as_dict()
            walk.reset_mock()
            got = getattr(o, method)(*args)
            assert walk.called != (method == planned_method
                                   and np.array_equal(planned, vs))
            fresh = twin_oracles(g, view)[0]
            want = getattr(fresh, method)(*args)
            assert got[0].tolist() == want[0].tolist()
            assert bits(got[1]) == bits(want[1])
            assert [x.tolist() for x in got[2:]] == [x.tolist() for x in want[2:]]
            assert {k: c - before[k] for k, c in o.stats.as_dict().items()} \
                == fresh.stats.as_dict()
            assert jump_state(o) == jump_state(fresh)
            assert not got[0].flags.writeable or not any(
                np.shares_memory(got[0], a) for a in o._plan)
            caller, planned = vs, vs.copy()
            if vs.size and data.draw(st.booleans()):  # the caller's own array
                vs[:] = data.draw(st.lists(st.integers(0, top), min_size=vs.size,
                                           max_size=vs.size))
        walk.reset_mock()
        getattr(second, method)(planned, *args[1:])
        assert walk.called


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
def test_sorted_scan_returns_plan_ids_unless_a_list_halts(view):
    """With no list halted, in_sorted_scans returns the read plan's own
    read-only id array, as in_scans does; a batch in which a list halts
    returns a fresh copy of the entries it keeps."""
    g = random_graph(4, 30)
    o = twin_oracles(g, view)[0]
    vs = np.flatnonzero(g.in_deg >= 2)[:3]  # the second one halts below
    whole = o.in_sorted_scans(vs, 0.5, -1.0)  # no chi is <= -1: read whole
    assert not whole[2].any()
    assert whole[0] is o._plan[2] and not whole[0].flags.writeable
    cut = o.in_sorted_scans(vs, 0.5, [-1.0, math.inf, -1.0])
    assert cut[2].tolist() == [False, True, False] and cut[0].flags.writeable
    assert cut[0].size < whole[0].size
    assert not any(np.shares_memory(cut[0], a) for a in o._plan)


def reference_cover_sources(o):
    """The one-JUMP-at-a-time cover that jump_cover replaced."""
    n = o.node_count
    seen = set()
    for _ in range(max(n, math.ceil(n * (math.log(n) + oracle._COVER_EXTRA)))):
        seen.add(o.jump())
        if len(seen) == n:
            break
    return sorted(seen)


@pytest.mark.parametrize("extra", [oracle._COVER_EXTRA, -10.0],
                         ids=["default", "short_budget"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 500])
def test_cover_rounds_match_scalar_jumps(n, extra, monkeypatch):
    """The cover's one draw finds the sources, as Python ints, charges the
    JUMPs and leaves the JUMP generator as one JUMP at a time until every
    node is seen; with a budget of n JUMPs (_COVER_EXTRA = -10), which
    often ends the cover early, too."""
    monkeypatch.setattr(oracle, "_COVER_EXTRA", extra)
    g = random_graph(3, n)
    for seed in range(25 if n < 500 else 5):
        a, b = twin_oracles(g, False, Capabilities(jump=True), seed)
        sources = b.jump_cover()
        assert sources == reference_cover_sources(a)
        assert all(type(v) is int for v in sources)
        assert a.stats.as_dict() == b.stats.as_dict()
        assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("method", ["out_step_many", "walk_step_many"])
def test_virtual_step_without_jump_charges_nothing(method):
    """OUT(s', .) is a JUMP draw: a step batch holding s' on a view
    without JUMP raises before it charges its real nodes' steps (it used
    to charge node 0's OUT first)."""
    caps = Capabilities(in_sorted=True, adj=True)
    o = twin_oracles(random_graph(1, 40), True, caps)[0]
    jumps = jump_state(o)
    with pytest.raises(CapabilityDisabled, match="JUMP"):
        getattr(o, method)([0, o.virtual], [0.5, 0.5])
    assert o.stats.total == 0 and jump_state(o) == jumps


@settings(max_examples=20, deadline=None)
@given(g=graphs())
def test_jump_batches_need_jump(g):
    caps = Capabilities(in_sorted=True, adj=True)
    o = OracleHandle(g, caps, seed=1)
    with pytest.raises(CapabilityDisabled):
        o.jump_cover()
    view = SuperSourceView(o)
    with pytest.raises(CapabilityDisabled):
        view.out_lists([0, view.virtual])
    assert o.stats.total == 0  # raised before node 0's list was charged
    with pytest.raises(CapabilityDisabled):
        view.walk_step_many([0, view.virtual], [0.0, 0.0])
    # virtual degrees are construction knowledge: free and always allowed
    before = o.stats.as_dict()
    assert view.deg_out_many([view.virtual]).tolist() == [g.node_count]
    assert o.stats.as_dict() == before
    assert o.stats.jump == 0


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_walk_step_matches_degree_then_neighbor(view, data):
    """A fused walk step answers and charges what DEG-OUT batch and then
    scalar OUT queries at floor(u * d) do, JUMPs included, and reports as
    settled exactly the steps with d = 1 that answer their own node."""
    g, vs, us = data.draw(node_batches(view))
    a, b = twin_oracles(g, view)
    vs, us = np.array(vs, dtype=np.int64), np.array(us, dtype=np.float64)
    d = a.deg_out_many(vs)
    want = np.array([a.out_nbr(v, int(u * dv)) for v, u, dv
                     in zip(vs.tolist(), us.tolist(), d.tolist())],
                    dtype=np.int64)
    got, settled = b.walk_step_many(vs, us)
    assert got.tolist() == want.tolist()
    assert settled.tolist() == ((d == 1) & (want == vs)).tolist()
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_out_step_matches_neighbor_at_floor(view, data):
    """An OUT batch at uniforms answers and charges what scalar OUT
    queries at floor(u * d) do: one OUT per element and, on a view, one
    JUMP per virtual element in element order, with no DEG-OUT; a walk
    step is a DEG-OUT batch and then this batch."""
    g, vs, us = data.draw(node_batches(view))
    vs, us = np.array(vs, dtype=np.int64), np.array(us, dtype=np.float64)
    a, b = twin_oracles(g, view)
    c, d = twin_oracles(g, view)
    idx = (us * a.graph.out_deg[vs]).astype(np.int64)  # degrees unmetered
    want = [a.out_nbr(v, i) for v, i in zip(vs.tolist(), idx.tolist())]
    assert b.out_step_many(vs, us).tolist() == want
    virt = int(np.count_nonzero(vs == b.virtual)) if view else 0
    assert a.stats.as_dict() == b.stats.as_dict() == {
        **dict.fromkeys(QUERY_KINDS, 0), "out": vs.size - virt, "jump": virt,
        "total": vs.size}
    assert jump_state(a) == jump_state(b)
    c.deg_out_many(vs)
    want = c.out_step_many(vs, us)
    assert d.walk_step_many(vs, us)[0].tolist() == want.tolist()
    assert c.stats.as_dict() == d.stats.as_dict()
    assert jump_state(c) == jump_state(d) == jump_state(a)


def test_largest_uniform_out_step_is_last_neighbor():
    g = random_graph(3, 60, d=9)
    o = OracleHandle(g)
    vs = np.arange(g.node_count)
    u = np.full(vs.size, np.nextafter(1.0, 0.0))
    assert o.out_step_many(vs, u).tolist() == [out_list(g, v)[-1] for v in vs]


def test_view_walk_step_is_one_jump_per_virtual_element():
    g = random_graph(2, 30)
    a, b = (OracleHandle(g, Capabilities(jump=True), seed=4) for _ in range(2))
    view = SuperSourceView(b)
    vs = np.array([30, 3, 30, 30, 7, 30])
    us = np.array([0.0, 0.5, 0.25, 0.999, 0.75, 0.5])
    got, settled = view.walk_step_many(vs, us)
    virt = vs == view.virtual
    assert not settled[virt].any()  # s' is not in its own out-list
    assert got[virt].tolist() == [a.jump() for _ in range(4)]
    assert got[~virt].tolist() == [a.out_nbr(3, int(0.5 * a.deg_out(3))),
                                   a.out_nbr(7, int(0.75 * a.deg_out(7)))]
    # the virtual degree is free: the real steps charge DEG-OUT and OUT
    assert a.stats.as_dict() == b.stats.as_dict()
    assert b.stats.as_dict() == {**dict.fromkeys(QUERY_KINDS, 0), "deg_out": 2,
                                 "out": 2, "jump": 4, "total": 8}


@pytest.mark.parametrize("d", [1, 2, 3, 2**20 + 1, 2**31 - 1])
def test_largest_uniform_steps_to_last_neighbor(d):
    # walk_step_many's index, floor(u * d) in float64 for an int32 degree,
    # stays below d for the largest uniform, 1 - 2^-53
    u = np.array([np.nextafter(1.0, 0.0)])
    assert u[0] == 1.0 - 2.0**-53
    assert (u * np.array([d], dtype=np.int32)).astype(np.int64).tolist() == [d - 1]


# every call that reads no per-graph table or builds one, on a handle or
# a super-source view q
CALLS = {
    "scalars": lambda q: [q.deg_out(3), q.deg_in(3), q.out_nbr(3, 0),
                          q.in_nbr(int(np.argmax(q.graph.in_deg)), 0),
                          q.in_sorted(int(np.argmax(q.graph.in_deg)), 0),
                          q.adj(3, 2), q.jump()],
    "deg_out_many": lambda q: q.deg_out_many([1, 2]),
    "out_lists": lambda q: q.out_lists([1, 2]),
    "jump_cover": lambda q: q.jump_cover(),
    "adj_many_empty": lambda q: q.adj_many([], []),  # bidir_pair's empty V_P
    "adj_many": lambda q: q.adj_many([1, 3, 3], [2, 3, 0]),
    "in_scans": lambda q: q.in_scans([0, 5], [0.5, 1.0]),
    "in_sorted_scans": lambda q: q.in_sorted_scans([0, 5], [0.5, 1.0],
                                                   [0.1, -1.0]),
    "out_step_many": lambda q: q.out_step_many([0, 1], [0.5, 0.25]),
    "walk_step_many": lambda q: q.walk_step_many([0, 1], [0.5, 0.25]),
    "view": SuperSourceView,
}
NO_TABLE = ("scalars", "deg_out_many", "out_lists", "jump_cover",
            "adj_many_empty")
SCANS = ("in_scans", "in_sorted_scans")
STEPS = ("out_step_many", "walk_step_many")


def _sorted_edge_keys(g):
    src, dst = g.edge_arrays()
    return np.sort(src * g.node_count + dst)


# (id, builder, its definition, the first call that builds it, the calls
# that must not build it)
TABLES = [
    ("out_degf", oracle._out_degf,
     lambda g: np.diff(g.out_ptr).astype(np.float64), "in_sorted_scans",
     NO_TABLE + ("adj_many",)),
    ("out_ptr", oracle._out_ptr, lambda g: g.out_ptr.astype(np.intp),
     "walk_step_many", NO_TABLE + SCANS + ("adj_many",)),
    ("adj_keys", oracle._adj_keys, _sorted_edge_keys, "adj_many",
     NO_TABLE + SCANS + STEPS),
    ("augmented", _augmented, materialize_super_source, "view",
     NO_TABLE + SCANS + STEPS + ("adj_many",)),
]
CSR_ARRAYS = ("out_ptr", "out_nbrs", "out_sorted", "out_deg", "in_ptr",
              "in_nbrs", "in_sorted", "in_deg")


def _arrays(table):
    """A table's arrays: itself, or an augmented graph's CSR arrays."""
    if isinstance(table, np.ndarray):
        return [table]
    return [getattr(table, name) for name in CSR_ARRAYS]


def _content(table):
    """A table's sizes, dtypes and bytes: equal means bit for bit."""
    sizes = [] if isinstance(table, np.ndarray) else [table.node_count,
                                                      table.edge_count]
    return sizes + [(a.dtype, a.shape, a.tobytes()) for a in _arrays(table)]


@pytest.mark.parametrize("builder,define,first,never",
                         [row[1:] for row in TABLES],
                         ids=[row[0] for row in TABLES])
def test_derived_table_built_on_first_use_and_freed_with_graph(
        builder, define, first, never):
    """Each per-graph table is built by its first call, never by
    build_graph, by the calls in `never` or for a view's graph on the
    base's behalf; it equals its definition, is read-only, is shared by
    every handle and call on the same graph (a cell's trials share one
    augmented copy), and goes when its graph goes (a one-slot cache used
    to keep the last augmented copy alive)."""
    def build(q):
        for name in never:
            CALLS[name](q)
        assert builder not in q.graph.tables
        CALLS[first](q)
        table = q.graph.tables[builder]
        assert _content(table) == _content(define(q.graph))
        assert not any(a.flags.writeable for a in _arrays(table))
        return table

    for call in CALLS.values():  # first-use costs outside the trace
        call(SuperSourceView(OracleHandle(random_graph(1, 40),
                                          Capabilities.all(), seed=1)))
    edges = np.column_stack(random_graph(0, 20_000).edge_arrays())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_graph(edges, 20_000)
        assert g.tables == {}
        table = build(OracleHandle(g, Capabilities.all(), seed=1))
        other = OracleHandle(g, Capabilities.all(), seed=2)
        for call in CALLS.values():
            call(other)
        assert g.tables[builder] is table  # built once per graph
        view = SuperSourceView(other)
        view_table = build(view)
        assert view_table is not table
        live = tracemalloc.get_traced_memory()[0] - base
        refs = [weakref.ref(a) for a in _arrays(table) + _arrays(view_table)]
        del g, table, other, view, view_table
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(r() is None for r in refs)
    assert live > 3e6 and held < 1e5, (live, held)


def test_build_graph_holds_no_step_tables():
    # a graph nobody walks keeps only its CSR arrays: on 20k nodes the
    # tables would add 320 kB
    edges = random_graph(0, 20_000).edges()
    tracemalloc.start()
    try:
        g = build_graph(edges, 20_000)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(g, name).nbytes for name in
               ("out_ptr", "out_nbrs", "out_sorted", "out_deg", "in_ptr",
                "in_nbrs", "in_sorted", "in_deg"))
    assert retained - kept < 4096, (retained, kept)


# -- the walk engine against the step-by-step walk -----------------------

ALPHAS = st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0])
COUNTS = st.sampled_from([1, 2, 7, 3000])


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=40, deadline=None)
@given(g=graphs(), alpha=ALPHAS, count=COUNTS, seed=st.integers(0, 2**32),
       data=st.data())
def test_engine_matches_step_by_step_walks(view, g, alpha, count, seed, data):
    a, b = twin_oracles(g, view, seed=seed % 97)
    top = g.node_count if view else g.node_count - 1
    s = data.draw(st.integers(0, top))
    ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_walk_terminals(a, [s], alpha, ra, count)
    got = _walk_terminals(b, [s], alpha, rb, count)
    assert got.tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    # counters feed the CSV and JSON output: Python ints, never numpy's
    assert {type(q) for q in b.stats.as_dict().values()} == {int}
    assert ra.bit_generator.state == rb.bit_generator.state
    assert jump_state(a) == jump_state(b)


def test_all_zero_move_walks_query_nothing():
    o = OracleHandle(random_graph(3, 20), seed=0)
    rng = np.random.default_rng(4)
    assert _walk_terminals(o, [3, 5], 1.0, rng, 100).tolist() == \
        [3] * 100 + [5] * 100
    assert o.stats.total == 0


def test_long_walks_on_random_graph():
    # thousands of walks, long tails: one lockstep against the loop
    g = random_graph(8, 300, d=6)
    a, b = twin_oracles(g, view=True, seed=2)
    ra, rb = np.random.default_rng(31), np.random.default_rng(31)
    for s in (a.virtual, 17):
        want = reference_walk_terminals(a, [s], 0.05, ra, 4000)
        assert _walk_terminals(b, [s], 0.05, rb, 4000).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    assert ra.bit_generator.state == rb.bit_generator.state
    assert jump_state(a) == jump_state(b)


class ReadLog(np.ndarray):
    """An array that records every index it is read at."""

    def __getitem__(self, idx):
        self.reads.append(np.asarray(idx).ravel())
        return np.asarray(super().__getitem__(idx))


@pytest.mark.parametrize("n_walks", [3, 4, 7],
                         ids=["uint8-key", "uint16-key", "uint32-key"])
def test_lockstep_crosses_key_widths(n_walks):
    # the longest walk sets the sort key's dtype: 255, 256 and 65,536
    # moves need 8, 16 and 32 bits
    moves = np.array([0, 1, 255, 256, 65_536, 3, 256][:n_walks])
    starts = np.array([0, 1, 2, 3, 4, 0, 1][:n_walks])
    # a 5-cycle with a chord out of every node: each step's uniform
    # picks one of two out-neighbors
    g = build_graph([(i, (i + j) % 5) for i in range(5) for j in (1, 2)], 5)
    a, b = twin_oracles(g, view=False)
    us = np.random.default_rng(8).random(int(moves.sum()))
    want, pos = [], 0
    for s, m in zip(starts.tolist(), moves.tolist()):
        for _ in range(m):
            s = a.out_nbr(s, int(us[pos] * a.deg_out(s)))
            pos += 1
        want.append(s)
    log = us.view(ReadLog)
    log.reads = []
    assert _lockstep(b, starts, moves, log).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    # every uniform is read exactly once
    assert np.sort(np.concatenate(log.reads)).tolist() == list(range(us.size))


# -- settled walks: a step from a node whose only out-edge is a self-loop

@st.composite
def sink_graphs(draw, max_n=8):
    """Small random graphs in which a drawn share of the nodes have a
    self-loop as their only out-edge (sinks), some have a self-loop
    among other out-edges, and the rest random out-lists."""
    n = draw(st.integers(1, max_n))
    edges = []
    for u in range(n):
        kind = draw(st.sampled_from(["sink", "loop", "plain"]))
        outs = {u} if kind == "sink" else set(draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=n)))
        if kind == "loop":
            outs.add(u)
        edges += [(u, v) for v in sorted(outs)]
    return build_graph(edges, n)


def is_sink(g, v):
    return g.out_deg[v] == 1 and out_list(g, v) == [v]


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=sink_graphs(), alpha=ALPHAS, count=COUNTS, seed=st.integers(0, 2**32),
       data=st.data())
def test_settled_walks_match_step_by_step_walks(view, g, alpha, count, seed,
                                                data):
    """Walks that settle in a sink stop stepping, yet give the terminals,
    the QueryStats and both generator end states of walking on."""
    a, b = twin_oracles(g, view, seed=seed % 83)
    top = g.node_count if view else g.node_count - 1
    sources = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference_walk_terminals(a, sources, alpha, ra, count)
    assert _walk_terminals(b, sources, alpha, rb, count).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    assert {type(q) for q in b.stats.as_dict().values()} == {int}
    assert ra.bit_generator.state == rb.bit_generator.state
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=sink_graphs(), data=st.data())
def test_settled_walks_read_no_uniform_after_settling(view, g, data):
    """Each walk reads its uniforms once each up to and including its
    settling step, the first step from a sink, and none after it."""
    a, b = twin_oracles(g, view)
    top = g.node_count if view else g.node_count - 1
    starts = np.array(data.draw(st.lists(st.integers(0, top), max_size=12)),
                      dtype=np.int64)
    moves = np.array(data.draw(st.lists(st.integers(0, 300), min_size=starts.size,
                                        max_size=starts.size)), dtype=np.int64)
    us = np.random.default_rng(data.draw(st.integers(0, 99))).random(
        int(moves.sum()))
    want, read, pos = [], [], 0
    for v, m in zip(starts.tolist(), moves.tolist()):
        steps = 0
        for k in range(m):
            d = a.deg_out(v)
            w = a.out_nbr(v, int(us[pos + k] * d))
            steps += 1
            if v != a.virtual and is_sink(a.graph, v):  # settled: v for good
                a.deg_out_many(np.full(m - k - 1, v))
                for _ in range(m - k - 1):
                    a.out_nbr(v, 0)
                break
            v = w
        read += range(pos, pos + steps)
        want.append(v)
        pos += m
    log = us.view(ReadLog)
    log.reads = []
    assert _lockstep(b, starts, moves, log).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)
    assert np.sort(np.concatenate([[], *log.reads])).tolist() == read


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=sink_graphs(), data=st.data())
def test_walk_step_multiplicity_charges_each_repeat(view, g, data):
    """Element j with times[j] answers once and charges as times[j] equal
    walk steps, DEG-OUT and OUT each; times[j] > 1 only where d_out = 1,
    and an s' element, a JUMP draw, has times 1."""
    a, b = twin_oracles(g, view)
    top = g.node_count if view else g.node_count - 1
    vs = data.draw(st.lists(st.integers(0, top), max_size=20))
    us = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                            min_size=len(vs), max_size=len(vs)))
    times = [data.draw(st.integers(1, 4))
             if v != a.virtual and a.graph.out_deg[v] == 1 else 1 for v in vs]
    want = []
    for v, u, k in zip(vs, us, times):
        want += [a.out_nbr(v, int(u * a.deg_out(v))) for _ in range(k)][-1:]
    got, settled = b.walk_step_many(vs, us, np.array(times, dtype=np.int64))
    assert got.tolist() == want
    assert settled.tolist() == [v != a.virtual and is_sink(a.graph, v)
                                for v in vs]
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
def test_bad_walk_step_multiplicity_raises_before_any_charge(view):
    # node 0 has a self-loop among two out-edges, 1 is a sink, 2 has
    # d_out 1 without a self-loop; on a view of the one-node graph, s'
    # has d_out 1 too
    o = twin_oracles(build_graph([(0, 0), (0, 1), (1, 1), (2, 0)], 3), view)[0]
    before, jumps = o.stats.as_dict(), jump_state(o)
    for times in ([1], [1, 0], [2, -1], [1.0, 2.0], [True, True], [[1, 1]],
                  [2, 1]):
        with pytest.raises(ValueError, match="times"):
            o.walk_step_many([0, 1], [0.5, 0.5], times)
    assert o.stats.as_dict() == before and jump_state(o) == jumps
    o.walk_step_many([1, 2], [0.5, 0.5], [3, 2])  # repeats where d_out = 1
    assert o.stats.deg_out == o.stats.out_q == 5
    if view:
        one = twin_oracles(build_graph([(0, 0)], 1), view=True)[0]
        with pytest.raises(ValueError, match="times"):
            one.walk_step_many([0, one.virtual], [0.5, 0.5], [2, 2])
        assert one.stats.total == 0 and one.stats.jump == 0


def reference_draws(sources, alpha, rng, count):
    """The draws of _walk_terminals as allocating calls: one geometric
    call over every walk of the batch, then one random call."""
    moves = rng.geometric(alpha, size=len(sources) * count) - 1
    return moves, rng.random(size=int(moves.sum()))


def spy_draws(monkeypatch):
    """The (starts, moves, us) that _walk_terminals hands to _lockstep,
    copied, one entry per call."""
    seen = []

    def spy(o, starts, moves, us):
        seen.append((starts.copy(), moves.copy(), us.copy()))
        return _lockstep(o, starts, moves, us)

    monkeypatch.setattr(classic, "_lockstep", spy)
    return seen


@pytest.mark.parametrize("sources", [[3], [0, 4, 4, 9]],
                         ids=["one-source", "many-sources"])
def test_scratch_draws_match_allocating_draws(sources, monkeypatch):
    # the walk engine's arrays start empty, so the batch's one fill of
    # each kind grows them
    monkeypatch.setattr(classic, "_scratch", threading.local())
    seen = spy_draws(monkeypatch)
    o = OracleHandle(random_graph(3, 20), seed=0)
    ra, rb = np.random.default_rng(12), np.random.default_rng(12)
    _walk_terminals(o, sources, 0.1, ra, 300)
    moves, us = reference_draws(sources, 0.1, rb, 300)
    ((starts, got_moves, got_us),) = seen
    assert starts.tolist() == np.repeat(sources, 300).tolist()
    assert got_moves.tolist() == moves.tolist()
    assert got_us.tolist() == us.tolist()
    assert ra.bit_generator.state == rb.bit_generator.state


@pytest.mark.parametrize("alpha", [0.01, 0.2, np.nextafter(1 / 3, 0), 1 / 3,
                                   0.5, 1.0],
                         ids=["0.01", "0.2", "below-1/3", "1/3", "0.5", "1"])
@pytest.mark.parametrize("sources", [[3], [0, 4, 4, 9]],
                         ids=["one-source", "many-sources"])
def test_walk_lengths_match_geometric(alpha, sources, monkeypatch):
    """Below 1/3 the moves come from one exponential fill and a divide,
    from 1/3 on from numpy's geometric call: either way the values and
    both generators' end states are those of rng.geometric."""
    seen = spy_draws(monkeypatch)
    o = OracleHandle(random_graph(3, 20), seed=0)
    for seed in range(8):
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        _walk_terminals(o, sources, alpha, ra, 700)
        moves, us = reference_draws(sources, alpha, rb, 700)
        _, got_moves, got_us = seen.pop()
        assert got_moves.tolist() == moves.tolist()
        assert got_us.tolist() == us.tolist()
        assert ra.bit_generator.state == rb.bit_generator.state
    if alpha == 1.0:
        assert not moves.any() and o.stats.total == 0


@pytest.mark.parametrize("alpha", [1e-9, 1e-17, 1e-19])
def test_draw_moves_keeps_numpys_int64_clamp(alpha):
    # numpy returns INT64_MAX for a ceil value >= 2^63: at 1e-19 most
    # draws, at 1e-17 none, and the divide alone would give 1.02e19
    for seed in range(5):
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        m = np.empty(3000, dtype=np.int64)
        classic._draw_moves(m, alpha, ra)
        want = rb.geometric(alpha, size=3000) - 1
        assert m.tolist() == want.tolist()
        assert ra.bit_generator.state == rb.bit_generator.state
    clamped = np.count_nonzero(want == np.iinfo(np.int64).max - 1)
    assert (clamped > 1000) if alpha == 1e-19 else clamped == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha,count,error", [
    (1e-19, 1, ValueError), (1e-19, 2, ValueError), (5e-324, 1, ValueError),
    (1e-12, 300, MemoryError)])
def test_tiny_alpha_fails_as_geometric_draws_do(alpha, count, error,
                                                monkeypatch):
    """Walks clamped at INT64_MAX moves take 2^53 steps or more, which
    the step count's float64 sum holds inexactly: WalkBudgetExceeded, a
    ValueError, naming alpha, count and the step total, before any query or uniform draw,
    where the int64 sum would wrap; at the smallest alpha too, whose
    divide overflows to -inf, with RuntimeWarnings raised as errors.
    Walks of about 1e12 moves fail, as the allocating geometric draw
    does, on petabytes of uniforms."""
    named = error is ValueError
    match = (rf"^alpha={alpha!r}, count={count}: \d\.\d+e\+1[89] steps "
             rf">= 2\^53$") if named else None

    def geometric_moves(m, alpha, rng):
        np.subtract(rng.geometric(alpha, size=m.size), 1, out=m)

    for draw in (classic._draw_moves, geometric_moves):
        monkeypatch.setattr(classic, "_draw_moves", draw)
        o = OracleHandle(random_graph(3, 20), seed=0)
        rng = np.random.default_rng(5)
        with pytest.raises(classic.WalkBudgetExceeded if named else error,
                           match=match):
            _walk_terminals(o, [3], alpha, rng, count)
        assert o.stats.total == 0
        if named:  # the moves, and no uniform, were drawn
            want = np.random.default_rng(5)
            draw(np.empty(count, dtype=np.int64), alpha, want)
            assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_alpha_guard_counts_the_whole_batch():
    """The 2^53 guard reads the steps of every walk of the batch: two
    walks of fewer than 2^53 moves each, 2^53 or more together, raise
    WalkBudgetExceeded with the batch total, after the moves fill and
    before any uniform draw or query."""
    alpha = 2.0 ** -53
    want = np.random.default_rng(10)
    moves = want.geometric(alpha, size=2) - 1
    total = moves.sum(dtype=np.float64)
    assert (moves < 2**53).all() and total >= 2**53
    o = OracleHandle(random_graph(3, 20), seed=0)
    rng = np.random.default_rng(10)
    match = re.escape(f"alpha={alpha!r}, count=1: {total:.4g} steps >= 2^53")
    with pytest.raises(classic.WalkBudgetExceeded, match=f"^{match}$"):
        _walk_terminals(o, [3, 5], alpha, rng, 1)
    assert o.stats.total == 0
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("delta", [1e-300, 1e-9])
def test_walk_budget_is_checked_before_any_allocation(delta):
    """Monte Carlo at delta = 1e-300 asks for about 9.2e302 walks and used
    to end in numpy's "Maximum allowed dimension exceeded"; at 1e-9,
    about 9.2e11 walks, it would allocate terabytes.  Both raise
    WalkBudgetExceeded with the count (mc_walk_count names it), before
    the scratch grows and before any query or draw."""
    o = OracleHandle(random_graph(3, 20), Capabilities.all(), seed=0)
    rng = np.random.default_rng(5)
    state, jumps = rng.bit_generator.state, jump_state(o)
    moves = getattr(classic._scratch, "moves", None)
    n_w = math.ceil(16.0 * math.log(1.0 / 0.1) / (0.2 * 0.2 * delta))
    assert n_w > classic.MAX_WALKS
    msg = re.escape(f"1 x {n_w:.4g} walks > MAX_WALKS = {2**28}")
    with pytest.raises(classic.WalkBudgetExceeded, match=f"^{msg}$"):
        monte_carlo_pair(o, 3, 5, 0.2, delta, 0.2, 0.1, rng)
    assert getattr(classic._scratch, "moves", None) is moves
    assert o.stats.total == 0 and jump_state(o) == jumps
    assert rng.bit_generator.state == state


def test_walk_budget_counts_every_source(monkeypatch):
    """MAX_WALKS bounds len(sources) * count: a batch of exactly
    MAX_WALKS walks runs, one more walk raises."""
    monkeypatch.setattr(classic, "MAX_WALKS", 6)
    o = OracleHandle(random_graph(3, 20), seed=0)
    rng = np.random.default_rng(5)
    assert _walk_terminals(o, [3, 5], 0.2, rng, 3).size == 6
    assert _walk_terminals(o, [3], 0.2, rng, 6).size == 6
    total, state = o.stats.total, rng.bit_generator.state
    for sources, count in (([3], 7), ([3, 5], 4), ([3, 5, 7], 3)):
        msg = f"^{len(sources)} x {count} walks > MAX_WALKS = 6$"
        with pytest.raises(classic.WalkBudgetExceeded, match=msg):
            _walk_terminals(o, sources, 0.2, rng, count)
    assert o.stats.total == total and rng.bit_generator.state == state


def test_terminals_never_alias_the_scratch(monkeypatch):
    monkeypatch.setattr(classic, "_scratch", threading.local())
    g = random_graph(8, 300, d=6)
    a, b = twin_oracles(g, view=False)
    ra, rb = np.random.default_rng(31), np.random.default_rng(31)
    first = _walk_terminals(b, [17], 0.2, rb, 500)
    assert first.tolist() == reference_walk_terminals(a, [17], 0.2, ra, 500)
    kept = first.copy()
    # a smaller draw reuses every scratch array, a larger one grows them
    for s, alpha, count in ((9, 0.5, 20), (5, 0.05, 4000)):
        want = reference_walk_terminals(a, [s], alpha, ra, count)
        assert _walk_terminals(b, [s], alpha, rb, count).tolist() == want
        assert np.array_equal(first, kept)


def test_lockstep_only_reads_its_arguments():
    g = random_graph(3, 50)
    rng = np.random.default_rng(2)
    moves = rng.geometric(0.2, 400) - 1
    starts = rng.integers(0, 50, 400)
    us = rng.random(int(moves.sum()))
    args = (starts, moves, us)
    saved = [x.copy() for x in args]
    for x in args:
        x.flags.writeable = False
    _lockstep(OracleHandle(g), *args)
    assert all(np.array_equal(x, y) for x, y in zip(args, saved))


@pytest.mark.parametrize("solver", [single_target_jump_mc,
                                    single_target_bidir_jump])
def test_single_target_solvers_match_per_source_walks(solver, monkeypatch):
    """The JUMP solvers walk all sources in one lockstep; step-by-step
    walks with the same two draws give bit-equal estimates."""
    from pprquery import classic

    g = random_graph(6, 12, d=3)
    args = (4, 0.2, 0.2, 0.3, 0.2)
    a, b = twin_oracles(g, view=False, seed=9)
    ra, rb = np.random.default_rng(3), np.random.default_rng(3)
    got = solver(a, *args, ra)

    def step_by_step(o, sources, alpha, rng, count):
        return np.array(reference_walk_terminals(o, sources, alpha, rng, count),
                        dtype=np.int64)

    monkeypatch.setattr(classic, "_walk_terminals", step_by_step)
    want = solver(b, *args, rb)
    assert list(got.items()) == list(want.items())
    assert a.stats.as_dict() == b.stats.as_dict()
    assert ra.bit_generator.state == rb.bit_generator.state
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=40, deadline=None)
@given(g=graphs(), alpha=ALPHAS, count=COUNTS, seed=st.integers(0, 2**32),
       data=st.data())
def test_push_walk_estimates_match_dict_loop(view, g, alpha, count, seed,
                                             data):
    # residues of mixed magnitudes, so a different summation order
    # would show in the last bits
    a, b = twin_oracles(g, view, seed=seed % 83)
    top = g.node_count if view else g.node_count - 1
    nodes = st.integers(0, top)
    sources = data.draw(st.lists(nodes, min_size=1, max_size=4))
    values = st.floats(0.0, 1.0) | st.sampled_from([1e-17, 0.1, 1 / 3])
    p = data.draw(st.dictionaries(nodes, values, max_size=4))
    r = data.draw(st.dictionaries(nodes, values, max_size=top + 1))
    ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
    dense = np.zeros(top + 1)
    dense[list(r)] = list(r.values())
    want = reference_push_walk_estimates(a, sources, alpha, ra, count, p, r)
    got = _push_walk_estimates(b, sources, alpha, rb, count, p, dense)
    assert list(got.items()) == list(want.items())
    assert {type(x) for x in got.values()} == {float}
    assert a.stats.as_dict() == b.stats.as_dict()


@pytest.mark.parametrize("name", ["delta", "eps", "p_f"])
@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), 1.5, 2])
def test_walk_count_names_bad_parameter(name, bad):
    kw = {"delta": 0.01, "eps": 0.2, "p_f": 0.1, name: bad}
    with pytest.raises(ValueError, match=name):
        mc_walk_count(**kw)


# eps -> the count mc_walk_count(0.01, eps, 0.1) names
OVERFLOW = {1e-300: "eps=1e-300, delta=0.01: inf",
            1e-160: "eps=1e-160, delta=0.01: inf", 1e-5: "1 x 3.684e+13"}


@pytest.mark.parametrize("eps", list(OVERFLOW))
def test_walk_count_overflow_is_walk_budget(eps):
    """eps^2 underflows to 0.0 at eps = 1e-300 and the count overflows to
    inf at 1e-160: mc_walk_count used to raise ZeroDivisionError and
    OverflowError.  At 1e-5 the count is finite but past MAX_WALKS, which
    was found only when the walks were drawn, after a push or a JUMP cover
    had charged its queries.  Each estimator that counts its walks with
    mc_walk_count raises WalkBudgetExceeded before any query or draw."""
    msg = re.escape(f"{OVERFLOW[eps]} walks > MAX_WALKS = {2**28}")
    with pytest.raises(classic.WalkBudgetExceeded, match=f"^{msg}$"):
        mc_walk_count(0.01, eps, 0.1)
    # the estimators' finite counts scale by their r_max or delta
    match = "inf walks" if eps < 1e-5 else r"^1 x \S+ walks > MAX_WALKS"
    g = random_graph(3, 20)
    runs = [
        lambda o, rng: monte_carlo_pair(o, 3, 5, 0.2, 0.01, eps, 0.1, rng),
        lambda o, rng: classic.bippr_pair(o, 3, 5, 0.2, 0.01, eps, 0.1, 0.5,
                                          rng),
        lambda o, rng: single_target_jump_mc(o, 5, 0.2, 0.01, eps, 0.1, rng),
        lambda o, rng: single_target_bidir_jump(o, 5, 0.2, 0.01, eps, 0.1,
                                                rng),
        lambda o, rng: single_node_avg_jump(o, 5, 0.2, eps, 0.1, rng)]
    for run in runs:
        o = OracleHandle(g, Capabilities.all(), seed=0)
        rng = np.random.default_rng(5)
        state, jumps = rng.bit_generator.state, jump_state(o)
        with pytest.raises(classic.WalkBudgetExceeded, match=match):
            run(o, rng)
        assert o.stats.total == 0
        assert rng.bit_generator.state == state and jump_state(o) == jumps


# -- ADJ batches ------------------------------------------------------------

@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_adj_many_matches_scalar_adj(view, g, data):
    """Pairs probe both ends of u's id-sorted out-range, the ids next to
    them (absent unless the range is contiguous) and, on a view, the
    virtual source at either end.  An id outside [0, n) makes the batch
    and the scalar query raise NodeIdOutOfRange, charging nothing."""
    a, b = twin_oracles(g, view)
    n = a.node_count
    us, vs = [], []
    for _ in range(data.draw(st.integers(0, 40))):
        u = data.draw(st.integers(0, n - 1))
        out = out_list(g, u) if u < g.node_count else [0, g.node_count - 1]
        ends = [min(out), max(out)]
        us.append(u)
        vs.append(data.draw(st.sampled_from(
            ends + [ends[0] - 1, ends[1] + 1, n]) | st.integers(-1, n)))
    node = [0 <= v < n for v in vs]
    pairs = [(u, v) for u, v, k in zip(us, vs, node) if k]
    want = [a.adj(u, v) for u, v in pairs]
    assert b.adj_many([u for u, _ in pairs],
                      [v for _, v in pairs]).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    if not all(node):
        j = node.index(False)
        with pytest.raises(NodeIdOutOfRange):
            a.adj(us[j], vs[j])
        with pytest.raises(NodeIdOutOfRange):
            b.adj_many(us, vs)
        assert a.stats.as_dict() == b.stats.as_dict()
    caps = Capabilities(jump=True, in_sorted=True)
    for o in twin_oracles(g, view, caps):
        with pytest.raises(CapabilityDisabled):
            o.adj_many([0], [0])


# -- the R_hat scoring engine against its two references ---------------------

def assert_scores_match(g, view, t, terminals, seed, rng_a=None, rng_b=None,
                        jumps=None, delta=0.05, reference=reference_rounds_R_hat,
                        **mult):
    """Score `terminals` with the batch engine and, on a twin oracle,
    with `reference`; both must give bit-equal values and leave the
    counters and both generators in the same state.  rng_a, rng_b and
    `jumps` (a factory of JUMP generators) replace the default seeded
    generators; `mult` goes to derive_params."""
    if jumps is None:
        pair = twin_oracles(g, view, seed=seed % 101)
    else:
        pair = [OracleHandle(g, Capabilities.all(), rng=jumps())
                for _ in range(2)]
        pair = [SuperSourceView(o) for o in pair] if view else pair
    a, b = pair
    o = twin_oracles(g, view)[0]
    params = derive_params(0.2, delta, 0.2, 0.1, o.node_count, **mult)
    state = backward_phase(o, t, params, np.random.default_rng(seed))
    ra = rng_a or np.random.default_rng(seed)
    rb = rng_b or np.random.default_rng(seed)
    want = reference(a, state, terminals, params, ra)
    got = estimate_R_hat(b, state, np.array(terminals, dtype=np.int64),
                         params, rb)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert a.stats.as_dict() == b.stats.as_dict()
    assert {type(q) for q in b.stats.as_dict().values()} == {int}
    ja, jb = (getattr(x, "base", x)._rng for x in (a, b))
    for x, y in ((ra, rb), (ja, jb)):
        if isinstance(x, Scripted):
            assert x.calls == y.calls
        else:
            assert x.bit_generator.state == y.bit_generator.state
    return state


def scoring_classes(o, state, terminals):
    """How the per-terminal scorer samples each terminal (test-side
    reading)."""
    seen = set()
    for u in terminals:
        du = o.deg_out(u)
        nbrs = sum(o.adj(u, v) for v in sorted(state.heavy))
        if du == nbrs:
            seen.add("no pool")
        elif du < 2 * len(state.heavy):
            seen.add("light")
        elif u == getattr(o, "virtual", None):
            seen.add("jumps")
        else:
            seen.add("reject, heavy nbr" if nbrs else "reject, one try")
    return seen


# classes whose tries never land in V_P: no sample is rejected
NO_REJECTION = {"no pool", "light", "reject, one try"}


def rejection_free(g, view, state, terminals):
    o = twin_oracles(g, view)[0]
    return (not state.heavy
            or scoring_classes(o, state, terminals) <= NO_REJECTION)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=60, deadline=None)
@given(g=graphs(), c_tau=st.sampled_from([1e-6, 1e-3, 0.05, 1.0]),
       c_theta=st.sampled_from([1.0, 0.1, 0.02]),
       delta=st.sampled_from([0.05, 0.005]), seed=st.integers(0, 2**32),
       data=st.data())
def test_scores_match_per_terminal_scores(view, g, c_tau, c_theta, delta,
                                          seed, data):
    """Random graphs, V_P from empty to every pushed node (small c_tau),
    few to all nodes pushed (small c_theta), repeated terminals and, on
    a view, the virtual source.  The engine matches the round order
    always and the per-terminal scorer where nothing is rejected."""
    n = g.node_count + view
    t = data.draw(st.integers(0, g.node_count - 1))
    terminals = data.draw(st.lists(st.integers(0, n - 1), max_size=30))
    kw = {"delta": delta, "c_tau": c_tau, "c_theta": c_theta}
    state = assert_scores_match(g, view, t, terminals, seed, **kw)
    if rejection_free(g, view, state, terminals):
        assert_scores_match(g, view, t, terminals, seed,
                            reference=per_terminal_R_hat, **kw)


SCORING_CASES = [
    # (graph seed, n, d, view, derive_params arguments, sampling classes);
    # V_P is empty in the third and the last
    (1, 40, 6, True, {"c_theta": 0.1},
     {"reject, one try", "reject, heavy nbr", "jumps"}),
    (3, 20, 8, False, {"c_theta": 0.05, "c_tau": 0.5},
     {"reject, one try", "reject, heavy nbr", "light"}),
    (1, 40, 6, True, {"c_theta": 1.0}, {"reject, one try", "jumps"}),
    (6, 8, 3, True, {"delta": 0.005, "c_tau": 1e-3}, {"no pool", "light"}),
    (5, 30, 3, False, {"delta": 0.005, "c_tau": 1e-3}, {"no pool", "light"}),
    (3, 20, 8, False, {"delta": 0.005}, {"reject, one try"}),
]


def scoring_case_terminals(g, gseed, view):
    top = g.node_count + view
    return np.random.default_rng(gseed).permutation(
        np.repeat(np.arange(top), 4)).tolist() + [top - 1] * 50


@pytest.mark.parametrize("case", SCORING_CASES)
def test_scores_match_in_every_sampling_class(case):
    gseed, n, d, view, mult, classes = case
    g = random_graph(gseed, n, d=d)
    terminals = scoring_case_terminals(g, gseed, view)
    state = assert_scores_match(g, view, 0, terminals, 7, **mult)
    o = twin_oracles(g, view)[0]
    assert scoring_classes(o, state, terminals) == classes
    # a positive push, so samples can score non-zero
    assert any(x > 0.0 for lv in state.pushed_amount for x in lv.values())
    if rejection_free(g, view, state, terminals):
        assert_scores_match(g, view, 0, terminals, 7,
                            reference=per_terminal_R_hat, **mult)


def test_pick_skips_light_walks_without_chi(monkeypatch):
    """_pick samples only the light walks with a candidate that has chi:
    a sample of any other cannot score, so its uniforms are drawn and
    left unused, and the scores, charges and generators stay those of
    the round order.  Some light walk in these cases has no such
    candidate."""
    picks, rows, pick, block = [], [], bidir._pick, bidir._sample_block
    monkeypatch.setattr(bidir, "_pick",
                        lambda *a: rows.extend(a[1].tolist()) or pick(*a))
    monkeypatch.setattr(bidir, "_sample_block",
                        lambda *a: picks.append(a[3]) or block(*a))
    skipped = 0
    for gseed, n, d, view, mult, classes in SCORING_CASES:
        if "light" not in classes:
            continue
        g = random_graph(gseed, n, d=d)
        picks.clear()
        rows.clear()
        state = assert_scores_match(g, view, 0,
                                    scoring_case_terminals(g, gseed, view), 7,
                                    **mult)
        chi = {v for lv in state.pushed_amount[:state.params.L]
               for v, x in lv.items() if x > 0.0}
        cand, clen, start = picks[0]
        has = [bool(chi & set(cand[a:a + c].tolist()))
               for a, c in zip(start.tolist(), clen.tolist())]
        assert all(has[r] for r in rows)
        skipped += sum(c > 0 and not h for c, h in zip(clen.tolist(), has))
    assert skipped


def test_scores_match_across_blocks(monkeypatch):
    """Blocks of a few samples each: every block runs its own rounds,
    and some call scores its chi pairs in three or more flushes, none
    holding more than 7 pairs.  The scratch arrays start empty, so some
    block grows each of them and the next reuses it."""
    monkeypatch.setattr(classic, "_scratch", threading.local())
    monkeypatch.setattr(bidir, "_BLOCK_SAMPLES", 7)
    flushes = []
    flush = bidir._flush
    monkeypatch.setattr(bidir, "_flush", lambda buf, *a: flushes.append(
        buf.shape[1]) or flush(buf, *a))
    most = 0
    for gseed, n, d, view, mult, _ in SCORING_CASES[:3]:
        g = random_graph(gseed, n, d=d)
        flushes.clear()
        assert_scores_match(g, view, 0, scoring_case_terminals(g, gseed, view),
                            7, **mult)
        assert max(flushes) <= 7
        most = max(most, len(flushes))
    assert most >= 3


def test_terminal_queries_once_per_call(monkeypatch):
    """Blocks of a few samples each, so a call runs many blocks: it still
    issues one DEG-OUT batch and one ADJ batch over all its terminals,
    some call scores its chi pairs in three or more flushes, and its
    scores match the round order."""
    monkeypatch.setattr(bidir, "_BLOCK_SAMPLES", 7)
    calls = []
    for name in ("deg_out_many", "adj_many"):
        def spy(self, *args, _real=getattr(OracleHandle, name), _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(OracleHandle, name, spy)
    blocks, flushes, most = [], [], 0
    sample_block, flush = bidir._sample_block, bidir._flush
    monkeypatch.setattr(bidir, "_sample_block",
                        lambda *a: blocks.append(1) or sample_block(*a))
    monkeypatch.setattr(bidir, "_flush",
                        lambda *a: flushes.append(1) or flush(*a))
    for gseed, n, d, view, mult, _ in SCORING_CASES[:3]:
        g = random_graph(gseed, n, d=d)
        calls.clear()
        blocks.clear()
        flushes.clear()
        assert_scores_match(g, view, 0, scoring_case_terminals(g, gseed, view),
                            7, **mult)
        assert sorted(calls) == ["adj_many", "deg_out_many"]
        assert len(blocks) > 10
        most = max(most, len(flushes))
    assert most >= 3


def test_fixed_terminal_work_once_per_distinct_terminal(monkeypatch):
    """A call's ADJ batch holds each distinct terminal x V_P once, the
    charges staying per occurrence, as in the round order; its light
    out-list read holds every walk at a light terminal, s' included, in
    walk order, and its re-reads only s' lists that held no light
    entry."""
    pairs, reads = [], []

    def adj_spy(self, us, vs, *rest, _real=OracleHandle.adj_many):
        pairs.extend(zip(np.asarray(us).tolist(), np.asarray(vs).tolist()))
        return _real(self, us, vs, *rest)

    def light_spy(o, vs, *rest, _real=bidir._light_out):
        reads.append(vs.tolist())
        return _real(o, vs, *rest)

    monkeypatch.setattr(OracleHandle, "adj_many", adj_spy)
    monkeypatch.setattr(bidir, "_light_out", light_spy)
    light_virtual = rereads = 0
    for gseed, n, d, view, mult, _ in SCORING_CASES:
        g = random_graph(gseed, n, d=d)
        terminals = scoring_case_terminals(g, gseed, view)
        pairs.clear()
        reads.clear()
        state = assert_scores_match(g, view, 0, terminals, 7, **mult)
        o = twin_oracles(g, view)[0]
        heavy = sorted(state.heavy)
        distinct = list(dict.fromkeys(terminals))
        assert sorted(pairs) == sorted((u, v) for u in distinct for v in heavy)
        light = [u for u in terminals if is_light(o.graph, u, state.heavy)]
        assert reads[:1] == ([light] if heavy else [])  # V_P empty: none
        assert all(u == o.virtual for r in reads[1:] for u in r)
        light_virtual += o.virtual in light
        rereads += len(reads) > 1
    assert light_virtual and rereads  # some case reads s', and again


def test_light_out_rereads_empty_lists_in_order():
    """_light_out reads every list once, in order, then each list with no
    light entry again, in order, until none is empty: the same lists,
    QueryStats and JUMP state as light_lists on a twin.  With 2 light
    nodes of 10, about one s' list in 9 misses both, so several of the
    65 s' lists are read again."""
    g = random_graph(4, 10, d=2)
    a, b = twin_oracles(g, True)
    heavy = frozenset(range(2, 10))
    is_heavy = np.zeros(a.node_count, dtype=bool)
    is_heavy[list(heavy)] = True
    real = [u for u in range(10) if {0, 1} & set(out_list(g, u))]
    vs = [a.virtual] * 60 + real + [a.virtual] * 5 + real[::-1]
    want = light_lists(a, vs, heavy)
    cand, clen, start = bidir._light_out(b, np.array(vs), is_heavy)
    assert [cand[x:x + c].tolist() for x, c in zip(start, clen)] == want
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)
    assert b.stats.jump >= 10 * (65 + 3)  # at least three lists read again


def test_scores_unchanged_after_larger_and_smaller_calls(monkeypatch):
    """Scoring reuses the scratch arrays, so a call must not depend on
    what a larger or a smaller call before it left there."""
    monkeypatch.setattr(classic, "_scratch", threading.local())
    for gseed, n, d, view, mult, _ in SCORING_CASES[:4]:
        g = random_graph(gseed, n, d=d)
        terminals = scoring_case_terminals(g, gseed, view)
        for size in (len(terminals) // 3, len(terminals), 5,
                     len(terminals) // 3):
            assert_scores_match(g, view, 0, terminals[:size], 7, **mult)


def test_scores_never_alias_the_scratch(monkeypatch):
    monkeypatch.setattr(classic, "_scratch", threading.local())
    g = random_graph(1, 40, d=6)
    o = SuperSourceView(OracleHandle(g, Capabilities.all()))
    params = derive_params(0.2, 0.05, 0.2, 0.1, 41, c_theta=0.1)
    state = backward_phase(o, 0, params, np.random.default_rng(7))
    rng = np.random.default_rng(3)
    first = estimate_R_hat(o, state, [o.virtual, 4, 11] * 40, params, rng)
    kept = first.copy()
    scratch = list(vars(classic._scratch).values())
    assert scratch and not any(np.shares_memory(first, a) for a in scratch)
    # a larger call grows the scratch, a smaller one rewrites it
    for terminals in ([o.virtual, 3] * 400, [7, o.virtual]):
        estimate_R_hat(o, state, terminals, params, rng)
        assert np.array_equal(first, kept)


class Scripted:
    """Stands in for a numpy Generator: `random` (into `out` if given)
    and `integers` hand out fixed cycles of values; `calls` counts the
    values handed out."""

    def __init__(self, uniforms=(0.5,), ints=(0,)):
        self._u = itertools.cycle(uniforms)
        self._i = itertools.cycle(ints)
        self.calls = 0

    def _take(self, it, size):
        self.calls += 1 if size is None else int(np.prod(size))
        if size is None:
            return next(it)
        return np.array([next(it) for _ in range(int(np.prod(size)))]
                        ).reshape(size)

    def random(self, size=None, out=None):
        if out is None:
            return self._take(self._u, size)
        out[...] = self._take(self._u, out.shape)
        return out

    def integers(self, high, size=None):
        return self._take(self._i, size)


def test_fallback_after_64_heavy_tries_real_terminal(monkeypatch):
    """All but one uniform in 101 land on u's heavy out-neighbor: samples
    stay open past 64 tries, with no out-list read, and each is
    accepted in the end, as in the uncapped round order."""
    g = random_graph(1, 40, d=6)
    o = twin_oracles(g, False)[0]
    params = derive_params(0.2, 0.05, 0.2, 0.1, 40, c_theta=0.1)
    state = backward_phase(o, 0, params, np.random.default_rng(7))
    (h,) = state.heavy
    u = next(u for u in range(40) if h in out_list(g, u))
    out = out_list(g, u)
    x = (out.index(h) + 0.5) / len(out)
    light = (out.index(h) + 1) % len(out) / len(out)
    script = [x] * 100 + [light]
    rng_a, rng_b = Scripted(script), Scripted(script)
    tries = []  # the engine's OUT batches: first tries, then one per round

    def spy(self, *args, _real=OracleHandle.out_step_many):
        tries.append(1)
        return _real(self, *args)

    monkeypatch.setattr(OracleHandle, "out_step_many", spy)
    assert_scores_match(g, False, 0, [u, 3, u, u], 7, rng_a, rng_b,
                        c_theta=0.1)
    assert len(tries) > 1 + 64  # some sample rejected more than 64 times


def test_fallback_after_64_heavy_jumps_virtual_source():
    """JUMPs of the virtual source are scripted round by round: samples
    are accepted in round 1, 2, 3 or 64, and others only after hitting
    V_P 65 or 99 times, with no out-list read of s'."""
    g = random_graph(1, 40, d=6)
    o = SuperSourceView(OracleHandle(g, Capabilities.all()))
    params = derive_params(0.2, 0.05, 0.2, 0.1, 41, c_theta=0.1)
    state = backward_phase(o, 0, params, np.random.default_rng(7))
    (h,) = state.heavy
    v = o.virtual
    # light nodes that score apart, so which one is picked shows
    by_chi = {}
    for u in range(40):
        by_chi.setdefault(chi_num(state, v, u), u)
    by_chi.pop(0.0, None)
    light = itertools.cycle([u for u in by_chi.values() if u != h])
    terminals = [v, 4, v, v, 11] + [v] * 6
    fates = itertools.cycle([1, 66, 2, 64, 100, 1, 3])
    fate = [next(fates) for _ in range(terminals.count(v) * params.n_s)]
    script, open_ = [], list(range(len(fate)))
    for rnd in range(1, max(fate) + 1):
        script += [next(light) if fate[i] == rnd else h for i in open_]
        open_ = [i for i in open_ if fate[i] != rnd]
    made = []

    def jumps():
        made.append(Scripted(ints=script))
        return made[-1]

    assert_scores_match(g, True, 0, terminals, 7, jumps=jumps, c_theta=0.1)
    assert not open_ and [j.calls for j in made] == [len(script)] * 2


# -- the engine's law against the per-terminal scorer's ----------------------

def chi2_sf(x, df):
    """P(X >= x) for X chi-square with df degrees of freedom: one minus
    the regularized lower incomplete gamma P(df/2, x/2), summed from its
    power series in log space (numpy and math only)."""
    if x <= 0 or df < 1:
        return 1.0
    a, z = df / 2.0, x / 2.0
    logs = np.concatenate(([0.0], np.cumsum(
        math.log(z) - np.log(a + np.arange(1, 4000)))))
    top = logs.max()
    log_p = (a * math.log(z) - z - math.lgamma(a + 1) + top
             + math.log(np.exp(logs - top).sum()))
    return max(0.0, 1.0 - math.exp(log_p))


def test_chi2_sf_matches_table():
    # upper 5% and 0.1% points of chi-square(1), (10) and (19)
    for x, df, p in ((3.841, 1, 0.05), (18.307, 10, 0.05),
                     (43.820, 19, 0.001), (10.828, 1, 0.001)):
        assert chi2_sf(x, df) == pytest.approx(p, rel=1e-3)


def two_sample_p(a, b, bins=20):
    """p-value of Pearson's chi-square test that the equal-size samples
    a and b share one distribution, over bins cut at quantiles of the
    pooled sample (a repeated value never straddles two bins)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cuts = np.quantile(np.concatenate([a, b]), np.linspace(0, 1, bins + 1))
    edges = np.unique(cuts[1:-1])
    ca, cb = (np.bincount(np.searchsorted(edges, x, side="right"),
                          minlength=edges.size + 1) for x in (a, b))
    used = ca + cb > 0
    stat = float(((ca - cb)[used] ** 2 / (ca + cb)[used]).sum())
    return chi2_sf(stat, int(used.sum()) - 1)


def test_scores_and_costs_follow_per_terminal_law():
    """A real terminal with a heavy out-neighbor and the virtual source,
    scored in one call per seed: 2,000 seeds with the per-terminal
    scorer, 2,000 others with the engine.  The two samples of each
    score and of the OUT and JUMP counts per call must pass Pearson's
    chi-square test at p >= 0.001, over up to 20 quantile bins (critical
    value 43.82 at 19 degrees of freedom)."""
    g = random_graph(1, 40, d=6)
    o = SuperSourceView(OracleHandle(g, Capabilities.all()))
    params = derive_params(0.2, 0.05, 0.2, 0.1, 41, c_theta=0.1)
    state = backward_phase(o, 0, params, np.random.default_rng(7))
    (h,) = state.heavy
    # the real terminal whose light out-neighbors score most apart
    u = max((u for u in range(40) if h in out_list(g, u)),
            key=lambda u: len({chi_num(state, u, v)
                               for v in out_list(g, u) if v != h}))
    terminals = [u, o.virtual]

    def sample(score, seeds):
        rows = []
        for seed in seeds:
            view = SuperSourceView(OracleHandle(g, Capabilities.all(),
                                                seed=seed))
            r = score(view, state, terminals, params,
                      np.random.default_rng(seed))
            rows.append([*r, view.stats.out_q, view.stats.jump])
        return np.array(rows).T

    want = sample(per_terminal_R_hat, range(2000))
    got = sample(estimate_R_hat, range(2000, 4000))
    for name, a, b in zip(("R_hat(u)", "R_hat(s')", "OUT", "JUMP"),
                          want, got):
        assert len(set(a)) > 1, f"{name} is constant"
        p = two_sample_p(a, b)
        assert p >= 1e-3, f"{name}: chi-square p = {p:.3g}"
