"""The lockstep walk engine and the batch oracle queries it runs on.

Batch queries must answer and charge exactly like a loop of scalar
queries, and `_walk_terminals` must reproduce the step-by-step walk it
replaced (kept below as `reference_walk_terminals`): the same
terminals, the same QueryStats and the same end state of both the
estimator's generator and the oracle's JUMP generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import build_graph
from pprquery.classic import (_walk_terminals, mc_walk_count,
                              single_target_bidir_jump, single_target_jump_mc)
from pprquery.oracle import (Capabilities, CapabilityDisabled,
                             IndexOutOfRange, OracleHandle)
from pprquery.single_node import SuperSourceView

from conftest import random_graph


def reference_walk_terminals(o, s, alpha, rng, count):
    """The step-by-step walk loop the lockstep engine replaced."""
    lengths = rng.geometric(alpha, size=count)
    steps = int(lengths.sum()) - count
    us = rng.random(size=steps).tolist() if steps > 0 else []
    out = []
    pos = 0
    for g in lengths.tolist():
        cur = s
        for _ in range(g - 1):
            d = o.deg_out(cur)
            cur = o.out_nbr(cur, int(us[pos] * d))
            pos += 1
        out.append(cur)
    return out


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
    g, vs, us = data.draw(node_batches(view))
    a, b = twin_oracles(g, view)
    d_scalar = [a.deg_out(v) for v in vs]
    d_batch = b.deg_out_many(np.array(vs, dtype=np.int64))
    assert d_batch.tolist() == d_scalar
    idx = [int(u * d) for u, d in zip(us, d_scalar)]
    nbr_scalar = [a.out_nbr(v, i) for v, i in zip(vs, idx)]
    nbr_batch = b.out_nbr_many(np.array(vs, dtype=np.int64),
                               np.array(idx, dtype=np.int64))
    assert nbr_batch.tolist() == nbr_scalar
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_out_of_range_raises(view, data):
    g, vs, _ = data.draw(node_batches(view))
    if not vs:
        vs = [0]
    o = twin_oracles(g, view)[0]
    d = o.deg_out_many(vs)
    j = data.draw(st.integers(0, len(vs) - 1))
    idx = data.draw(st.lists(st.integers(0, 0), min_size=len(vs),
                             max_size=len(vs)))
    idx[j] = data.draw(st.sampled_from([-1, int(d[j]), int(d[j]) + 7]))
    with pytest.raises(IndexOutOfRange):
        o.out_nbr(vs[j], idx[j])
    with pytest.raises(IndexOutOfRange):
        o.out_nbr_many(vs, idx)


@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_in_sorted_scans_match_scalar_scans(g, data):
    """A scan batch reads and charges what a loop of scalar queries does:
    DEG-IN(v), then IN-SORTED and DEG-OUT up to the first in-neighbor
    whose out-degree reaches the scan's bound."""
    a, b = twin_oracles(g, view=False)
    vs = data.draw(st.lists(st.integers(0, g.node_count - 1), max_size=12))
    bound = np.array(data.draw(st.lists(st.integers(1, g.node_count + 1),
                                        min_size=len(vs), max_size=len(vs))),
                     dtype=np.int64)
    want = []
    for j, v in enumerate(vs):
        for i in range(a.deg_in(v)):
            u = a.in_sorted(v, i)
            d = a.deg_out(u)
            want.append((u, d, j))
            if d >= bound[j]:
                break
    nbrs, degs, rows = b.in_sorted_scans(vs, lambda rows, d: d >= bound[rows])
    assert list(zip(nbrs.tolist(), degs.tolist(), rows.tolist())) == want
    assert a.stats.as_dict() == b.stats.as_dict()
    with pytest.raises(CapabilityDisabled):
        OracleHandle(g).in_sorted_scans(vs, lambda rows, d: d > 0)


@settings(max_examples=30, deadline=None)
@given(g=graphs(), k=st.integers(0, 50))
def test_jump_many_matches_scalar_jumps(g, k):
    a, b = twin_oracles(g, view=False)
    assert b.jump_many(k).tolist() == [a.jump() for _ in range(k)]
    assert a.stats.as_dict() == b.stats.as_dict()
    assert jump_state(a) == jump_state(b)


@settings(max_examples=20, deadline=None)
@given(g=graphs())
def test_jump_batches_need_jump(g):
    caps = Capabilities(in_sorted=True, adj=True)
    o = OracleHandle(g, caps, seed=1)
    with pytest.raises(CapabilityDisabled):
        o.jump_many(3)
    view = SuperSourceView(o)
    with pytest.raises(CapabilityDisabled):
        view.out_nbr_many([0, view.virtual], [0, 0])
    # virtual degrees are construction knowledge: free and always allowed
    before = o.stats.as_dict()
    assert view.deg_out_many([view.virtual]).tolist() == [g.node_count]
    assert o.stats.as_dict() == before
    assert o.stats.jump == 0


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
    want = reference_walk_terminals(a, s, alpha, ra, count)
    got = _walk_terminals(b, [s], alpha, rb, count)
    assert got.tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    # counters feed the CSV and JSON output: Python ints, never numpy's
    assert {type(q) for q in b.stats.as_dict().values()} == {int}
    assert ra.bit_generator.state == rb.bit_generator.state
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
@settings(max_examples=30, deadline=None)
@given(g=graphs(), alpha=ALPHAS, count=COUNTS, seed=st.integers(0, 2**32),
       data=st.data())
def test_grouped_walks_match_per_source_calls(view, g, alpha, count, seed,
                                              data):
    a, b = twin_oracles(g, view, seed=seed % 89)
    top = g.node_count if view else g.node_count - 1
    sources = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
    ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
    want = []
    for s in sources:
        want += _walk_terminals(a, [s], alpha, ra, count).tolist()
    assert _walk_terminals(b, sources, alpha, rb, count).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
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
        want = reference_walk_terminals(a, s, 0.05, ra, 4000)
        assert _walk_terminals(b, [s], 0.05, rb, 4000).tolist() == want
    assert a.stats.as_dict() == b.stats.as_dict()
    assert ra.bit_generator.state == rb.bit_generator.state
    assert jump_state(a) == jump_state(b)


@pytest.mark.parametrize("solver", [single_target_jump_mc,
                                    single_target_bidir_jump])
def test_single_target_solvers_match_per_source_walks(solver, monkeypatch):
    """The JUMP solvers walk all sources in one lockstep; per-source
    step-by-step walks (the old loop) give bit-equal estimates."""
    from pprquery import classic

    g = random_graph(6, 12, d=3)
    args = (4, 0.2, 0.2, 0.3, 0.2)
    a, b = twin_oracles(g, view=False, seed=9)
    got = solver(a, *args, np.random.default_rng(3))

    def per_source(o, sources, alpha, rng, count):
        return np.array([u for s in sources for u in
                         reference_walk_terminals(o, s, alpha, rng, count)],
                        dtype=np.int64)

    monkeypatch.setattr(classic, "_walk_terminals", per_source)
    want = solver(b, *args, np.random.default_rng(3))
    assert list(got.items()) == list(want.items())
    assert a.stats.as_dict() == b.stats.as_dict()


@pytest.mark.parametrize("name", ["delta", "eps", "p_f"])
@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
def test_walk_count_names_bad_parameter(name, bad):
    kw = {"delta": 0.01, "eps": 0.2, "p_f": 0.1, name: bad}
    with pytest.raises(ValueError, match=name):
        mc_walk_count(**kw)
