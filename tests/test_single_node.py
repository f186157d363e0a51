import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import (OracleHandle, Capabilities, CapabilityDisabled,
                      exact_single_source, exact_pagerank, generate,
                      parameter_presets)
from pprquery.single_node import (SuperSourceView, adaptive_rounds,
                                  single_node_adaptive, single_node_avg_jump,
                                  single_node_avg_full)
from conftest import (chain_graph, in_list, materialize_super_source,
                      out_list, random_graph, singleton_graph)

A = 0.2
CSR_ARRAYS = ("out_ptr", "out_nbrs", "out_sorted", "out_deg", "in_ptr",
              "in_nbrs", "in_sorted", "in_deg")


class TestSuperSourceView:
    @pytest.mark.parametrize("seed", range(4))
    def test_reduction_identity(self, seed):
        # pi_aug(s', t) = (1-alpha) * pi(t) on the materialized graph
        g = random_graph(seed, 40)
        pr = exact_pagerank(g, A, 1e-13)
        ga = materialize_super_source(g)
        va = exact_single_source(ga, g.node_count, A, 1e-13)
        for t in range(g.node_count):
            assert abs(va[t] - (1 - A) * pr[t]) <= 1e-9

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 40),
           d=st.integers(1, 6), alpha=st.floats(0.05, 0.95))
    def test_reduction_identity_random(self, seed, n, d, alpha):
        g = random_graph(seed, n, d)
        pr = exact_pagerank(g, alpha, 1e-13)
        va = exact_single_source(materialize_super_source(g), n, alpha, 1e-13)
        assert np.abs(va[:n] - (1 - alpha) * pr).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_augmented_layout_matches_materialized(self, seed):
        # random_graph lists its edges by source, so rebuilding from
        # edge_arrays() keeps every in-list's order: all arrays agree
        g = random_graph(seed, 5 + 7 * seed, d=1 + seed % 4)
        got = SuperSourceView(OracleHandle(g, Capabilities.all())).graph
        want = materialize_super_source(g)
        assert (got.node_count, got.edge_count) == \
            (want.node_count, want.edge_count)
        for name in CSR_ARRAYS:
            arr = getattr(got, name)
            assert arr.dtype == np.int32 and not arr.flags.writeable, name
            assert np.array_equal(arr, getattr(want, name)), name
        with pytest.raises(ValueError):
            got.in_nbrs[0] = 0

    def test_augmented_in_lists_keep_insertion_order(self):
        # sp_avg's edge list is not source-ordered, so a rebuild from
        # edge_arrays() reorders some in-lists; the view keeps g's order
        # (the in_scans batches of BiPPR's push read it) and appends s'
        g, _ = generate(parameter_presets("sp_avg", 64, 512, 0.1, A))
        n = g.node_count
        aug = SuperSourceView(OracleHandle(g, Capabilities.all())).graph
        rebuilt = materialize_super_source(g)
        assert any(in_list(rebuilt, v) != in_list(g, v) + [n]
                   for v in range(n))
        for v in range(n):
            assert in_list(aug, v) == in_list(g, v) + [n]
            assert in_list(aug, v, True) == in_list(g, v, True) + [n]
        assert in_list(aug, n) == [] and out_list(aug, n) == list(range(n))

    def test_view_mechanics(self):
        g = chain_graph()
        base = OracleHandle(g, Capabilities.all(), seed=4)
        view = SuperSourceView(base)
        v = view.virtual
        assert view.node_count == 3 and view.edge_count == 4
        assert view.deg_in(0) == g.in_degrees[0] + 1
        assert base.stats.as_dict()["total"] == 1
        # queries about s' are free: its degrees, entries and ADJ pairs
        assert view.deg_out(v) == 2
        assert view.deg_in(v) == 0
        # virtual source is the last (highest out-degree) in-neighbor
        assert view.in_nbr(0, g.in_degrees[0]) == v
        assert view.in_sorted(0, g.in_degrees[0]) == v
        assert view.adj(v, 0) and view.adj(v, 1)
        assert not view.adj(0, v) and not view.adj(v, v)
        assert base.stats.as_dict()["total"] == 1
        before = base.stats.jump
        nbr = view.out_nbr(v, 0)
        assert nbr in (0, 1)
        assert base.stats.jump == before + 1  # served through JUMP

    def test_view_walks_are_uniform_first_step(self):
        g = chain_graph()
        base = OracleHandle(g, Capabilities.all(), seed=10)
        view = SuperSourceView(base)
        counts = [0, 0]
        for _ in range(20000):
            counts[view.out_nbr(view.virtual, 0)] += 1
        sigma = math.sqrt(20000 * 0.25)
        assert abs(counts[0] - 10000) <= 4 * sigma


class TestAdaptive:
    def test_rounds_budget(self):
        n = 100
        rounds = adaptive_rounds(n, A)
        # per-round budget p_f/rounds sums back to at most p_f
        assert rounds * (0.1 / rounds) <= 0.1 + 1e-15
        assert rounds >= math.log2(2 * n / A) - 1

    def test_singleton_stops_early(self, rng):
        o = OracleHandle(singleton_graph(), Capabilities(in_sorted=True), seed=0)
        est = single_node_adaptive(o, 0, A, 0.2, 0.1, rng)
        assert abs(est - 1.0) <= 0.2

    def test_needs_in_sorted(self, rng):
        o = OracleHandle(chain_graph(), Capabilities(jump=True))
        with pytest.raises(CapabilityDisabled):
            single_node_adaptive(o, 1, A, 0.2, 0.1, rng)

    def test_chain_value(self):
        ok = 0
        for seed in range(40):
            o = OracleHandle(chain_graph(), Capabilities(in_sorted=True),
                             seed=seed)
            est = single_node_adaptive(o, 1, A, 0.2, 0.1,
                                       np.random.default_rng(seed))
            ok += abs(est - 0.9) <= 0.2 * 0.9
        assert ok >= 34

    def test_min_mass_node_floor_terminates(self, rng):
        g = random_graph(7, 100, d=5)
        pr = exact_pagerank(g, A)
        t = int(np.argmin(pr))
        o = OracleHandle(g, Capabilities(in_sorted=True), seed=2)
        est = single_node_adaptive(o, t, A, 0.3, 0.1, rng)
        assert abs(est - pr[t]) <= 0.3 * pr[t] + 1e-9


class TestAverageCase:
    def test_avg_jump_singleton(self, rng):
        o = OracleHandle(singleton_graph(), Capabilities(jump=True), seed=0)
        est = single_node_avg_jump(o, 0, A, 0.2, 0.1, rng)
        assert abs(est - 1.0) <= 0.2

    def test_avg_jump_chain_low_mass_node(self):
        # pi(s) = 0.1 on the chain; recover within eps*0.1
        ok = 0
        for seed in range(30):
            o = OracleHandle(chain_graph(), Capabilities(jump=True), seed=seed)
            est = single_node_avg_jump(o, 0, A, 0.2, 0.1,
                                       np.random.default_rng(seed))
            ok += abs(est - 0.1) <= 0.2 * 0.1
        assert ok >= 25

    def test_avg_full_chain(self):
        ok = 0
        for seed in range(30):
            o = OracleHandle(chain_graph(), Capabilities.all(), seed=seed)
            est = single_node_avg_full(o, 1, A, 0.2, 0.1,
                                       np.random.default_rng(seed))
            ok += abs(est - 0.9) <= 0.2 * 0.9
        assert ok >= 25

    def test_avg_full_needs_all_caps(self, rng):
        o = OracleHandle(chain_graph(), Capabilities(jump=True, adj=True))
        with pytest.raises(CapabilityDisabled):
            single_node_avg_full(o, 1, A, 0.2, 0.1, rng)

    @pytest.mark.parametrize("bad", [[2.0], "2", 0.0, True])
    def test_avg_full_names_bad_multiplier(self, bad, rng):
        """An unhashable value too is named, not refused by the cache of
        derived parameters."""
        o = OracleHandle(chain_graph(), Capabilities.all())
        with pytest.raises(ValueError, match=re.escape(f"c_nr={bad!r}")):
            single_node_avg_full(o, 1, A, 0.2, 0.1, rng,
                                 multipliers={"c_nr": bad})
        assert o.stats.total == 0

    def test_random_graph_agreement(self):
        g = random_graph(3, 60, d=5)
        pr = exact_pagerank(g, A)
        rng = np.random.default_rng(0)
        for t in (4, 31, 59):
            o = OracleHandle(g, Capabilities(jump=True), seed=t)
            est = single_node_avg_jump(o, t, A, 0.25, 0.1, rng)
            assert abs(est - pr[t]) <= 0.25 * pr[t] + 0.01
