import math

import numpy as np
import pytest

from pprquery import (build_graph, load_edge_list, save_edge_list,
                      DanglingNode, DuplicateEdge, NodeIdOutOfRange,
                      OracleHandle, Capabilities, CapabilityDisabled,
                      IndexOutOfRange)
from conftest import chain_graph, random_graph, singleton_graph


class TestBuild:
    def test_singleton_self_loop(self):
        g = singleton_graph()
        assert g.node_count == 1 and g.edge_count == 1
        assert g.d_out(0) == 1

    def test_in_sorted_tie_broken_by_id(self):
        # d_out(0) == d_out(1) == 1, so ties resolve by ascending id
        g = build_graph([(0, 1), (1, 1)], 2)
        assert g.in_sorted_lists[1] == [0, 1]

    def test_in_sorted_equal_degrees_id_order(self):
        g = build_graph([(0, 2), (1, 2), (2, 2)], 3)
        assert g.in_sorted_lists[2] == [0, 1, 2]

    def test_in_sorted_orders_by_out_degree(self):
        # node 3's in-neighbors: 1 and 3 with d_out 1, then 0 with d_out 3
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 3), (2, 2), (3, 3)], 4)
        assert g.in_sorted_lists[3] == [1, 3, 0]

    def test_dangling_rejected(self):
        with pytest.raises(DanglingNode):
            build_graph([(0, 1)], 2)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph([(0, 1), (0, 1), (1, 1)], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(NodeIdOutOfRange):
            build_graph([(0, 2)], 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_on_random_graphs(self, seed):
        g = random_graph(seed, 60)
        assert sum(g.out_degrees) == sum(g.in_degrees) == g.edge_count
        for u in range(g.node_count):
            for v in g.out_lists[u]:
                assert u in g.in_lists[v]
        dout = g.out_degrees
        for v in range(g.node_count):
            lst = g.in_sorted_lists[v]
            assert sorted(lst) == sorted(g.in_lists[v])
            assert all(dout[lst[i]] <= dout[lst[i + 1]]
                       for i in range(len(lst) - 1))

    @pytest.mark.parametrize("seed,n,d", [(0, 1, 1), (1, 7, 3), (2, 60, 4),
                                          (3, 200, 9), (4, 60, 1)])
    def test_edge_arrays_match_edges(self, seed, n, d):
        g = random_graph(seed, n, d)
        src, dst = g.edge_arrays()
        assert src.dtype == dst.dtype == np.int64
        assert len(src) == len(dst) == g.edge_count
        assert list(zip(src.tolist(), dst.tolist())) == g.edges()
        assert g.edge_arrays()[0] is src  # cached


class TestOracle:
    def test_degree_queries(self):
        o = OracleHandle(chain_graph())
        assert o.deg_out(0) == 1
        assert o.deg_in(1) == 2
        assert o.stats.deg_out == 1 and o.stats.deg_in == 1

    def test_neighbor_queries(self):
        o = OracleHandle(chain_graph())
        assert o.out_nbr(0, 0) == 1
        assert o.in_nbr(1, 1) == 1
        assert o.stats.out_q == 1 and o.stats.in_q == 1
        o1 = OracleHandle(singleton_graph())
        assert o1.in_nbr(0, 0) == 0
        assert o1.stats.in_q == 1 and o1.stats.total == 1

    def test_index_out_of_range(self):
        o = OracleHandle(chain_graph())
        with pytest.raises(IndexOutOfRange):
            o.out_nbr(0, 1)
        with pytest.raises(IndexOutOfRange):
            o.in_nbr(0, 0)

    def test_capability_gating(self):
        o = OracleHandle(chain_graph())  # base model only
        with pytest.raises(CapabilityDisabled):
            o.in_sorted(1, 0)
        with pytest.raises(CapabilityDisabled):
            o.adj(0, 1)
        with pytest.raises(CapabilityDisabled):
            o.jump()

    def test_adj(self):
        o = OracleHandle(chain_graph(), Capabilities(adj=True))
        assert o.adj(0, 1) is True
        assert o.adj(1, 0) is False
        o1 = OracleHandle(singleton_graph(), Capabilities(adj=True))
        assert o1.adj(0, 0) is True

    def test_in_sorted_scan_is_permutation(self):
        g = random_graph(3, 40)
        o = OracleHandle(g, Capabilities(in_sorted=True))
        for v in range(g.node_count):
            got = [o.in_sorted(v, i) for i in range(g.d_in(v))]
            assert sorted(got) == sorted(g.in_lists[v])

    def test_counter_accounting_completeness(self):
        g = random_graph(1, 20)
        o = OracleHandle(g, Capabilities.all(), seed=0)
        calls = 0
        for v in range(10):
            o.deg_out(v); o.deg_in(v)
            calls += 2
            for i in range(g.d_out(v)):
                o.out_nbr(v, i)
                calls += 1
            for i in range(g.d_in(v)):
                o.in_nbr(v, i); o.in_sorted(v, i)
                calls += 2
        for _ in range(7):
            o.jump(); o.adj(0, 1)
            calls += 2
        st = o.stats
        assert st.total == calls
        assert st.total == sum(v for k, v in st.as_dict().items() if k != "total")

    def test_jump_singleton(self):
        o = OracleHandle(singleton_graph(), Capabilities(jump=True), seed=9)
        assert all(o.jump() == 0 for _ in range(20))

    def test_jump_uniformity_4sigma(self):
        g = build_graph([(i, i) for i in range(4)], 4)
        o = OracleHandle(g, Capabilities(jump=True), seed=123)
        draws = 40000
        counts = [0, 0, 0, 0]
        for _ in range(draws):
            counts[o.jump()] += 1
        sigma = math.sqrt(draws * 0.25 * 0.75)
        for c in counts:
            assert abs(c - draws / 4) <= 4 * sigma

    def test_jump_determinism(self):
        g = random_graph(2, 30)
        a = OracleHandle(g, Capabilities(jump=True), seed=77)
        b = OracleHandle(g, Capabilities(jump=True), seed=77)
        assert [a.jump() for _ in range(100)] == [b.jump() for _ in range(100)]


class CountingProxy:
    """Instrumented oracle wrapper: tallies every query call externally
    so estimator-side accounting can be cross-checked."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _count(self, method, *args):
        self.calls += 1
        return method(*args)

    def deg_out(self, v):
        return self._count(self.inner.deg_out, v)

    def deg_in(self, v):
        return self._count(self.inner.deg_in, v)

    def out_nbr(self, v, i):
        return self._count(self.inner.out_nbr, v, i)

    def in_nbr(self, v, i):
        return self._count(self.inner.in_nbr, v, i)

    def in_sorted(self, v, i):
        return self._count(self.inner.in_sorted, v, i)

    def adj(self, u, v):
        return self._count(self.inner.adj, u, v)

    def jump(self):
        return self._count(self.inner.jump)

    # a batch call is one oracle call per element
    def _count_many(self, method, vs, *args):
        self.calls += len(vs)
        return method(vs, *args)

    def deg_out_many(self, vs):
        return self._count_many(self.inner.deg_out_many, vs)

    def out_nbr_many(self, vs, idx):
        return self._count_many(self.inner.out_nbr_many, vs, idx)


class TestAccountingCompleteness:
    """Counter sums equal the true number of oracle calls for whole
    estimator runs, not just scripted sequences."""

    def _proxy(self, seed=3):
        g = random_graph(4, 60, d=5)
        inner = OracleHandle(g, Capabilities.all(), seed=seed)
        return inner, CountingProxy(inner)

    def test_bippr_accounting(self, rng):
        inner, proxy = self._proxy()
        from pprquery import bippr_pair
        bippr_pair(proxy, 0, 7, 0.2, 0.05, 0.2, 0.1, 0.3, rng)
        assert inner.stats.total == proxy.calls > 0

    def test_new_algorithm_accounting(self, rng):
        inner, proxy = self._proxy()
        from pprquery import derive_params, single_pair_ppr
        params = derive_params(0.2, 0.05, 0.2, 0.1, 60)
        single_pair_ppr(proxy, 0, 7, params, rng)
        assert inner.stats.total == proxy.calls > 0

    def test_rbs_accounting(self, rng):
        inner, proxy = self._proxy()
        from pprquery import rbs_single_target
        rbs_single_target(proxy, 7, 0.2, 0.05, 0.01, rng)
        assert inner.stats.total == proxy.calls > 0


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = random_graph(5, 25)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.node_count == g.node_count
        assert h.edges() == g.edges()

    def test_headerless(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 1\n")
        g = load_edge_list(path)
        assert g.node_count == 2 and g.edge_count == 2

    def test_loader_validates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 1\n0 1\n")
        with pytest.raises(DuplicateEdge):
            load_edge_list(path)
