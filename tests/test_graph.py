import json
import math
import re
import tracemalloc
from fnmatch import fnmatch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pprquery import (build_graph, load_edge_list, save_edge_list,
                      DanglingNode, DuplicateEdge, GraphError, NodeIdOutOfRange,
                      OracleHandle, Capabilities, CapabilityDisabled,
                      IndexOutOfRange)
from pprquery.graph import check_nodes, csr_entries
from conftest import (chain_graph, fan_graph, in_list, out_list,
                      random_graph, singleton_graph)


class TestBuild:
    def test_singleton_self_loop(self):
        g = singleton_graph()
        assert g.node_count == 1 and g.edge_count == 1
        assert g.out_degrees[0] == 1

    def test_in_sorted_tie_broken_by_id(self):
        # d_out(0) == d_out(1) == 1, so ties resolve by ascending id
        g = build_graph([(0, 1), (1, 1)], 2)
        assert in_list(g, 1, by_out_degree=True) == [0, 1]

    def test_in_sorted_equal_degrees_id_order(self):
        g = build_graph([(0, 2), (1, 2), (2, 2)], 3)
        assert in_list(g, 2, by_out_degree=True) == [0, 1, 2]

    def test_in_sorted_orders_by_out_degree(self):
        # node 3's in-neighbors: 1 and 3 with d_out 1, then 0 with d_out 3
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 3), (2, 2), (3, 3)], 4)
        assert in_list(g, 3, by_out_degree=True) == [1, 3, 0]

    def test_dangling_rejected(self):
        with pytest.raises(DanglingNode):
            build_graph([(0, 1)], 2)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph([(0, 1), (0, 1), (1, 1)], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(NodeIdOutOfRange):
            build_graph([(0, 2)], 2)

    @pytest.mark.parametrize("edges,cause", [
        ([(0, 0), (1, 0), (2, 1), (0, 3), (-1, 1)], "edge (0,3)"),
        (np.array([[0, 0], [-1, 1], [3, 0]]), "edge (-1,1)"),
        ([(0, 0), (1, 1), (2, 2), (2, -5)], "edge (2,-5)")])
    def test_out_of_range_names_first_bad_edge(self, edges, cause):
        with pytest.raises(NodeIdOutOfRange, match=rf"^{re.escape(cause)} "):
            build_graph(edges, 3)

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64)])
    def test_no_edges_is_dangling(self, edges):
        with pytest.raises(DanglingNode, match="node 0"):
            build_graph(edges, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_on_random_graphs(self, seed):
        g = random_graph(seed, 60)
        assert sum(g.out_degrees) == sum(g.in_degrees) == g.edge_count
        for u in range(g.node_count):
            for v in out_list(g, u):
                assert u in in_list(g, v)
        dout = g.out_degrees
        for v in range(g.node_count):
            lst = in_list(g, v, by_out_degree=True)
            assert sorted(lst) == sorted(in_list(g, v))
            assert all(dout[lst[i]] <= dout[lst[i + 1]]
                       for i in range(len(lst) - 1))

    @pytest.mark.parametrize("seed,n,d", [(0, 1, 1), (1, 7, 3), (2, 60, 4),
                                          (3, 200, 9), (4, 60, 1)])
    def test_edge_arrays_match_edges(self, seed, n, d):
        g = random_graph(seed, n, d)
        src, dst = g.edge_arrays()
        assert src.dtype == np.int64 and dst is g.out_nbrs
        assert len(src) == len(dst) == g.edge_count
        assert list(zip(src.tolist(), dst.tolist())) == g.edges()
        for name in ("out_ptr", "out_nbrs", "out_sorted", "out_deg", "in_ptr",
                     "in_nbrs", "in_sorted", "in_deg"):
            arr = getattr(g, name)
            assert arr.dtype == np.int32 and not arr.flags.writeable, name
        assert g.out_ptr[-1] == g.in_ptr[-1] == g.edge_count
        assert (np.diff(g.out_ptr) == g.out_deg).all()
        assert (np.diff(g.in_ptr) == g.in_deg).all()


@pytest.mark.parametrize("v", [0, 2, np.int64(2), np.int32(0), np.uint8(1)])
def test_check_nodes_accepts_integer_ids(v):
    check_nodes(3, s=v, t=v)


@pytest.mark.parametrize("v", [-1, 3, np.int64(-1), True, np.bool_(False),
                               1.0, 1.5, "1", None])
def test_check_nodes_rejects_non_ids(v):
    with pytest.raises(NodeIdOutOfRange, match=r"^t=.* outside \[0, 3\)$"):
        check_nodes(3, s=0, t=v)


TWO_CYCLE = [(0, 1), (1, 0)]


@pytest.mark.parametrize("edges,node_count,cause", [
    ([(0, 0)], True, "node_count=True"), (TWO_CYCLE, True, "node_count=True"),
    (TWO_CYCLE, 2.0, "node_count=2.0"), (TWO_CYCLE, 2.5, "node_count=2.5"),
    (TWO_CYCLE, "2", "node_count='2'"), (TWO_CYCLE, 0, "node_count=0"),
    (TWO_CYCLE, np.int64(2), None)])
def test_build_checks_node_count(edges, node_count, cause):
    if cause is None:
        g = build_graph(edges, node_count)
        assert type(g.node_count) is int and g.node_count == 2
        assert json.dumps(g.node_count) == "2"
        return
    with pytest.raises(GraphError) as got:
        build_graph(edges, node_count)
    assert type(got.value) is GraphError
    assert str(got.value) == f"{cause} must be an integer >= 1"


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
            got = [o.in_sorted(v, i) for i in range(g.in_degrees[v])]
            assert sorted(got) == sorted(in_list(g, v))

    def test_counter_accounting_completeness(self):
        g = random_graph(1, 20)
        o = OracleHandle(g, Capabilities.all(), seed=0)
        calls = 0
        for v in range(10):
            o.deg_out(v); o.deg_in(v)
            calls += 2
            for i in range(g.out_degrees[v]):
                o.out_nbr(v, i)
                calls += 1
            for i in range(g.in_degrees[v]):
                o.in_nbr(v, i); o.in_sorted(v, i)
                calls += 2
        for _ in range(7):
            o.jump(); o.adj(0, 1)
            calls += 2
        st = o.stats
        assert st.total == calls
        assert st.total == sum(v for k, v in st.as_dict().items() if k != "total")

    def test_capabilities_by_name(self):
        assert Capabilities.from_names(["adj", "jump"]).names() == ["jump", "adj"]
        assert repr(Capabilities.from_names([])) == "Capabilities(base)"
        assert repr(Capabilities.all()) == "Capabilities(jump+in_sorted+adj)"
        with pytest.raises(ValueError,
                           match=r"unknown capabilities: \['IN_SORTED', 'ad'\]"):
            Capabilities.from_names(["jump", "ad", "IN_SORTED"])

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

    # a batch call is one oracle call per query an element stands for:
    # one, or times[j] for element j of a batch given `times`
    def _count_many(self, method, vs, *args, times=None):
        self.calls += len(vs) if times is None else int(np.sum(times))
        return method(vs, *args)

    def deg_out_many(self, vs):
        return self._count_many(self.inner.deg_out_many, vs)

    # a whole out-list is d_out OUT calls
    def out_lists(self, vs):
        out, lens = self.inner.out_lists(vs)
        self.calls += int(np.sum(lens))
        return out, lens

    def adj_many(self, us, vs, times=None):
        return self._count_many(self.inner.adj_many, us, vs, times,
                                times=times)

    def out_step_many(self, vs, u):
        return self._count_many(self.inner.out_step_many, vs, u)

    # a walk step is a DEG-OUT and an OUT call per query it stands for
    def walk_step_many(self, vs, u, times=None):
        self.calls += len(vs) if times is None else int(np.sum(times))
        return self._count_many(self.inner.walk_step_many, vs, u, times,
                                times=times)

    # a cover is one call per JUMP it charged
    def jump_cover(self):
        jumps = self.inner.stats.jump
        sources = self.inner.jump_cover()
        self.calls += self.inner.stats.jump - jumps
        return sources

    # one DEG-IN per list, one IN or IN-SORTED and one DEG-OUT per
    # neighbor read: every one returned, and a sorted scan's stop entry
    def in_scans(self, vs, spread):
        nbrs, chi = self.inner.in_scans(vs, spread)
        self.calls += len(vs) + 2 * len(nbrs)
        return nbrs, chi

    def in_sorted_scans(self, vs, spread, lim):
        nbrs, chi, halted = self.inner.in_sorted_scans(vs, spread, lim)
        self.calls += len(vs) + 2 * (len(nbrs) + np.count_nonzero(halted))
        return nbrs, chi, halted


_QUERY_PATTERNS = ("deg_*", "*_nbr*", "in_sorted*", "adj*", "jump*",
                   "*_many", "*_scans", "*_lists")


def test_counting_proxy_counts_every_query():
    # a query method missing from the proxy would reach the oracle through
    # __getattr__ uncounted, and the accounting tests would miss it
    queries = [name for name in dir(OracleHandle)
               if not name.startswith("_")
               and any(fnmatch(name, p) for p in _QUERY_PATTERNS)]
    assert {"in_nbr", "adj_many", "jump_cover", "in_scans",
            "out_lists"} <= set(queries)
    assert [q for q in queries if q not in vars(CountingProxy)] == []


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

    def test_new_algorithm_accounting_with_heavy_set(self, rng, monkeypatch):
        """c_tau = 1e-3 puts pushed nodes in V_P, so R_hat's ADJ batch
        runs once per distinct terminal, charged per occurrence, and its
        light out-list read once per walk at a light terminal."""
        inner, proxy = self._proxy()
        from pprquery import bidir, derive_params, single_pair_ppr
        states = []
        backward = bidir.backward_phase
        monkeypatch.setattr(bidir, "backward_phase",
                            lambda *a: states.append(backward(*a)) or states[0])
        params = derive_params(0.2, 0.05, 0.2, 0.1, 60, c_tau=1e-3)
        single_pair_ppr(proxy, 0, 7, params, rng)
        assert states[0].heavy
        assert inner.stats.total == proxy.calls > 0

    def test_rbs_accounting(self, rng):
        inner, proxy = self._proxy()
        from pprquery import rbs_single_target
        rbs_single_target(proxy, 7, 0.2, 0.05, 0.01, rng)
        assert inner.stats.total == proxy.calls > 0

    def test_power_iteration_accounting(self):
        inner, proxy = self._proxy()
        from pprquery import power_iteration_target
        power_iteration_target(proxy, 7, 0.2, 6)
        assert inner.stats.total == proxy.calls > 0


def test_settled_walk_accounting(rng):
    """Monte Carlo walks from an in-neighbor of fan_graph's t settle in its
    self-loop sinks, whose repeats the proxy counts through `times`."""
    g = fan_graph(8, 4)
    inner = OracleHandle(g, Capabilities.all(), seed=3)
    proxy = CountingProxy(inner)
    from pprquery import monte_carlo_pair
    monte_carlo_pair(proxy, 1, 0, 0.2, 0.05, 0.2, 0.1, rng)
    assert inner.stats.total == proxy.calls > 0


@st.composite
def saved_graphs(draw):
    """Random graph whose largest id has 1 to 4 digits: one out-edge
    per node, a drawn share of them self-loops, plus extra random
    edges, inserted in a shuffled order."""
    digits = draw(st.integers(1, 4))
    n = draw(st.integers(10 ** (digits - 1), min(10 ** digits - 1, 1500)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = np.arange(n)
    heads = np.where(rng.random(n) < draw(st.floats(0, 1)), nodes,
                     rng.integers(0, n, n))
    extra = rng.integers(0, n, (draw(st.integers(0, 2 * n)), 2))
    edges = np.unique(np.concatenate((np.column_stack((nodes, heads)),
                                      extra)), axis=0)
    rng.shuffle(edges)
    return build_graph(edges, n)


def _loop_entries(ptr, nodes):
    return ([i for v in nodes for i in range(ptr[v], ptr[v + 1])],
            [int(ptr[v + 1] - ptr[v]) for v in nodes])


def _check_entries(ptr, nodes):
    idx, lens = csr_entries(ptr, np.array(nodes, dtype=np.intp))
    assert idx.dtype == lens.dtype == np.intp
    assert (idx.tolist(), lens.tolist()) == _loop_entries(ptr, nodes)


@settings(max_examples=60, deadline=None)
@given(g=saved_graphs(), data=st.data())
def test_csr_entries_match_loop(g, data):
    """csr_entries lists every entry of every node, repeats included,
    in node then list order, as a loop over ptr does."""
    for ptr in (g.in_ptr, g.out_ptr):
        _check_entries(ptr, data.draw(st.lists(
            st.integers(0, g.node_count - 1), max_size=20)))


def test_csr_entries_empty_lists_and_no_nodes():
    g = build_graph([(0, 1), (1, 1), (2, 1), (3, 2)], 4)  # d_in 0, 3, 1, 0
    _check_entries(g.in_ptr, [0, 1, 3, 0, 2, 1, 0])
    _check_entries(g.in_ptr, [0])
    _check_entries(g.in_ptr, [])
    assert _loop_entries(g.in_ptr, [3, 0, 2, 1]) == ([3, 0, 1, 2],
                                                     [0, 0, 1, 3])


# fields of a fuzzed edge-list row: ids in and out of range, huge and
# negative ints, and tokens that are no int
_FUZZ_FIELDS = (st.integers(-2, 9).map(str) | st.integers(0, 5).map(str)
                | st.integers(-2 ** 70, 2 ** 70).map(str)
                | st.floats(allow_nan=True, allow_infinity=True).map(repr)
                | st.sampled_from(["0x1", "1.0", "1e3", "+1", "-0", "1_0",
                                   "x", "\u0663", "0 1", "#"]))


@st.composite
def edge_list_texts(draw):
    """A near-valid edge list: an "n m" header or a variant of it, then a
    cycle over n nodes, extra (perhaps duplicate) edges and rows of one
    to three fuzzed fields, in drawn order, with comments and blank
    lines between them."""
    n = draw(st.integers(1, 6))
    rows = [f"{u} {(u + 1) % n}" for u in range(n)]
    rows += [f"{u} {v}" for u, v in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))]
    rows += [" ".join(f) for f in draw(st.lists(st.sampled_from(
        [2, 2, 2, 1, 3]).flatmap(lambda k: st.lists(
            _FUZZ_FIELDS, min_size=k, max_size=k)), max_size=2))]
    rows = draw(st.permutations(rows))
    m = len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = draw(st.sampled_from([f"{n} {m}", f"{n} {m}", f"{n + 1} {m}",
                                   f"{n}", f"{n} {m} 0", f"{-n} {m}",
                                   f"{m} {n}", f"{n}.0 {m}",
                                   f"{n} {m} # header"]))
    lines = [header]
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "# c", "   "]),
                               max_size=1)) + [row]
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = random_graph(5, 25)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.node_count == g.node_count
        assert h.edges() == g.edges()

    @pytest.mark.parametrize("g", [singleton_graph(), chain_graph(),
                                   random_graph(5, 25),
                                   random_graph(6, 1200, d=3)])
    def test_save_matches_line_writer(self, g, tmp_path):
        # ids of one to four digits in the largest graph
        path, ref = tmp_path / "g.txt", tmp_path / "ref.txt"
        save_edge_list(g, path)
        reference_save(g, ref)
        assert path.read_bytes() == ref.read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(g=st.just(singleton_graph()) | saved_graphs())
    def test_round_trip_property(self, tmp_path, g):
        path, again = tmp_path / "g.txt", tmp_path / "again.txt"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.node_count == g.node_count
        assert h.edges() == g.edges()
        save_edge_list(h, again)
        assert again.read_bytes() == path.read_bytes()

    def test_headerless(self, tmp_path):
        # read as a header, "0 1" is n = 0: rejected, not guessed
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 1\n")
        with pytest.raises(GraphError, match="n=0"):
            load_edge_list(path)

    @pytest.mark.parametrize("text, cause", [
        ("", "empty"),
        ("# a comment\n\n# and another\n", "empty"),
        ("2 2\n0\n1 0\n", "malformed"),
        ("2 2\n0 1 1\n1 0\n", "malformed"),
        ("7\n", "malformed.*1 fields"),
        ("2 2\n0 x\n1 0\n", "malformed.*'x'"),
        ("2 2\n0 1.5\n1 0\n", "malformed.*'1.5'"),
        ("0 0\n", "n=0"),
        ("2 3\n0 1\n1 0\n", "m=3 .* 2 edge rows"),
        ("2 1\n0 1\n1 0\n", "m=1 .* 2 edge rows"),
    ])
    def test_rejects_malformed_file(self, tmp_path, text, cause):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphError, match=cause):
            load_edge_list(path)

    def test_header_n_above_m_is_dangling(self, tmp_path):
        # a node count no edge list of m rows can cover fails before any
        # array of n entries is built
        path = tmp_path / "bad.txt"
        path.write_text("1000000000000 1\n0 0\n")
        with pytest.raises(DanglingNode, match="n=1000000000000"):
            load_edge_list(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# graph\n2 3\n\n0 1  # first edge\n 0 0\n1\t0\n")
        g = load_edge_list(path)
        assert g.node_count == 2 and g.edges() == [(0, 1), (0, 0), (1, 0)]

    def test_loader_validates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 1\n0 1\n")
        with pytest.raises(DuplicateEdge):
            load_edge_list(path)

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.binary(max_size=120) | edge_list_texts())
    def test_fuzzed_file_loads_or_names_its_fault(self, tmp_path, text):
        """Random bytes and near-valid edge lists: each loads, or raises a
        GraphError subclass, never another exception."""
        path = tmp_path / "fuzz.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        try:
            g = load_edge_list(path)
        except GraphError:
            return
        assert g.node_count >= 1 and g.edge_count >= g.node_count


def reference_save(g, path):
    """The line-by-line writer save_edge_list replaced."""
    with open(path, "w") as f:
        f.write(f"{g.node_count} {g.edge_count}\n")
        for u, v in g.edges():
            f.write(f"{u} {v}\n")


CSR_ARRAYS = ("out_ptr", "out_nbrs", "out_sorted", "out_deg", "in_ptr",
              "in_nbrs", "in_sorted", "in_deg")


def edge_array(edges, dtype=np.int64, order="C"):
    """edges as an (m, 2) array, also when there are none."""
    return np.array(np.reshape(edges, (-1, 2)), dtype=dtype, order=order)


def reference_build(edges, n):
    """Plain-Python builder: (out-lists, in-lists, in-sorted lists), or
    the error of the first faulty edge in insertion order."""
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise NodeIdOutOfRange(f"edge ({u},{v}) with node_count={n}")
        if v in out[u]:
            raise DuplicateEdge(f"edge ({u},{v}) appears twice")
        out[u].append(v)
        inn[v].append(u)
    for u in range(n):
        if not out[u]:
            raise DanglingNode(f"node {u} has out-degree 0")
    dout = [len(lst) for lst in out]
    return out, inn, [sorted(lst, key=lambda u: (dout[u], u)) for lst in inn]


@st.composite
def edge_lists(draw, max_n=8):
    """(edges, n): every node has out-degree >= 1; the edges of all
    sources are interleaved in a drawn order."""
    n = draw(st.integers(1, max_n))
    nodes = st.integers(0, n - 1)
    edges = [(u, v) for u in range(n)
             for v in draw(st.lists(nodes, min_size=1, max_size=n,
                                    unique=True))]
    return draw(st.permutations(edges)), n


class TestBuildProperties:
    """build_graph against the plain-Python reference builder."""

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_matches_reference(self, case):
        edges, n = case
        out, inn, ins = reference_build(edges, n)
        g = build_graph(edges, n)
        assert (g.node_count, g.edge_count) == (n, len(edges))
        o = OracleHandle(g, Capabilities.all())
        for v in range(n):
            assert out_list(g, v) == out[v]
            assert in_list(g, v) == inn[v]
            assert in_list(g, v, by_out_degree=True) == ins[v]
            assert g.out_degrees[v] == len(out[v])
            assert g.in_degrees[v] == len(inn[v])
            assert type(g.out_degrees[v]) is int and type(g.in_degrees[v]) is int
            assert [o.out_nbr(v, i) for i in range(len(out[v]))] == out[v]
            assert [o.in_nbr(v, i) for i in range(len(inn[v]))] == inn[v]
            assert [o.in_sorted(v, i) for i in range(len(ins[v]))] == ins[v]
        for u in range(n):
            for v in range(n):
                assert o.adj(u, v) is (v in out[u])
            for v in (-1, n):  # no node: named, and not charged
                with pytest.raises(NodeIdOutOfRange):
                    o.adj(u, v)
        assert o.stats.adj == n * n
        assert all(type(x) is int for x in (o.deg_out(0), o.deg_in(0),
                                            o.out_nbr(0, 0)))
        assert g.edges() == [(u, v) for u in range(n) for v in out[u]]

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.sampled_from([np.int64, np.int32, np.uint16]),
           st.sampled_from("CF"))
    def test_array_input_matches_pairs(self, case, dtype, order):
        edges, n = case
        want = build_graph(edges, n)
        g = build_graph(edge_array(edges, dtype, order), n)
        assert (g.node_count, g.edge_count) == (want.node_count, want.edge_count)
        for name in CSR_ARRAYS:
            got, ref = getattr(g, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.data())
    def test_faults_raise_like_reference(self, case, data):
        edges, n = case
        edges = list(edges)
        fault = data.draw(st.sampled_from(["range", "duplicate", "dangling"]))
        if fault == "range":
            bad = data.draw(st.one_of(st.integers(-5, -1),
                                      st.integers(n, n + 5)))
            j = data.draw(st.integers(0, len(edges) - 1))
            u, v = edges[j]
            edges[j] = data.draw(st.sampled_from([(bad, v), (u, bad)]))
            want = NodeIdOutOfRange
        elif fault == "duplicate":
            e = data.draw(st.sampled_from(edges))
            edges.insert(data.draw(st.integers(0, len(edges))), e)
            want = DuplicateEdge
        else:
            w = data.draw(st.integers(0, n - 1))
            edges = [(u, v) for u, v in edges if u != w]
            want = DanglingNode
        with pytest.raises(want) as ref:
            reference_build(edges, n)
        with pytest.raises(want) as got:
            build_graph(edges, n)
        assert str(got.value) == str(ref.value)
        dtype = data.draw(st.sampled_from([np.int64, np.int32]))
        with pytest.raises(want) as got:
            build_graph(edge_array(edges, dtype), n)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("edges", [
        np.array([[0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1], [1, 1]], dtype=bool),
        np.array([0, 1, 1, 1]),
        np.array([[0, 1, 1], [1, 1, 0]]),
        np.array([[[0, 1]], [[1, 1]]]),
        np.empty(0, dtype=np.int64),
    ])
    def test_bad_array_raises_graph_error(self, edges):
        with pytest.raises(GraphError) as got:
            build_graph(edges, 2)
        assert type(got.value) is GraphError


def reference_csr(edges, n):
    """The eight CSR arrays of a valid (m, 2) edge array by stable
    argsorts of the source and target columns and a sorted (v, rank[u])
    key: the formulation build_graph's run-aware sorts replaced."""
    src, dst = (edges[:, c].astype(np.int64) for c in (0, 1))

    def csr(keys, vals):
        deg = np.bincount(keys, minlength=n)
        ptr = np.concatenate(([0], np.cumsum(deg)))
        return ptr, vals[np.argsort(keys, kind="stable")], deg

    out_ptr, out_nbrs, out_deg = csr(src, dst)
    in_ptr, in_nbrs, in_deg = csr(dst, src)
    order = np.argsort(out_deg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    key = np.repeat(np.arange(n) * n, in_deg) + rank[in_nbrs]
    return {"out_ptr": out_ptr, "out_nbrs": out_nbrs,
            "out_sorted": np.sort(src * n + dst) % n, "out_deg": out_deg,
            "in_ptr": in_ptr, "in_nbrs": in_nbrs,
            "in_sorted": order[np.sort(key) % n], "in_deg": in_deg}


def large_edge_orders():
    """One 30k-edge set on 3,000 nodes (out-degrees 1-19, distinct heads
    per source) in five row orders: sources in id order with each
    out-list shuffled, sorted by (source, target), that reversed,
    grouped by target, and shuffled.  Far past the hypothesis graphs'
    n <= 8, so the sorts merge runs longer than timsort's minrun."""
    rng = np.random.default_rng(2024)
    n = 3000
    deg = rng.integers(1, 20, n)
    src = np.repeat(np.arange(n), deg)
    dst = np.concatenate([rng.choice(n, d, replace=False) for d in deg])
    grouped = np.column_stack((src, dst))
    ordered = grouped[np.lexsort((dst, src))]
    return n, {"source_grouped": grouped, "id_sorted": ordered,
               "reversed": ordered[::-1],
               "target_grouped": grouped[np.argsort(dst, kind="stable")],
               "shuffled": grouped[rng.permutation(len(grouped))]}


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_large_build_matches_reference_in_every_row_order(dtype):
    n, orders = large_edge_orders()
    for name, edges in orders.items():
        edges = np.ascontiguousarray(edges, dtype=dtype)
        g = build_graph(edges, n)
        for array, want in reference_csr(edges, n).items():
            got = getattr(g, array)
            assert got.dtype == np.int32, (name, array)
            assert np.array_equal(got, want), (name, array)
        # one repeated edge late in the rows: the same first-edge message
        # whatever the order
        u, v = edges[5]
        late = np.insert(edges, len(edges) - 3, (u, v), axis=0)
        with pytest.raises(DuplicateEdge) as got:
            build_graph(late, n)
        assert str(got.value) == f"edge ({u},{v}) appears twice", name


@pytest.mark.parametrize("form", ["int64", "int32", "list"])
def test_build_peak_under_twice_retained(form):
    """The build's traced peak stays within 2x the eight CSR arrays it
    keeps, also when it has to make its own copy of the edges, and
    within 1.7x for an int32 array, which it reads through views."""
    n, d = 20_000, 10
    u = np.repeat(np.arange(n), d)
    edges = np.column_stack((u, (7 * u + 131 * np.tile(np.arange(d), n)) % n))
    edges = {"int64": edges, "int32": edges.astype(np.int32),
             "list": list(map(tuple, edges.tolist()))}[form]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = build_graph(edges, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(getattr(g, name).nbytes for name in CSR_ARRAYS)
    limit = 1.7 if form == "int32" else 2
    assert peak <= limit * kept, f"build peak {peak / kept:.2f}x the graph"


@pytest.mark.parametrize("edges,node_count,cause", [
    ([(0, 0)], 2 ** 31 + 1, "node_count=2147483649 exceeds 2^31"),
    # a zero-stride view: 2^31 rows in 8 bytes of memory
    (np.broadcast_to(np.zeros((1, 2), np.int32), (2 ** 31, 2)), 1,
     "2147483648 edges"),
])
def test_build_rejects_what_int32_cannot_hold(edges, node_count, cause):
    """Ids and offsets are stored int32, so past 2^31 nodes or 2^31 - 1
    edges the build raises, before any n- or m-length allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=re.escape(cause)) as got:
            build_graph(edges, node_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(got.value) is GraphError
    assert peak < 1 << 20


@pytest.mark.parametrize("fault", [None, NodeIdOutOfRange, DuplicateEdge,
                                   DanglingNode])
@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_build_never_writes_its_input(dtype, order, fault):
    edges = [(2, 1), (0, 2), (1, 0), (2, 2), (0, 1)]
    if fault is NodeIdOutOfRange:
        edges.append((1, 3))
    elif fault is DuplicateEdge:
        edges.append((2, 1))
    elif fault is DanglingNode:
        edges = [e for e in edges if e[0] != 1]
    arr = edge_array(edges, dtype, order)
    before = arr.copy()
    if fault is None:
        build_graph(arr, 3)
    else:
        with pytest.raises(fault):
            build_graph(arr, 3)
    assert arr.dtype == before.dtype and np.array_equal(arr, before)
