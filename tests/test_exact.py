import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import (cli, exact_single_source, exact_single_target,
                      exact_pagerank, brute_force_pair, build_graph,
                      save_edge_list, ExplosionGuard, NodeIdOutOfRange)
from pprquery.exact import _reach
from conftest import (chain_graph, star_graph, cycle_graph, singleton_graph,
                      random_graph)

ALPHA = 0.2


class TestTrivialValues:
    def test_singleton(self):
        g = singleton_graph()
        assert exact_single_source(g, 0, ALPHA)[0] == pytest.approx(1.0, abs=1e-12)
        assert exact_single_target(g, 0, ALPHA)[0] == pytest.approx(1.0, abs=1e-12)
        assert exact_pagerank(g, ALPHA)[0] == pytest.approx(1.0, abs=1e-12)

    def test_chain_source(self):
        v = exact_single_source(chain_graph(), 0, ALPHA)
        assert v[0] == pytest.approx(0.2, abs=1e-12)
        assert v[1] == pytest.approx(0.8, abs=1e-12)

    def test_chain_target(self):
        v = exact_single_target(chain_graph(), 1, ALPHA)
        assert v[0] == pytest.approx(0.8, abs=1e-12)
        assert v[1] == pytest.approx(1.0, abs=1e-12)

    def test_chain_pagerank(self):
        v = exact_pagerank(chain_graph(), ALPHA)
        assert v[0] == pytest.approx(0.1, abs=1e-12)
        assert v[1] == pytest.approx(0.9, abs=1e-12)

    def test_star_symmetry(self):
        v = exact_single_source(star_graph(), 0, ALPHA)
        assert v[1] == pytest.approx(0.4, abs=1e-12)
        assert v[2] == pytest.approx(0.4, abs=1e-12)


class TestInvariants:
    TOL = 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_forward_backward_duality(self, seed):
        # 5 sizes x 10 seeds covers 50 random graphs
        for n in (5, 12, 23, 37, 50):
            g = random_graph(1000 * seed + n, n)
            t = n // 2
            tv = exact_single_target(g, t, ALPHA, self.TOL)
            for s in range(0, n, max(1, n // 7)):
                sv = exact_single_source(g, s, ALPHA, self.TOL)
                assert abs(tv[s] - sv[t]) <= 2 * self.TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_normalization_and_self_mass(self, seed):
        g = random_graph(seed, 40)
        for s in (0, 17, 39):
            v = exact_single_source(g, s, ALPHA, self.TOL)
            assert abs(v.values.sum() - 1.0) <= g.node_count * self.TOL
            assert v[s] >= ALPHA - self.TOL

    def test_pagerank_floor(self):
        g = random_graph(9, 30)
        v = exact_pagerank(g, ALPHA)
        assert v.values.min() >= ALPHA / g.node_count - 1e-12
        assert abs(v.values.sum() - 1.0) <= g.node_count * 1e-12

    def test_pagerank_is_average_of_sources(self):
        g = random_graph(4, 15)
        n = g.node_count
        avg = sum(exact_single_source(g, s, ALPHA).values for s in range(n)) / n
        assert np.allclose(avg, exact_pagerank(g, ALPHA).values, atol=1e-11)


class TestBruteForce:
    def test_singleton(self):
        # horizon h leaves exactly the geometric tail (1-alpha)^(h+1)
        got = brute_force_pair(singleton_graph(), 0, 0, ALPHA, 50)
        assert got == pytest.approx(1.0 - 0.8 ** 51, abs=1e-12)
        assert brute_force_pair(singleton_graph(), 0, 0, ALPHA, 120) == \
            pytest.approx(1.0, abs=1e-10)

    def test_chain(self):
        assert brute_force_pair(chain_graph(), 0, 1, ALPHA, 150) == \
            pytest.approx(0.8, abs=1e-10)

    def test_three_cycle_cross_check(self):
        g = cycle_graph(3)
        ex = exact_single_source(g, 0, ALPHA)[0]
        assert brute_force_pair(g, 0, 0, ALPHA, 160) == pytest.approx(ex, abs=1e-9)

    def test_cross_check_random(self):
        g = random_graph(8, 20)
        ex = exact_single_source(g, 0, ALPHA)
        for t in range(0, 20, 5):
            assert brute_force_pair(g, 0, t, ALPHA, 160) == \
                pytest.approx(ex[t], abs=1e-9)

    def test_explosion_guard(self):
        g = random_graph(0, 65)
        with pytest.raises(ExplosionGuard):
            brute_force_pair(g, 0, 1, ALPHA, 10)


def test_dump_csv(tmp_path):
    from pprquery.exact import dump_csv
    v = exact_single_source(chain_graph(), 0, ALPHA)
    p = tmp_path / "v.csv"
    dump_csv(v, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 3
    assert float(lines[2].split(",")[1]) == pytest.approx(0.8, abs=1e-12)


class TestBadInput:
    @pytest.mark.parametrize("solve", [exact_single_source,
                                       exact_single_target])
    @pytest.mark.parametrize("anchor", [-1, -3, 3, 10])
    def test_anchor_outside_graph(self, solve, anchor):
        with pytest.raises(NodeIdOutOfRange, match=f"anchor {anchor} "):
            solve(star_graph(), anchor, ALPHA)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, 1.0, 2.0, math.nan])
    def test_tol_outside_unit_interval(self, tol):
        g = star_graph()
        for solve in (lambda: exact_single_source(g, 0, ALPHA, tol),
                      lambda: exact_single_target(g, 0, ALPHA, tol),
                      lambda: exact_pagerank(g, ALPHA, tol)):
            with pytest.raises(ValueError, match="tol"):
                solve()

    def test_cli_negative_node(self, tmp_path):
        edge = tmp_path / "g.txt"
        save_edge_list(star_graph(), edge)
        with pytest.raises(NodeIdOutOfRange, match="anchor -1 "):
            cli.main(["exact", "--graph", str(edge), "--mode", "source",
                      "--node", "-1", "--out", str(tmp_path / "v.csv")])
        assert not (tmp_path / "v.csv").exists()


def reference_propagate(g, init, alpha, tol, backward):
    """The dense loop over every edge that the support-restricted solve
    replaced, kept verbatim."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0,1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = g.node_count
    src, dst = g.edge_arrays()
    dst = dst.astype(np.intp)
    dout = g.out_deg.astype(np.float64)
    if init is None:
        cur = np.full(n, 1.0 / n)
    else:
        cur = np.zeros(n)
        cur[init] = 1.0
    acc = np.zeros(n)
    # K = smallest count with (1-alpha)^(K+1) <= tol
    K = max(1, math.ceil(math.log(tol) / math.log(1.0 - alpha)))
    for _ in range(K + 1):
        acc += alpha * cur
        if backward:
            # pi_k+1(u) = (1-alpha)/d_out(u) * sum_{v in N_out(u)} pi_k(v)
            cur = np.bincount(src, weights=cur[dst], minlength=n) * (1.0 - alpha) / dout
        else:
            w = (1.0 - alpha) * cur / dout
            cur = np.bincount(dst, weights=w[src], minlength=n)
    return acc


def reference_reach(adj, root, depth):
    """Plain BFS: sorted nodes within depth steps of root."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if dist[u] < depth:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return sorted(dist)


@st.composite
def bridged_graphs(draw, max_n=24):
    """Graph on n shuffled ids: component A (the first a of them, under
    the shuffle) and component B (the rest), each strongly connected
    through a hub joined both ways to every member, plus random extra
    edges inside each component and one to three one-way bridge edges
    from A to B.  a = n is one component; otherwise B's hub has B alone
    as its source-solve support, and A's hub A alone as its target-solve
    support.  Edges are inserted in a drawn order, so out-lists are not
    sorted by id."""
    n = draw(st.integers(1, max_n))
    a = draw(st.sampled_from([n // 2, n - n // 2, n]) | st.integers(1, n))
    a = max(a, 1)
    ids = draw(st.permutations(range(n)))
    comps = [ids[:a], ids[a:]]
    edges = set()
    for comp in comps:
        if not comp:
            continue
        hub = comp[0]
        for v in comp:
            edges.update(((hub, v), (v, hub)))
            extra = draw(st.lists(st.sampled_from(comp), max_size=4))
            edges.update((v, w) for w in extra)
    if a < n:
        bridges = draw(st.lists(st.tuples(st.sampled_from(comps[0]),
                                           st.sampled_from(comps[1])),
                                min_size=1, max_size=3))
        edges.update(bridges)
    g = build_graph(draw(st.permutations(sorted(edges))), n)
    anchors = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    return g, [comps[0][0], comps[-1][0] if comps[-1] else ids[0], *anchors]


def block_chain_graph(seed, blocks=8, size=25, link=5):
    """Graph on shuffled ids: `blocks` strongly connected blocks of
    `size` nodes (a cycle plus two random out-edges per node), each
    joined one way to the next by a path of `link` nodes.  Returns the
    graph and the first node of each block."""
    rng = np.random.default_rng(seed)
    n = blocks * size + (blocks - 1) * link
    ids = rng.permutation(n)
    edges, heads, pos = [], [], 0
    for b in range(blocks):
        block = ids[pos:pos + size]
        heads.append(int(block[0]))
        edges += zip(block, np.roll(block, -1))
        edges += zip(np.repeat(block, 2), rng.choice(block, 2 * size))
        pos += size
        if b < blocks - 1:
            path = [block[-1], *ids[pos:pos + link], ids[pos + link]]
            edges += zip(path[:-1], path[1:])
            pos += link
    edges = sorted({(int(u), int(v)) for u, v in edges})
    rng.shuffle(edges)
    return build_graph(edges, n), heads


class TestSupportRestriction:
    """The support-restricted solves against the dense loop they
    replaced: the same bytes, not just close values."""

    @settings(max_examples=150, deadline=None)
    @given(bridged_graphs(), st.floats(0.05, 0.95),
           st.sampled_from([1e-6, 1e-12, 1e-13]))
    def test_bit_equal_to_dense_loop(self, case, alpha, tol):
        g, anchors = case
        for x in anchors:
            assert exact_single_source(g, x, alpha, tol).values.tobytes() == \
                reference_propagate(g, x, alpha, tol, False).tobytes()
            assert exact_single_target(g, x, alpha, tol).values.tobytes() == \
                reference_propagate(g, x, alpha, tol, True).tobytes()
        assert exact_pagerank(g, alpha, tol).values.tobytes() == \
            reference_propagate(g, None, alpha, tol, False).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_on_block_chains(self, seed):
        # anchors in the first, two middle and the last block: forward and
        # backward supports run from one block to past n/2, and the
        # larger ones cross bridge paths over many BFS levels
        g, heads = block_chain_graph(seed)
        n = g.node_count
        restricted = 0
        for x in (heads[0], heads[2], heads[5], heads[-1]):
            for tol in (1e-6, 1e-12):
                K = math.ceil(math.log(tol) / math.log(0.7))
                for backward, ptr, nbrs, solve in (
                        (False, g.out_ptr, g.out_nbrs, exact_single_source),
                        (True, g.in_ptr, g.in_nbrs, exact_single_target)):
                    support = _reach(ptr, nbrs, x, K)
                    restricted += 40 < support.size <= n // 2
                    assert solve(g, x, 0.3, tol).values.tobytes() == \
                        reference_propagate(g, x, 0.3, tol, backward).tobytes()
        assert restricted >= 4

    def test_long_cycle_support_is_depth_bounded(self):
        # every node is reachable, but only the K + 1 nearest hold mass
        g = cycle_graph(1000)
        v = exact_single_source(g, 10, 0.5, 1e-6)
        assert np.flatnonzero(v.values).tolist() == list(range(10, 31))
        assert v.values.tobytes() == \
            reference_propagate(g, 10, 0.5, 1e-6, False).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(bridged_graphs(), st.integers(0, 30))
    def test_reach_matches_plain_bfs(self, case, depth):
        g, anchors = case
        n = g.node_count
        outs = [g.out_list(v) for v in range(n)]
        ins = [g.in_list(v) for v in range(n)]
        for x in anchors:
            for ptr, nbrs, adj in ((g.out_ptr, g.out_nbrs, outs),
                                   (g.in_ptr, g.in_nbrs, ins)):
                got = _reach(ptr, nbrs, x, depth)
                assert got.tolist() == reference_reach(adj, x, depth)
