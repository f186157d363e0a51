import inspect
import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import (classic, OracleHandle, Capabilities, CapabilityDisabled,
                      exact_single_source, exact_single_target,
                      brute_force_pair, InstanceSpec, generate, build_graph,
                      NodeIdOutOfRange, derive_params, single_pair_ppr)
from pprquery.classic import (_walk_terminals, monte_carlo_pair,
                              approx_contributions, power_iteration_target,
                              bippr_pair, rbs_single_target,
                              single_target_jump_mc, single_target_bidir_jump,
                              default_r_max_pair, rbs_levels)
from pprquery.single_node import (single_node_adaptive, single_node_avg_jump,
                                  single_node_avg_full)
from conftest import (chain_graph, singleton_graph, cycle_graph,
                      random_graph, fan_graph, sn_params)

A = 0.2


def handle(g, **caps):
    return OracleHandle(g, Capabilities(**caps), seed=11)


def path_graph(k):
    """0 -> 1 -> ... -> k-1, with a self-loop at k-1: a walk that makes
    fewer than k moves ends at node = its number of moves."""
    return build_graph([(i, min(i + 1, k - 1)) for i in range(k)], k)


class TestSampleWalk:
    """Laws of single walks, read off one batched _walk_terminals call."""

    def test_singleton_terminates_at_start(self, rng):
        o = handle(singleton_graph())
        terms = _walk_terminals(o, [0], A, rng, 50)
        assert terms.tolist() == [0] * 50

    def test_chain_one_step_law(self, rng):
        o = handle(chain_graph())
        hits = int(np.count_nonzero(_walk_terminals(o, [0], A, rng, 100_000) == 1))
        sigma = math.sqrt(100_000 * 0.8 * 0.2)
        assert abs(hits - 80_000) <= 4 * sigma

    def test_mean_length_is_geometric(self, rng):
        # P(a walk makes >= 199 moves) = 0.8^199 < 1e-19
        o = handle(path_graph(200))
        n = 100_000
        lengths = _walk_terminals(o, [0], A, rng, n)
        mean = lengths.mean()
        # steps before termination ~ Geometric(alpha) - 1
        want = (1 - A) / A
        sigma = math.sqrt((1 - A) / A ** 2 / n)
        assert abs(mean - want) <= 4 * sigma

    def test_walk_costs_two_queries_per_step(self, rng):
        o = handle(path_graph(200))
        moves = int(_walk_terminals(o, [0], A, rng, 1000).sum())
        assert moves > 0
        assert o.stats.deg_out == o.stats.out_q == moves
        assert o.stats.total == 2 * moves


class TestMonteCarlo:
    def test_singleton_exact_one(self, rng):
        est, n_w = monte_carlo_pair(handle(singleton_graph()), 0, 0, A,
                                    0.5, 0.2, 0.1, rng)
        assert est == 1.0 and n_w >= 1

    def test_chain_estimate(self, rng):
        est, n_w = monte_carlo_pair(handle(chain_graph()), 0, 1, A,
                                    0.1, 0.1, 0.1, rng)
        sigma = math.sqrt(0.8 * 0.2 / n_w)
        assert abs(est - 0.8) <= 4 * sigma

    def test_sp_worst_post_swap_value(self, rng):
        # pi(s,t) = (1-alpha)^3/(LD) = 0.128 at L = D = 2
        g, meta = generate(InstanceSpec("sp_worst", L=2, D=2, alpha=A, swap=True))
        est, n_w = monte_carlo_pair(handle(g), meta.s, meta.t, A,
                                    0.05, 0.1, 0.1, rng)
        sigma = math.sqrt(0.128 * 0.872 / n_w)
        assert abs(est - 0.128) <= 4 * sigma

    def test_unbiased_mean(self, rng):
        # sample mean of many independent estimates vs exact value
        o = handle(chain_graph())
        reps = 10_000
        ests = []
        for _ in range(reps):
            est, n_w = monte_carlo_pair(o, 0, 1, A, 0.5, 0.5, 0.5, rng, c=1.0)
            ests.append(est)
        se = np.std(ests, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(ests) - 0.8) <= 4 * se


def reference_fifo_push(o, t, alpha, r_max):
    """The scalar FIFO push over dicts that approx_contributions' rounds
    replaced: pop a queued node, move alpha r(v) to p(v) and spread the
    rest over its in-neighbors, one DEG-IN, IN and DEG-OUT call per
    edge; a node is queued when its residue reaches r_max.  Returns the
    dicts (p, r)."""
    p, r, active, queued = {}, {}, deque(), set()

    def add_residue(u, amount):
        r[u] = r.get(u, 0.0) + amount
        if r[u] >= r_max and u not in queued:
            active.append(u)
            queued.add(u)

    add_residue(t, 1.0)
    while active:  # a queued residue only grows until popped
        v = active.popleft()
        queued.discard(v)
        rv, r[v] = r[v], 0.0
        p[v] = p.get(v, 0.0) + alpha * rv
        spread = (1.0 - alpha) * rv
        for i in range(o.deg_in(v)):
            u = o.in_nbr(v, i)
            add_residue(u, spread / o.deg_out(u))
    return p, r


class TestPushBack:
    def test_singleton_push(self):
        # r_max = 1 pushes the seed once; its self-loop returns residue
        o = handle(singleton_graph())
        p, r = approx_contributions(o, 0, A, 1.0)
        assert p[0] == pytest.approx(A)
        assert r[0] == pytest.approx(1 - A)

    def test_chain_push(self):
        o = handle(chain_graph())
        p, r = approx_contributions(o, 1, A, 1.0)
        assert p[1] == pytest.approx(0.2)
        assert r[0] == pytest.approx(0.8)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_against_exact(self, seed):
        # pi(s,t) = p(s) + sum_v pi(s,v) r(v) where the push stops, for
        # every s, at r_max from one round to many
        g = random_graph(seed, 40)
        o = handle(g)
        t = 17
        tv = exact_single_target(g, t, A, 1e-13)
        rows = [exact_single_source(g, s, A, 1e-13) for s in range(40)]
        for r_max in (1.0, 0.3, 0.1, 0.05):
            p, r = approx_contributions(o, t, A, r_max)
            for s, row in enumerate(rows):
                assert abs(p.get(s, 0.0) + row @ r - tv[s]) <= 1e-9


class TestApproxContributions:
    def test_r_max_one_pushes_seed_once(self):
        o = handle(singleton_graph())
        st = approx_contributions(o, 0, A, 1.0)
        assert o.stats.deg_in == 1  # one push, of the seed
        assert all(r < 1.0 for r in st.r)

    def test_chain_sandwich(self):
        o = handle(chain_graph())
        st = approx_contributions(o, 1, A, 0.05)
        assert 0.75 < st.p[0] <= 0.8

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwich_all_sources(self, seed):
        g = random_graph(seed, 50)
        t = 7
        r_max = 0.02
        o = handle(g)
        st = approx_contributions(o, t, A, r_max)
        assert all(r < r_max for r in st.r)
        tv = exact_single_target(g, t, A, 1e-13)
        for s in range(g.node_count):
            ps = st.p.get(s, 0.0)
            assert ps <= tv[s] + 1e-9
            assert tv[s] < ps + r_max + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 30),
           d=st.integers(1, 5), alpha=st.floats(0.05, 0.95),
           r_max=st.floats(1e-3, 1.0))
    def test_push_invariant_random(self, seed, n, d, alpha, r_max):
        # pi(u,t) = p(u) + sum_v pi(u,v) r(v) for every u once pushing
        # stops, with every residue below r_max, so p(u) <= pi(u,t) <
        # p(u) + r_max; the FIFO push it replaced stops on the same terms
        g = random_graph(seed, n, d)
        t = seed % n
        p, r = approx_contributions(handle(g), t, alpha, r_max)
        fifo_p, fifo_r = reference_fifo_push(handle(g), t, alpha, r_max)
        dense = np.zeros(n)
        dense[list(fifo_r)] = list(fifo_r.values())
        tv = exact_single_target(g, t, alpha, 1e-13)
        rows = [exact_single_source(g, u, alpha, 1e-13) for u in range(n)]
        for p, r in ((p, r), (fifo_p, dense)):
            assert r.max() < r_max
            for u, row in enumerate(rows):
                pu = p.get(u, 0.0)
                assert abs(tv[u] - (pu + row @ r)) <= 1e-9
                assert pu - 1e-9 <= tv[u] < pu + r_max + 1e-9

    def test_average_cost_scales_with_d_over_rmax(self):
        # Eq-(4)-style bound: mean pushes cost over all targets <= c*d/r_max
        g = random_graph(2, 200, d=6)
        d = g.edge_count / g.node_count
        r_max = 0.1
        total = 0
        for t in range(g.node_count):
            o = handle(g)
            approx_contributions(o, t, A, r_max)
            total += o.stats.total
        avg = total / g.node_count
        assert avg <= 12 * d / r_max  # generous fitted constant


def reference_power_iteration(o, t, alpha, L):
    """The scalar-query loop that power_iteration_target's IN list
    batches replaced."""
    est = {}
    r = {t: 1.0}
    for level in range(L + 1):
        for v, rv in r.items():
            est[v] = est.get(v, 0.0) + alpha * rv
        if level == L:
            break
        nxt = {}
        for v, rv in r.items():
            if rv == 0.0:
                continue
            spread = (1.0 - alpha) * rv
            for i in range(o.deg_in(v)):
                u = o.in_nbr(v, i)
                nxt[u] = nxt.get(u, 0.0) + spread / o.deg_out(u)
        r = nxt
    return est


def with_unreached_node(g):
    """g plus node n, with one out-edge to node 0 and no in-edge."""
    n = g.node_count
    edges = np.column_stack(g.edge_arrays())
    return build_graph(np.concatenate((edges, [[n, 0]])), n + 1)


class TestPowerIteration:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 40),
           d=st.integers(1, 6), alpha=st.sampled_from([0.1, 0.2, 0.5]),
           L=st.integers(1, 12), unreached=st.booleans())
    def test_matches_scalar_reference(self, seed, n, d, alpha, L, unreached):
        # same estimates (keys, order and bits) and queries; a target with
        # in-degree 0 has no residue left after level 0
        g, t = random_graph(seed, n, d), seed % n
        if unreached:
            g, t = with_unreached_node(g), n
        a, b = handle(g), handle(g)
        want = reference_power_iteration(a, t, alpha, L)
        got = power_iteration_target(b, t, alpha, L)
        assert list(got.items()) == list(want.items())
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_zero_residues_dropped(self):
        # at L = 5,000 the residues underflow to 0.0, node by node: a
        # level pushes only its positive ones, as the scalar loop does,
        # and the phase stops once none is left (pushing the zeros too
        # would charge 209,926 queries)
        g = random_graph(1, 6)
        a, b = handle(g), handle(g)
        want = reference_power_iteration(a, 0, A, 5000)
        got = power_iteration_target(b, 0, A, 5000)
        assert list(got.items()) == list(want.items())
        assert a.stats.as_dict() == b.stats.as_dict()
        assert b.stats.total == 139_729

    @pytest.mark.parametrize("L", [0, -1, True, 2.5])
    def test_levels_below_one(self, L):
        # L = True used to run one level, and L = 2.5 failed inside range()
        with pytest.raises(ValueError, match=re.escape(f"L={L!r} must be an integer >= 1")):
            power_iteration_target(handle(chain_graph()), 1, A, L)

    def test_singleton_tail(self):
        o = handle(singleton_graph())
        est = power_iteration_target(o, 0, A, 10)[0]
        assert 1 - 0.8 ** 10 <= est <= 1.0

    def test_matches_brute_force_horizon(self):
        o = handle(chain_graph())
        est = power_iteration_target(o, 1, A, 2)
        bf = brute_force_pair(chain_graph(), 0, 1, A, 2)
        assert est[0] == pytest.approx(bf, abs=1e-12)
        assert est[0] == pytest.approx(0.16 + 0.128, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_error_bound_and_equality(self, seed):
        g = random_graph(seed, 50)
        L = 12
        t = 11
        o = handle(g)
        est = power_iteration_target(o, t, A, L)
        tv = exact_single_target(g, t, A, 1e-13)
        for s in range(g.node_count):
            assert abs(est.get(s, 0.0) - tv[s]) <= (1 - A) ** L + 1e-12
        for s in (0, 13, 29):
            bf = brute_force_pair(g, s, t, A, L)
            assert est.get(s, 0.0) == pytest.approx(bf, abs=1e-12)


    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 30),
           d=st.integers(1, 5), alpha=st.floats(0.05, 0.95),
           L=st.integers(1, 20))
    def test_matches_brute_force_random(self, seed, n, d, alpha, L):
        g = random_graph(seed, n, d)
        t = seed % n
        est = power_iteration_target(handle(g), t, alpha, L)
        for s in range(n):
            assert est.get(s, 0.0) == pytest.approx(
                brute_force_pair(g, s, t, alpha, L), abs=1e-12)


class TestBippr:
    def test_degenerate_rmax_is_pure_mc(self, rng):
        o = handle(chain_graph())
        st = approx_contributions(o, 1, A, 1.5)
        assert o.stats.total == 0  # r(t)=1 < r_max: no pushes at all
        assert st.p == {} and st.r.tolist() == [0.0, 1.0]
        est = bippr_pair(o, 0, 1, A, 0.1, 0.2, 0.1, 1.5, rng)
        assert abs(est - 0.8) < 0.2 * 0.8

    def test_chain_accuracy(self, rng):
        ok = 0
        for seed in range(40):
            o = OracleHandle(chain_graph(), seed=seed)
            est = bippr_pair(o, 0, 1, A, 0.1, 0.1, 0.1,
                             default_r_max_pair(o, 0.1),
                             np.random.default_rng(seed))
            ok += abs(est - 0.8) <= 0.1 * 0.8
        assert ok >= 36

    def test_sp_avg_post_swap(self, rng):
        g, meta = generate(InstanceSpec("sp_avg", n=16, L=4, D=4, alpha=A,
                                        swap=True))
        o = handle(g)
        est = bippr_pair(o, meta.s, meta.t, A, 0.005, 0.2, 0.1, 0.1, rng)
        assert abs(est - 0.0064) <= 0.2 * 0.0064


def reference_rbs(o, t, alpha, theta, rng, L):
    """The scalar-query loop that rbs_single_target's per-level scan
    batches replaced."""
    est = {}
    r = {t: 1.0}
    for level in range(L + 1):
        for v, rv in r.items():
            est[v] = est.get(v, 0.0) + alpha * rv
        if level == L:
            break
        nxt = {}
        for v in sorted(r):
            rv = r[v]
            if rv <= 0.0:
                continue
            spread = (1.0 - alpha) * rv
            d_in = o.deg_in(v)
            rand = rng.random() * theta
            idx = 0
            while idx < d_in:
                u = o.in_sorted(v, idx)
                chi = spread / o.deg_out(u)
                if chi >= theta:
                    nxt[u] = nxt.get(u, 0.0) + chi
                elif chi > rand:
                    nxt[u] = nxt.get(u, 0.0) + theta
                else:
                    break
                idx += 1
        r = nxt
    return est


def _merge_case(draw, n, size, weighted):
    ids = draw(st.lists(st.integers(0, n - 1), max_size=size))
    weights = (draw(st.lists(st.one_of(st.just(-0.0), st.floats(-1e300, 1e300)),
                             min_size=len(ids), max_size=len(ids)))
               if weighted else None)
    return (np.array(ids, dtype=np.intp),
            None if weights is None else np.array(weights))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), weighted=st.booleans())
def test_merge_matches_dict_loop(data, n, weighted):
    """classic._merge returns each id once, in first-appearance order,
    with its weights summed left to right from 0.0 (bit-equal to a dict
    filled id by id), or its count without weights, whatever an earlier
    call left in the slot."""
    slot = np.empty(n, dtype=np.intp)
    stale = _merge_case(data.draw, n, 30, data.draw(st.booleans()))
    classic._merge(*stale, slot)
    ids, weights = _merge_case(data.draw, n, 40, weighted)
    want = {}
    for u, w in zip(ids.tolist(), [1] * ids.size if weights is None
                    else weights.tolist()):
        want[u] = want.get(u, 0 if weights is None else 0.0) + w
    keys, sums = classic._merge(ids, weights, slot)
    assert keys.tolist() == list(want)
    if weights is None:
        assert sums.dtype.kind == "i" and sums.tolist() == list(want.values())
    else:
        assert (sums.view(np.uint64).tolist()
                == np.array(list(want.values()), dtype=np.float64)
                .view(np.uint64).tolist())


class TestRbs:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 40),
           d=st.integers(1, 6), alpha=st.sampled_from([0.1, 0.2, 0.5]),
           theta=st.floats(1e-4, 0.5), L=st.integers(1, 12))
    def test_matches_scalar_reference(self, seed, n, d, alpha, theta, L):
        # same estimates (keys, order and bits), queries and RNG end state
        self.assert_matches_reference(random_graph(seed, n, d), seed % n,
                                      alpha, theta, L, seed)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scale", [0.5, 2.0, 8.0])
    def test_matches_scalar_reference_fan_in(self, seed, scale):
        # the 16 relays share their 2,200 in-neighbors, so each of those
        # takes 16 pushes at level 2 and the merge order shows
        from conftest import relay_fan_graph
        g, t = relay_fan_graph()
        chi = (1 - A) * ((1 - A) / 32) / 30  # per-edge increment of a relay push
        self.assert_matches_reference(g, t, A, scale * chi, 4, seed)

    @staticmethod
    def assert_matches_reference(g, t, alpha, theta, L, seed):
        a, b = (OracleHandle(g, Capabilities(in_sorted=True)) for _ in "ab")
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_rbs(a, t, alpha, theta, ra, L)
        got = rbs_single_target(b, t, alpha, 0.1, theta, rb, L=L)
        assert list(got.items()) == list(want.items())
        assert a.stats.as_dict() == b.stats.as_dict()
        assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("theta", [0.0, -0.1, float("nan")])
    def test_theta_not_positive(self, theta, rng):
        # NaN used to push NaN residues
        o = OracleHandle(chain_graph(), Capabilities(in_sorted=True))
        with pytest.raises(ValueError, match="theta"):
            rbs_single_target(o, 1, A, 0.1, theta, rng, L=3)

    @pytest.mark.parametrize("L", [0, -1, True, 2.5])
    def test_levels_below_one(self, L, rng):
        # L = 0 used to return {t: alpha}
        o = OracleHandle(chain_graph(), Capabilities(in_sorted=True))
        with pytest.raises(ValueError, match=re.escape(f"L={L!r} must be an integer >= 1")):
            rbs_single_target(o, 1, A, 0.1, 0.01, rng, L=L)

    @pytest.mark.parametrize("name,bad", [
        ("alpha", 0.0), ("alpha", 1.0), ("alpha", -0.2), ("alpha", 1.5),
        ("alpha", float("nan")), ("delta", 0.0), ("delta", -0.5),
        ("delta", float("nan")), ("eps", 0.0), ("eps", -0.5),
        ("eps", float("nan")), ("alpha", 1.2), ("delta", 1.5), ("eps", 2),
        ("eps", 0)])
    def test_levels_name_bad_parameter(self, name, bad):
        kw = {"alpha": 0.2, "delta": 0.1, "eps": 0.2, name: bad}
        with pytest.raises(ValueError, match=name):
            rbs_levels(**kw)

    def test_needs_in_sorted(self, rng):
        with pytest.raises(CapabilityDisabled):
            rbs_single_target(handle(chain_graph()), 1, A, 0.1, 0.01, rng)

    def test_threshold_logic_deterministic_region(self):
        # theta between the self-loop increment (d_out=1: chi=0.8) and the
        # fan increments (d_out=8: chi=0.1): the former is always exact,
        # the latter are theta-sized coin flips
        g = fan_graph(n_in=6, d_out=8)
        theta = 0.4
        fan_exact = A * theta  # reserve collected from a theta increment
        fan_seen = set()
        for seed in range(30):
            o = OracleHandle(g, Capabilities(in_sorted=True), seed=seed)
            est = rbs_single_target(o, 0, A, 0.5, theta,
                                    np.random.default_rng(seed), L=1)
            assert est[0] == pytest.approx(A + A * (1 - A), abs=1e-12)
            for u in range(1, 7):
                val = est.get(u, 0.0)
                assert val == 0.0 or val == pytest.approx(fan_exact)
                fan_seen.add(val > 0)
        assert fan_seen == {True, False}  # randomized branch exercised

    def test_unbiased_mean_chain(self):
        reps = 10_000
        vals = np.empty(reps)
        g = chain_graph()  # immutable: the oracle and RNG stay per rep
        for i in range(reps):
            o = OracleHandle(g, Capabilities(in_sorted=True), seed=i)
            est = rbs_single_target(o, 1, A, 0.1, 0.4,
                                    np.random.default_rng(i), L=25)
            vals[i] = est.get(0, 0.0)
        se = vals.std(ddof=1) / math.sqrt(reps)
        # truncation bias at L=25 is 0.8^26 ~ 3e-3; allow it on top of 4 se
        assert abs(vals.mean() - 0.8) <= 4 * se + 0.8 ** 26

    def test_query_count_scales_inverse_theta(self):
        # fat uniform scans over in-degree-2200 relays; theta sweep stays
        # inside the linear-response window (theta >= 4 * chi)
        from conftest import relay_fan_graph
        g, t = relay_fan_graph()
        chi = (1 - A) * ((1 - A) / 32) / 30  # per-edge increment of a relay push
        thetas = [32 * chi / 2 ** k for k in range(4)]
        costs = []
        for th in thetas:
            tot = 0
            for seed in range(60):
                o = OracleHandle(g, Capabilities(in_sorted=True), seed=seed)
                rbs_single_target(o, t, A, 0.01, th,
                                  np.random.default_rng(seed), L=4)
                tot += o.stats.total
            costs.append(tot / 60)
        from pprquery.harness import fit_scaling
        slope, _ = fit_scaling(thetas, costs)
        assert abs(slope - (-1.0)) <= 0.15


class TestJumpFamily:
    def test_jump_mc_singleton(self, rng):
        o = OracleHandle(singleton_graph(), Capabilities(jump=True), seed=1)
        est = single_target_jump_mc(o, 0, A, 0.5, 0.2, 0.1, rng)
        assert est[0] == 1.0

    def test_jump_mc_needs_jump(self, rng):
        with pytest.raises(CapabilityDisabled):
            single_target_jump_mc(handle(chain_graph()), 1, A, 0.5, 0.2, 0.1, rng)

    def test_jump_mc_covers_chain(self, rng):
        o = OracleHandle(chain_graph(), Capabilities(jump=True), seed=3)
        est = single_target_jump_mc(o, 1, A, 0.1, 0.1, 0.1, rng)
        assert set(est) == {0, 1}
        assert abs(est[0] - 0.8) <= 0.1
        assert abs(est[1] - 1.0) <= 0.1

    def test_bidir_jump_chain(self, rng):
        o = OracleHandle(chain_graph(), Capabilities(jump=True), seed=5)
        est = single_target_bidir_jump(o, 1, A, 0.1, 0.2, 0.1, rng)
        assert abs(est[0] - 0.8) <= 0.2 * 0.8
        assert abs(est[1] - 1.0) <= 0.2

    def test_bidir_jump_degenerate_rmax(self, rng):
        o = OracleHandle(chain_graph(), Capabilities(jump=True), seed=6)
        est = single_target_bidir_jump(o, 1, A, 0.1, 0.2, 0.1, rng, r_max=1.0)
        assert abs(est[0] - 0.8) <= 0.2


# valid arguments of each of the 11 estimators besides o and rng; t = 29
# is a node of random_graph(3, 30)
VALID_ARGS = {
    power_iteration_target: dict(t=29, alpha=A, L=3),
    rbs_single_target: dict(t=29, alpha=A, delta=0.1, theta=0.01, L=3),
    monte_carlo_pair: dict(s=0, t=29, alpha=A, delta=0.1, eps=0.2, p_f=0.1),
    bippr_pair: dict(s=0, t=29, alpha=A, delta=0.1, eps=0.2, p_f=0.1,
                     r_max=0.1),
    approx_contributions: dict(t=29, alpha=A, r_max=0.01),
    single_node_avg_jump: dict(t=29, alpha=A, eps=0.2, p_f=0.1),
    single_node_adaptive: dict(t=29, alpha=A, eps=0.2, p_f=0.1),
    single_target_jump_mc: dict(t=29, alpha=A, delta=0.1, eps=0.2, p_f=0.1),
    single_target_bidir_jump: dict(t=29, alpha=A, delta=0.1, eps=0.2,
                                   p_f=0.1),
    single_pair_ppr: dict(s=0, t=29,
                          params=derive_params(A, 0.1, 0.2, 0.1, 30)),
    single_node_avg_full: dict(
        t=29, params=sn_params(random_graph(3, 30), A, 0.2, 0.1)),
}


@pytest.mark.parametrize("f,name,bad", [
    (power_iteration_target, "alpha", 1.5),  # used to return
    (rbs_single_target, "alpha", 1.5),  # used to return
    (monte_carlo_pair, "p_f", 1.5),  # used to return (0.0, 1)
    (monte_carlo_pair, "eps", 2),  # used to run 93 walks
    (monte_carlo_pair, "alpha", 0),  # failed inside numpy's geometric
    (bippr_pair, "alpha", 1.2),  # failed inside numpy's geometric
    (single_node_avg_jump, "alpha", 1.5),  # failed inside numpy's geometric
    (approx_contributions, "alpha", -1),  # used to hang
    (single_node_adaptive, "p_f", 2),  # used to return 0.0346
    (single_node_adaptive, "eps", 0),  # used to name the inner eps/2
] + [
    # node ids, n of the base graph for the super-source reductions:
    # -1 wrapped to the last node, True read as node 1, n scored a
    # reduction's super-source, and the rest failed inside numpy
    (f, name, bad) for f, kw in VALID_ARGS.items() for name in ("s", "t")
    if name in kw for bad in (-1, 30, True, 1.5)
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_direct_call_rejects_bad_parameter(f, name, bad):
    """A bad parameter or node id is named, with the caller's value,
    before any query is charged or any random number drawn."""
    o = OracleHandle(random_graph(3, 30),
                     Capabilities(in_sorted=True, adj=True, jump=True))
    rng = np.random.default_rng(7)
    states = rng.bit_generator.state, o._rng.bit_generator.state
    kw = {**VALID_ARGS[f], name: bad}
    if "rng" in inspect.signature(f).parameters:
        kw["rng"] = rng
    err = NodeIdOutOfRange if name in ("s", "t") else ValueError
    with pytest.raises(err, match=rf"^{name}={bad!r} outside"):
        f(o, **kw)
    assert o.stats.total == 0
    assert (rng.bit_generator.state, o._rng.bit_generator.state) == states
