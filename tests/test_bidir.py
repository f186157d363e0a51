import dataclasses
import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import (OracleHandle, Capabilities, CapabilityDisabled,
                      NodeIdOutOfRange, SuperSourceView, bidir, build_graph,
                      exact_single_source, InstanceSpec, generate)
from pprquery.bidir import (ConstraintViolation, derive_params,
                            rand_push_threshold, backward_phase,
                            estimate_R_hat, single_pair_ppr, RandPushState)
from conftest import (chain_graph, chi_num_sum, chi_of, compute_R,
                      contributions, singleton_graph, fan_graph, random_graph,
                      relay_fan_graph, out_list, r_hat_total,
                      unpushed_bound_holds)

A = 0.2


def all_caps(g, seed=0):
    return OracleHandle(g, Capabilities.all(), seed=seed)


def with_levels(L, theta, gamma, tau=math.inf):
    """A derive_params record at alpha A with these levels and tau."""
    return dataclasses.replace(derive_params(A, 0.1, 0.2, 0.1, 100), L=L,
                               theta=theta, gamma=gamma, tau=tau)


def fresh_state(g, t, params):
    L = params.L
    st = RandPushState(
        params=params, target=t,
        r_hat=[{} for _ in range(L + 1)],
        r_hat_prime=[{} for _ in range(L + 1)],
        p_hat={}, pushed_amount=[{} for _ in range(L + 1)])
    st.r_hat[0][t] = 1.0
    st.r_hat_prime[0][t] = 1.0
    return st


def reference_backward_phase(o, t, params, rng):
    """backward_phase as the scalar loop it was, with V_P (heavy), the
    push counts and contrib kept push by push: contrib maps v to its
    (receiving level, (1 - alpha) * amount) entries, one per positive
    push.  Returns the push state's fields and the number of scan
    uniforms drawn."""
    L, theta, alpha = params.L, params.theta, params.alpha
    thr = params.gamma * params.theta
    r_hat = [{} for _ in range(L + 1)]
    r_hat_prime = [{} for _ in range(L + 1)]
    pushed_amount = [{} for _ in range(L + 1)]
    p_hat, heavy, push_counts, contrib = {}, set(), [0] * (L + 1), {}
    r_hat[0][t] = 1.0
    r_hat_prime[0][t] = 1.0
    draws = 0
    for i in range(L):
        eligible = sorted(v for v, val in r_hat_prime[i].items() if val > theta)
        for v in eligible:
            amount = r_hat[i].get(v, 0.0)
            pushed_amount[i][v] = amount
            push_counts[i] += 1
            if amount > 0.0:
                spread = (1.0 - alpha) * amount
                contrib.setdefault(v, []).append((i + 1, spread))
                rn = r_hat[i + 1]
                rpn = r_hat_prime[i + 1]
                d_in = o.deg_in(v)
                idx = 0
                while idx < d_in:
                    u = o.in_sorted(v, idx)
                    chi = spread / o.deg_out(u)
                    if chi >= thr:
                        rn[u] = rn.get(u, 0.0) + chi
                        rpn[u] = rpn.get(u, 0.0) + chi
                        idx += 1
                    else:
                        break
                if idx < d_in:
                    for tgt in (rn, rpn):
                        rand = rng.random() * thr
                        draws += 1
                        j = idx
                        while j < d_in:
                            u = o.in_sorted(v, j)
                            if spread / o.deg_out(u) > rand:
                                tgt[u] = tgt.get(u, 0.0) + thr
                                j += 1
                            else:
                                break
            pv = p_hat.get(v, 0.0) + alpha * amount
            p_hat[v] = pv
            if pv > params.tau:
                heavy.add(v)
            r_hat[i][v] = 0.0
    return dict(r_hat=r_hat, r_hat_prime=r_hat_prime, p_hat=p_hat,
                pushed_amount=pushed_amount, heavy=heavy,
                push_counts=push_counts, contrib=contrib), draws


@st.composite
def push_cases(draw):
    """(graph, target, params, seed): a small random graph (every node
    has an out-edge), L in 1..5, and gamma >= 0.5, so that gamma * theta
    often lies above the increments (1 - alpha) * amount / d_out of
    pushes of amount near theta, and scans draw."""
    n = draw(st.integers(1, 8))
    outs = [draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
            for _ in range(n)]
    g = build_graph([(u, v) for u in range(n) for v in outs[u]], n)
    alpha = draw(st.sampled_from([0.1, 0.2, 0.5]))
    params = dataclasses.replace(
        derive_params(alpha, 0.1, 0.2, 0.1, 100), L=draw(st.integers(1, 5)),
        theta=draw(st.floats(0.02, 0.3)), gamma=draw(st.floats(0.5, 1.0)),
        tau=draw(st.sampled_from([math.inf, 0.01, 0.05, 0.15])))
    return g, draw(st.integers(0, n)), params, draw(st.integers(0, 2 ** 32))


# share of the push_cases with L > 1 whose pushes draw scan uniforms, at
# least.  With L = 1 only the target's amount 1 is pushed, and its
# increments (1 - alpha) / d_out fall below gamma * theta <= 0.3 only
# where d_out > (1 - alpha) / 0.3, so those cases rarely draw and are
# checked but not counted.  In a full tier-1 run, 156 and 125 of the 270
# such cases on a handle and on a view draw (130 of the 400 have L = 1).
# Hypothesis mixes constants found in the loaded modules into its
# draws, so the counts move with the modules a run imports.
DRAWING_SHARE = 1 / 3


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
def test_backward_phase_matches_reference(view):
    """backward_phase and the scalar reference loop leave the same push
    state, bit for bit and in the same key order, with V_P and the push
    counts derived rather than kept, the same QueryStats and the same
    end states of the generator and of the oracle's JUMP generator.
    chi_num_sum, read from pushed_amount, equals for every node pair,
    bit for bit, the sum of the reference's contrib entries of v whose
    level u has not pushed at."""
    drew = []

    @settings(max_examples=400, derandomize=True, deadline=None,
              database=None)
    @given(case=push_cases())
    def check(case):
        g, t, params, seed = case
        a, b = (OracleHandle(g, Capabilities.all(), seed=seed % 97)
                for _ in range(2))
        a, b = (SuperSourceView(a), SuperSourceView(b)) if view else (a, b)
        t %= a.node_count  # on a view, t = n is s'
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        want, draws = reference_backward_phase(a, t, params, ra)
        got = backward_phase(b, t, params, rb)
        for name in ("r_hat", "r_hat_prime", "pushed_amount"):
            assert ([list(level.items()) for level in getattr(got, name)]
                    == [list(level.items()) for level in want[name]]), name
        assert list(got.p_hat.items()) == list(want["p_hat"].items())
        for u in range(a.node_count):
            for v in range(a.node_count):
                ref = chi_of(want["contrib"].get(v, ()),
                             want["pushed_amount"], u)
                assert chi_num_sum(got, u, v).hex() == ref.hex(), (u, v)
        assert got.heavy == want["heavy"]
        assert got.push_counts == want["push_counts"]
        assert a.stats.as_dict() == b.stats.as_dict()
        assert ra.bit_generator.state == rb.bit_generator.state
        assert (getattr(a, "base", a)._rng.bit_generator.state
                == getattr(b, "base", b)._rng.bit_generator.state)
        if params.L > 1:
            drew.append(draws > 0)

    check()
    assert sum(drew) >= DRAWING_SHARE * len(drew), (sum(drew), len(drew))


@pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
def test_R_hat_chi_values_match_reference(view):
    """Each chi value an estimate_R_hat call sums, one per distinct
    (terminal, node) pair, equals the scalar level-order reference
    chi_num_sum bit for bit, in flushes of 2, 7 or 64 pairs (so a
    terminal's samples can span flushes) or the default size.  Among the
    states: scan-drawing pushes in a third or more of the cases with
    L > 1, a non-empty V_P, pairs whose u was pushed at the level after
    a push of v, and pairs whose v made a zero-amount push.  The push
    leaves one only where v's r_hat copy is 0 while its other copy
    passed theta, which is rare, so a few are added at unpushed slots."""
    seen = {"drew": [], "heavy": 0, "next": 0, "zero": 0}
    calls = []
    flush = bidir._flush

    def spy(buf, sums, known, *rest):
        calls.append(known)  # the call's pair key -> chi
        return flush(buf, sums, known, *rest)

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(case=push_cases(), block=st.sampled_from([2, 7, 64, None]),
           terms=st.lists(st.integers(0, 8), min_size=1, max_size=40),
           zeros=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8)),
                          max_size=6))
    def check(case, block, terms, zeros):
        g, t, params, seed = case
        o = OracleHandle(g, Capabilities.all(), seed=seed % 97)
        o = SuperSourceView(o) if view else o
        n = o.node_count
        rng = np.random.default_rng(seed)
        start = rng.bit_generator.state
        state = backward_phase(o, t % n, params, rng)
        if params.L > 1:
            seen["drew"].append(rng.bit_generator.state != start)
        pushed = state.pushed_amount
        for i, v in zeros:  # as a push leaves them when its r_hat copy is 0
            if i < params.L and v < n:
                pushed[i].setdefault(v, 0.0)
        calls.clear()
        with mock.patch.object(bidir, "_flush", spy), mock.patch.object(
                bidir, "_BLOCK_SAMPLES", block or bidir._BLOCK_SAMPLES):
            estimate_R_hat(o, state, [u % n for u in terms], params, rng)
        known = calls[-1] if calls else {}
        pairs = [divmod(key, n) for key in known]
        for (u, v), chi in zip(pairs, known.values()):
            assert chi.hex() == chi_num_sum(state, u, v).hex(), (u, v)
        seen["heavy"] += bool(state.heavy and pairs)
        seen["next"] += any(lv.get(v, 0.0) > 0.0 and u in nxt for u, v in pairs
                            for lv, nxt in zip(pushed, pushed[1:]))
        seen["zero"] += any(lv.get(v) == 0.0 for _, v in pairs
                            for lv in pushed)

    check()
    drew = seen.pop("drew")
    assert sum(drew) >= DRAWING_SHARE * len(drew), (sum(drew), len(drew))
    assert min(seen.values()) >= 10, seen


def loop_sum(xs):
    acc = 0.0
    for x in xs.tolist():
        acc += x
    return acc


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 16, 17, 128, 129, 1000,
                                  4560, 10 ** 4])
def test_add_accumulate_matches_left_to_right_loop(size):
    """single_pair_ppr's sum: the last element of np.add.accumulate is
    the loop's sum bit for bit, over magnitudes 12 decades apart."""
    gen = np.random.default_rng(size)
    for _ in range(20):
        xs = gen.random(size) * 10.0 ** gen.integers(-12, 1, size)
        assert np.add.accumulate(xs)[-1] == loop_sum(xs)


class TestDeriveParams:
    def test_delta_one_degenerate_but_valid(self):
        p = derive_params(A, 1.0, 0.2, 0.1, 100)
        assert p.L == 1
        assert p.n_s == 1
        assert p.n_r >= 1

    def test_halving_delta_scales_ns(self):
        for delta in (0.1, 0.01, 1e-3):
            a = derive_params(A, delta, 0.2, 0.1, 1000).n_s
            b = derive_params(A, delta / 2, 0.2, 0.1, 1000).n_s
            assert abs(b - a * 2 ** (1 / 3)) <= 1.0  # within rounding

    def test_example_point_constraints_all_hold(self):
        p = derive_params(0.2, 1e-3, 0.1, 0.1, 10 ** 4)
        assert set(p.constraint_margins) == {
            "gamma_bound", "level_count", "walk_count", "sample_ratio"}
        assert all(m >= 1.0 - 1e-9 for m in p.constraint_margins.values())

    def test_violations_named(self):
        with pytest.raises(ConstraintViolation, match="gamma_bound"):
            derive_params(A, 1e-3, 0.1, 0.1, 10 ** 4, c_gamma=50.0)
        with pytest.raises(ConstraintViolation, match="level_count"):
            derive_params(A, 1e-3, 0.1, 0.1, 10 ** 4, c_L=0.2)
        with pytest.raises(ConstraintViolation, match="walk_count"):
            derive_params(A, 1e-3, 0.1, 0.1, 10 ** 4, c_nr=0.01)
        with pytest.raises(ConstraintViolation, match="sample_ratio"):
            derive_params(A, 1e-3, 0.1, 0.1, 10 ** 4, c_tau=2.0)

    @pytest.mark.parametrize("eps,c_gamma", [(1e-300, 1.0), (0.2, 1e-320)])
    def test_gamma_underflow_named(self, eps, c_gamma):
        # gamma used to underflow to 0.0 and end in NewAlgoParams's bare
        # ValueError "gamma=0.0 outside (0,1]"
        with pytest.raises(ConstraintViolation,
                           match=r"^gamma underflows to 0\.0 "):
            derive_params(A, 0.1, eps, 0.1, 100, c_gamma=c_gamma)

    def test_unknown_multiplier_named(self):
        with pytest.raises(TypeError, match=r"\['c_walks'\]"):
            derive_params(A, 0.1, 0.2, 0.1, 100, c_ns=2.0, c_walks=1.0)

    def test_theta_uniform_delta_scaling(self):
        p = derive_params(A, 1e-3, 0.1, 0.1, 100)
        assert p.theta == pytest.approx(1e-2)

    @pytest.mark.parametrize("n", [0, True, 2.5, 4.0])
    def test_node_count_named(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} must be an integer")):
            derive_params(A, 0.1, 0.2, 0.1, n)

    def test_walk_count_sums_theta_level_by_level(self):
        """n_r sizes from theta added over levels 0..L one at a time.
        c_nr puts the walk count on an integer, where (L + 1) * theta,
        larger in the last bit here, would round n_r up by one."""
        c_nr = 1.004806952823657
        p = derive_params(A, 0.1, 0.2, 0.1, 100, c_theta=0.5, c_nr=c_nr)
        assert (p.L, p.n_r) == (12, 162)
        log_pf = math.log(1.0 / p.p_f)
        assert math.ceil(c_nr * (13 * p.theta) * log_pf / (p.eps * p.delta)) == 163


class TestNewAlgoParams:
    @pytest.mark.parametrize("theta,gamma,bad", [
        (math.nan, 0.5, "theta=nan"),
        (math.inf, 0.5, "theta=inf"),
        (0.0, 0.5, "theta=0.0"),
        (-1.0, 0.5, "theta=-1.0"),
        (0.1, math.nan, "gamma=nan"),
        (0.1, math.inf, "gamma=inf"),
        (0.1, 1.5, "gamma=1.5"),
        (0.1, 0.0, "gamma=0.0"),
        (True, 0.5, "theta=True")])
    def test_range_named(self, theta, gamma, bad):
        with pytest.raises(ValueError, match=re.escape(bad) + " outside"):
            with_levels(2, theta, gamma)

    def test_bounds_accepted(self):
        assert with_levels(1, 1e9, 1e-12).L == 1
        assert with_levels(np.int64(3), 0.1, 1.0).L == 3
        assert with_levels(1, 0.1, 1.0, tau=math.inf).tau == math.inf

    @pytest.mark.parametrize("tau", [math.nan, 0.0, -1.0, True])
    def test_tau_named(self, tau):
        with pytest.raises(ValueError, match=re.escape(f"tau={tau!r} outside (0,inf]")):
            with_levels(2, 0.1, 0.5, tau=tau)

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, None])
    @pytest.mark.parametrize("name", ["L", "n_r", "n_s"])
    def test_count_named(self, name, bad):
        # n_s = 0 used to divide by zero in R_hat, n_r = 0 to index an empty sum
        with pytest.raises(ValueError, match=re.escape(f"{name}={bad!r} must be an integer >= 1")):
            dataclasses.replace(with_levels(2, 0.1, 0.5), **{name: bad})

    def test_record_frozen(self):
        """A cell's trials share one record: none of them can change it."""
        p = derive_params(A, 0.1, 0.2, 0.1, 100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.theta = 0.5


class TestRandPush:
    def test_fully_deterministic_push_equal_copies(self, rng):
        # chi = (1-A)/d_out >= gamma*theta for every in-neighbor
        g = fan_graph(n_in=5, d_out=4)
        st = fresh_state(g, 0, with_levels(2, 0.05, 1.0))  # thr = 0.05 < 0.2
        rand_push_threshold(all_caps(g), 0, 0, st, rng)
        assert st.r_hat[1] == st.r_hat_prime[1]
        assert st.r_hat[1][0] == pytest.approx(1 - A)  # t's self-loop
        for u in range(1, 6):
            assert st.r_hat[1][u] == pytest.approx((1 - A) / 4)
        assert st.p_hat[0] == pytest.approx(A)
        assert st.r_hat[0][0] == 0.0

    def test_singleton_level0(self, rng):
        g = singleton_graph()
        st = fresh_state(g, 0, with_levels(1, 0.1, 1.0))
        rand_push_threshold(all_caps(g), 0, 0, st, rng)
        assert st.r_hat[1][0] == pytest.approx(1 - A)

    @pytest.mark.parametrize("v,i,msg", [
        (0, -1, "push level i=-1 outside [0, 2)"),  # would index from the end
        (0, 2, "push level i=2 outside [0, 2)"),
        (99, 0, "v=99 holds no residue copy at level 0"),  # not a node
        (1, 0, "v=1 holds no residue copy at level 0"),
        (0, 1, "v=0 holds no residue copy at level 1")],
        ids=["negative_level", "level_L", "not_a_node", "no_residue",
             "next_level"])
    def test_push_outside_state_named(self, v, i, msg, rng):
        g = random_graph(0, 30)
        o = all_caps(g)
        st = fresh_state(g, 0, with_levels(2, 0.1, 1.0))
        snapshot = repr(st)
        with pytest.raises(ValueError, match=re.escape(msg)):
            rand_push_threshold(o, v, i, st, rng)
        assert repr(st) == snapshot and o.stats.total == 0

    def test_second_push_named(self, rng):
        # a second push would overwrite pushed_amount 1.0 with the zeroed
        # residue, and the first push's chi sums with it
        g = random_graph(0, 30)
        o = all_caps(g)
        st = fresh_state(g, 0, with_levels(2, 0.1, 1.0))
        rand_push_threshold(o, 0, 0, st, rng)
        snapshot, queries = repr(st), o.stats.total
        with pytest.raises(ValueError, match=re.escape("v=0 already pushed at level 0")):
            rand_push_threshold(o, 0, 0, st, rng)
        assert repr(st) == snapshot and o.stats.total == queries
        assert st.pushed_amount[0] == {0: 1.0} and st.push_counts[0] == 1

    def test_increment_unbiasedness_4sigma(self):
        # randomized region: chi = (1-A)/d_out below gamma*theta
        d_out = 16
        g = fan_graph(n_in=6, d_out=d_out)
        chi = (1 - A) / d_out
        thr = 4 * chi  # gamma*theta above every chi: all increments random
        params = with_levels(1, 0.5, thr / 0.5)
        reps = 100_000
        acc = np.zeros(2)  # increments to r_hat and r_hat_prime of u=1
        rng = np.random.default_rng(777)
        o = all_caps(g)
        for _ in range(reps):
            st = fresh_state(g, 0, params)
            rand_push_threshold(o, 0, 0, st, rng)
            acc[0] += st.r_hat[1].get(1, 0.0)
            acc[1] += st.r_hat_prime[1].get(1, 0.0)
        # each increment is thr w.p. chi/thr: mean chi, var chi*(thr-chi)
        sigma = math.sqrt(chi * (thr - chi) / reps)
        assert abs(acc[0] / reps - chi) <= 4 * sigma
        assert abs(acc[1] / reps - chi) <= 4 * sigma

    def test_copies_are_independent(self):
        # P(both copies get an increment) should be (chi/thr)^2, not chi/thr
        d_out = 16
        g = fan_graph(n_in=3, d_out=d_out)
        chi = (1 - A) / d_out
        thr = 4 * chi
        params = with_levels(1, 0.5, thr / 0.5)
        rng = np.random.default_rng(42)
        o = all_caps(g)
        reps = 40_000
        both = 0
        for _ in range(reps):
            st = fresh_state(g, 0, params)
            rand_push_threshold(o, 0, 0, st, rng)
            if st.r_hat[1].get(1) and st.r_hat_prime[1].get(1):
                both += 1
        p = chi / thr
        sigma = math.sqrt(p * p * (1 - p * p) / reps)
        assert abs(both / reps - p * p) <= 4 * sigma

    def test_read_views_match_rebuild_between_pushes(self, rng):
        # push, read, push again, read again: chi_num_sum and compute_R
        # must always equal a rebuild from the push amounts
        g, t = relay_fan_graph(n_in=40, n_relays=2, relay_out=8,
                               in_nbr_out=10)
        params = with_levels(3, 0.01, 1.0, tau=0.01)
        st = fresh_state(g, t, params)
        o = all_caps(g)

        def rebuilt_contrib():
            out = {}
            for i, level in enumerate(st.pushed_amount):
                for v, amt in level.items():
                    if amt > 0.0:
                        out.setdefault(v, []).append((i + 1, (1 - A) * amt))
            return out

        def rebuilt_chi(u, v, contrib):
            return chi_of(contrib.get(v, ()), st.pushed_amount, u)

        def rebuilt_R(u, contrib):
            tot = 0.0
            for v in out_list(g, u):
                tot += rebuilt_chi(u, v, contrib)
            seed = 1.0 if u == t and t not in st.pushed_amount[0] else 0.0
            return tot / g.out_degrees[u] + seed

        readings = []
        pairs = [(x, y) for x in range(g.node_count) for y in range(g.node_count)]
        for i in range(params.L):
            for v in sorted(st.r_hat_prime[i]):
                rand_push_threshold(o, v, i, st, rng)
                contrib = rebuilt_contrib()
                assert ([chi_num_sum(st, x, y) for x, y in pairs]
                        == [rebuilt_chi(x, y, contrib) for x, y in pairs])
                R = [compute_R(g, st, u) for u in range(g.node_count)]
                assert R == [rebuilt_R(u, contrib)
                             for u in range(g.node_count)]
                readings.append((len(st.heavy), R))
        assert len(readings) > 3
        assert readings[0][0] < readings[-1][0]  # V_P grew between reads
        assert readings[0][1] != readings[-1][1]


class TestBackwardPhase:
    def test_theta_above_one_no_pushes(self, rng):
        g = random_graph(0, 30)
        params = derive_params(A, 0.5, 0.2, 0.1, 30, c_theta=2.0)
        st = backward_phase(all_caps(g), 5, params, rng)
        assert sum(st.push_counts) == 0
        assert st.p_hat == {}
        assert 5 not in st.pushed_amount[0]

    def test_singleton_reserve_converges(self, rng):
        g = singleton_graph()
        params = dataclasses.replace(derive_params(A, 0.5, 0.2, 0.1, 1),
                                     L=30, theta=1e-4, gamma=1.0)
        st = backward_phase(all_caps(g), 0, params, rng)
        assert st.p_hat[0] >= 1 - (1 - A) ** 30 - 1e-9

    def test_needs_in_sorted(self, rng):
        g = chain_graph()
        params = derive_params(A, 0.1, 0.2, 0.1, 2)
        with pytest.raises(CapabilityDisabled):
            backward_phase(OracleHandle(g), 1, params, rng)

    @pytest.mark.parametrize("t", [7, -1, 1.0, True, None])
    def test_target_named(self, t, rng):
        # t = 7 used to raise a bare IndexError, t = 1.0 a memoryview TypeError
        o = all_caps(random_graph(0, 3))
        params = derive_params(A, 0.1, 0.2, 0.1, 3)
        with pytest.raises(NodeIdOutOfRange, match=re.escape(f"t={t!r} outside [0, 3)")):
            backward_phase(o, t, params, rng)
        assert o.stats.total == 0

    def test_large_heavy_set_warned(self, caplog):
        # V_P past 8 (n_r + 1) nodes makes R_hat ask each terminal that
        # many ADJ questions, against n_r walks: the phase logs it.  At
        # tau = 1e-12 every pushed node is in V_P, 30 of them here
        g = random_graph(1, 40, d=6)
        base = derive_params(A, 0.05, 0.2, 0.1, 40, c_theta=0.1)
        for n_r, warned in ((2, True), (3, False)):  # 24 < 30 <= 32
            caplog.clear()
            params = dataclasses.replace(base, n_r=n_r, tau=1e-12)
            with caplog.at_level(logging.WARNING, logger="pprquery.bidir"):
                st = backward_phase(all_caps(g), 0, params,
                                    np.random.default_rng(7))
            assert len(st.heavy) == 30
            assert [r.getMessage() for r in caplog.records] == [
                "heavy set V_P has 30 nodes (tau=1e-12); R_hat cost "
                "degrades"][:warned]

    @pytest.mark.parametrize("seed", range(4))
    def test_termination_bound_hard(self, seed):
        g = random_graph(seed + 50, 80, d=5)
        params = derive_params(A, 0.01, 0.2, 0.1, 80)
        st = backward_phase(all_caps(g, seed), 11, params,
                            np.random.default_rng(seed))
        ok, worst = unpushed_bound_holds(st)
        assert ok, f"residue copy exceeds theta by {worst}"

    def test_residue_pseudo_invariant(self):
        # E[p_hat(w) + sum_u pi(w,u) r_hat(u)] = pi(w,t) with randomized
        # increments active (relay-style funnel, thr above every chi)
        g, t = relay_fan_graph(n_in=40, n_relays=2, relay_out=8, in_nbr_out=10)
        s = 11  # one of the in-neighbors of the relays
        pi_row = exact_single_source(g, s, A, 1e-13)
        pi_st = pi_row[t]
        assert pi_st > 0
        params = dataclasses.replace(
            derive_params(A, 0.1, 0.2, 0.1, g.node_count),
            L=4, theta=0.02, gamma=0.5)
        reps = 10_000
        vals = np.empty(reps)
        rng = np.random.default_rng(9)
        for i in range(reps):
            st = backward_phase(all_caps(g, i), t, params, rng)
            tot = st.p_hat.get(s, 0.0)
            for level in st.r_hat:
                for u, val in level.items():
                    if val:
                        tot += pi_row[u] * val
            vals[i] = tot
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - pi_st) <= 4 * max(se, 1e-12)

    def test_derandomized_invariant_mid_phase(self):
        # E[p_hat(s) + sum_u pi(s,u) R(u)] = pi(s,t) also holds at a
        # checkpoint between pushes, not only at termination
        g, t = relay_fan_graph(n_in=40, n_relays=2, relay_out=8, in_nbr_out=10)
        s = 11
        n = g.node_count
        pi_row = exact_single_source(g, s, A, 1e-13)
        params = with_levels(4, 0.02, 0.5)
        reps = 4000
        vals = np.empty(reps)
        rng = np.random.default_rng(44)
        for rep in range(reps):
            st = fresh_state(g, t, params)
            o = all_caps(g, rep)
            done = 0
            for i in range(params.L):
                if done >= 3:
                    break
                for v in sorted(v for v, x in st.r_hat_prime[i].items()
                                if x > params.theta):
                    rand_push_threshold(o, v, i, st, rng)
                    done += 1
                    if done >= 3:
                        break
            tot = st.p_hat.get(s, 0.0)
            for u in range(n):
                r_u = compute_R(g, st, u)
                if r_u:
                    tot += pi_row[u] * r_u
            vals[rep] = tot
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert vals.std() > 0
        assert abs(vals.mean() - pi_row[t]) <= 4 * max(se, 1e-12)

    def test_query_cost_scales_inverse_theta_floor(self):
        # halving theta' = gamma*theta doubles the backward cost
        g, t = relay_fan_graph(in_nbr_out=64)
        gammas = [1.0 / 2 ** k for k in range(4)]
        costs = []
        for gm in gammas:
            tot = 0
            for seed in range(60):
                params = dataclasses.replace(
                    derive_params(A, 0.1, 0.2, 0.1, g.node_count),
                    L=4, theta=0.01, gamma=gm)
                o = all_caps(g, seed)
                backward_phase(o, t, params, np.random.default_rng(seed))
                tot += o.stats.total
            costs.append(tot / 60)
        from pprquery.harness import fit_scaling
        slope, _ = fit_scaling([gm * 0.01 for gm in gammas], costs)
        assert abs(slope - (-1.0)) <= 0.2


class TestEstimators:
    def _sp_avg_desk(self):
        g, meta = generate(InstanceSpec("sp_avg", n=16, L=4, D=4, alpha=A,
                                        swap=True))
        return g, meta

    def test_compute_R_zero_without_contributions(self, rng):
        g = chain_graph()
        params = derive_params(A, 0.5, 0.2, 0.1, 2, c_theta=2.0)
        st = backward_phase(all_caps(g), 1, params, rng)
        assert compute_R(g, st, 0) == 0.0
        # level-0 seed: unpushed target keeps the virtual chi_0 = 1
        assert compute_R(g, st, 1) == 1.0

    def test_r_hat_mean_matches_R(self):
        # fan: the single level-0 push is deterministic, so R is a
        # constant; E[r_hat(u)] over randomized scans must match it
        d_out = 16
        g = fan_graph(n_in=6, d_out=d_out)
        chi = (1 - A) / d_out
        params = dataclasses.replace(
            derive_params(A, 0.1, 0.2, 0.1, g.node_count),
            L=1, theta=0.5, gamma=(4 * chi) / 0.5)
        reps = 10_000
        u = 1
        acc = np.empty(reps)
        R_val = None
        rng = np.random.default_rng(5)
        for i in range(reps):
            st = backward_phase(all_caps(g, i), 0, params, rng)
            acc[i] = r_hat_total(st, u)
            r = compute_R(g, st, u)
            if R_val is None:
                R_val = r
            else:
                assert r == pytest.approx(R_val)  # deterministic here
        se = acc.std(ddof=1) / math.sqrt(reps)
        assert abs(acc.mean() - R_val) <= 4 * se

    def test_R_hat_unbiased_given_state(self):
        g, meta = self._sp_avg_desk()
        # force a non-trivial heavy set via a small tau multiplier
        params = derive_params(A, 0.005, 0.2, 0.1, g.node_count, c_tau=0.05)
        rng = np.random.default_rng(31)
        o = all_caps(g, 3)
        st = backward_phase(o, meta.t, params, rng)
        assert st.heavy  # tau small enough to make V_P non-empty
        u_k = meta.roles["X"][0]  # x_g: out-neighbors are the target group
        R_val = compute_R(g, st, u_k)
        assert R_val > 0
        reps = 10_000
        vals = estimate_R_hat(o, st, [u_k] * reps, params, rng)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - R_val) <= 4 * max(se, 1e-12)

    def test_R_hat_exact_when_all_neighbors_heavy(self, rng):
        g = chain_graph()
        params = derive_params(A, 0.1, 0.2, 0.1, 2, c_tau=1e-6)
        o = all_caps(g)
        st = backward_phase(o, 1, params, rng)
        assert 1 in st.heavy
        # s's only out-neighbor is t, which is heavy: no sampling branch
        assert estimate_R_hat(o, st, [0], params, rng)[0] == \
            pytest.approx(compute_R(g, st, 0), abs=1e-15)

    def test_walk_estimator_conditional_mean(self):
        g, meta = self._sp_avg_desk()
        params = derive_params(A, 0.005, 0.2, 0.1, g.node_count)
        rng = np.random.default_rng(17)
        o = all_caps(g, 8)
        st = backward_phase(o, meta.t, params, rng)
        pi_row = exact_single_source(g, meta.s, A, 1e-13)
        want = st.p_hat.get(meta.s, 0.0) + sum(
            pi_row[u] * compute_R(g, st, u) for u in range(g.node_count)
            if compute_R(g, st, u) > 0)
        from pprquery.classic import _walk_terminals
        reps = 10_000
        vals = np.empty(reps)
        base = st.p_hat.get(meta.s, 0.0)
        for i, u_k in enumerate(_walk_terminals(o, [meta.s], A, rng, reps)):
            vals[i] = base + compute_R(g, st, u_k)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - want) <= 4 * max(se, 1e-12)

    def test_boundedness_R_levels(self):
        # R_i(u) <= 2 theta_i and R_L(u) <= theta_L hold in >= 99% of cases
        g, meta = self._sp_avg_desk()
        params = derive_params(A, 0.01, 0.2, 0.1, g.node_count)
        L, theta = params.L, params.theta
        rng = np.random.default_rng(23)
        checks = mid_viol = last_viol = 0
        for seed in range(200):
            st = backward_phase(all_caps(g, 100 + seed), meta.t, params, rng)
            # per-level R_i(u) reconstructed from the stored push amounts
            for u in range(g.node_count):
                du = g.out_degrees[u]
                per_level = {}
                for v in out_list(g, u):
                    for lvl, val in contributions(st, v):
                        per_level[lvl] = per_level.get(lvl, 0.0) + val / du
                for i, ri in per_level.items():
                    if i < L and u not in st.pushed_amount[i]:
                        checks += 1
                        if ri > 2 * theta:
                            mid_viol += 1
                rl = per_level.get(L, 0.0)
                if rl > theta:
                    last_viol += 1
        assert checks > 0
        assert mid_viol <= 0.01 * checks
        assert last_viol <= 0.01 * 200 * g.node_count

    @pytest.mark.parametrize("view", [False, True], ids=["handle", "view"])
    def test_R_hat_rejects_terminal_out_of_range(self, view):
        """Checked before any query or draw; on a view the last id, the
        virtual source, is a terminal like any other."""
        o = all_caps(random_graph(1, 40, d=6), 3)
        o = SuperSourceView(o) if view else o
        n = o.node_count
        params = derive_params(A, 0.05, 0.2, 0.1, n, c_theta=0.1)
        st = backward_phase(o, 0, params, np.random.default_rng(7))
        assert st.heavy and any(x > 0.0 for lv in st.pushed_amount
                                for x in lv.values())
        rng = np.random.default_rng(5)

        def seen():
            return (o.stats.as_dict(), rng.bit_generator.state,
                    getattr(o, "base", o)._rng.bit_generator.state)

        before = seen()
        for bad in (-1, n):
            with pytest.raises(NodeIdOutOfRange, match=rf"^deg_out_many: "
                               rf"node {bad} outside \[0, {n}\)"):
                estimate_R_hat(o, st, [0, n - 1, bad, 1], params, rng)
            assert seen() == before
        # [1.7] used to score node 1
        for bad in ([1.7], [0, 1.5], [True], np.array([1.0])):
            with pytest.raises(NodeIdOutOfRange,
                               match=r"^deg_out_many: \w+ is not an integer type"):
                estimate_R_hat(o, st, bad, params, rng)
            assert seen() == before
        assert estimate_R_hat(o, st, [n - 1, 0], params, rng).shape == (2,)

    def test_single_pair_sums_scores_left_to_right(self, monkeypatch):
        """The n_r scores are added in walk order, as a loop would:
        np.sum's pairwise adds round these scores differently."""
        g = chain_graph()
        params = derive_params(A, 0.1, 0.2, 0.1, 2)
        n_r, gen = params.n_r, np.random.default_rng(0)
        draws = (gen.random(n_r) * 10.0 ** gen.integers(-9, 3, n_r)
                 for _ in range(100))
        scores = next(x for x in draws if np.sum(x) != loop_sum(x))
        seen = []

        def fixed(o, state, terminals, params, rng):
            seen.append(state)
            return scores.copy()

        monkeypatch.setattr(bidir, "estimate_R_hat", fixed)
        est = single_pair_ppr(all_caps(g), 0, 1, params,
                              np.random.default_rng(1))
        assert type(est) is float
        assert est == seen[0].p_hat.get(0, 0.0) + loop_sum(scores) / n_r

    def test_single_pair_needs_both_caps(self, rng):
        g = chain_graph()
        params = derive_params(A, 0.1, 0.2, 0.1, 2)
        with pytest.raises(CapabilityDisabled):
            single_pair_ppr(OracleHandle(g, Capabilities(in_sorted=True)),
                            0, 1, params, rng)

    def test_singleton_estimate(self):
        g = singleton_graph()
        params = derive_params(A, 0.5, 0.2, 0.1, 1)
        ok = 0
        for seed in range(100):
            est = single_pair_ppr(all_caps(g, seed), 0, 0, params,
                                  np.random.default_rng(seed))
            ok += abs(est - 1.0) <= 0.2
        assert ok >= 85  # 1 - p_f with slack

    def test_sp_avg_desk_estimate(self):
        g, meta = self._sp_avg_desk()
        params = derive_params(A, 0.005, 0.2, 0.1, g.node_count,
                               c_nr=2.0, c_ns=2.0)
        ok = 0
        trials = 60
        for seed in range(trials):
            est = single_pair_ppr(all_caps(g, seed), meta.s, meta.t, params,
                                  np.random.default_rng(1000 + seed))
            ok += abs(est - 0.0064) <= 0.2 * max(0.0064, 0.005)
        assert ok >= trials - math.ceil(0.1 * trials) - 3
