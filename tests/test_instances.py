import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import (InstanceSpec, generate, closed_form_pi,
                      parameter_presets, exact_single_source, exact_pagerank,
                      save_edge_list, load_edge_list, OracleHandle,
                      power_iteration_target, SpecConstraintViolation,
                      NoClosedForm, RegimeUndefined)
from pprquery import cli, instances
from pprquery.instances import FAMILIES, Family, _apply_swap

A = 0.2

CLOSED_FORM_SPECS = [
    # three desk-scale parameter points per swap family with a closed form
    ("sp_worst", [dict(L=2, D=2), dict(L=5, D=3), dict(L=8, D=8)]),
    ("sp_avg", [dict(n=16, L=4, D=4), dict(n=30, L=5, D=3), dict(n=24, L=3, D=6)]),
    ("st_worst_adj", [dict(n=10, D=3), dict(n=25, D=5), dict(n=40, D=8)]),
    ("st_worst_full", [dict(n=10, D=3), dict(n=25, D=5), dict(n=40, D=8)]),
    ("st_avg_adj", [dict(n=15, L=5, D=3), dict(n=24, L=4, D=6), dict(n=30, L=6, D=5)]),
    ("st_avg_jump", [dict(n=15, L=5, D=3), dict(n=24, L=4, D=2, D2=6), dict(n=30, L=6, D=5)]),
    ("st_avg_full", [dict(n=15, L=5, D=3), dict(n=24, L=4, D=2), dict(n=30, L=6, D=5)]),
    ("folklore_pair", [dict(L=3), dict(L=7), dict(L=12)]),
]


class TestClosedForms:
    @pytest.mark.parametrize("family,points", CLOSED_FORM_SPECS)
    def test_swap_matches_exact_oracle(self, family, points):
        for kw in points:
            spec = InstanceSpec(family, alpha=A, swap=True, **kw)
            g, meta = generate(spec)
            exact = exact_single_source(g, meta.s, A)[meta.t]
            assert abs(exact - closed_form_pi(spec)) <= 1e-9

    @pytest.mark.parametrize("family,points", CLOSED_FORM_SPECS)
    def test_pre_swap_zero(self, family, points):
        spec = InstanceSpec(family, alpha=A, swap=False, **points[0])
        g, meta = generate(spec)
        assert exact_single_source(g, meta.s, A)[meta.t] <= 1e-12
        assert closed_form_pi(spec) == 0.0

    def test_reference_values(self):
        # sp_worst L=D=2: (1-a)^3/(LD) = 0.128; sp_avg L=D=4: (1-a)^4/(L^2 D)
        assert closed_form_pi(InstanceSpec("sp_worst", L=2, D=2, alpha=A,
                                           swap=True)) == pytest.approx(0.128)
        assert closed_form_pi(InstanceSpec("sp_avg", n=16, L=4, D=4, alpha=A,
                                           swap=True)) == pytest.approx(0.0064)
        assert closed_form_pi(InstanceSpec("st_worst_adj", n=10, D=3, alpha=A,
                                           swap=True)) == pytest.approx(0.64)
        assert closed_form_pi(InstanceSpec("st_avg_adj", n=25, L=5, D=4,
                                           alpha=A, swap=True)) == \
            pytest.approx(0.8 ** 3 / 5)

    def test_group_members_share_value(self):
        spec = InstanceSpec("sp_avg", n=16, L=4, D=4, alpha=A, swap=True)
        g, meta = generate(spec)
        v = exact_single_source(g, meta.s, A)
        for t in meta.target_group:
            assert v[t] == pytest.approx(0.0064, abs=1e-9)
        # and zero outside the swapped group
        others = [w for w in meta.roles["W2"] if w not in meta.target_group]
        assert all(v[w] <= 1e-12 for w in others)

    def test_band_families_raise_no_closed_form(self):
        spec = InstanceSpec("sn_worst_full", n=40, m=100, L=3, alpha=A)
        with pytest.raises(NoClosedForm):
            closed_form_pi(spec)

    @pytest.mark.parametrize("spec", [
        InstanceSpec("sn_avg_adj", n=30, D2=4, alpha=A),
        InstanceSpec("sn_avg_insorted", n=30, alpha=A),
        InstanceSpec("sn_worst_full", n=40, m=100, L=3, alpha=A),
        InstanceSpec("sn_avg_xor", n=30, L=5, D=4, alpha=A),
        InstanceSpec("sn_avg_full", n=30, L=5, D=4, alpha=A),
    ])
    def test_single_node_bands(self, spec):
        g, meta = generate(spec)
        lo, hi = meta.pi_bounds
        assert lo <= exact_pagerank(g, A)[meta.t] <= hi


class TestStructure:
    def test_sp_worst_degrees(self):
        spec = InstanceSpec("sp_worst", L=3, D=5, alpha=A)
        g, meta = generate(spec)
        o = OracleHandle(g)
        assert o.deg_out(meta.s) == 3        # s has an edge to every U1 node
        assert o.deg_in(meta.t) == 5 + 1     # D from V2 plus the self-loop

    def test_sp_worst_out_queries_from_u1_land_in_v1(self):
        spec = InstanceSpec("sp_worst", L=3, D=5, alpha=A)
        g, meta = generate(spec)
        o = OracleHandle(g)
        v1 = set(meta.roles["V1"])
        for u in meta.roles["U1"]:
            for i in range(o.deg_out(u)):
                assert o.out_nbr(u, i) in v1

    def test_swap_adj_examples(self):
        spec = InstanceSpec("sp_worst", L=2, D=2, alpha=A, swap=True)
        g, meta = generate(spec)
        from pprquery import Capabilities
        o = OracleHandle(g, Capabilities(adj=True))
        (u1, v1), (u2, v2) = meta.swap_edges
        assert o.adj(u1, v1) is False  # deleted
        assert o.adj(u1, v2) is True   # inserted
        assert o.adj(u2, v1) is True
        assert o.adj(u2, v2) is False

    @pytest.mark.parametrize("family,kw", [
        ("sp_worst", dict(L=4, D=6)),
        ("sp_avg", dict(n=20, L=4, D=3)),
        ("st_worst_adj", dict(n=12, D=4)),
        ("st_worst_full", dict(n=12, D=4)),
        ("st_avg_adj", dict(n=12, L=4, D=3)),
        ("st_avg_jump", dict(n=12, L=4, D=3)),
        ("st_avg_full", dict(n=12, L=4, D=3)),
        ("sn_avg_adj", dict(n=12, D2=3)),
        ("sn_avg_insorted", dict(n=12)),
        ("sn_worst_full", dict(n=20, m=36, L=2)),
        ("sn_avg_xor", dict(n=12, L=4, D=3)),
        ("sn_avg_full", dict(n=12, L=4, D=3)),
    ])
    def test_swap_preserves_degrees(self, family, kw):
        base, _ = generate(InstanceSpec(family, alpha=A, swap=False, **kw))
        swapped, _ = generate(InstanceSpec(family, alpha=A, swap=True, **kw))
        assert np.array_equal(base.out_deg, swapped.out_deg)
        assert np.array_equal(base.in_deg, swapped.in_deg)
        assert base.edge_count == swapped.edge_count

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_swap_property(self, data):
        # random distinct edges, two of them designated: only the heads
        # of their two rows trade places, so every source keeps each
        # out-list position and every degree holds
        n = data.draw(st.integers(2, 12))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   min_size=2, max_size=40, unique=True))
        edges = np.array(pairs, dtype=np.int64)
        i, j = data.draw(st.lists(st.integers(0, len(pairs) - 1),
                                  min_size=2, max_size=2, unique=True))
        before = edges.copy()
        _apply_swap(edges, pairs[i], pairs[j])
        heads = before[:, 1].copy()
        heads[[i, j]] = heads[[j, i]]
        assert np.array_equal(edges[:, 0], before[:, 0])
        assert np.array_equal(edges[:, 1], heads)
        for col in (0, 1):
            assert np.array_equal(np.bincount(edges[:, col], minlength=n),
                                  np.bincount(before[:, col], minlength=n))

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_swap_finds_the_head_among_its_source_rows(self, dtype, order):
        # source 3 heads eight rows and target 7 four, but the edge (3, 7)
        # is one row near the end: that row and e2's are the only writes
        edges = [(3, v) for v in range(6)] + [(1, 7), (2, 7), (4, 0),
                                              (3, 9), (5, 7), (3, 7), (4, 2)]
        arr = np.array(edges, dtype=dtype, order=order)
        want = arr.copy()
        want[11] = (3, 2)
        want[12] = (4, 7)
        _apply_swap(arr, (3, 7), (4, 2))
        assert arr.dtype == dtype and np.array_equal(arr, want)

    @pytest.mark.parametrize("e2", [(3, 8), (8, 1)],
                             ids=["source_present", "source_absent"])
    def test_swap_of_absent_edge_writes_nothing(self, e2):
        arr = np.array([(3, v) for v in range(6)] + [(1, 8), (3, 7)],
                       dtype=np.int32)
        before = arr.copy()
        with pytest.raises(SpecConstraintViolation, match="not in instance"):
            _apply_swap(arr, (3, 7), e2)
        assert np.array_equal(arr, before)

    def test_padding_neutrality(self):
        spec = InstanceSpec("sp_worst", L=3, D=3, alpha=A, swap=True)
        g, meta = generate(spec)
        spec_p = InstanceSpec("sp_worst", n=20, m=60, L=3, D=3, alpha=A,
                              swap=True, padding=True)
        gp, meta_p = generate(spec_p)
        assert gp.node_count == g.node_count + 20
        assert gp.edge_count == g.edge_count + 60
        v = exact_single_source(g, meta.s, A)
        vp = exact_single_source(gp, meta_p.s, A)
        for u in range(g.node_count):
            assert abs(v[u] - vp[u]) <= 1e-12

    def test_round_trip(self, tmp_path):
        spec = InstanceSpec("sp_avg", n=16, L=4, D=4, alpha=A, swap=True)
        g, _ = generate(spec)
        path = tmp_path / "inst.txt"
        save_edge_list(g, path)
        h = load_edge_list(path)
        g2, _ = generate(InstanceSpec(**json.loads(spec.to_json())))
        assert h.edges() == g.edges() == g2.edges()

    def test_constraint_violations(self):
        with pytest.raises(SpecConstraintViolation):
            generate(InstanceSpec("sp_worst", L=0, D=2))
        with pytest.raises(SpecConstraintViolation):
            generate(InstanceSpec("sp_avg", n=8, L=9, D=2))
        with pytest.raises(SpecConstraintViolation):
            generate(InstanceSpec("nonsense"))
        with pytest.raises(SpecConstraintViolation):
            generate(InstanceSpec("sn_worst_full", n=10, m=16, L=7))

    @pytest.mark.parametrize("field,val", [
        ("L", 2.5), ("D", "2"), ("L", True), ("D2", 1.0), ("n", 16.0),
        ("m", None), ("D", np.float64(2.0)), ("m", np.bool_(True))])
    def test_mistyped_integer_field_named(self, monkeypatch, field, val):
        # L=2.5 and D="2" used to raise a bare TypeError, L=True built L=1
        def fail(spec):
            raise AssertionError("builder ran on a mistyped spec")

        monkeypatch.setitem(FAMILIES, "sp_worst", Family(
            fail, FAMILIES["sp_worst"].preset))
        spec = InstanceSpec("sp_worst", **{"n": 16, "m": 64, "L": 2, "D": 2,
                                           field: val})
        with pytest.raises(SpecConstraintViolation,
                           match=f"{field}={re.escape(repr(val))} must be an "
                                 f"integer"):
            generate(spec)

    @pytest.mark.parametrize("family,field,val,want", [
        ("sp_avg", "swap", "false", "a bool"),
        ("sp_avg", "padding", "false", "a bool"),
        ("sp_avg", "flip_upper", 1, "a bool"),
        ("output_size_st", "variant", "Avg", "'', 'worst' or 'avg'"),
        ("output_size_st", "variant", "bogus", "'', 'worst' or 'avg'")],
        ids=["swap", "padding", "flip_upper", "variant_Avg", "variant_bogus"])
    def test_bad_flag_or_variant_named(self, monkeypatch, family, field, val,
                                       want):
        # swap="false" used to build the swapped graph, padding="false" to
        # pad it, and variant "Avg" or "bogus" to build output_size_st's
        # worst case
        def fail(spec):
            raise AssertionError("builder ran on a mistyped spec")

        monkeypatch.setitem(FAMILIES, family, Family(
            fail, FAMILIES[family].preset))
        spec = InstanceSpec(family, n=8, L=2, D=2, **{field: val})
        with pytest.raises(SpecConstraintViolation,
                           match=re.escape(f"{field}={val!r} must be {want}")):
            generate(spec)

    @pytest.mark.parametrize("family", ["st_avg_full", "sn_avg_full"])
    def test_lower_degree_other_than_D_named(self, family):
        # the builders force the lower degree to D: D2=5 used to build the
        # D2=0 graph
        for d2 in (5, -1):
            with pytest.raises(SpecConstraintViolation,
                               match=re.escape(f"D2={d2} must be 0 or D=2")):
                generate(InstanceSpec(family, n=8, L=2, D=2, D2=d2))
        edges = [generate(InstanceSpec(family, n=8, L=2, D=2, D2=d2))[0].edges()
                 for d2 in (0, 2)]
        assert edges[0] == edges[1]

    def test_numpy_integer_fields_accepted(self):
        spec = InstanceSpec("sp_worst", n=np.int64(16), m=np.int32(64),
                            L=np.int64(2), D=np.uint8(2), D2=np.int16(0))
        g, _ = generate(spec)
        assert g.edges() == generate(InstanceSpec("sp_worst", n=16, m=64, L=2,
                                                  D=2))[0].edges()

    def test_flip_upper_keeps_pi(self):
        a = InstanceSpec("sp_avg", n=16, L=4, D=2, alpha=A, swap=True)
        b = InstanceSpec("sp_avg", n=16, L=4, D=2, alpha=A, swap=True,
                         flip_upper=True)
        ga, ma = generate(a)
        gb, mb = generate(b)
        ea = exact_single_source(ga, ma.s, A)[ma.t]
        eb = exact_single_source(gb, mb.s, A)[mb.t]
        assert ea == pytest.approx(eb, abs=1e-12)
        assert len(ma.roles["U1"]) == 4 and len(mb.roles["U1"]) == 2


class TestOutputSize:
    def test_worst_emits_n_outputs(self):
        spec = InstanceSpec("output_size_st", n=25, variant="worst", alpha=A)
        g, meta = generate(spec)
        o = OracleHandle(g)
        est = power_iteration_target(o, meta.t, A, L=20)
        strong = [s for s, v in est.items() if v >= 0.5 * (1 - A)]
        assert len(strong) >= 25  # every in-neighbor has pi(u,t) = 1-alpha

    def test_avg_variant_value(self):
        spec = InstanceSpec("output_size_st", n=10, L=5, variant="avg", alpha=A)
        g, meta = generate(spec)
        ex = exact_single_source(g, meta.s, A)[meta.t]
        assert ex == pytest.approx((1 - A) ** 2 / 5, abs=1e-9)


class TestPresets:
    def test_sp_worst_formula(self):
        spec = parameter_presets("sp_worst", 100, 1000, 0.01, A)
        want = round((0.8 ** 3 * min(1000, 100.0)) ** 0.5)
        assert spec.L == spec.D == want

    def test_sp_avg_case3(self):
        # delta >= c/d^3 regime: L = D = (c/delta)^(1/3)
        spec = parameter_presets("sp_avg", 4096, 32768, 2 ** -10, A)
        want = round((0.8 ** 4 * 2 ** 10) ** (1 / 3))
        assert spec.L == spec.D == want

    def test_sp_avg_case2(self):
        spec = parameter_presets("sp_avg", 4096, 32768, 2 ** -12, A)
        assert spec.D == 8
        assert spec.L == round((0.8 ** 4 / (8 * 2 ** -12)) ** 0.5)

    def test_st_worst_full_case2(self):
        # delta >= c/d: D = c/delta with c = (1-alpha)^2
        spec = parameter_presets("st_worst_full", 100, 1000, 0.1, A)
        assert spec.D == round(0.64 / 0.1)

    def test_folklore(self):
        spec = parameter_presets("folklore_pair", 100, 200, 0.05, A)
        assert spec.L == 20

    def test_regime_undefined(self):
        with pytest.raises(RegimeUndefined):
            parameter_presets("st_worst_full", 100, 1000, 0.9, A)
        with pytest.raises(RegimeUndefined):
            parameter_presets("sp_worst", 100, 1000, 2.0, A)

    @pytest.mark.parametrize("family,n,m,delta", [
        ("sp_worst", 4, 16, 0.9),  # (1-alpha)^3 min{m, 1/delta} < 1
        ("st_avg_adj", 16, 64, 0.6),  # delta > (1-alpha)^3 from here on
        ("st_avg_jump", 16, 64, 0.6),
        ("st_avg_full", 16, 64, 0.6)])
    def test_regime_undefined_at_large_delta(self, family, n, m, delta):
        with pytest.raises(RegimeUndefined, match=family):
            parameter_presets(family, n, m, delta, A)

    @pytest.mark.parametrize("family,n,m,delta,L,D", [
        # delta <= 1/(nm): L = (1-alpha)^4 n, D = d
        ("sp_avg", 4, 16, 0.01, 2, 4),
        # delta > 1/m and > d(1-alpha)^3/n: L = (1-alpha)^3/delta, D = 1
        ("st_avg_jump", 16, 32, 0.1, 5, 1),
        # delta > 1/m and > (1-alpha)^3/d: L = 1, D = (1-alpha)^3/delta
        ("st_avg_full", 16, 64, 0.2, 1, 3)])
    def test_extreme_delta_regimes(self, family, n, m, delta, L, D):
        spec = parameter_presets(family, n, m, delta, A)
        assert (spec.L, spec.D) == (L, D)
        g, meta = generate(spec)
        assert g.node_count >= 1 and meta.t is not None

    # (n, m) -> family -> [(boundary, (L, D, D2) at it, (L, D, D2) just
    # above it)]; `boundary` computes each delta as the preset does, with
    # c = (1-alpha)^k and d = m/n.  At (20, 70) d = 3.5, so a branch that
    # rounds c/delta lands on 3 just above the boundary, not on round(d)
    REGIME_BOUNDARIES = {
        (16, 64): {
            "sp_avg": [("1/(n m)", (7, 4, 0), (10, 4, 0)),
                       ("c4/d^3", (4, 4, 0), (4, 4, 0))],
            "st_worst_full": [("c2/d", (1, 4, 0), (1, 4, 0))],
            "st_avg_adj": [("1/n", (8, 1, 4), (8, 1, 4))],
            "st_avg_jump": [("1/m", (8, 4, 4), (11, 3, 4)),
                            ("d c3/n", (4, 1, 4), (4, 1, 4))],
            "st_avg_full": [("1/m", (8, 4, 0), (8, 4, 0)),
                            ("c3/d", (1, 4, 0), (1, 4, 0))]},
        (20, 70): {
            "sp_avg": [("1/(n m)", (8, 4, 0), (13, 4, 0)),
                       ("c4/d^3", (4, 4, 0), (3, 3, 0))],
            "st_worst_full": [("c2/d", (1, 4, 0), (1, 3, 0))],
            "st_avg_adj": [("1/n", (10, 1, 4), (10, 1, 4))],
            "st_avg_jump": [("1/m", (10, 4, 4), (14, 3, 4)),
                            ("d c3/n", (6, 1, 4), (6, 1, 4))],
            "st_avg_full": [("1/m", (10, 4, 0), (10, 4, 0)),
                            ("c3/d", (1, 4, 0), (1, 3, 0))]},
    }

    @staticmethod
    def boundary(name, n, m):
        d = m / n
        c2, c3, c4 = (1 - A) ** 2, (1 - A) ** 3, (1 - A) ** 4
        return {"1/(n m)": 1.0 / (n * m), "c4/d^3": c4 / d ** 3,
                "c2/d": c2 / d, "1/n": 1.0 / n, "1/m": 1.0 / m,
                "d c3/n": d * c3 / n, "c3/d": c3 / d}[name]

    @pytest.mark.parametrize("n,m,family,name,at,above", [
        (n, m, family, name, at, above)
        for (n, m), families in REGIME_BOUNDARIES.items()
        for family, cases in families.items()
        for name, at, above in cases])
    def test_regime_boundaries(self, n, m, family, name, at, above):
        b = self.boundary(name, n, m)
        for delta, want in ((b, at), (np.nextafter(b, 1), above)):
            spec = parameter_presets(family, n, m, delta, A)
            assert (spec.L, spec.D, spec.D2) == want, (delta, want)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_presets_generate(self, fam):
        spec = parameter_presets(fam, 64, 512, 0.02, A)
        g, _ = generate(spec)
        assert g.node_count >= 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2, math.nan, True,
                                       "0.2"])
    def test_alpha_outside_open_unit_interval(self, alpha):
        # alpha 1.5 used to build a spec and an instance with pi_post_swap
        # (1 - 1.5)^4 / 8
        with pytest.raises(SpecConstraintViolation,
                           match=rf"alpha={re.escape(repr(alpha))} outside"):
            parameter_presets("sp_avg", 16, 64, 0.1, alpha)
        with pytest.raises(SpecConstraintViolation,
                           match=rf"alpha={re.escape(repr(alpha))} outside"):
            generate(InstanceSpec("sp_worst", L=2, D=2, alpha=alpha))

    @pytest.mark.parametrize("n,m,bad", [
        (16.5, 64, "n=16.5"), (16.0, 64, "n=16.0"), (True, 64, "n=True"),
        ("16", 64, "n='16'"), (0, 64, "n=0"), (16, 64.0, "m=64.0"),
        (16, False, "m=False"), (16, None, "m=None")])
    def test_non_integer_counts(self, n, m, bad):
        # 16.5 used to return a spec
        with pytest.raises(SpecConstraintViolation,
                           match=f"{re.escape(bad)} must be an integer >= 1"):
            parameter_presets("sp_avg", n, m, 0.1, A)

    def test_numpy_integer_counts_accepted(self):
        spec = parameter_presets("sp_avg", np.int64(16), np.int32(64), 0.1, A)
        assert spec == parameter_presets("sp_avg", 16, 64, 0.1, A)

    def test_unknown_family(self):
        with pytest.raises(RegimeUndefined, match="no preset for family 'nope'"):
            parameter_presets("nope", 16, 64, 0.1, A)
        with pytest.raises(SpecConstraintViolation, match="unknown family"):
            generate(InstanceSpec("nope", n=16, m=64))

    def test_node_count_past_int32_rejected(self, monkeypatch):
        # ids are int32 from the builders on, so a larger graph is named
        # as its blocks are laid out (_blocks), the padding block's too,
        # before _pad or build_graph, whose n-length arrays would need
        # 16 GB here
        def build(spec):
            (ids,) = instances._blocks(0, spec.n)
            edges = np.array([[0, 0]], np.int32)
            return edges, ids.stop, instances.InstanceMeta(
                spec.family, 0, 0, 0.0, 0.0, None)

        monkeypatch.setitem(FAMILIES, "toy", Family(
            build, FAMILIES["sp_worst"].preset))
        monkeypatch.setattr(instances, "build_graph", None)
        monkeypatch.setattr(instances, "_pad", None)
        for n, padding, nodes in ((2 ** 31 + 1, False, 2 ** 31 + 1),
                                  (2 ** 30 + 1, True, 2 ** 31 + 2)):
            with pytest.raises(SpecConstraintViolation,
                               match=rf"{nodes} nodes: int32 ids allow at "
                                     r"most 2\^31"):
                generate(InstanceSpec("toy", n=n, padding=padding))

    def test_one_entry_adds_a_family(self, monkeypatch, tmp_path):
        # generate, parameter_presets and the CLI all read the table
        def build(spec):
            edges = np.array([[0, 1], [1, 1]], np.int64)
            return edges, 2, instances.InstanceMeta(
                spec.family, 0, 1, 0.0, 0.0, None, roles={"s": [0]})

        monkeypatch.setitem(FAMILIES, "toy", Family(
            build, lambda n, m, d, delta, alpha: {"L": n, "swap": False}))
        spec = parameter_presets("toy", 4, 8, 0.1, A)
        assert (spec.family, spec.L, spec.swap) == ("toy", 4, False)
        g, meta = generate(spec)
        assert (g.node_count, g.edge_count, meta.t) == (2, 2, 1)
        out = tmp_path / "toy.txt"
        assert cli.main(["generate", "--family", "toy", "--n", "4", "--m", "8",
                         "--preset", "--out", str(out)]) == 0
        assert load_edge_list(out).edges() == g.edges()


def _int32_rows(edges):
    return (edges.dtype == np.int32 and edges.ndim == 2
            and edges.shape[1] == 2 and edges.flags.c_contiguous)


@pytest.mark.parametrize("fam", FAMILIES)
def test_builders_emit_int32_rows(fam):
    spec = parameter_presets(fam, 64, 512, 0.02, A)
    edges, node_count, _ = FAMILIES[fam].builder(spec)
    assert _int32_rows(edges), (edges.dtype, edges.shape, edges.flags)
    assert len(edges) and 0 <= edges.min() and edges.max() < node_count


def test_pad_emits_int32_rows():
    edges = instances._pad(10, 4, 11)
    assert _int32_rows(edges) and len(edges) == 11
    assert edges.min() == 10 and edges.max() == 13


def test_generate_peak_per_edge():
    """generate on target_large's family holds its int32 edges while it
    builds and keeps its role blocks as ranges: at most 38 traced bytes
    per edge (36.5 measured), of which the CSR arrays keep 17.8."""
    spec = parameter_presets("st_avg_full", 2000, 40000, 1e-4, A)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g, _ = generate(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.edge_count == 88_000
    assert peak <= 38 * g.edge_count, f"{peak / g.edge_count:.1f} B/edge"
