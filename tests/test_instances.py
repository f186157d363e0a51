import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pprquery import (InstanceSpec, generate, closed_form_pi,
                      parameter_presets, exact_single_source, exact_pagerank,
                      save_edge_list, load_edge_list, OracleHandle,
                      power_iteration_target, SpecConstraintViolation,
                      NoClosedForm, RegimeUndefined)
from pprquery.instances import _apply_swap

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
        g2, _ = generate(InstanceSpec.from_json(spec.to_json()))
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

    def test_presets_generate(self):
        for fam in ("sp_worst", "sp_avg", "st_worst_adj", "st_worst_full",
                    "st_avg_adj", "st_avg_jump", "st_avg_full", "sn_avg_adj",
                    "sn_avg_insorted", "sn_worst_full", "sn_avg_xor",
                    "sn_avg_full", "folklore_pair", "output_size_st"):
            spec = parameter_presets(fam, 64, 512, 0.02, A)
            g, _ = generate(spec)
            assert g.node_count >= 1
