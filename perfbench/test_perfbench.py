"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spec  # noqa: E402
import tracer as tr  # noqa: E402
from pprquery import harness  # noqa: E402
from pprquery.oracle import QueryStats  # noqa: E402


# -- percentile rule ---------------------------------------------------

def test_p90_of_100_has_ten_beyond():
    xs = list(range(100, 0, -1))
    assert run.percentile(xs, 90) == 90
    assert run.percentile(xs, 50) == 50


def test_p90_refused_below_ten_beyond():
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)
    assert run.percentile(range(110), 90) == 98  # rank 99, 11 beyond


def test_smooth_is_a_running_median():
    assert run.smooth([1, 9, 1, 1, 1, 5, 5]) == [1, 1, 1, 1, 1, 3, 5]


# -- miss gate ---------------------------------------------------------

def _tail(trials, p, k):
    return sum(math.comb(trials, j) * p ** j * (1 - p) ** (trials - j)
               for j in range(k + 1, trials + 1))


@pytest.mark.parametrize("trials", [1, 20, 100, 150])
def test_miss_limit_is_smallest_k_within_tail(trials):
    k = run.miss_limit(trials, 0.1)
    assert _tail(trials, 0.1, k) <= spec.MISS_TAIL
    if k > 0:
        assert _tail(trials, 0.1, k - 1) > spec.MISS_TAIL


class _Result:
    def __init__(self, success):
        self.success = success


class _Cfg:
    p_f = 0.1

    def __init__(self, trials):
        self.trials = trials


def test_gate_flags_unchecked_errors_and_misses():
    gate = run.Gate()
    gate.check(_Cfg(3), [_Result(True)] * 3, None)
    assert gate.correct
    gate.check(_Cfg(2), [_Result(None)], "RuntimeError: boom")
    assert not gate.correct and gate.failed == 1 and gate.attempted == 5
    gate = run.Gate()
    limit = run.miss_limit(20, 0.1)
    gate.check(_Cfg(20), [_Result(False)] * (limit + 1), None)
    assert not gate.correct


# -- spans -------------------------------------------------------------

def _span(id, parent, name, t0, t1, q0=None, q1=None, counts=None):
    s = tr.Span(id, parent, name, t0, q0)
    s.t1, s.q1, s.counts = t1, q1, counts
    return s


def _q(out=0, deg_out=0, adj=0):
    stats = QueryStats()
    stats.out_q, stats.deg_out, stats.adj = out, deg_out, adj
    return tr._snapshot(stats)


def test_self_time_subtracts_direct_children():
    spans = [_span(0, None, "root", 0.0, 10.0),
             _span(1, 0, "a", 1.0, 4.0),
             _span(2, 1, "a.child", 2.0, 3.0),
             _span(3, 0, "b", 5.0, 6.0)]
    assert tr.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_tracer_records_nesting_queries_and_restores_targets():
    class Oracle:
        def __init__(self):
            self.stats = QueryStats()

    def inner(o):
        o.stats.out_q += 2

    def outer(o):
        o.stats.deg_out += 1
        t.wrap("inner", inner)(o)
        return "done"

    t = tr.Tracer()
    o = Oracle()
    assert t.wrap("outer", outer, counts=lambda a, r: {"n": 1})(o) == "done"
    outer_span, inner_span = t.spans
    assert inner_span.parent == outer_span.id and outer_span.parent is None
    assert outer_span.counts == {"n": 1}
    assert tr._self_queries(t.spans)[outer_span.id] == list(_q(deg_out=1))
    assert tr._self_queries(t.spans)[inner_span.id] == list(_q(out=2))

    def boom(o):
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)(o)
    assert t.spans[-1].t1 is not None and not t._stack

    original = harness.generate
    t.install()
    assert harness.generate is not original
    t.uninstall()
    assert harness.generate is original


def test_span_to_metric_mapping():
    spans = [
        _span(0, None, "bench.reference_kernel", 0.0, 0.5),
        _span(1, None, "harness.cell", 0.0, 10.0),
        _span(2, 1, "instances.generate", 0.0, 1.0),
        _span(3, 2, "graph.build_graph", 0.2, 0.8, counts={"edges": 2 * 10**6}),
        _span(4, 1, "exact.exact_single_source", 1.0, 1.5),
        _span(5, 1, "bidir.single_pair_ppr", 2.0, 6.0, _q(), _q(30, 10, 4)),
        _span(6, 5, "bidir.backward_phase", 2.0, 2.5, _q(), _q(deg_out=2),
              {"pushes": 3, "heavy_size": 1}),
        _span(7, 5, "classic._walk_terminals", 2.5, 3.0, _q(deg_out=2),
              _q(10, 10)),
        _span(8, 5, "bidir.estimate_R_hat", 3.0, 4.0, _q(10, 10),
              _q(20, 10, 2), {"n_s": 10}),
        _span(9, 5, "bidir.estimate_R_hat", 4.0, 6.0, _q(20, 10, 2),
              _q(30, 10, 4), {"n_s": 10}),
    ]
    m = tr.layer_metrics(tr.layer_totals(spans), trials=1, setups=1)
    assert m["instances.generate_s"] == pytest.approx(0.4)
    assert m["graph.build_s"] == pytest.approx(0.6)
    assert m["graph.build_s_per_medge"] == pytest.approx(0.3)
    assert m["exact.solve_s"] == pytest.approx(0.5)
    assert m["bidir.backward_s"] == pytest.approx(0.5)
    assert m["bidir.backward_queries"] == 2
    assert m["bidir.pushes"] == 3 and m["bidir.heavy_size"] == 1
    assert m["classic.walk_s"] == pytest.approx(0.5)
    assert m["classic.walk_queries"] == 18
    assert m["classic.walk_ns_per_query"] == pytest.approx(0.5 / 18 * 1e9)
    assert m["bidir.r_hat_calls"] == 2
    assert m["bidir.r_hat_s"] == pytest.approx(3.0)
    assert m["bidir.r_hat_queries"] == 24
    assert m["bidir.r_hat_us_per_call"] == pytest.approx(1.5e6)
    assert m["bidir.r_hat_sample_yield"] == pytest.approx(20 / 20)
    # the cell's own time: 10 - (1 + 0.5 + 4); the kernel is on no layer
    assert m["harness.self_s"] == pytest.approx(4.5)
    assert m["classic.rbs_s"] == 0 and m["classic.rbs_ns_per_query"] == 0


def test_tracing_leaves_results_unchanged(tmp_path):
    cfg = harness.ExperimentConfig(
        algorithm="single_pair_ppr", capabilities=["in_sorted", "adj"],
        instance={"family": "sp_avg", "n": 64, "m": 512, "preset": True},
        deltas=[0.05], trials=2, master_seed=3)
    plain = harness.run_experiment(cfg)
    t = tr.Tracer()
    t.install()
    try:
        traced = harness.run_experiment(cfg)
    finally:
        t.uninstall()
    a = harness.emit(plain, "csv", tmp_path / "a.csv")
    b = harness.emit(traced, "csv", tmp_path / "b.csv")
    assert open(a).read() == open(b).read()
    names = {s.name for s in t.spans}
    assert {"bidir.backward_phase", "bidir.estimate_R_hat",
            "classic._walk_terminals", "graph.build_graph"} <= names


# -- BENCHMARK.json ----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert f.read() == spec.benchmark_json()


def test_benchmark_json_limits():
    doc = json.loads(spec.benchmark_json())
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    metrics = doc["end_to_end"] + doc["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert len(doc["per_layer"]) <= 128
    assert len(json.dumps(doc)) <= 64 * 1024
