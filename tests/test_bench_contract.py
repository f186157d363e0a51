"""Guard for the benchmark's view of the package.

The benchmark under perfbench/ traces per-layer cost by replacing
pprquery entry points in the module namespaces where their callers look
them up (perfbench/tracer.py, TARGETS), and times each trial by
replacing `harness.OracleHandle`.  A refactor that renames such an
entry point, or binds it at import time, would silently zero the
per-layer metrics.  These tests load the benchmark's spec and tracer
read-only and run one tiny traced experiment per workload algorithm.
They also run the microbenchmarks of perfbench/micro.py on a tiny
graph, so a graph or oracle API change that breaks `--trace 1` fails
here.  And they check the shape of every committed BENCH_pr<N>.json,
the benchmark trajectory that README's "Benchmark trajectory" describes.
"""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

from pprquery import harness
from conftest import random_graph
from pprquery.harness import ExperimentConfig, emit, run_experiment

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
BENCH_FILES = sorted(PERFBENCH.parent.glob("BENCH_pr*.json"))

# layers every workload must reach, and those of each algorithm
SETUP_LAYERS = {"harness", "instances.generate", "graph.build", "exact.solve"}
TRIAL_LAYERS = {
    "monte_carlo": {"classic.walk"},
    "single_pair_ppr": {"classic.walk", "bidir.backward", "bidir.r_hat"},
    "rbs": {"classic.rbs"},
    "sn_avg_full": {"classic.walk", "bidir.backward", "bidir.r_hat"},
}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def spec():
    return _load("spec")


@pytest.fixture(scope="module")
def workloads(spec):
    return spec.WORKLOADS


@pytest.fixture
def micro(spec, monkeypatch):
    monkeypatch.setitem(sys.modules, "spec", spec)  # micro imports it by name
    module = _load("micro")
    monkeypatch.setattr(module, "CALLS", 50)
    return module


def tiny_config(workload):
    cfg = dict(workload.config)
    family = cfg["instance"]["family"]
    cfg["instance"] = {"family": family, "n": 16, "m": 64, "preset": True}
    cfg["deltas"] = [0.1]
    return ExperimentConfig(**cfg, trials=2, master_seed=1)


def test_every_target_resolves(tracer):
    span_names = set()
    for module, attr, name, _counts in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        span_names.add(name)
    assert set(tracer.LAYER_OF) <= span_names


def test_workload_algorithms_covered(workloads):
    assert {w.config["algorithm"] for w in workloads.values()} \
        == set(TRIAL_LAYERS)


@pytest.mark.parametrize("algorithm", sorted(TRIAL_LAYERS))
def test_traced_layers_open(algorithm, tracer, workloads, tmp_path,
                            monkeypatch):
    (workload,) = [w for w in workloads.values()
                   if w.config["algorithm"] == algorithm]
    cfg = tiny_config(workload)
    plain = run_experiment(cfg)

    handles = []
    real = harness.OracleHandle

    def counted(*args, **kwargs):
        handles.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "OracleHandle", counted)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run_experiment(cfg)
    finally:
        tr.uninstall()
    assert len(handles) == cfg.trials  # looked up at call time

    a = emit(plain, "csv", tmp_path / "plain.csv").read_bytes()
    b = emit(traced, "csv", tmp_path / "traced.csv").read_bytes()
    assert a == b

    totals = tracer.layer_totals(tr.spans)
    for layer in SETUP_LAYERS | TRIAL_LAYERS[algorithm]:
        assert totals.get(layer, {}).get("calls", 0) > 0, layer
    for layer in TRIAL_LAYERS[algorithm]:
        assert sum(totals[layer]["queries"].values()) > 0, layer


def test_micro_layers_run(micro, spec, tmp_path):
    g = random_graph(6, 30)
    metrics = micro.oracle_metrics(g, seed=1)
    metrics.update(micro.graph_metrics(g, str(tmp_path)))
    want = {f"{prefix}.{kind}" for kind in spec.QUERY_KINDS
            for prefix in ("oracle.ns_per_query",
                           "single_node.view_ns_per_query")}
    want |= {"graph.bytes_per_edge", "graph.load_s_per_medge"}
    assert set(metrics) == want
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_trajectory_file(path, workloads):
    """Every line is JSON: one `--workload all` run on seed 1, then one on
    seed 7919, each an env line and a metrics line per workload, correct
    with no failed trial, and the run's merged metrics line (whose keys
    name the workload); the file's last line holds tier1 and src_lines."""
    *runs, last = map(json.loads, path.read_text().splitlines())
    assert {"tier1", "src_lines"} <= set(last)
    size = 2 * len(workloads) + 1
    assert len(runs) == 2 * size
    for seed, (*pairs, merged) in zip((1, 7919), (runs[:size], runs[size:])):
        for name, env, result in zip(workloads, pairs[::2], pairs[1::2]):
            assert env["env"]["seed"] == seed, name
            assert result["correct"] is True and result["failed"] == 0, name
            assert result["metrics"] == {
                key.removeprefix(f"{name}."): value
                for key, value in merged["metrics"].items()
                if key.startswith(f"{name}.")}, name
        assert merged["correct"] is True and merged["failed"] == 0
