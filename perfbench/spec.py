"""Workloads and metric definitions of the pprquery benchmark.

This table is the single source of truth: `run.py --write-spec`
renders `BENCHMARK.json` from it, and a unit test checks that the
committed file matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 15
DEFAULT_SEED = 1
# Never used while tuning the benchmark or a change; re-check claims on it.
HELD_OUT_SEED = 7919

# Fewest trials per run: the p90 of a run needs ten trials beyond it.
MIN_TRIALS = 100
# Set-up is repeated this many times per run and the median reported.
SETUPS = 5
# Traced runs are shorter; per-layer numbers are per-trial means.
TRACE_TRIAL_SHARE = 0.2
MIN_TRACE_TRIALS = 20
# Reference-kernel time that end-to-end times are scaled to (run.Calibrator).
REF_KERNEL_S = 0.003
# A correct estimator fails the miss gate with at most this probability.
MISS_TAIL = 1e-4

COMMON = {"eps": 0.2, "p_f": 0.1, "alpha": 0.2, "exact_cap": 10 ** 9}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    trials_per_s: float  # trials per measured second, calibrated on 2 vCPUs

    def trials(self, seconds):
        return max(MIN_TRIALS, round(self.trials_per_s * seconds))


_SP_AVG = {"family": "sp_avg", "n": 4096, "m": 32768, "preset": True}

WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_walk",
        "walk-bound baseline: monte_carlo on sp_avg, ~472k DEG-OUT/OUT "
        "queries per trial; no push, IN-SORTED or ADJ, and graph build is "
        "under 2% of the run",
        {"algorithm": "monte_carlo", "instance": _SP_AVG,
         "capabilities": [], "deltas": [2.0 ** -6]},
        14.0),
    Workload(
        "bidir_pair",
        "the paper's single_pair_ppr on sp_avg with IN-SORTED+ADJ: "
        "R_hat scoring dominates, walks and backward push are small",
        {"algorithm": "single_pair_ppr", "instance": _SP_AVG,
         "capabilities": ["in_sorted", "adj"], "deltas": [2.0 ** -8],
         "multipliers": {"c_nr": 2.0, "c_ns": 2.0}},
        10.0),
    Workload(
        "target_large",
        "rbs on st_avg_full with 100k nodes and 880k edges: the only "
        "workload where graph build, instance generation, the exact solve "
        "and memory matter; no walks",
        {"algorithm": "rbs",
         "instance": {"family": "st_avg_full", "n": 20000, "m": 400000,
                      "preset": True},
         "capabilities": ["in_sorted"], "deltas": [1e-4]},
        10.0),
    Workload(
        "single_node",
        "sn_avg_full: the only path through SuperSourceView and JUMP; "
        "R_hat dominates, so bidir changes show here and in bidir_pair",
        {"algorithm": "sn_avg_full",
         "instance": {"family": "sn_avg_full", "n": 64, "m": 512,
                      "preset": True},
         "capabilities": ["jump", "in_sorted", "adj"], "deltas": [0.1]},
        7.0),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("trial_s_p50", "s", "lower", 0.2),
    Metric("trial_s_p90", "s", "lower", 0.25),
    Metric("queries_per_s", "1/s", "higher", 0.2),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("q_per_trial", "count", "lower", 0.05),
)

QUERY_KINDS = ("deg_in", "deg_out", "in", "out", "in_sorted", "adj", "jump")

PER_LAYER = (
    *(Metric(f"oracle.ns_per_query.{k}", "ns", "lower") for k in QUERY_KINDS),
    *(Metric(f"oracle.queries.{k}", "count", "lower") for k in QUERY_KINDS),
    Metric("classic.walk_s", "s", "lower"),
    Metric("classic.walk_queries", "count", "lower"),
    Metric("classic.walk_ns_per_query", "ns", "lower"),
    Metric("classic.rbs_s", "s", "lower"),
    Metric("classic.rbs_queries", "count", "lower"),
    Metric("classic.rbs_ns_per_query", "ns", "lower"),
    Metric("bidir.backward_s", "s", "lower"),
    Metric("bidir.backward_queries", "count", "lower"),
    Metric("bidir.pushes", "count", "lower"),
    Metric("bidir.heavy_size", "count", "lower"),
    Metric("bidir.r_hat_s", "s", "lower"),
    Metric("bidir.r_hat_calls", "count", "lower"),
    Metric("bidir.r_hat_queries", "count", "lower"),
    Metric("bidir.r_hat_us_per_call", "us", "lower"),
    Metric("bidir.r_hat_sample_yield", "ratio", "higher"),
    *(Metric(f"single_node.view_ns_per_query.{k}", "ns", "lower")
      for k in QUERY_KINDS),
    Metric("instances.generate_s", "s", "lower"),
    Metric("graph.build_s", "s", "lower"),
    Metric("graph.build_s_per_medge", "s/Medge", "lower"),
    Metric("graph.bytes_per_edge", "B/edge", "lower"),
    Metric("graph.load_s_per_medge", "s/Medge", "lower"),
    Metric("exact.solve_s", "s", "lower"),
    Metric("harness.self_s", "s", "lower"),
    Metric("bench.trace_overhead", "ratio", "lower"),
)


def benchmark_json():
    """The BENCHMARK.json document, as text."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
