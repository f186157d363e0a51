"""pprquery benchmark: runs one workload (or all) through
pprquery.harness.run_experiment and prints its metrics.

    python3 perfbench/run.py --workload mc_walk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # each in its own process
    python3 perfbench/run.py --write-spec         # regenerate BENCHMARK.json

Load model: closed loop, one client; trials run one after another
with threads=1, and each workload runs in a fresh Python process.

--trace 0 measures the end-to-end metrics on an untraced run; its
times are scaled to a reference speed (see Calibrator).
--trace 1 runs a shorter config untraced and then traced, checks that
both give the same result digest, and reports per-layer metrics from
the traced spans plus microbenchmarks timed outside the trials.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any correctness-gate failure
exits with status 1; a checkout without the pprquery sources exits
with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from spec import (COMMON, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,
                  MIN_TRACE_TRIALS, MISS_TAIL, PER_LAYER, QUERY_KINDS,
                  REF_KERNEL_S, RUN_SECONDS, SETUPS, TRACE_TRIAL_SHARE,
                  WORKLOADS, benchmark_json)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


# -- statistics helpers ------------------------------------------------

def percentile(samples, p):
    """Nearest-rank p-th percentile, refused unless at least ten
    samples lie above it."""
    xs = sorted(samples)
    rank = math.ceil(p / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < 10:
        raise ValueError(f"p{p} of {len(xs)} samples has fewer than ten "
                         f"samples beyond it")
    return xs[rank - 1]


def miss_limit(trials, p_f):
    """Smallest k with P[Binomial(trials, p_f) > k] <= MISS_TAIL."""
    cdf = 0.0
    for k in range(trials + 1):
        cdf += math.comb(trials, k) * p_f ** k * (1 - p_f) ** (trials - k)
        if 1.0 - cdf <= MISS_TAIL:
            return k
    return trials


# -- one workload ------------------------------------------------------

def make_config(workload, seed, trials):
    from pprquery.harness import ExperimentConfig

    return ExperimentConfig(**COMMON, **workload.config, trials=trials,
                            master_seed=seed)


def run_timed(cfg):
    """(results, wall seconds, error or None) of one run_experiment call."""
    from pprquery.harness import run_experiment

    t0 = time.perf_counter()
    try:
        results = run_experiment(cfg, threads=1)
    except Exception as exc:  # reported through the error rate
        return [], time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return results, time.perf_counter() - t0, None


# -- host speed calibration ----------------------------------------------

_REF_LIST = list(range(1024))


def reference_kernel():
    """Fixed pure-Python work (list indexing, dict updates) that shares
    no code with pprquery, so a change to the program cannot move it."""
    counts = {}
    acc = 0
    for i in range(20000):
        v = _REF_LIST[(i * 7) & 1023]
        counts[v] = counts.get(v, 0) + 1
        acc += v
    return acc


class Calibrator:
    """Times the reference kernel just before each trial.

    The host's speed drifts by tens of percent over seconds, and the
    kernel drifts with it; a time divided by the adjacent kernel time
    and multiplied by REF_KERNEL_S reads as seconds on a host that runs
    the kernel in REF_KERNEL_S.  harness builds one OracleHandle per
    trial just before starting the trial's clock, so the kernel runs
    there, outside the timed region, and consumes no randomness.
    """

    def __init__(self, tracer=None):
        self.samples = []
        self.tracer = tracer  # kernel runs get their own span, off any layer

    def measure(self):
        span = self.tracer and self.tracer.open("bench.reference_kernel")
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        if span:
            self.tracer.close(span)

    def run(self, cfg):
        """run_timed with the kernel timed before the call and before
        each trial.  Returns (results, error, setup_s, trial_s) with
        setup and trial times scaled to the reference speed; setup_s
        excludes the kernel's own time."""
        from pprquery import harness

        gc.collect()  # each set-up starts from a similar heap
        first = len(self.samples)
        self.measure()
        real = harness.OracleHandle

        def calibrated_handle(*args, **kwargs):
            self.measure()
            return real(*args, **kwargs)

        harness.OracleHandle = calibrated_handle
        try:
            results, wall, error = run_timed(cfg)
        finally:
            harness.OracleHandle = real
        # samples[first] precedes the set-up, samples[first + 1 + i] trial i
        refs = self.samples[first:]
        speed = smooth(refs)
        walls = [r.wall_time_s for r in results]
        setup = wall - sum(walls) - sum(refs[1:])
        setup_s = setup * REF_KERNEL_S / statistics.mean(speed[:2])
        trial_s = [w * REF_KERNEL_S / k for w, k in zip(walls, speed[1:])]
        return results, error, setup_s, trial_s


def smooth(samples):
    """Running median over five neighbours, to damp the jitter of single
    kernel timings while following the host's drift."""
    return [statistics.median(samples[max(0, i - 2):i + 3])
            for i in range(len(samples))]


def digest(results):
    """sha256 of the harness.emit CSV of the results."""
    from pprquery.harness import emit

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as d:
        path = emit(results, "csv", os.path.join(d, "results.csv"))
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


class Gate:
    """Correctness gate: every trial finished and was checked against
    exact ground truth, and misses stay within the binomial tail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.problems = []

    def check(self, cfg, results, error, repeat=False):
        """Gate one run_experiment call; a `repeat` of trials already
        gated is checked for errors only and left out of the tallies."""
        if error is not None:
            self.problems.append(error)
        unchecked = sum(r.success is None for r in results)
        if unchecked:
            self.problems.append(f"{unchecked} trials not checked against "
                                 f"exact ground truth")
        if repeat:
            return
        self.attempted += cfg.trials
        self.failed += cfg.trials - len(results)
        misses = sum(r.success is False for r in results)
        self.misses += misses
        limit = miss_limit(cfg.trials, cfg.p_f)
        if misses > limit:
            self.problems.append(f"{misses} misses in {cfg.trials} trials, "
                                 f"above the p={MISS_TAIL:g} binomial tail "
                                 f"{limit} for p_f={cfg.p_f}")

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def end_to_end(workload, seed, seconds, gate):
    cfg = make_config(workload, seed, workload.trials(seconds))
    cal = Calibrator()
    results, error, setup_s, trial_s = cal.run(cfg)
    gate.check(cfg, results, error)
    if not results:
        return {}, {}
    setups = [setup_s]
    # extra one-trial runs sample set-up again; their trial time is excluded
    probe = dataclasses.replace(cfg, trials=1)
    for _ in range(SETUPS - 1):
        res, err, probe_setup_s, _trial = cal.run(probe)
        gate.check(probe, res, err, repeat=True)
        if res:
            setups.append(probe_setup_s)
    q = [r.queries["total"] for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "trial_s_p50": statistics.median(trial_s),
        "trial_s_p90": percentile(trial_s, 90),
        "queries_per_s": sum(q) / sum(trial_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "q_per_trial": statistics.mean(q),
    }
    info = {"trials": len(results), "setups": len(setups),
            "raw_trial_s_p50": statistics.median(r.wall_time_s
                                                 for r in results),
            "kernel_s_p50": statistics.median(cal.samples),
            "digest": digest(results)}
    return metrics, info


def per_layer(workload, seed, seconds, gate):
    import micro
    import tracer as tr
    from pprquery import harness

    trials = max(MIN_TRACE_TRIALS,
                 round(workload.trials(seconds) * TRACE_TRIAL_SHARE))
    cfg = make_config(workload, seed, trials)
    plain, error, _setup_s, plain_s = Calibrator().run(cfg)
    gate.check(cfg, plain, error)

    tracer = tr.Tracer()
    tracer.install()
    try:
        traced, error, _setup_s, traced_s = Calibrator(tracer).run(cfg)
    finally:
        tracer.uninstall()
    gate.check(cfg, traced, error, repeat=True)
    if not (plain and traced):
        return {}, {}
    digests = (digest(plain), digest(traced))
    if digests[0] != digests[1]:
        gate.problems.append(f"traced run changed the results: {digests}")

    metrics = tr.layer_metrics(tr.layer_totals(tracer.spans), len(traced),
                               setups=len(cfg.deltas))
    for kind in QUERY_KINDS:
        metrics[f"oracle.queries.{kind}"] = statistics.mean(
            r.queries[kind] for r in traced)
    # trial time only: set-up of the first run also pays process warm-up
    metrics["bench.trace_overhead"] = sum(traced_s) / sum(plain_s)

    g, _s, _t, _label = harness._resolve_instance(cfg.instance, cfg.deltas[0],
                                                  cfg.alpha)
    metrics.update(micro.oracle_metrics(g, seed))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as d:
        metrics.update(micro.graph_metrics(g, d))

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR,
                              f"{workload.name}-seed{seed}.spans.jsonl")
    tracer.dump(spans_path)
    info = {"trials": len(traced), "digest": digests[1],
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, info


def environment(seed):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD commit read from .git without running git; "unknown" in a
    checkout that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    gate = Gate()
    if trace:
        metrics, info = per_layer(workload, seed, seconds, gate)
        wanted = PER_LAYER
    else:
        metrics, info = end_to_end(workload, seed, seconds, gate)
        wanted = END_TO_END
    if info:
        info["miss_rate"] = gate.misses / gate.attempted
        info["error_rate"] = gate.failed / gate.attempted
    for m in wanted:
        if m.name in metrics:
            print(f"{name} {m.name} {metrics[m.name]!r} {m.unit}")
    for key, val in info.items():
        print(f"{name} {key} {val}")
    for problem in gate.problems:
        print(f"{name} GATE FAIL {problem}")
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "env": environment(seed), "info": info, "metrics": metrics,
              "problems": gate.problems}
    print(json.dumps({"env": record["env"]}))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    correct = gate.correct and all(m.name in metrics for m in wanted)
    print(json.dumps({
        "correct": correct, "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in wanted if m.name in metrics}}))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, one after another."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, val in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED} "
               f"(re-check claims on it)")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(benchmark_json())
        return 0
    if not os.path.isfile(os.path.join(SRC, "pprquery", "harness.py")):
        print(f"pprquery sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
