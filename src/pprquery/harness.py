"""Experiment driver: (algorithm x instance x delta sweep x trials).

Runs are fully reproducible: the master seed and the (cell, trial)
indices determine every estimate and query count bit-exactly, and
adding cells never perturbs other cells' randomness.  Results are
emitted as CSV (default) or JSON with a stable column order; wall time
is kept in memory only so emitted files are byte-stable.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .graph import NodeIdOutOfRange, PprqueryError, check_nodes, load_edge_list
from .oracle import OracleHandle, Capabilities, QUERY_KINDS
from .exact import exact_single_source, exact_pagerank
from .classic import (monte_carlo_pair, bippr_pair, power_iteration_target,
                      rbs_single_target, rbs_levels, single_target_jump_mc,
                      single_target_bidir_jump, approx_contributions,
                      default_r_max_pair, check_params, DEFAULT_WALK_MULT)
from .bidir import MULTIPLIERS, _cell_params, single_pair_ppr
from .single_node import (single_node_adaptive, single_node_avg_jump,
                          single_node_avg_full)
from .instances import InstanceSpec, generate, parameter_presets


class ConfigError(PprqueryError):
    """An ExperimentConfig field is unknown or out of range."""


class CapabilityMismatch(PprqueryError):
    pass


class InstanceLoadError(PprqueryError):
    pass


class InsufficientPoints(PprqueryError):
    pass


def eq1_success(estimate, exact, eps, delta):
    """Single-pair correctness predicate: |est - pi| < eps*max(pi, delta)."""
    return abs(estimate - exact) < eps * max(exact, delta)


def eq5_success(estimate, exact, eps):
    """Single-node correctness predicate: |est - pi(t)| < eps*pi(t)."""
    return abs(estimate - exact) < eps * exact


@dataclass
class ExperimentConfig:
    algorithm: str
    instance: dict
    capabilities: list = field(default_factory=list)
    deltas: list = field(default_factory=lambda: [0.1])
    eps: float = 0.2
    p_f: float = 0.1
    alpha: float = 0.2
    multipliers: dict = field(default_factory=dict)
    trials: int = 1
    master_seed: int = 0
    exact_cap: int = 20000

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        """The config in `text` (str or bytes): ConfigError unless it is
        UTF-8 JSON of an object whose every key is a field."""
        try:
            data = json.loads(text.decode() if isinstance(text, bytes) else text)
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise ConfigError(f"config is not UTF-8 JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {json.dumps(data)}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        return cls(**data)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            return cls.from_json(f.read())


@dataclass
class TrialResult:
    algorithm: str
    instance: str
    cell: int
    delta: float
    eps: float
    p_f: float
    alpha: float
    trial: int
    s: int
    t: int
    estimate: float
    exact: float | None
    abs_error: float | None
    rel_error: float | None
    success: bool | None
    queries: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


def _walks(cfg):
    return cfg.multipliers.get("c_walks", DEFAULT_WALK_MULT)


# algorithm registry: name -> (variant, required capabilities, multiplier
# keys its runner reads, runner), runner(o, s, t, delta, cfg, rng) -> float.
# Runners look estimators up in this module's namespace when they run,
# not when they are defined.
ALGORITHMS = {
    "monte_carlo": ("pair", (), ("c_walks",), lambda o, s, t, d, cfg, rng:
        monte_carlo_pair(o, s, t, cfg.alpha, d, cfg.eps, cfg.p_f, rng,
                         c=_walks(cfg))[0]),
    "bippr": ("pair", (), ("r_max", "c_walks"), lambda o, s, t, d, cfg, rng:
        bippr_pair(o, s, t, cfg.alpha, d, cfg.eps, cfg.p_f,
                   cfg.multipliers.get("r_max", default_r_max_pair(o, d)),
                   rng, c=_walks(cfg))),
    "power_iteration": ("target", (), (), lambda o, s, t, d, cfg, rng:
        power_iteration_target(
            o, t, cfg.alpha, rbs_levels(cfg.alpha, d, cfg.eps)).get(s, 0.0)),
    "approx_contributions": ("target", (), (), lambda o, s, t, d, cfg, rng:
        approx_contributions(o, t, cfg.alpha, cfg.eps * d).p.get(s, 0.0)),
    "rbs": ("target", ("in_sorted",), ("rbs_theta",),
            lambda o, s, t, d, cfg, rng: rbs_single_target(
                o, t, cfg.alpha, d,
                cfg.multipliers.get("rbs_theta", cfg.eps * d), rng,
                eps=cfg.eps).get(s, 0.0)),
    "st_jump_mc": ("target", ("jump",), ("c_walks",),
                   lambda o, s, t, d, cfg, rng: single_target_jump_mc(
                       o, t, cfg.alpha, d, cfg.eps, cfg.p_f, rng,
                       c=_walks(cfg)).get(s, 0.0)),
    "st_bidir_jump": ("target", ("jump",), ("c_walks",),
                      lambda o, s, t, d, cfg, rng: single_target_bidir_jump(
                          o, t, cfg.alpha, d, cfg.eps, cfg.p_f, rng,
                          c=_walks(cfg)).get(s, 0.0)),
    "single_pair_ppr": ("pair", ("in_sorted", "adj"), MULTIPLIERS,
                        lambda o, s, t, d, cfg, rng: single_pair_ppr(
                            o, s, t, _cell_params(
                                cfg.alpha, d, cfg.eps, cfg.p_f, o.node_count,
                                **cfg.multipliers), rng)),
    "sn_adaptive": ("node", ("in_sorted",), ("rbs_theta_mult",),
                    lambda o, s, t, d, cfg, rng: single_node_adaptive(
                        o, t, cfg.alpha, cfg.eps, cfg.p_f, rng,
                        theta_mult=cfg.multipliers.get("rbs_theta_mult",
                                                       1.0))),
    "sn_avg_jump": ("node", ("jump",), ("c_walks",),
                    lambda o, s, t, d, cfg, rng: single_node_avg_jump(
                        o, t, cfg.alpha, cfg.eps, cfg.p_f, rng,
                        c=_walks(cfg))),
    "sn_avg_full": ("node", ("jump", "in_sorted", "adj"), MULTIPLIERS,
                    lambda o, s, t, d, cfg, rng: single_node_avg_full(
                        o, t, cfg.alpha, cfg.eps, cfg.p_f, rng,
                        multipliers=cfg.multipliers)),
}


# InstanceSpec keys a family instance without a preset may set: all but
# alpha, which comes from the config
_SPEC_KEYS = tuple(f.name for f in fields(InstanceSpec) if f.name != "alpha")


def load_instance_file(path):
    """load_edge_list, a missing or bad file raised as InstanceLoadError."""
    try:
        return load_edge_list(path)
    except (OSError, PprqueryError) as e:
        raise InstanceLoadError(f"edge list {path}: {e}") from None


def _resolve_instance(inst, delta, alpha):
    """(graph, s, t, label) for one cell."""
    if "file" in inst:
        g = load_instance_file(inst["file"])
        s = inst.get("s", 0)
        t = inst.get("t", g.node_count - 1)
        return g, s, t, inst["file"]
    if inst.get("preset"):
        spec = parameter_presets(inst["family"], inst["n"], inst["m"],
                                 delta, alpha)
    else:
        spec = InstanceSpec(alpha=alpha, **{k: v for k, v in inst.items()
                                            if k in _SPEC_KEYS})
    g, meta = generate(spec)
    s = inst.get("s", meta.s if meta.s is not None else 0)
    t = inst.get("t", meta.t)
    return g, s, t, inst["family"]


def _check_config(cfg, threads=1):
    """Reject a bad config or worker count before any instance is generated."""
    for name, val, low in (("trials", cfg.trials, 1),
                           ("master_seed", cfg.master_seed, 0),
                           ("exact_cap", cfg.exact_cap, 0), ("threads", threads, 1)):
        if (isinstance(val, bool) or not isinstance(val, numbers.Integral)
                or val < low):
            raise ConfigError(f"{name} must be an integer >= {low}, got {val!r}")
    for name, kinds in (("instance", (dict,)), ("multipliers", (dict,)),
                        ("capabilities", (list, tuple)),
                        ("deltas", (list, tuple))):
        val = getattr(cfg, name)
        if not isinstance(val, kinds):
            raise ConfigError(f"{name} must be a {kinds[0].__name__}, "
                              f"got {val!r}")
    try:
        Capabilities.from_names(cfg.capabilities)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"capabilities: {e}") from None
    if not isinstance(cfg.algorithm, str) or cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    variant, required, keys, runner = ALGORITHMS[cfg.algorithm]
    missing = [c for c in required if c not in cfg.capabilities]
    if missing:
        raise CapabilityMismatch(f"{cfg.algorithm} needs capabilities {missing}")
    unknown = sorted(set(cfg.multipliers) - set(keys))
    if unknown:
        raise ConfigError(f"unknown multipliers {unknown} for "
                          f"{cfg.algorithm}, which reads {list(keys)}")
    inst = cfg.instance
    if "file" not in inst and "family" not in inst:
        raise InstanceLoadError("instance needs 'file' or 'family'")
    # the keys _resolve_instance reads
    known = ({"file", "s", "t"} if "file" in inst else
             {"family", "preset", "n", "m", "s", "t"}.union(
                 () if inst.get("preset") else _SPEC_KEYS))
    unknown = sorted(set(inst) - known)
    if unknown:
        raise ConfigError(f"unknown instance keys {unknown}")
    if not cfg.deltas:
        raise ConfigError("deltas is empty")
    try:
        check_params(eps=cfg.eps, p_f=cfg.p_f, alpha=cfg.alpha,
                     **cfg.multipliers)
        for d in cfg.deltas:
            check_params(delta=d)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if inst.get("preset"):
        try:  # every cell's preset; none builds a graph
            for d in cfg.deltas:
                parameter_presets(inst["family"], inst.get("n"), inst.get("m"),
                                  d, cfg.alpha)
        except ValueError as e:
            raise ConfigError(f"preset instance: {e}") from None
    return variant, required, runner


def _run_cell(cfg, cell):
    variant, _required, runner = _check_config(cfg)
    caps = Capabilities.from_names(cfg.capabilities)
    delta = cfg.deltas[cell]
    g, s, t, label = _resolve_instance(cfg.instance, delta, cfg.alpha)
    try:
        check_nodes(g.node_count, s=s, t=t)
    except NodeIdOutOfRange as e:
        raise ConfigError(str(e)) from None
    exact = None
    if g.node_count <= cfg.exact_cap:
        if variant == "node":
            exact = float(exact_pagerank(g, cfg.alpha)[t])
        else:
            exact = float(exact_single_source(g, s, cfg.alpha)[t])
    results = []
    for trial in range(cfg.trials):
        ss = np.random.SeedSequence((cfg.master_seed, cell, trial))
        algo_ss, oracle_ss = ss.spawn(2)
        o = OracleHandle(g, caps, rng=np.random.default_rng(oracle_ss))
        rng = np.random.default_rng(algo_ss)
        t0 = time.perf_counter()
        est = runner(o, s, t, delta, cfg, rng)
        wall = time.perf_counter() - t0
        if exact is None:
            abs_err = rel_err = success = None
        else:
            abs_err = abs(est - exact)
            rel_err = abs_err / exact if exact > 0 else math.inf
            if variant == "node":
                success = eq5_success(est, exact, cfg.eps)
            else:
                success = eq1_success(est, exact, cfg.eps, delta)
        results.append(TrialResult(
            algorithm=cfg.algorithm, instance=label, cell=cell,
            delta=delta, eps=cfg.eps, p_f=cfg.p_f, alpha=cfg.alpha,
            trial=trial, s=s, t=t, estimate=est, exact=exact,
            abs_error=abs_err, rel_error=rel_err, success=success,
            queries=o.stats.as_dict(), wall_time_s=wall))
    return results


def run_experiment(cfg, threads=1):
    """One TrialResult per (cell, trial); deterministic given master seed.

    threads > 1 runs whole cells in worker processes; per-trial seeding
    depends only on (master seed, cell, trial), and assembly is sorted,
    so the output is identical to a sequential run.  ConfigError before
    any cell runs unless threads is a non-bool integer >= 1.
    """
    _check_config(cfg, threads)
    cells = range(len(cfg.deltas))
    if threads > 1 and len(cfg.deltas) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_run_cell, [cfg] * len(cfg.deltas), cells))
    else:
        chunks = [_run_cell(cfg, cell) for cell in cells]
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.cell, r.trial))
    return results


# TrialResult's fields but queries and wall_time_s, then q_<kind> and q_total
CSV_COLUMNS = (*(f.name for f in fields(TrialResult)
                 if f.name not in ("queries", "wall_time_s")),
               *(f"q_{k}" for k in (*QUERY_KINDS, "total")))


def _row(r):
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "1" if x else "0"
        if isinstance(x, float):
            return repr(x)
        return str(x)

    return [fmt(r.queries.get(c[2:], 0) if c.startswith("q_")
                else getattr(r, c)) for c in CSV_COLUMNS]


def emit(results, fmt, path):
    """Write results with a stable column order; returns the path."""
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_COLUMNS)
            for r in results:
                w.writerow(_row(r))
    elif fmt == "json":
        rows = [dict(zip(CSV_COLUMNS, _row(r))) for r in results]
        with open(path, "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    return path


def read_results(path):
    """Load an emitted CSV back into a list of dicts (strings kept)."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def fit_scaling(xs, ys):
    """Least-squares slope of log(y) vs log(x); returns (slope, stderr).

    Used to exhibit query-count scaling exponents from delta sweeps.
    Raises ValueError naming the first point whose x or y is not a
    finite positive number, which has no logarithm.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 4:
        raise InsufficientPoints(f"need >= 4 sweep points, got {len(xs)}")
    for i, (x, y) in enumerate(zip(xs, ys)):
        for name, v in (("x", x), ("y", y)):
            if not 0.0 < float(v) < math.inf:
                raise ValueError(f"point {i}: {name}={v!r} is not a finite "
                                 f"positive number")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if (lx == lx[0]).all():  # their mean may round off their value
        raise ValueError("all x values identical")
    k = len(lx)
    mx = lx.mean()
    sxx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (slope * lx + intercept)
    var = float((resid ** 2).sum()) / max(k - 2, 1)
    stderr = math.sqrt(var / sxx)
    return slope, stderr
