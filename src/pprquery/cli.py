"""Command-line interface.

Verbs: generate (instance -> edge list), exact (oracle vectors),
run (experiment -> CSV/JSON), fit (log-log scaling slope).  Bad input,
any PprqueryError, exits 2 with one error line; other errors are bugs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graph import PprqueryError, save_edge_list
from .exact import exact_single_source, exact_single_target, exact_pagerank, dump_csv
from .harness import (ExperimentConfig, load_instance_file, run_experiment,
                      emit, read_results, fit_scaling)
from .instances import FAMILIES, InstanceSpec, generate, parameter_presets

# the spec fields `generate --preset` sets from the family's regime
_PRESET_FIELDS = ("L", "D", "D2", "variant")


def _cmd_generate(args):
    if args.preset:
        spec = parameter_presets(args.family, args.n, args.m, args.delta,
                                 args.alpha)
        spec.swap = args.swap if args.swap is not None else spec.swap
    else:
        spec = InstanceSpec(family=args.family, n=args.n, m=args.m,
                            alpha=args.alpha, swap=bool(args.swap),
                            **{k: getattr(args, k) for k in _PRESET_FIELDS
                               if getattr(args, k) is not None})
    spec.padding = args.padding
    g, meta = generate(spec)
    save_edge_list(g, args.out)
    if args.meta:
        payload = {"spec": json.loads(spec.to_json()),
                   "s": meta.s, "t": meta.t,
                   "pi_pre_swap": meta.pi_pre_swap,
                   "pi_post_swap": meta.pi_post_swap,
                   "pi_bounds": meta.pi_bounds,
                   "target_group": list(meta.target_group),
                   "swap_edges": meta.swap_edges,
                   "roles": {k: [v[0], v[-1]] for k, v in meta.roles.items() if v}}
        with open(args.meta, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
    print(f"wrote {g.node_count} nodes, {g.edge_count} edges to {args.out}")
    return 0


def _cmd_exact(args):
    g = load_instance_file(args.graph)  # a bad file is a usage error
    if args.mode == "source":
        vec = exact_single_source(g, args.node, args.alpha, args.tol)
    elif args.mode == "target":
        vec = exact_single_target(g, args.node, args.alpha, args.tol)
    else:
        vec = exact_pagerank(g, args.alpha, args.tol)
    dump_csv(vec, args.out)
    print(f"wrote {g.node_count} rows to {args.out}")
    return 0


def _cmd_run(args):
    cfg = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    results = run_experiment(cfg, threads=args.threads)
    emit(results, args.format, args.out)
    n_ok = sum(1 for r in results if r.success)
    n_known = sum(1 for r in results if r.success is not None)
    print(f"wrote {len(results)} rows to {args.out}"
          + (f" (success {n_ok}/{n_known})" if n_known else ""))
    return 0


class FitError(PprqueryError):
    """Results that `fit` cannot fit: a usage error, as a bad config is."""


def _cmd_fit(args):
    try:
        rows = read_results(args.results)
    except OSError as e:
        raise FitError(f"cannot read {args.results}: {e.strerror}") from None
    need = ["cell", args.x, args.y] + (["algorithm"] if args.algorithm else [])
    missing = [c for c in need if rows and c not in rows[0]]
    if missing:
        raise FitError(f"{args.results} has no column {missing[0]!r}")
    if args.algorithm:
        rows = [r for r in rows if r["algorithm"] == args.algorithm]
        if not rows:
            raise FitError(f"{args.results} has no {args.algorithm} rows")
    cells = {}
    for r in rows:
        cells.setdefault(r["cell"], []).append(r)
    try:
        xs, ys = [], []
        for cell_rows in cells.values():
            xs.append(float(cell_rows[0][args.x]))
            ys.append(sum(float(r[args.y]) for r in cell_rows) / len(cell_rows))
        slope, stderr = fit_scaling(xs, ys)
    except ValueError as e:  # a non-number, too few points, equal x
        raise FitError(str(e)) from None
    print(f"slope {slope:+.4f} +- {stderr:.4f}  ({len(xs)} sweep points, "
          f"y={args.y} vs x={args.x})")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="pprquery",
        description="Discounted-random-walk probability estimation under "
                    "a metered adjacency-list query model")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a hard instance")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--L", type=int, help="default 1")
    g.add_argument("--D", type=int, help="default 1")
    g.add_argument("--D2", type=int, help="default 0 (use D)")
    g.add_argument("--delta", type=float, default=0.01,
                   help="threshold for --preset parameterization")
    g.add_argument("--alpha", type=float, default=0.2)
    g.add_argument("--swap", action=argparse.BooleanOptionalAction, default=None)
    g.add_argument("--preset", action="store_true",
                   help="set L/D from the family's regime for (n,m,delta)")
    g.add_argument("--variant", help="output_size_st: worst (default) or avg")
    g.add_argument("--padding", action="store_true")
    g.add_argument("--out", required=True)
    g.add_argument("--meta", help="also write instance metadata JSON")
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("exact", help="exact oracle vectors")
    e.add_argument("--graph", required=True)
    e.add_argument("--mode", choices=("source", "target", "pagerank"),
                   required=True)
    e.add_argument("--node", type=int, default=0)
    e.add_argument("--alpha", type=float, default=0.2)
    e.add_argument("--tol", type=float, default=1e-12)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_exact)

    r = sub.add_parser("run", help="run an experiment config")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--out", required=True)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.add_argument("--threads", type=int, default=1,
                   help="worker processes over sweep cells; output is "
                        "identical to a sequential run")
    r.set_defaults(func=_cmd_run)

    f = sub.add_parser("fit", help="log-log scaling slope from results")
    f.add_argument("--results", required=True)
    f.add_argument("--x", default="delta")
    f.add_argument("--y", default="q_total")
    f.add_argument("--algorithm", default=None)
    f.set_defaults(func=_cmd_fit)

    args = p.parse_args(argv)
    if args.func is _cmd_generate and args.preset:
        fixed = [f"--{k}" for k in _PRESET_FIELDS if getattr(args, k) is not None]
        if fixed:
            g.error(f"--preset sets {', '.join(fixed)} itself")
    try:
        return args.func(args)
    except PprqueryError as e:
        p.error(str(e))  # bad input the package names is a usage error: exit 2


if __name__ == "__main__":
    sys.exit(main())
