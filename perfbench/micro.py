"""Microbenchmarks of single layers, timed outside any trial.

Per-query cost is measured on a workload's own graph through an
OracleHandle and through a SuperSourceView over it, with a seeded
stream of arguments.  Times include the Python loop that issues the
calls.  Graph build memory comes from tracemalloc; load time from a
save/load round trip through a temporary file.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc

import numpy as np

from pprquery.graph import build_graph, load_edge_list, save_edge_list
from pprquery.oracle import Capabilities, OracleHandle
from pprquery.single_node import SuperSourceView

from spec import QUERY_KINDS

CALLS = 20000
REPS = 5


def _arguments(g, rng):
    """kind -> argument tuples of one seeded stream over the real graph."""
    n = g.node_count
    nodes = rng.integers(n, size=CALLS).tolist()
    picks = rng.random(CALLS).tolist()
    din, dout = g.in_degrees, g.out_degrees
    has_in = [v for v in range(n) if din[v] > 0]
    in_nodes = [has_in[i] for i in rng.integers(len(has_in), size=CALLS)]
    outs = [(v, int(p * dout[v])) for v, p in zip(nodes, picks)]
    ins = [(v, int(p * din[v])) for v, p in zip(in_nodes, picks)]
    pairs = list(zip(nodes, rng.integers(n, size=CALLS).tolist()))
    return {"deg_in": [(v,) for v in nodes], "deg_out": [(v,) for v in nodes],
            "in": ins, "out": outs, "in_sorted": ins, "adj": pairs,
            "jump": [()] * CALLS}


def _time_calls(fn, args):
    t0 = time.perf_counter()
    for a in args:
        fn(*a)
    return time.perf_counter() - t0


def ns_per_query(o, args):
    """kind -> median over REPS of ns per call of the oracle method."""
    methods = {"deg_in": o.deg_in, "deg_out": o.deg_out, "in": o.in_nbr,
               "out": o.out_nbr, "in_sorted": o.in_sorted, "adj": o.adj,
               "jump": o.jump}
    before = o.stats.as_dict()
    out = {}
    for kind in QUERY_KINDS:
        times = [_time_calls(methods[kind], args[kind]) for _ in range(REPS)]
        out[kind] = statistics.median(times) / CALLS * 1e9
    after = o.stats.as_dict()
    for kind in QUERY_KINDS:
        if after[kind] - before[kind] != REPS * CALLS:
            raise RuntimeError(f"{kind}: metered {after[kind] - before[kind]} "
                               f"queries for {REPS * CALLS} calls")
    return out


def oracle_metrics(g, seed):
    """oracle.ns_per_query.* and single_node.view_ns_per_query.*."""
    o = OracleHandle(g, Capabilities.all(), seed=seed)
    args = _arguments(g, np.random.default_rng(seed))
    metrics = {f"oracle.ns_per_query.{k}": v
               for k, v in ns_per_query(o, args).items()}
    # real-node arguments only, so every view call forwards to a metered query
    view = SuperSourceView(o)
    metrics.update({f"single_node.view_ns_per_query.{k}": v
                    for k, v in ns_per_query(view, args).items()})
    return metrics


def graph_metrics(g, tmpdir):
    """graph.bytes_per_edge of a fresh build, graph.load_s_per_medge of a
    save/load round trip."""
    edges = g.edges()
    m = len(edges)
    tracemalloc.start()
    try:
        built = build_graph(edges, g.node_count)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del built
    path = os.path.join(tmpdir, "graph.txt")
    save_edge_list(g, path)
    t0 = time.perf_counter()
    loaded = load_edge_list(path)
    load_s = time.perf_counter() - t0
    os.remove(path)
    if loaded.node_count != g.node_count or loaded.edges() != edges:
        raise RuntimeError("edge list did not survive a save/load round trip")
    return {"graph.bytes_per_edge": retained / m,
            "graph.load_s_per_medge": load_s / m * 1e6}
