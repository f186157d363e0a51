"""Span tracer that wraps pprquery entry points from outside the package.

Each wrapped function is replaced in the module namespace where its
callers look it up (for example `harness.generate`, which
`harness._run_cell` reaches through its module globals).  A span
records its name, start, end, parent span and, when the first argument
is an oracle or view, a snapshot of its QueryStats at both boundaries.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from operator import attrgetter

from pprquery import bidir, classic, harness, instances, single_node
from pprquery.oracle import QueryStats

_STAT_FIELDS = QueryStats.__slots__
_snapshot = attrgetter(*_STAT_FIELDS)
# QueryStats attribute -> oracle query kind
_KIND_OF = {"in_q": "in", "out_q": "out"}
KINDS = tuple(_KIND_OF.get(f, f) for f in _STAT_FIELDS)


def _backward_counts(args, state):
    return {"pushes": sum(state.push_counts), "heavy_size": len(state.heavy)}


def _r_hat_counts(args, _est):
    return {"n_s": args[3].n_s}


def _build_counts(args, g):
    return {"edges": g.edge_count}


# (module, attribute, span name, counts(args, result) or None)
TARGETS = (
    (harness, "_run_cell", "harness.cell", None),
    (harness, "generate", "instances.generate", None),
    (instances, "build_graph", "graph.build_graph", _build_counts),
    (harness, "exact_single_source", "exact.exact_single_source", None),
    (harness, "exact_pagerank", "exact.exact_pagerank", None),
    (harness, "monte_carlo_pair", "classic.monte_carlo_pair", None),
    (harness, "rbs_single_target", "classic.rbs_single_target", None),
    (harness, "single_pair_ppr", "bidir.single_pair_ppr", None),
    (harness, "single_node_avg_full", "single_node.single_node_avg_full",
     None),
    (single_node, "single_pair_ppr", "bidir.single_pair_ppr", None),
    (bidir, "backward_phase", "bidir.backward_phase", _backward_counts),
    (bidir, "estimate_R_hat", "bidir.estimate_R_hat", _r_hat_counts),
    (bidir, "_walk_terminals", "classic._walk_terminals", None),
    (classic, "_walk_terminals", "classic._walk_terminals", None),
)

# span name -> layer; spans of one layer are summed
LAYER_OF = {
    "harness.cell": "harness",
    "instances.generate": "instances.generate",
    "graph.build_graph": "graph.build",
    "exact.exact_single_source": "exact.solve",
    "exact.exact_pagerank": "exact.solve",
    "classic._walk_terminals": "classic.walk",
    "classic.rbs_single_target": "classic.rbs",
    "bidir.backward_phase": "bidir.backward",
    "bidir.estimate_R_hat": "bidir.r_hat",
}


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "q0", "q1", "counts")

    def __init__(self, id, parent, name, t0, q0):
        self.id = id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.q0 = q0
        self.q1 = None
        self.counts = None

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "t0": self.t0, "t1": self.t1, "q0": self.q0, "q1": self.q1,
                "counts": self.counts}


class Tracer:
    """Collects spans; `install` patches TARGETS, `uninstall` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def open(self, name, stats=None):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(),
                    None if stats is None else _snapshot(stats))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, stats=None):
        span.t1 = time.perf_counter()
        span.q1 = None if stats is None else _snapshot(stats)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            stats = getattr(args[0], "stats", None) if args else None
            if not isinstance(stats, QueryStats):
                stats = None
            span = self.open(name, stats)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span, stats)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, counts in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counts))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans):
    """span id -> duration minus the time its direct children cover."""
    out = {s.id: s.t1 - s.t0 for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.t1 - s.t0
    return out


def _self_queries(spans):
    """span id -> per-kind queries made in the span but not its children."""
    out = {}
    for s in spans:
        if s.q0 is not None and s.q1 is not None:
            out[s.id] = [b - a for a, b in zip(s.q0, s.q1)]
    for s in spans:
        if s.parent in out and s.id in out:
            mine, theirs = out[s.parent], out[s.id]
            for k in range(len(mine)):
                mine[k] -= theirs[k]
    return out


def layer_totals(spans):
    """layer -> {"self_s", "calls", "queries" (per kind), and summed
    counts} over all spans of that layer."""
    selfs = self_times(spans)
    squeries = _self_queries(spans)
    totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0,
                                  "queries": dict.fromkeys(KINDS, 0)})
    for s in spans:
        layer = LAYER_OF.get(s.name)
        if layer is None:
            continue
        acc = totals[layer]
        acc["self_s"] += selfs[s.id]
        acc["calls"] += 1
        for kind, q in zip(KINDS, squeries.get(s.id, ())):
            acc["queries"][kind] += q
        for key, val in (s.counts or {}).items():
            acc[key] = acc.get(key, 0) + val
    return dict(totals)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(totals, trials, setups):
    """Per-layer metric values from layer_totals.

    Trial layers are per-trial means; set-up layers (generate, build,
    exact) are means per set-up.  A layer the workload never reaches
    reads 0.
    """
    empty = {"self_s": 0.0, "calls": 0, "queries": dict.fromkeys(KINDS, 0)}

    def get(layer):
        return totals.get(layer, empty)

    def total_q(layer):
        return sum(get(layer)["queries"].values())

    walk, rbs = get("classic.walk"), get("classic.rbs")
    back, r_hat = get("bidir.backward"), get("bidir.r_hat")
    build = get("graph.build")
    return {
        "classic.walk_s": walk["self_s"] / trials,
        "classic.walk_queries": total_q("classic.walk") / trials,
        "classic.walk_ns_per_query": _ratio(walk["self_s"],
                                            total_q("classic.walk"), 1e9),
        "classic.rbs_s": rbs["self_s"] / trials,
        "classic.rbs_queries": total_q("classic.rbs") / trials,
        "classic.rbs_ns_per_query": _ratio(rbs["self_s"],
                                           total_q("classic.rbs"), 1e9),
        "bidir.backward_s": back["self_s"] / trials,
        "bidir.backward_queries": total_q("bidir.backward") / trials,
        "bidir.pushes": back.get("pushes", 0) / trials,
        "bidir.heavy_size": back.get("heavy_size", 0) / trials,
        "bidir.r_hat_s": r_hat["self_s"] / trials,
        "bidir.r_hat_calls": r_hat["calls"] / trials,
        "bidir.r_hat_queries": total_q("bidir.r_hat") / trials,
        "bidir.r_hat_us_per_call": _ratio(r_hat["self_s"], r_hat["calls"],
                                          1e6),
        "bidir.r_hat_sample_yield": _ratio(r_hat.get("n_s", 0),
                                           r_hat["queries"]["out"]),
        "instances.generate_s": get("instances.generate")["self_s"] / setups,
        "graph.build_s": build["self_s"] / setups,
        "graph.build_s_per_medge": _ratio(build["self_s"],
                                          build.get("edges", 0), 1e6),
        "exact.solve_s": get("exact.solve")["self_s"] / setups,
        "harness.self_s": get("harness")["self_s"] / trials,
    }
