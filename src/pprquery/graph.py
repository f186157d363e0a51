"""Immutable directed-graph storage.

Node ids are dense integers 0..n-1 and the edge list is the canonical
interchange format.  Every node must have out-degree >= 1; graphs with
dangling nodes are rejected at build time so the discounted walk is
well defined everywhere.  Each node also carries an in-adjacency list
sorted by the out-degree of the in-neighbor (ties broken by ascending
node id), which backs the IN-SORTED oracle query.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


class GraphError(ValueError):
    pass


class DanglingNode(GraphError):
    """Some node has out-degree 0."""


class DuplicateEdge(GraphError):
    pass


class NodeIdOutOfRange(GraphError):
    pass


class DirectedGraph:
    """CSR-style directed graph, immutable after build_graph().

    Attributes
    ----------
    node_count, edge_count : int
    out_lists, in_lists    : list[list[int]] adjacency (insertion order)
    in_sorted_lists        : in_lists re-ordered by non-decreasing
                             out-degree of the neighbor, ties by id

    The int64 arrays of `edge_arrays()` and `out_csr()` are built on
    first use and cached.
    """

    __slots__ = ("node_count", "edge_count", "out_lists", "in_lists",
                 "in_sorted_lists", "out_degrees", "in_degrees",
                 "_out_sets", "_edge_src", "_edge_dst", "_out_ptr",
                 "_out_deg")

    def __init__(self, node_count, out_lists, in_lists):
        self.node_count = node_count
        self.out_lists = out_lists
        self.in_lists = in_lists
        self.out_degrees = [len(l) for l in out_lists]
        self.in_degrees = [len(l) for l in in_lists]
        self.edge_count = sum(self.out_degrees)
        dout = self.out_degrees
        self.in_sorted_lists = [sorted(l, key=lambda u: (dout[u], u))
                                for l in in_lists]
        self._out_sets = [frozenset(l) for l in out_lists]
        self._edge_src = None
        self._edge_dst = None
        self._out_ptr = None
        self._out_deg = None

    def d_out(self, v):
        return self.out_degrees[v]

    def d_in(self, v):
        return self.in_degrees[v]

    def edges(self):
        """Edge list in (source id, list order)."""
        return [(u, v) for u in range(self.node_count)
                for v in self.out_lists[u]]

    def edge_arrays(self):
        """Per-edge (src, dst) int64 arrays, cached; used by exact solvers."""
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.node_count, dtype=np.int64), self.out_degrees)
            self._edge_dst = np.fromiter(chain.from_iterable(self.out_lists),
                                         np.int64, count=self.edge_count)
        return self._edge_src, self._edge_dst

    def out_csr(self):
        """(out_ptr, out_deg, dst) int64 arrays, cached: the out-list of v
        is dst[out_ptr[v]:out_ptr[v] + out_deg[v]].  Backs the batch
        oracle queries."""
        if self._out_ptr is None:
            deg = np.array(self.out_degrees, dtype=np.int64)
            self._out_ptr = np.cumsum(deg) - deg
            self._out_deg = deg
        return self._out_ptr, self._out_deg, self.edge_arrays()[1]

    def __repr__(self):
        return f"DirectedGraph(n={self.node_count}, m={self.edge_count})"


def build_graph(edges, node_count):
    """Build a DirectedGraph from an edge list.

    Raises NodeIdOutOfRange / DuplicateEdge / DanglingNode.  Adjacency
    lists keep the edge-list insertion order.
    """
    if node_count < 1:
        raise GraphError("node_count must be >= 1")
    out_lists = [[] for _ in range(node_count)]
    in_lists = [[] for _ in range(node_count)]
    seen = [set() for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise NodeIdOutOfRange(f"edge ({u},{v}) with node_count={node_count}")
        if v in seen[u]:
            raise DuplicateEdge(f"edge ({u},{v}) appears twice")
        seen[u].add(v)
        out_lists[u].append(v)
        in_lists[v].append(u)
    for u in range(node_count):
        if not out_lists[u]:
            raise DanglingNode(f"node {u} has out-degree 0")
    return DirectedGraph(node_count, out_lists, in_lists)


def save_edge_list(g, path):
    """Write "n m" header then one "u v" line per edge."""
    with open(path, "w") as f:
        f.write(f"{g.node_count} {g.edge_count}\n")
        for u, v in g.edges():
            f.write(f"{u} {v}\n")


def load_edge_list(path):
    """Load an edge-list text file (header line "n m" optional).

    The first line is treated as a header iff its second field equals
    the number of remaining lines; otherwise every line is an edge and
    node_count is max id + 1.
    """
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"malformed line: {line!r}")
            rows.append((int(parts[0]), int(parts[1])))
    if not rows:
        raise GraphError("empty edge list")
    head_n, head_m = rows[0]
    if (head_m == len(rows) - 1 and head_n >= 1
            and all(0 <= u < head_n and 0 <= v < head_n for u, v in rows[1:])):
        return build_graph(rows[1:], head_n)
    node_count = 1 + max(max(u, v) for u, v in rows)
    return build_graph(rows, node_count)
