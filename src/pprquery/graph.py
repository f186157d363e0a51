"""Immutable directed-graph storage.

Node ids are dense integers 0..n-1 and the edge list is the canonical
interchange format.  Every node must have out-degree >= 1; graphs with
dangling nodes are rejected at build time so the discounted walk is
well defined everywhere.

The only adjacency state is a set of read-only int32 CSR arrays, built
with numpy sorts and no Python loop over edges.  Node v's out-list is
out_nbrs[out_ptr[v]:out_ptr[v + 1]] and its in-list
in_nbrs[in_ptr[v]:in_ptr[v + 1]], both in edge-list insertion order.
in_sorted holds each in-list ordered by (d_out(u), u) for IN-SORTED,
and out_sorted each out-list sorted by id, for ADJ by bisection.
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
    """CSR directed graph, immutable after build_graph().

    Attributes
    ----------
    node_count, edge_count : int
    out_ptr, in_ptr        : int32[n + 1] offsets into the edge arrays
    out_nbrs, in_nbrs      : int32[m] adjacency in insertion order
    in_sorted, out_sorted  : int32[m] IN-SORTED order, id-sorted out-lists
    out_deg, in_deg        : int32[n] degrees; out_degrees and in_degrees
                             are memoryviews of them, indexed as Python ints
    """

    __slots__ = ("node_count", "edge_count", "out_ptr", "out_nbrs",
                 "out_sorted", "out_deg", "in_ptr", "in_nbrs", "in_sorted",
                 "in_deg")

    out_degrees = property(lambda self: memoryview(self.out_deg))
    in_degrees = property(lambda self: memoryview(self.in_deg))

    def out_list(self, v):
        """OUT list of v, in insertion order."""
        return self.out_nbrs[self.out_ptr[v]:self.out_ptr[v + 1]].tolist()

    def in_list(self, v, by_out_degree=False):
        """IN list of v, in insertion order or in IN-SORTED order."""
        nbrs = self.in_sorted if by_out_degree else self.in_nbrs
        return nbrs[self.in_ptr[v]:self.in_ptr[v + 1]].tolist()

    def edge_arrays(self):
        """Per-edge (src, dst) arrays in (source id, list order)."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int64),
                        self.out_deg)
        return src, self.out_nbrs

    def edges(self):
        """Edge list in (source id, list order)."""
        return list(zip(*(a.tolist() for a in self.edge_arrays())))

    def __repr__(self):
        return f"DirectedGraph(n={self.node_count}, m={self.edge_count})"


def csr_entries(ptr, nodes):
    """Positions in a CSR neighbor array of every entry of `nodes`, in
    node then list order, and the entry count of each node; O(entries),
    no pass over the whole array."""
    starts = ptr[nodes]
    lens = ptr[nodes + 1] - starts
    ends = np.cumsum(lens)
    idx = np.repeat(starts - (ends - lens), lens)
    idx += np.arange(idx.size)
    return idx, lens


def _csr(keys, vals, n):
    """(ptr, vals grouped by key in stable order, per-key counts)."""
    deg = np.bincount(keys, minlength=n)
    ptr = np.concatenate(([0], np.cumsum(deg)))
    return ptr, vals[np.argsort(keys, kind="stable")], deg


def build_graph(edges, node_count):
    """Build a DirectedGraph from fewer than 2^31 edges: an integer
    (m, 2) ndarray, read as it is, or an iterable of (u, v) pairs.

    Raises GraphError for a float or misshapen array (or an odd number
    of ids), then NodeIdOutOfRange, DuplicateEdge and DanglingNode, each
    naming the first offending edge (in insertion order) or node.
    Adjacency lists keep the edge-list insertion order.
    """
    if node_count < 1:
        raise GraphError("node_count must be >= 1")
    n = node_count
    if isinstance(edges, np.ndarray):
        if (not np.issubdtype(edges.dtype, np.integer) or edges.ndim != 2
                or edges.shape[1] != 2):
            raise GraphError(f"edge array must be integer (m, 2), got "
                             f"{edges.dtype} {edges.shape}")
        pairs = edges.astype(np.int64, copy=False)
    else:
        pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        if pairs.size % 2:
            raise GraphError("every edge must be a (u, v) pair")
        pairs = pairs.reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        raise NodeIdOutOfRange(f"edge ({src[j]},{dst[j]}) with node_count={n}")
    key = src * n + dst
    sorted_key = np.sort(key)
    if (sorted_key[1:] == sorted_key[:-1]).any():
        first = np.unique(key, return_index=True)[1]
        j = np.setdiff1d(np.arange(len(key)), first)[0]
        raise DuplicateEdge(f"edge ({src[j]},{dst[j]}) appears twice")
    out_ptr, out_nbrs, out_deg = _csr(src, dst, n)
    if not out_deg.all():
        raise DanglingNode(f"node {int(np.argmin(out_deg))} has out-degree 0")
    in_ptr, in_nbrs, in_deg = _csr(dst, src, n)
    # rank[u] = position of u in (d_out(u), u) order
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(out_deg, kind="stable")] = np.arange(n)
    g = DirectedGraph()
    g.node_count, g.edge_count = n, len(src)
    for name, arr in (("out_ptr", out_ptr), ("out_nbrs", out_nbrs),
                      ("out_sorted", sorted_key % n), ("out_deg", out_deg),
                      ("in_ptr", in_ptr), ("in_nbrs", in_nbrs),
                      ("in_sorted", src[np.argsort(dst * n + rank[src])]),
                      ("in_deg", in_deg)):
        arr = arr.astype(np.int32)
        arr.flags.writeable = False
        setattr(g, name, arr)
    return g


def save_edge_list(g, path):
    """Write "n m" header then one "u v" line per edge, in edges() order.
    Each id is spelled right-aligned in a fixed-width byte row ending in
    its separator, and the rows are joined without their padding."""
    ids = np.column_stack(g.edge_arrays()).ravel()
    width = len(str(int(ids.max())))
    rows = np.empty((ids.size, width + 1), dtype=np.uint8)
    rows[0::2, width], rows[1::2, width] = ord(" "), ord("\n")
    rest = ids.astype(np.int32)
    for k in range(width - 1, -1, -1):
        rest, rows[:, k] = np.divmod(rest, 10)
    rows[:, :width] += ord("0")
    pad = (ids[:, None] < 10 ** np.arange(width - 1, 0, -1)).sum(axis=1)
    with open(path, "wb") as f:
        f.write(f"{g.node_count} {g.edge_count}\n".encode())
        f.write(rows[np.arange(width + 1) >= pad[:, None]].tobytes())


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
