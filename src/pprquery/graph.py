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

import warnings
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
    """Write the edge-list format: an "n m" header line, then one
    "u v" line per edge, in edges() order."""
    ids = np.column_stack(g.edge_arrays()).ravel().tolist()
    with open(path, "wb") as f:
        f.write(b"%d %d\n" % (g.node_count, g.edge_count))
        f.write((b"%d %d\n" * g.edge_count) % tuple(ids))


def load_edge_list(path):
    """Load a file in the format save_edge_list writes: an "n m" header
    line, then exactly m "u v" lines.  Blank lines and "#" comments are
    skipped.

    Raises GraphError for an empty file, a row without exactly two
    integer fields, n < 1, or m other than the number of edge rows;
    DanglingNode for n > m, before any n-sized array is allocated; then
    build_graph's NodeIdOutOfRange, DuplicateEdge and DanglingNode.
    """
    with warnings.catch_warnings():  # loadtxt warns on an empty file
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
        except ValueError as e:
            raise GraphError(f"malformed edge list {path}: {e}") from None
    if not rows.size:
        raise GraphError(f"empty edge list {path}: no \"n m\" header")
    if rows.shape[1] != 2:
        raise GraphError(f"malformed edge list {path}: rows have "
                         f"{rows.shape[1]} fields, not 2")
    n, m = rows[0].tolist()
    if n < 1:
        raise GraphError(f"header n={n} in {path}: must be >= 1")
    if m != len(rows) - 1:
        raise GraphError(f"header m={m} in {path}, but the file has "
                         f"{len(rows) - 1} edge rows")
    if n > m:
        raise DanglingNode(f"header n={n} exceeds m={m} in {path}: some "
                           f"node has out-degree 0")
    return build_graph(rows[1:], n)
