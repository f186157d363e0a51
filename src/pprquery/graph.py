"""Immutable directed-graph storage.

Node ids are dense integers 0..n-1 and the edge list is the canonical
interchange format.  Every node must have out-degree >= 1; graphs with
dangling nodes are rejected at build time so the discounted walk is
well defined everywhere.

The only adjacency state is a set of read-only int32 CSR arrays (17.8
bytes per edge on the 880k-edge st_avg_full instance), so a graph holds
at most 2^31 nodes and 2^31 - 1 edges.  Edges are int32 from the
instance generators to the CSR: build_graph reads an int32 edge array
through its column views and copies any other input once to int32.  It
sorts unique int64 keys in one buffer, by timsort where the rows come in
runs, peaking at 1.57x the kept arrays for an int32 input and 1.72x for
any other, with no Python loop over edges.
Node v's out-list is out_nbrs[out_ptr[v]:out_ptr[v + 1]] and its in-list
in_nbrs[in_ptr[v]:in_ptr[v + 1]], both in edge-list insertion order.
in_sorted holds each in-list ordered by (d_out(u), u) for IN-SORTED,
and out_sorted each out-list sorted by id, for ADJ by bisection.
"""

from __future__ import annotations

import numbers
import warnings
from itertools import chain

import numpy as np


# ids and offsets are stored int32: at most 2^31 nodes, 2^31 - 1 edges
MAX_IDS = 2 ** 31
_arange = np.arange(0)  # grow-only and read-only: see positions


class PprqueryError(ValueError):
    """Bad input, named: the CLI reports any subclass as a usage error."""


class GraphError(PprqueryError):
    pass


class DanglingNode(GraphError):
    """Some node has out-degree 0."""


class DuplicateEdge(GraphError):
    pass


class NodeIdOutOfRange(GraphError):
    pass


def check_nodes(n, **ids):
    """Raise NodeIdOutOfRange naming the first of `ids` that is not a node
    id of an n-node graph: a non-bool integer, Python or numpy, in
    [0, n).  Every estimator checks its s and t with this before its
    first query or random draw."""
    for name, v in ids.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not 0 <= v < n:
            raise NodeIdOutOfRange(f"{name}={v!r} outside [0, {n})")


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
                 "in_deg", "__weakref__")

    out_degrees = property(lambda self: memoryview(self.out_deg))
    in_degrees = property(lambda self: memoryview(self.in_deg))

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


def positions(size):
    """np.arange(size) as a read-only slice of one grow-only arange."""
    global _arange
    if _arange.size < size:
        _arange = np.arange(max(size, 2 * _arange.size))
        _arange.flags.writeable = False
    return _arange[:size]


def csr_entries(ptr, nodes):
    """Positions in a CSR neighbor array of every entry of `nodes`, in
    node then list order, and the entry count of each node, both intp;
    O(entries), no pass over the whole array."""
    starts = ptr[nodes].astype(np.intp)
    lens = ptr[1:][nodes] - starts
    idx = (starts - lens.cumsum() + lens).repeat(lens)
    idx += positions(idx.size)
    return idx, lens


def _group(key, ids, vals):
    """vals grouped by their int32 ids, each group in row order: sorts
    id << b | row (2^b >= m) in the int64[m] buffer `key`, by timsort for
    ids in runs of 64 rows or more on average, else by quicksort."""
    m = len(ids)
    b = max(m - 1, 1).bit_length()
    runs = 1 + np.count_nonzero(ids[1:] < ids[:-1])
    np.left_shift(ids, b, out=key, dtype=np.int64)
    key |= np.arange(m, dtype=np.int32)
    key.sort(kind="stable" if 64 * runs <= m else "quicksort")
    key &= (1 << b) - 1
    return vals[key]


def build_graph(edges, node_count):
    """Build a DirectedGraph from an integer (m, 2) ndarray, read as it
    is and never written, or an iterable of (u, v) pairs; node_count is
    a non-bool integer >= 1, Python or numpy.  Every stored id and
    offset is int32, so node_count may be at most 2^31 and the edge
    count at most 2^31 - 1.

    Raises GraphError for a bad or too large node_count, a float or
    misshapen array (or an odd number of ids) and 2^31 or more edges,
    before any n-length allocation and, for an array, any m-length one;
    then NodeIdOutOfRange, DuplicateEdge and DanglingNode, each naming
    the first offending edge (in insertion order) or node.  Adjacency
    lists keep the edge-list insertion order.  An int32 array is read
    through its column views; any other input is copied once to int32
    columns.  All sorts share one int64[m] key buffer, by timsort where
    keys come in runs; the peak is 1.57x (int32) or 1.72x the kept arrays.
    """
    if (isinstance(node_count, bool) or not isinstance(node_count, numbers.Integral)
            or node_count < 1):
        raise GraphError(f"node_count={node_count!r} must be an integer >= 1")
    n = int(node_count)
    if n > MAX_IDS:
        raise GraphError(f"node_count={n} exceeds 2^31: ids must fit int32")
    if isinstance(edges, np.ndarray):
        if (not np.issubdtype(edges.dtype, np.integer) or edges.ndim != 2
                or edges.shape[1] != 2):
            raise GraphError(f"edge array must be integer (m, 2), got "
                             f"{edges.dtype} {edges.shape}")
        pairs = edges
    else:
        pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        if pairs.size % 2:
            raise GraphError("every edge must be a (u, v) pair")
        pairs = pairs.reshape(-1, 2)
    if len(pairs) >= MAX_IDS:
        raise GraphError(f"{len(pairs)} edges: at most 2^31 - 1 fit int32 "
                         f"offsets")
    # two reductions test every id; the per-edge mask only names the edge
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        j = int(np.argmax(((pairs < 0) | (pairs >= n)).any(axis=1)))
        raise NodeIdOutOfRange(f"edge ({pairs[j, 0]},{pairs[j, 1]}) with "
                               f"node_count={n}")
    # every id is now below n <= 2^31, so the int32 columns are exact:
    # views of an int32 input, one copy of any other
    src = pairs[:, 0].astype(np.int32, copy=False)
    dst = pairs[:, 1].astype(np.int32, copy=False)
    del pairs  # frees the int64 copy of a list input
    out_deg, in_deg = (np.bincount(ids, minlength=n) for ids in (src, dst))
    key = np.empty(len(src), dtype=np.int64)
    out_nbrs = _group(key, src, dst)
    # u << b | v for each out-list entry v of u, in runs of one list each;
    # sorted, its low bits are out_sorted, and equal keys a repeated edge
    b = max(n - 1, 1).bit_length()
    lists = np.arange(n, dtype=np.int32)
    np.left_shift(lists.repeat(out_deg), b, out=key, dtype=np.int64)
    key |= out_nbrs
    key.sort(kind="stable")
    if (key[1:] == key[:-1]).any():
        first = np.unique(src.astype(np.int64) * n + dst, return_index=True)[1]
        j = np.setdiff1d(np.arange(len(src)), first)[0]
        raise DuplicateEdge(f"edge ({src[j]},{dst[j]}) appears twice")
    key &= (1 << b) - 1
    out_sorted = key.astype(np.int32)
    if not out_deg.all():
        raise DanglingNode(f"node {int(np.argmin(out_deg))} has out-degree 0")
    in_nbrs = _group(key, dst, src)
    del src, dst
    # rank inverts order, the (d_out(u), u) order; the key v << b | rank[u]
    # of each in-list entry u of v, sorted, gives order[key & mask] = u
    order = np.argsort(out_deg, kind="stable")
    rank = np.empty(n, dtype=np.int32)
    rank[order] = lists
    np.left_shift(lists.repeat(in_deg), b, out=key, dtype=np.int64)
    key |= rank[in_nbrs]
    key.sort(kind="stable")
    key &= (1 << b) - 1
    in_sorted = order.astype(np.int32)[key]
    del key
    out_ptr, in_ptr = (np.concatenate(([0], np.cumsum(d))) for d in (out_deg, in_deg))
    return frozen_graph(n, len(out_nbrs), out_ptr=out_ptr, out_nbrs=out_nbrs,
                        out_sorted=out_sorted, out_deg=out_deg, in_ptr=in_ptr,
                        in_nbrs=in_nbrs, in_sorted=in_sorted, in_deg=in_deg)


def frozen_graph(n, m, **arrays):
    """A DirectedGraph of n nodes and m edges holding each of its eight
    CSR `arrays` as a read-only int32 array."""
    g = DirectedGraph()
    g.node_count, g.edge_count = n, m
    for name, arr in arrays.items():
        arr = arr.astype(np.int32, copy=False)
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
