"""Undirected communication graphs: construction, BFS distances, edge-list files.

Nodes are dense integers 0..N-1.  Graphs are validated once at build time
(simple, undirected, connected) and immutable afterwards, so views and
the derived read-only arrays can be shared freely between threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a``, which is sorted in place.

    A sort and a neighbor comparison: ``np.unique`` hashes integers, several
    times slower on BFS frontiers.
    """
    x = a.ravel()
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class GraphError(ValueError):
    """Base class for graph construction and parsing failures."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class NodeOutOfRangeError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class EdgeListParseError(GraphError):
    pass


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_BYTE_CLASS = np.zeros(256, dtype=np.uint8)  # 0 token byte, 1 blank, 2 line end, 3 '#'
_BYTE_CLASS[[9, 31, 32, 10, 35]] = 1, 1, 1, 2, 3  # blanks: str.split's that splitlines leaves


def _neighbors(indptr, indices, nodes):
    """Every neighbor of ``nodes``, node after node (each one's ascending), and their degrees.

    One gather: entry i of the result sits at CSR position i plus its
    node's range start less the entries of the nodes before it.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    at = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[at + np.arange(at.size)], counts


def _bfs(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Hop distance to the nearest of the sorted distinct ``frontier`` nodes, -1 if none.

    Level-synchronous over CSR arrays: O(N + M) for any number of sources.
    """
    dist = np.full(indptr.size - 1, -1, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        reached = _neighbors(indptr, indices, frontier)[0]
        frontier = _distinct(reached[dist[reached] < 0])
        dist[frontier] = level
    return dist


def _reach(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """How many of nodes 0..n-1 the edges (u[i], v[i]) join to node 0.

    Hooking with pointer jumping (Shiloach and Vishkin, J. Algorithms 1982).
    Each round points every root that an edge joins to a smaller root at the
    smallest such root, jumps every pointer to its root and drops the edges
    within one tree.  Pointers only fall, so node 0 stays a root.  A root
    left alone in its tree with an edge to another tree has a smaller root
    across it, so it hooks the next round: the roots with a cross edge halve
    every two rounds, and the rounds are O(log n) on any graph.
    """
    parent, a, b = np.arange(n), u, v
    while u.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not ((up := parent.take(parent)) == parent).all():
            parent = up
        a, b = parent.take(u), parent.take(v)
        cross = np.flatnonzero(a != b)
        u, v, a, b = u.take(cross), v.take(cross), a.take(cross), b.take(cross)
    return int((parent == 0).sum())


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph: ``csr`` is ``(indptr, indices)``, v's neighbors
    are ``indices[indptr[v]:indptr[v + 1]]``, ascending.  Other forms derive from it.
    """

    node_count: int
    csr: tuple[np.ndarray, np.ndarray]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*(side.tolist() for side in self.edge_arrays())))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Both endpoints of every edge, u < v, ascending by (u, v)."""
        rows, indices = self.rows(), self.csr[1]
        up = rows < indices
        return rows[up], indices[up]

    def rows(self) -> np.ndarray:
        """The node whose neighbor each ``csr[1]`` entry is (ascending)."""
        return np.repeat(np.arange(self.node_count), np.diff(self.csr[0]))

    def are_adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Whether each (u[i], v[i]) is an edge; ids outside 0..N-1 are on none."""
        n = self.node_count
        key = np.where((u >= 0) & (u < n) & (v >= 0) & (v < n), u * n + v, -1)
        edge = np.append(self.rows() * n + self.csr[1], n * n)  # ascending, then a sentinel
        return edge.take(edge.searchsorted(key)) == key

    @cached_property
    def closed_degrees(self) -> np.ndarray:
        """Every node's closed-neighborhood size, |N(v)| = degree + 1."""
        return _frozen(np.diff(self.csr[0]) + 1)

    def padded_neighbors(self) -> np.ndarray:
        """(N + 1, max degree) neighbor rows, ascending, padded with the sentinel N.

        Row N, a nil node's, holds only N.  Built on every call and not kept:
        a graph holds only its CSR arrays.
        """
        n, rows, (indptr, indices) = self.node_count, self.rows(), self.csr
        pad = np.full((n + 1, int(self.closed_degrees.max()) - 1), n)
        pad[rows, np.arange(indices.size) - indptr[rows]] = indices
        return pad

    def multi_source_distances(self, sources: Iterable[int]) -> np.ndarray:
        """Hop distance from every node to its nearest source (-1 where unreachable)."""
        n = self.node_count
        frontier = _distinct(np.fromiter(sources, dtype=np.int64))
        if frontier.size and not (0 <= frontier[0] and frontier[-1] < n):
            bad = frontier[(frontier < 0) | (frontier >= n)][0]
            raise NodeOutOfRangeError(f"node {bad} outside 0..{n - 1}")
        return _bfs(*self.csr, frontier)


def build_graph(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a simple connected undirected graph.

    Raises NodeOutOfRangeError, SelfLoopError or DuplicateEdgeError for the
    first edge, in order, that fails one (checked in that order), then
    DisconnectedError.
    """
    pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
    return _graph_from_edges(node_count, pairs[:, 0], pairs[:, 1])


def _graph_from_edges(n: int, u: np.ndarray, v: np.ndarray, show=None) -> Graph:
    """build_graph on endpoint arrays; ``show(i)`` gives edge i's endpoints for a message."""
    if n < 1:
        raise NodeOutOfRangeError(f"node_count must be >= 1, got {n}")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    outside, loop = (lo < 0) | (hi >= n), lo == hi
    # ids compacted to 0 and the named nodes, ascending, so no key overflows at any n
    named = _distinct(np.concatenate(([0], lo, hi)))
    size, lo, hi = named.size, named.searchsorted(lo), named.searchsorted(hi)
    key = np.where(outside | loop, -1 - np.arange(u.size), lo * size + hi)
    repeat = np.zeros(u.size, dtype=bool)
    same = np.sort(key)
    if (same[1:] == same[:-1]).any():  # all but the first edge of each key repeat one
        repeat[:] = True
        repeat[np.unique(key, return_index=True)[1]] = False
    bad = outside | loop | repeat
    if bad.any():
        i = int(bad.argmax())
        a, b = show(i) if show else (int(u[i]), int(v[i]))
        if outside[i]:
            raise NodeOutOfRangeError(f"edge ({a}, {b}) outside 0..{n - 1}")
        if loop[i]:
            raise SelfLoopError(f"self loop at node {a}")
        raise DuplicateEdgeError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
    reach = _reach(size, lo, hi)  # of the compacted ids, so of the named nodes
    if reach != n:
        raise DisconnectedError(f"graph is disconnected: {reach} of {n} nodes reachable from 0")
    # every node is named, so by (node, neighbor) the compacted ids give the graph's CSR
    key = np.sort(np.concatenate((key, hi * size + lo)))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(key // size, minlength=size))))
    return Graph(n, (_frozen(indptr), _frozen(key % size)))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format (README, "Graph files"), as arrays of bytes.

    First data line is ``N M``; the next M lines are ``u v`` with 0-based
    endpoints.  ``#`` starts a comment (full-line or trailing).  Tokens
    are ASCII decimal integers, ``-?[0-9]+``.
    """
    body = "\n" + "\n".join(text.splitlines()) + "\n"  # one line end per line, one byte per char
    if not body.isascii():  # other whitespace turns blank; other non-ASCII chars fail their token
        body = body.translate({ord(c): " " for c in set(body) if c.isspace() and c != "\n"})
    raw = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8)
    kind = _BYTE_CLASS.take(raw)
    line_of = np.cumsum(kind == 2)  # the 1-based line of every byte
    marks = np.cumsum(kind == 3)  # a byte after a '#' on its line is in a comment
    tok = (kind == 0) & (marks == marks.take(np.flatnonzero(kind == 2)).take(line_of - 1))
    edge = tok[1:] != tok[:-1]
    starts = np.flatnonzero(edge & tok[1:]) + 1
    ends = np.flatnonzero(edge & tok[:-1]) + 1
    if not starts.size:
        raise EdgeListParseError("empty edge list: missing 'N M' header")
    line = line_of.take(starts)  # 1-based line of each token
    first = np.flatnonzero(np.append(True, line[1:] != line[:-1]))  # each data line's first token
    count = np.append(first[1:], starts.size) - first
    minus = (raw.take(starts) == 45) & (ends - starts > 1)
    stray = tok & ((raw < 48) | (raw > 57))
    stray[starts[minus]] = False
    bad = np.logical_or.reduceat(stray, starts)
    wrong = (count != 2) | np.logical_or.reduceat(bad, first)

    def word(i: int) -> str:
        return body[starts[i]:ends[i]]

    def fail(k: int, shape: str):
        """Raise for data line k: a wrong token count, else its first bad token."""
        i = first[k] + (count[k] == 2 and not bad[first[k]])
        what = shape if count[k] != 2 else f"expected integer, got {word(i)!r}"
        raise EdgeListParseError(f"line {line[i]}: {what}")

    if wrong[0]:
        fail(0, "header must be 'N M'")
    n, m = int(word(0)), int(word(1))
    if first.size - 1 != m:
        raise EdgeListParseError(f"header declares {m} edges but {first.size - 1} edge lines found")
    if wrong.any():
        fail(int(wrong.argmax()), "edge line must be 'u v'")
    value = np.zeros(starts.size, dtype=np.int64)  # saturates at 2**59, past any node id
    for j in range(int((ends - starts).max()), 0, -1):  # every token's j-th last byte at once
        at = ends - j
        value = np.minimum(value * 10 + np.where(at >= starts + minus, raw.take(at) - 48, 0), 2**59)
    value = np.where(minus, -value, value)
    return _graph_from_edges(n, value[2::2], value[3::2],
                             lambda e: (int(word(2 + 2 * e)), int(word(3 + 2 * e))))


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    u, v = g.edge_arrays()
    return f"{g.node_count} {u.size}\n" + "".join(map("{} {}\n".format, u.tolist(), v.tolist()))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected_graph(n: int, extra_edge_prob: float = 0.0, rng=None) -> Graph:
    """Uniform random labeled tree plus independent extra edges.

    The tree keeps the graph connected at any density; each non-tree pair is
    added with probability ``extra_edge_prob``.
    """
    rng = np.random.default_rng(rng)
    if n < 1:
        raise NodeOutOfRangeError(f"need n >= 1, got {n}")
    if n == 1:
        return build_graph(1, [])
    seq = rng.integers(0, n, size=n - 2)  # a Pruefer sequence; empty for n = 2
    degree = (np.bincount(seq, minlength=n) + 1).tolist()
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: set[tuple[int, int]] = set()
    for x in seq.tolist():
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.add((heapq.heappop(leaves), heapq.heappop(leaves)))  # the last two, smaller first
    if extra_edge_prob > 0.0:  # one draw per non-tree pair, (u, v) ascending, row by row
        later = [[] for _ in range(n)]  # each node's tree neighbors above it
        for a, b in edges:
            later[a].append(b)
        for u in range(n - 1):
            free = np.setdiff1d(np.arange(u + 1, n), later[u])
            edges.update((u, v) for v in free[rng.random(free.size) < extra_edge_prob].tolist())
    return build_graph(n, sorted(edges))
