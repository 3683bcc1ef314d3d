"""Undirected communication graphs: construction, BFS distances, r-independence.

Nodes are dense integers 0..N-1.  Graphs are validated once at build time
(simple, undirected, connected) and immutable afterwards, so views and
the derived read-only arrays can be shared freely between threads.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

INDEPENDENCE_LIMIT = 30  # exhaustive independence_number() refuses larger graphs


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


class TooLargeError(GraphError):
    pass


class EdgeListParseError(GraphError):
    pass


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph.

    ``adj`` is the validated public form.  The array forms the elections
    use (closed degrees, CSR) are derived from it once, on first use.
    """

    node_count: int
    adj: tuple[tuple[int, ...], ...]  # sorted neighbor tuples, no self entries

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        """Neighbors of v plus v itself, ascending."""
        return tuple(sorted((*self.adj[v], v)))

    def closed_degree(self, v: int) -> int:
        return len(self.adj[v]) + 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.node_count) for v in self.adj[u] if u < v)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): v's neighbors are indices[indptr[v]:indptr[v + 1]], ascending."""
        degree = np.fromiter(map(len, self.adj), dtype=np.int64, count=self.node_count)
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self.adj), dtype=np.int64, count=int(indptr[-1]))
        return _frozen(indptr), _frozen(indices)

    @cached_property
    def closed_degrees(self) -> np.ndarray:
        """closed_degree(v) for every node."""
        return _frozen(np.diff(self.csr[0]) + 1)

    def padded_neighbors(self) -> np.ndarray:
        """(N, max degree) neighbor matrix, rows ascending, padded with the sentinel N.

        Built from the CSR arrays in O(N + M) numpy work on every call and
        not kept: a graph holds only O(N + M) arrays between elections.
        """
        indptr, indices = self.csr
        degree = np.diff(indptr)
        pad = np.full((self.node_count, int(degree.max())), self.node_count, dtype=np.int64)
        rows = np.repeat(np.arange(self.node_count), degree)
        pad[rows, np.arange(indices.size) - indptr[rows]] = indices
        return pad

    def distances_from(self, source: int) -> np.ndarray:
        """BFS distance from ``source`` to every node (-1 where unreachable)."""
        dist = [-1] * self.node_count
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
        return _frozen(np.array(dist, dtype=np.int64))

    def multi_source_distances(self, sources: Iterable[int]) -> np.ndarray:
        """Hop distance from every node to its nearest source (-1 where unreachable).

        One level-synchronous BFS over the CSR arrays, started from all
        sources at once: O(N + M) however many sources there are.
        """
        n = self.node_count
        frontier = _distinct(np.fromiter(sources, dtype=np.int64))
        if frontier.size and not (0 <= frontier[0] and frontier[-1] < n):
            bad = frontier[(frontier < 0) | (frontier >= n)][0]
            raise NodeOutOfRangeError(f"node {bad} outside 0..{n - 1}")
        indptr, indices = self.csr
        dist = np.full(n, -1, dtype=np.int64)
        dist[frontier] = 0
        level = 0
        while frontier.size:
            level += 1
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            # flat CSR positions of every frontier node's neighbor range
            shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
            reached = indices[shift + np.arange(shift.size)]
            frontier = _distinct(reached[dist[reached] < 0])
            dist[frontier] = level
        return dist

    def ball(self, v: int, radius: int) -> frozenset[int]:
        """All nodes within BFS distance ``radius`` of v (v included)."""
        reached = {v}
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in self.adj[u]:
                    if w not in reached:
                        reached.add(w)
                        nxt.append(w)
            frontier = nxt
        return frozenset(reached)


def build_graph(node_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a simple connected undirected graph.

    Raises NodeOutOfRangeError, SelfLoopError, DuplicateEdgeError, or
    DisconnectedError; the checks run in that order.
    """
    if node_count < 1:
        raise NodeOutOfRangeError(f"node_count must be >= 1, got {node_count}")
    seen: set[tuple[int, int]] = set()
    nbrs: list[set[int]] = [set() for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise NodeOutOfRangeError(f"edge ({u}, {v}) outside 0..{node_count - 1}")
        if u == v:
            raise SelfLoopError(f"self loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        nbrs[u].add(v)
        nbrs[v].add(u)
    g = Graph(node_count, tuple(tuple(sorted(s)) for s in nbrs))
    if node_count > 1:
        reach = int((g.distances_from(0) >= 0).sum())
        if reach != node_count:
            raise DisconnectedError(
                f"graph is disconnected: {reach} of {node_count} nodes reachable from 0"
            )
    return g


@dataclass(frozen=True)
class InducedSubgraph:
    """Node-induced view of a parent graph; may be disconnected."""

    nodes: frozenset[int]
    adj: dict[int, tuple[int, ...]]

    def distances_from(self, source: int) -> dict[int, int]:
        """BFS distances within the view; unreachable member nodes are absent."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> InducedSubgraph:
    keep = frozenset(nodes)
    for v in keep:
        if not (0 <= v < g.node_count):
            raise NodeOutOfRangeError(f"node {v} outside 0..{g.node_count - 1}")
    adj = {v: tuple(w for w in g.adj[v] if w in keep) for v in keep}
    return InducedSubgraph(keep, adj)


def is_r_independent(g: Graph, nodes: Iterable[int], r: int) -> bool:
    """True iff all pairs in ``nodes`` are at distance > r in g."""
    members = sorted(set(nodes))
    for v in members:
        if not (0 <= v < g.node_count):
            raise NodeOutOfRangeError(f"node {v} outside 0..{g.node_count - 1}")
    member_set = set(members)
    for v in members:
        near = g.ball(v, r) & member_set
        if near != {v}:
            return False
    return True


def is_r_mis(g: Graph, candidate: Iterable[int], universe: Iterable[int], r: int) -> bool:
    """True iff ``candidate`` is a maximal r-independent subset of ``universe``.

    Distances are measured in the full graph g: two universe nodes conflict
    when their g-distance is at most r.  Maximal means no universe node can
    be added without breaking independence.
    """
    cand = set(candidate)
    univ = set(universe)
    if not cand <= univ:
        return False
    if not is_r_independent(g, cand, r):
        return False
    for u in univ - cand:
        if not (g.ball(u, r) & cand):
            return False  # u could still be added
    return True


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size by branch and bound.

    Exhaustive, so refuses graphs above INDEPENDENCE_LIMIT nodes.
    """
    n = g.node_count
    if n > INDEPENDENCE_LIMIT:
        raise TooLargeError(f"independence_number limited to {INDEPENDENCE_LIMIT} nodes, got {n}")
    open_mask = [0] * n
    for u in range(n):
        for w in g.adj[u]:
            open_mask[u] |= 1 << w
    best = 0

    def search(avail: int, size: int) -> None:
        nonlocal best
        if avail == 0:
            if size > best:
                best = size
            return
        if size + avail.bit_count() <= best:
            return
        # pivot on the densest available vertex; excluding it only helps if
        # it still has available neighbors
        pivot, pivot_deg = -1, -1
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            d = (open_mask[v] & avail).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
            m &= m - 1
        search(avail & ~(open_mask[pivot] | (1 << pivot)), size + 1)
        if pivot_deg > 0:
            search(avail & ~(1 << pivot), size)

    search((1 << n) - 1, 0)
    return best


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First data line is ``N M``; the next M lines are ``u v`` with 0-based
    endpoints.  ``#`` starts a comment (full-line or trailing).
    """
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append([str(lineno)] + body.split())
    if not rows:
        raise EdgeListParseError("empty edge list: missing 'N M' header")

    def as_int(tok: str, lineno: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: expected integer, got {tok!r}") from None

    header = rows[0]
    if len(header) != 3:
        raise EdgeListParseError(f"line {header[0]}: header must be 'N M'")
    n = as_int(header[1], header[0])
    m = as_int(header[2], header[0])
    if len(rows) - 1 != m:
        raise EdgeListParseError(f"header declares {m} edges but {len(rows) - 1} edge lines found")
    edges = []
    for row in rows[1:]:
        if len(row) != 3:
            raise EdgeListParseError(f"line {row[0]}: edge line must be 'u v'")
        edges.append((as_int(row[1], row[0]), as_int(row[2], row[0])))
    return build_graph(n, edges)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.node_count} {len(g.edges())}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


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
    edges: set[tuple[int, int]] = set()
    if n == 2:
        edges.add((0, 1))
    else:
        seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.add((min(leaf, x), max(leaf, x)))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.add((min(u, v), max(u, v)))
    if extra_edge_prob > 0.0:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and rng.random() < extra_edge_prob:
                    edges.add((u, v))
    return build_graph(n, sorted(edges))
