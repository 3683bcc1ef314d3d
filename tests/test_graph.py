from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import networkx as nx
except ImportError:  # an optional, test-only oracle
    nx = None

from coopmab.graph import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    NodeOutOfRangeError,
    SelfLoopError,
    TooLargeError,
    bfs_distance,
    build_graph,
    complete_graph,
    format_edge_list,
    independence_number,
    induced_subgraph,
    is_r_independent,
    is_r_mis,
    parse_edge_list,
    path_graph,
    random_connected_graph,
    read_edge_list,
    star_graph,
)


def test_build_smallest_graph():
    g = build_graph(2, [(0, 1)])
    assert g.node_count == 2
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0,)


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edges() == ((0, 1), (0, 2), (1, 2))
    assert g.closed_neighborhood(1) == (0, 1, 2)
    assert g.closed_degree(1) == 3


def test_build_rejections():
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(NodeOutOfRangeError):
        build_graph(2, [(0, 2)])
    with pytest.raises(NodeOutOfRangeError):
        build_graph(2, [(-1, 0)])


def test_distances():
    p = path_graph(5)
    assert bfs_distance(p, 0, 4) == 4
    assert bfs_distance(p, 2, 2) == 0
    t = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert bfs_distance(t, 0, 2) == 1
    # symmetry on a few pairs
    g = random_connected_graph(15, 0.2, 3)
    for u, v in [(0, 14), (3, 7), (9, 2)]:
        assert bfs_distance(g, u, v) == bfs_distance(g, v, u)


def test_distances_from_matches_pointwise():
    g = random_connected_graph(20, 0.15, 5)
    row = g.distances_from(4)
    assert not row.flags.writeable
    for v in range(20):
        assert row[v] == bfs_distance(g, 4, v)


def test_ball_matches_distances():
    g = random_connected_graph(18, 0.2, 9)
    for v in (0, 5, 17):
        for r in (1, 2, 3):
            ball = g.ball(v, r)
            expect = frozenset(np.flatnonzero(g.distances_from(v) <= r).tolist())
            assert ball == expect


def _view_connected(view) -> bool:
    """Connectivity of an induced view by a BFS from its smallest member."""
    order = [min(view.nodes)]
    seen = set(order)
    for u in order:  # the list grows while it is walked: a FIFO queue
        for w in view.adj[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return seen == set(view.nodes)


def test_induced_subgraph_views():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    view = induced_subgraph(tri, {0, 1})
    assert view.adj[0] == (1,) and view.adj[1] == (0,)

    p = path_graph(3)
    iso = induced_subgraph(p, {0, 2})
    assert iso.adj[0] == () and iso.adj[2] == ()
    assert not _view_connected(iso)

    full = induced_subgraph(p, range(3))
    assert _view_connected(full)
    assert {v: full.adj[v] for v in range(3)} == {0: (1,), 1: (0, 2), 2: (1,)}


def test_r_independent_examples():
    p = path_graph(5)
    assert is_r_independent(p, {0, 3}, 2)
    assert not is_r_independent(p, {0, 2}, 2)
    assert is_r_independent(p, {4}, 7)
    # r=1 equals the classic no-edge-inside notion
    g = random_connected_graph(12, 0.3, 1)
    edges = set(g.edges())
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s = {int(v) for v in rng.choice(12, size=4, replace=False)}
        classic = not any((u, v) in edges or (v, u) in edges for u in s for v in s if u < v)
        assert is_r_independent(g, s, 1) == classic


def test_r_mis_examples():
    p = path_graph(5)
    assert is_r_mis(p, {0, 3}, set(range(5)), 2)
    assert not is_r_mis(p, {0}, set(range(5)), 2)
    assert is_r_mis(p, {2}, {2}, 2)
    assert is_r_mis(p, set(), set(), 2)
    # not a subset of the universe
    assert not is_r_mis(p, {0, 3}, {0, 1}, 2)


def test_independence_number_examples():
    assert independence_number(complete_graph(5)) == 1
    assert independence_number(path_graph(5)) == 3
    assert independence_number(star_graph(6)) == 6
    with pytest.raises(TooLargeError):
        independence_number(path_graph(31))


def test_independence_number_vs_enumeration():
    # brute-force both ways on small instances
    for seed in range(6):
        g = random_connected_graph(9, 0.25, seed)
        edges = g.edges()
        best = 0
        for mask in range(1 << 9):
            nodes = [v for v in range(9) if mask >> v & 1]
            if all(not (u in nodes and v in nodes) for u, v in edges):
                best = max(best, len(nodes))
        assert independence_number(g) == best


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.sampled_from([0.0, 0.05, 0.15, 0.4, 0.8, 1.0]),
       st.integers(0, 2**31 - 1))
def test_independence_number_equals_networkx_complement_clique(n, density, seed):
    # an independent set of g is a clique of its complement
    g = random_connected_graph(n, density, seed)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    assert independence_number(g) == nx.max_weight_clique(nx.complement(h), weight=None)[1]


def test_parse_and_format_round_trip():
    g = random_connected_graph(10, 0.3, 21)
    assert parse_edge_list(format_edge_list(g)).adj == g.adj

    text = "# header comment\n3 2\n0 1  # trailing note\n1 2\n"
    g2 = parse_edge_list(text)
    assert g2.node_count == 3 and g2.edges() == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "3\n0 1\n",  # header missing edge count
        "3 2\n0 1\n",  # fewer edges than declared
        "3 1\n0 1\n1 2\n",  # more edges than declared
        "3 2\n0 1\nx 2\n",  # non-integer token
    ],
)
def test_parse_errors(text):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(text)


def test_parse_semantic_errors():
    # format is fine, the graph itself is not
    with pytest.raises(NodeOutOfRangeError):
        parse_edge_list("3 2\n0 1\n1 5\n")
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("2 2\n0 1\n0 1\n")


def test_read_edge_list(tmp_path):
    g = star_graph(4)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert read_edge_list(path).adj == g.adj


def test_generators():
    p = path_graph(4)
    assert p.edges() == ((0, 1), (1, 2), (2, 3))
    s = star_graph(3)
    assert s.node_count == 4 and s.neighbors(0) == (1, 2, 3)
    k = complete_graph(4)
    assert all(k.degree(v) == 3 for v in range(4))


def test_random_connected_graph_properties():
    for seed in (0, 1, 2):
        g = random_connected_graph(25, 0.1, seed)
        assert g.node_count == 25
        assert (g.distances_from(0) < 25).all()  # connected
    a = random_connected_graph(12, 0.4, 7)
    b = random_connected_graph(12, 0.4, 7)
    assert a.adj == b.adj


def test_triangle_inequality_sampled():
    g = random_connected_graph(22, 0.15, 13)
    rng = np.random.default_rng(0)
    for _ in range(60):
        u, v, w = (int(x) for x in rng.integers(0, 22, size=3))
        assert bfs_distance(g, u, w) <= bfs_distance(g, u, v) + bfs_distance(g, v, w)


def test_readme_graph_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Graph files", 1)[1]
    block = section.split("```", 2)[1]  # the first fenced block of the section
    g = parse_edge_list(block)
    assert g.adj == star_graph(3).adj
    assert parse_edge_list(format_edge_list(g)).adj == g.adj


def test_array_forms_match_adjacency():
    for g in (random_connected_graph(30, 0.2, 4), star_graph(6), path_graph(7), build_graph(1, [])):
        n = g.node_count
        indptr, indices = g.csr
        pad = g.padded_neighbors()
        assert indptr.tolist() == np.cumsum([0] + [g.degree(v) for v in range(n)]).tolist()
        assert g.closed_degrees.tolist() == [g.closed_degree(v) for v in range(n)]
        assert pad.shape == (n, max(g.degree(v) for v in range(n)))
        for v in range(n):
            assert tuple(indices[indptr[v]:indptr[v + 1]]) == g.adj[v]
            assert tuple(pad[v, : g.degree(v)]) == g.adj[v]
            assert (pad[v, g.degree(v):] == n).all()
        for a in (indptr, indices, g.closed_degrees):
            assert not a.flags.writeable
        assert g.csr is g.csr  # built once


def _kernel_graph(kind: str, n: int, seed: int):
    if kind == "tree":
        return random_connected_graph(n, 0.0, seed)
    if kind == "star":
        return star_graph(n - 1)
    if kind == "path":
        return path_graph(n)
    return random_connected_graph(n, 0.25, seed)


_kernel_cases = st.tuples(
    st.sampled_from(["tree", "star", "path", "random"]),
    st.integers(2, 60),
    st.integers(0, 2**31 - 1),
).flatmap(
    lambda case: st.tuples(
        st.just(case),
        st.lists(st.integers(0, case[1] - 1), min_size=1, max_size=8),
    )
)


@settings(max_examples=150, deadline=None)
@given(_kernel_cases)
def test_multi_source_bfs_equals_minimum_of_single_sources(case):
    (kind, n, seed), sources = case
    g = _kernel_graph(kind, n, seed)
    got = g.multi_source_distances(sources)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.minimum.reduce([g.distances_from(s) for s in sources]))


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@settings(max_examples=60, deadline=None)
@given(_kernel_cases)
def test_multi_source_bfs_equals_networkx(case):
    (kind, n, seed), sources = case
    g = _kernel_graph(kind, n, seed)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    want = nx.multi_source_dijkstra_path_length(h, set(sources))
    assert g.multi_source_distances(sources).tolist() == [want[v] for v in range(n)]


def test_multi_source_bfs_edges():
    g = path_graph(6)
    assert g.multi_source_distances([]).tolist() == [-1] * 6
    assert g.multi_source_distances([5, 0, 0]).tolist() == [0, 1, 2, 2, 1, 0]
    for bad in ([6], [0, -1]):
        with pytest.raises(NodeOutOfRangeError):
            g.multi_source_distances(bad)
