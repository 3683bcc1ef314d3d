from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import networkx as nx
except ImportError:  # an optional, test-only oracle
    nx = None

import reference
from reference import (
    TooLargeError,
    adjacency,
    independence_number,
    induced_subgraph,
    is_r_independent,
    is_r_mis,
    oracle_independent,
    oracle_mis,
    reach_within,
)

from coopmab import graph
from coopmab.graph import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    GraphError,
    NodeOutOfRangeError,
    SelfLoopError,
    build_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    random_connected_graph,
    read_edge_list,
    star_graph,
)


def test_build_smallest_graph():
    g = build_graph(2, [(0, 1)])
    assert g.node_count == 2
    assert reference.neighbors(g, 0) == (1,)
    assert reference.neighbors(g, 1) == (0,)


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edges() == ((0, 1), (0, 2), (1, 2))
    assert reference.closed_neighborhood(g, 1) == (0, 1, 2)
    assert g.closed_degrees[1] == 3


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


@pytest.mark.parametrize("edges,reach", [((), 1), (((0, 1), (5, 7)), 2),
                                         (((2**24, 2**24 + 1), (0, 2**24 + 1)), 3)])
def test_huge_node_count_with_few_edges_is_disconnected(edges, reach):
    # N - 1 edges or fewer cannot connect N nodes: the error comes before
    # any N-sized array (an array of 10^15 int64s cannot be allocated).  At
    # N = 2^40, an edge key lo * N + hi in int64 would wrap: (2^24, 2^24 + 1)
    # and (0, 2^24 + 1) would share one and read as a duplicate edge.
    for n in (10**15, 2**40):
        with pytest.raises(DisconnectedError, match=f"^graph is disconnected: {reach} of {n} "
                                                   "nodes reachable from 0$"):
            build_graph(n, edges)


@pytest.mark.parametrize("cut", [None, 0, 7_000, 19_998])
def test_shuffled_long_path_reach(cut):
    # A 20,000-node path in a random label order, whole or without its
    # cut-th edge: 20,000 BFS levels, but node 0's side is counted in a
    # number of hooking rounds that does not grow with the path.
    n = 20_000
    order = np.random.default_rng(3).permutation(n).tolist()
    edges = list(zip(order[:-1], order[1:]))
    if cut is None:
        g = build_graph(n, edges)
        assert g.edges() == tuple(sorted((min(e), max(e)) for e in edges))
        return
    side = order[:cut + 1] if 0 in order[:cut + 1] else order[cut + 1:]
    with pytest.raises(DisconnectedError, match=f"^graph is disconnected: {len(side)} of {n} "
                                               "nodes reachable from 0$"):
        build_graph(n, edges[:cut] + edges[cut + 1:])


def _hook_rounds(monkeypatch, n, u, v) -> tuple[int, int]:
    """graph._reach(n, u, v) and its number of hooking rounds, one np.maximum call each."""
    calls = []

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def maximum(self, *args):
            calls.append(None)
            return np.maximum(*args)

    with monkeypatch.context() as mp:
        mp.setattr(graph, "np", CountedNumpy())
        return graph._reach(n, u, v), len(calls)


@pytest.mark.parametrize("shape", ["star-ascending", "star-descending", "shuffled-path"])
def test_reach_rounds_are_logarithmic(monkeypatch, shape):
    # 10^5 nodes.  The stars' hub has the largest id.  With its edges in
    # ascending leaf order, a hook to whichever smaller root an edge names
    # last would take one leaf per round, 10^5 rounds; the other shapes
    # check the bound in other orders.  Without the last edge, the node it
    # alone joined is cut off.
    n = 100_000
    if shape == "shuffled-path":
        order = np.random.default_rng(5).permutation(n)
        u, v, alone = order[:-1], order[1:], order[-1]
    else:
        u, v = np.arange(n - 1), np.full(n - 1, n - 1)
        if shape == "star-descending":
            u = u[::-1].copy()
        alone = u[-1]
    reach, rounds = _hook_rounds(monkeypatch, n, u, v)
    assert reach == n
    assert rounds <= 2 * n.bit_length(), rounds
    reach, rounds = _hook_rounds(monkeypatch, n, u[:-1], v[:-1])
    assert reach == (1 if alone == 0 else n - 1)
    assert rounds <= 2 * n.bit_length(), rounds


def test_reach_equals_a_python_bfs_on_random_edge_sets():
    # connected or not, many components or few: _reach counts node 0's component
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        u, v = np.sort(rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2)), axis=1).T
        key = np.unique((u * n + v)[u < v])
        u, v = key // n, key % n
        nbrs = {x: set() for x in range(n)}
        for a, b in zip(u.tolist(), v.tolist()):
            nbrs[a].add(b)
            nbrs[b].add(a)
        seen, todo = {0}, [0]
        while todo:
            for y in nbrs[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        assert graph._reach(n, u, v) == len(seen), seed


def test_neighbors_equal_a_python_loop_over_csr():
    # any node list, repeats and the empty list too, in the given order
    cases = [(build_graph(1, ()), [0]), (build_graph(1, ()), [0, 0]), (build_graph(1, ()), [])]
    for seed in range(60):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(int(rng.integers(2, 30)), float(rng.uniform(0.0, 0.5)), rng)
        cases.append((g, rng.integers(0, g.node_count, int(rng.integers(0, 12))).tolist()))
    for g, nodes in cases:
        indptr, indices = g.csr
        want = [indices[indptr[v]:indptr[v + 1]].tolist() for v in nodes]
        got, degrees = graph._neighbors(indptr, indices, np.array(nodes, dtype=np.int64))
        assert got.tolist() == [x for row in want for x in row], nodes
        assert degrees.tolist() == [len(row) for row in want], nodes


def test_distances():
    p = path_graph(5)
    assert p.multi_source_distances([0])[4] == 4
    assert p.multi_source_distances([2])[2] == 0
    t = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert t.multi_source_distances([0])[2] == 1
    # symmetry on a few pairs
    g = random_connected_graph(15, 0.2, 3)
    for u, v in [(0, 14), (3, 7), (9, 2)]:
        assert g.multi_source_distances([u])[v] == g.multi_source_distances([v])[u]


def test_distances_from_matches_pointwise():
    g = random_connected_graph(20, 0.15, 5)
    row = g.multi_source_distances([4])
    for v in range(20):
        assert row[v] == g.multi_source_distances([v])[4]  # each pair read from the other end


def test_ball_matches_distances():
    g = random_connected_graph(18, 0.2, 9)
    for v in (0, 5, 17):
        for r in (1, 2, 3):
            ball = reference.ball(g, v, r)
            expect = frozenset(np.flatnonzero(g.multi_source_distances([v]) <= r).tolist())
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


def test_r_checkers_equal_reachability_oracle():
    # 30 random connected graphs (2..16 nodes, mixed density): 12 random
    # subsets each against the independence oracle; per r, a greedy-built
    # maximal set must be accepted, the same set minus one member rejected,
    # and a random subset judged as the oracle judges it
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 17))
        g = random_connected_graph(n, float(rng.random()) * 0.5, rng)
        reach = {r: reach_within(g, r) for r in (1, 2)}
        for _ in range(12):
            size = int(rng.integers(1, n + 1))
            sub = set(rng.choice(n, size=size, replace=False).tolist())
            for r in (1, 2):
                assert is_r_independent(g, sub, r) == oracle_independent(reach[r], sub), (r, sub)
        for r in (1, 2):
            # greedy over a shuffled order is maximal by construction
            order = list(rng.permutation(n))
            univ = set(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
            taken: set[int] = set()
            for v in order:
                if v in univ and not any(reach[r][v, u] for u in taken):
                    taken.add(v)
            assert is_r_mis(g, taken, univ, r), (r, taken, univ)
            # dropping one member re-opens room for it, so maximality must fail
            if taken:
                assert not is_r_mis(g, set(sorted(taken)[:-1]), univ, r), (r, taken)
            rand_sub = set(rng.choice(n, size=max(1, n // 3), replace=False).tolist())
            assert is_r_mis(g, rand_sub, univ, r) == oracle_mis(reach[r], rand_sub, univ), (
                r, rand_sub, univ)


def test_independence_number_examples():
    assert independence_number(reference.complete_graph(5)) == 1
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
    assert adjacency(parse_edge_list(format_edge_list(g))) == adjacency(g)

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


# tokens the reader and its oracle both reject, then some both accept
_BAD_TOKENS = ["x", "1.5", "-", "--1", "1-2", "0x1", "1e3", "", "\x00", "ä"]
_ODD_TOKENS = ["007", "-0", "-1", "99999999999999999999999", "-99999999999999999999999",
               "18446744073709551617", "-18446744073709551615"]  # 1 and 1 modulo 2**64


@st.composite
def _edge_texts(draw):
    """Edge-list texts with comments, blank lines, CRLF or CR line ends, tabs, wrong
    token counts and edges that are out of range, self loops, repeats or disconnected."""
    n = draw(st.integers(-1, 9))
    top = max(n, 1)
    node, wide = st.integers(0, top - 1), st.integers(-2, top + 1)
    # a random tree (connected) or a path over some of the nodes, then extra pairs
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, top)] if draw(st.booleans()) else [
        (i, i + 1) for i in range(draw(st.integers(0, top - 1)))]
    pairs += draw(st.lists(st.tuples(node, node), max_size=4))
    if draw(st.booleans()):
        pairs = list(dict.fromkeys((u, v) for u, v in pairs if u != v))  # often a simple graph
    pairs += draw(st.lists(st.tuples(wide, wide), max_size=1))
    pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(
        draw(st.permutations(pairs)), draw(st.lists(st.booleans(), min_size=len(pairs))))]
    rows = [[str(n), str(len(pairs) + draw(st.sampled_from([0] * 12 + [1, -1])))]]
    rows += [[str(u), str(v)] for u, v in pairs]
    for k, row in enumerate(rows):
        change = draw(st.sampled_from(["keep"] * 60 + ["append", "pop", "bad", "odd"]))
        if change == "append":
            row.append(draw(st.sampled_from(["0", "x"])))
        elif change == "pop":
            row.pop()
        elif change == "bad":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        elif change == "odd" and k:  # a huge N would have the oracle fill memory
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", " \t# 1 2", "#"]), max_size=2))
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(row)
                     + draw(st.sampled_from(["", " ", "  # note", "#x 1 2", "\t", "# ä"])))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _read_both(text):
    """(adj, error) from the array reader and from the oracle."""
    out = []
    for read in (lambda t: adjacency(parse_edge_list(t)), reference.parse_edge_list):
        try:
            out.append((read(text), None))
        except GraphError as exc:
            out.append((None, (type(exc), str(exc))))
    return out


@settings(max_examples=400, deadline=None)
@given(_edge_texts())
def test_reader_equals_oracle_on_generated_texts(text):
    ours, oracle = _read_both(text)
    assert ours == oracle


@pytest.mark.parametrize("text", [
    "2 1\x0b0 1\n",  # the line ends str.splitlines knows
    "2 1\x0c0 1\x1c", "2 1\x1d0 1\x1e", "2 1\x850 1", "2 1\u20280 1\u2029",
    "2\xa01\n0\u20031\n", "2\x1f1\n0\u30001\n",  # the blanks str.split knows
    "# \u00e9t\u00e9 \ud55c\n2 1\n0 1 # \u2603\n",  # non-ASCII comments
    "2 1\n0 1\u200b\n",  # a zero-width space is no blank
    "3 2\n0 1\n1 2\n2 0\n", "3 2\n0 1\n0 1 2\n", "3 2\n0 0\n5 5\n",
    "3 2\n0 1\n1 0\n", "4 2\n0 1\n2 3\n", "0 0\n", "-1 0\n", "1 0\n", "1 1\n0 0\n",
    "2 1\n0 18446744073709551617\n", "2 1\n00000000000000000000000 01\n",  # past int64
])
def test_reader_equals_oracle_on_edge_cases(text):
    ours, oracle = _read_both(text)
    assert ours == oracle


@pytest.mark.parametrize("token", ["+0", "1_0", "\u0661", "\uff11", "\u0967", "+1_0"])
def test_reader_takes_only_ascii_decimal_tokens(token):
    int(token)  # the oracle's int() reads every one of these
    for text, line in ((f"12 1\n0 {token}\n", 2), (f"{token} 0\n", 1)):
        with pytest.raises(EdgeListParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"line {line}: expected integer, got {token!r}"


def test_read_edge_list(tmp_path):
    g = star_graph(4)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert adjacency(read_edge_list(path)) == adjacency(g)


def test_generators():
    p = path_graph(4)
    assert p.edges() == ((0, 1), (1, 2), (2, 3))
    s = star_graph(3)
    assert s.node_count == 4 and reference.neighbors(s, 0) == (1, 2, 3)
    k = reference.complete_graph(4)
    assert all(reference.degree(k, v) == 3 for v in range(4))


def test_random_connected_graph_properties():
    for seed in (0, 1, 2):
        g = random_connected_graph(25, 0.1, seed)
        assert g.node_count == 25
        assert (g.multi_source_distances([0]) < 25).all()  # connected
    a = random_connected_graph(12, 0.4, 7)
    b = random_connected_graph(12, 0.4, 7)
    assert adjacency(a) == adjacency(b)


def test_random_connected_graph_equals_scalar_draws():
    # the extra edges come from one vector draw; the scalar loop it
    # replaced drew the same stream, so edges and generator state agree
    # (sizes and densities as the tests draw graphs: n <= 80, p <= 0.5)
    for n in (1, 2, 3, 5, 9, 12, 18, 25, 40, 80):
        for prob in (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5):
            for seed in (0, 7, 43):
                rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
                g = random_connected_graph(n, prob, rng)
                assert list(g.edges()) == reference.random_connected_graph_edges(n, prob, old)
                assert rng.bit_generator.state == old.bit_generator.state, (n, prob, seed)


def test_triangle_inequality_sampled():
    g = random_connected_graph(22, 0.15, 13)
    rng = np.random.default_rng(0)
    for _ in range(60):
        u, v, w = (int(x) for x in rng.integers(0, 22, size=3))
        du, dv = g.multi_source_distances([u]), g.multi_source_distances([v])
        assert du[w] <= du[v] + dv[w]


def test_readme_graph_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Graph files", 1)[1]
    block = section.split("```", 2)[1]  # the first fenced block of the section
    g = parse_edge_list(block)
    assert adjacency(g) == adjacency(star_graph(3))
    assert adjacency(parse_edge_list(format_edge_list(g))) == adjacency(g)


def test_array_forms_match_adjacency():
    for g in (random_connected_graph(30, 0.2, 4), star_graph(6), path_graph(7), build_graph(1, [])):
        n = g.node_count
        indptr, indices = g.csr
        want = reference.build_graph(n, g.edges())  # neighbor tuples from per-edge sets
        degree = [len(want[v]) for v in range(n)]
        assert indptr.tolist() == np.cumsum([0] + degree).tolist()
        assert g.closed_degrees.tolist() == [d + 1 for d in degree]
        for v in range(n):
            assert tuple(indices[indptr[v]:indptr[v + 1]]) == reference.neighbors(g, v) == want[v]
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
    assert np.array_equal(got, np.minimum.reduce([g.multi_source_distances([s]) for s in sources]))


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
