import dataclasses
import io
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import (
    OrderedMass,
    centers_to_components,
    complete_graph,
    is_r_independent,
    is_r_mis,
    partition_from_json,
    spread_history_violations,
    spread_map,
)

from coopmab import partition
from coopmab.cli import write_partition

from coopmab.graph import (
    build_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from coopmab.partition import (
    MASS_DECAY_DENOM,
    EmptyCenterSetError,
    LubyCall,
    Partition,
    compute_centers_informed,
    compute_centers_uninformed,
    degree_clamp,
    luby_2mis,
    mass_value,
    min_center_distance,
    mis_round_budget,
    partition_to_json,
    spread_rounds,
    validate_partition,
    _greedy_centers,
    _mass_keys,
    _SpreadRounds,
)


NIL_MASS = OrderedMass(0, 0)
# _DENSE_SHARE values under which every round with a changed node is dense, or none is
ALL_DENSE, ALL_SPARSE = 10**9, 0


def test_mass_basics():
    assert mass_value(0, 0) == 0.0 and NIL_MASS.score() == -math.inf
    assert mass_value(3, 2) == pytest.approx(3 * math.exp(-2 / 6))
    assert OrderedMass(3, 2).score() == pytest.approx(6 * math.log(3) - 2)
    with pytest.raises(ValueError):
        mass_value(-1, 0)
    with pytest.raises(ValueError):
        mass_value(0, 3)  # nil is canonically (0, 0)


def test_mass_ordering():
    assert NIL_MASS < OrderedMass(2, 100)
    assert OrderedMass(2, 0) < OrderedMass(3, 0)
    assert OrderedMass(3, 1) < OrderedMass(3, 0)
    # deeper copy of a bigger component can still beat a small center
    assert OrderedMass(2, 0) < OrderedMass(10, 9)
    assert not OrderedMass(5, 2) < OrderedMass(5, 2)
    assert OrderedMass(5, 2) <= OrderedMass(5, 2)
    # pair order must agree with the real-valued mass on random pairs
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = OrderedMass(int(rng.integers(1, 11)), int(rng.integers(0, 40)))
        b = OrderedMass(int(rng.integers(1, 11)), int(rng.integers(0, 40)))
        if a.value() != b.value():
            assert (a < b) == (a.value() < b.value())


def test_spread_rounds_values():
    assert spread_rounds(2) == 8
    assert spread_rounds(5) == 19
    assert spread_rounds(10) == 27


@pytest.mark.parametrize("arms", [2, 3, 10, 100, 1000, 10_000, 100_000])
def test_mass_keys_order_pairs_as_their_scores(arms):
    # every pair (m, d) with m up to the largest clamp (10^4 at most here)
    # and d up to the round budget, against the float score 6 ln(m) - d
    rounds, top = spread_rounds(arms) + 1, min(arms, 10_000)
    key, deeper, (m_of, d_of) = _mass_keys(top, rounds)
    assert key.shape == (top + 1, rounds + 1) and key.dtype == np.int32
    log = np.array([math.log(m) for m in range(1, top + 1)])
    score = (MASS_DECAY_DENOM * log[:, None] - np.arange(rounds + 1)).ravel()
    keys = key[1:].ravel()
    # distinct keys 1..pairs, nil 0, and scores strictly rising with the key
    assert not key[0].any() and np.sort(keys).tolist() == list(range(1, keys.size + 1))
    assert (np.diff(score[keys.argsort()]) > 0).all()
    m, d = np.mgrid[0:top + 1, 0:rounds + 1]
    assert (m_of[key] == m).all() and (d_of[key] == np.where(m > 0, d, 0)).all()
    # one hop deeper: (m, d) to (m, d + 1), nil to nil
    assert (deeper[key[:, :-1]] == key[:, 1:]).all() and deeper[0] == 0
    # stored keys: one center at the end of a path reaches depth t at round
    # t and no deeper, the deepest being the last round's
    spread = _SpreadRounds(path_graph(rounds + 3), arms)
    spread.add(np.array([0]))
    t, v = np.ogrid[:rounds + 1, :rounds + 3]
    assert (spread.pair[1].take(spread.states[:, 2, :-1]) == np.where(v <= t, v, 0)).all()


def test_closed_rows_match_adjacency():
    # row v is v, then its neighbors ascending, padded with N; row N only N.  Elections
    # take two nodes or more, so the smallest graph here is the edge, not the lone node.
    for g in (random_connected_graph(30, 0.2, 4), star_graph(6), path_graph(7), path_graph(2)):
        n = g.node_count
        closed = _SpreadRounds(g, 3).closed
        want = reference.build_graph(n, g.edges())  # neighbor tuples from per-edge sets
        assert closed.shape == (n + 1, 1 + max(len(row) for row in want))
        assert (closed[n] == n).all()  # the nil node's row
        for v in range(n):
            size = 1 + len(want[v])
            assert tuple(closed[v, :size]) == (v, *want[v])
            assert (closed[v, size:] == n).all()


def test_degree_clamp_and_center_distance():
    g = star_graph(5)
    assert degree_clamp(g, 3).tolist() == [3, 2, 2, 2, 2, 2]
    assert degree_clamp(g, 10).tolist() == [6, 2, 2, 2, 2, 2]
    p = path_graph(5)
    assert min_center_distance(p, [2]).tolist() == [2, 1, 0, 1, 2]
    assert min_center_distance(p, [0, 4]).tolist() == [0, 1, 2, 1, 0]


def test_spread_hand_trace_path():
    # single center mid-path: mass decays one depth step per hop
    g = path_graph(5)
    comp = centers_to_components(g, {2}, 5)
    assert comp.centers == (2,)
    pairs = list(zip(comp.mass_m.tolist(), comp.mass_d.tolist()))
    assert pairs == [(3, 2), (3, 1), (3, 0), (3, 1), (3, 2)]
    assert comp.origin_of.tolist() == [1, 2, 2, 2, 3]
    assert comp.center_of.tolist() == [2] * 5
    assert comp.fully_assigned()


def test_spread_all_centers():
    g = random_connected_graph(9, 0.3, 4)
    comp = centers_to_components(g, range(9), 5)
    for v in range(9):
        assert comp.center_of[v] == v and comp.origin_of[v] == v
        assert reference.mass(comp, v) == OrderedMass(min(g.closed_degrees[v], 5), 0)


def test_spread_star():
    g = star_graph(5)
    comp = centers_to_components(g, {0}, 10)
    assert reference.mass(comp, 0) == OrderedMass(6, 0)
    for leaf in range(1, 6):
        assert comp.origin_of[leaf] == 0
        assert reference.mass(comp, leaf) == OrderedMass(6, 1)


def test_spread_requires_centers_and_marks_unreached():
    g = path_graph(3)
    with pytest.raises(EmptyCenterSetError):
        centers_to_components(g, set(), 2)
    # arms=2 gives 9 update rounds; nodes further than that stay nil
    long = path_graph(12)
    comp = centers_to_components(long, {0}, 2)
    assert comp.rounds == spread_rounds(2) + 1
    assert comp.center_of[10] == -1 and comp.center_of[11] == -1
    assert reference.mass(comp, 11) == NIL_MASS
    assert not comp.fully_assigned()
    unreached = "nodes [10, 11] were never reached by any center"
    with pytest.raises(ValueError, match=re.escape(unreached)):
        comp.to_partition()
    spread = _SpreadRounds(long, 2)
    spread.add(np.array([0]))
    with pytest.raises(ValueError, match=re.escape(unreached)):
        spread.partition()


def test_spread_history_audit_clean_on_randoms():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 35))
        g = random_connected_graph(n, float(rng.uniform(0, 0.4)), rng)
        arms = int(rng.choice([2, 5, 10]))
        centers = compute_centers_informed(g, arms).centers
        comp = centers_to_components(g, centers.tolist(), arms)
        assert spread_history_violations(g, comp) == []
        assert 0 <= comp.settled_round <= comp.rounds


def test_spread_tie_break_lowest_id(monkeypatch):
    # node 2 sits between equal-mass centers 0 and 4: origin must be node 1,
    # whether its round reads the closed rows or CSR
    g = path_graph(5)
    for share in (ALL_DENSE, ALL_SPARSE):
        monkeypatch.setattr(partition, "_DENSE_SHARE", share)
        comp = centers_to_components(g, {0, 4}, 2)
        assert comp.origin_of.tolist() == [0, 0, 1, 4, 4]
        assert comp.center_of[2] == 0


def test_informed_star():
    g = star_graph(10)  # hub 0 plus 10 leaves, N = K + 1 for K = 10
    part = compute_centers_informed(g, 10)
    assert part.centers.tolist() == [0]
    assert reference.role(part, 0) == "center"
    assert all(reference.role(part, v) == "adjacent" for v in range(1, 11))


def test_informed_clique_and_edge():
    assert compute_centers_informed(complete_graph(6), 10).centers.tolist() == [0]
    assert compute_centers_informed(build_graph(2, [(0, 1)]), 2).centers.tolist() == [0]


def test_informed_path_adds_far_end():
    assert _greedy_centers(path_graph(5), 5)[0] == [1, 4]
    assert compute_centers_informed(path_graph(5), 5).centers.tolist() == [1, 4]


def test_informed_terminates_within_node_count():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, float(rng.uniform(0, 0.5)), rng)
        found = compute_centers_informed(g, 5)
        assert len(found.centers) <= n
        assert is_r_independent(g, set(found.centers.tolist()), 2)


def _propagation_oracle(g, centers, arms):
    """centers_to_components in its first form: four state arrays per round,
    the padded adjacency and the mass scores rebuilt on every call and round."""
    n = g.node_count
    center_list = sorted(set(centers))
    rounds = spread_rounds(arms) + 1
    clamp = np.minimum(np.array([g.closed_degrees[v] for v in range(n)]), arms)
    center_mask = np.zeros(n, dtype=bool)
    center_mask[center_list] = True
    ids = np.arange(n)
    mass_m = np.where(center_mask, clamp, 0).astype(np.int64)
    mass_d = np.zeros(n, dtype=np.int64)
    cof = np.where(center_mask, ids, -1).astype(np.int64)
    uof = np.where(center_mask, ids, -1).astype(np.int64)
    pad = np.full((n, max(reference.degree(g, v) for v in range(n))), n, dtype=np.int64)
    for v in range(n):
        pad[v, : reference.degree(g, v)] = reference.neighbors(g, v)
    history = [np.stack([cof, uof, mass_m, mass_d])]
    score_ext = np.empty(n + 1)
    settled = rounds
    for t in range(1, rounds + 1):
        score_ext[:n] = np.where(
            mass_m > 0, MASS_DECAY_DENOM * np.log(np.maximum(mass_m, 1)) - mass_d, -np.inf
        )
        score_ext[n] = -np.inf
        chosen = pad[ids, score_ext[pad].argmax(axis=1)]
        upd = ~((uof >= 0) & center_mask[np.maximum(uof, 0)])
        cof_ext, m_ext, d_ext = np.append(cof, -1), np.append(mass_m, 0), np.append(mass_d, 0)
        new = (
            np.where(upd, cof_ext[chosen], cof),
            np.where(upd, chosen, uof),
            np.where(upd, m_ext[chosen], mass_m),
        )
        new += (np.where(upd & (new[2] > 0), d_ext[chosen] + 1, np.where(upd, 0, mass_d)),)
        changed = any(not np.array_equal(a, b) for a, b in zip(new, (cof, uof, mass_m, mass_d)))
        cof, uof, mass_m, mass_d = new
        history.append(np.stack([cof, uof, mass_m, mass_d]))
        if not changed:
            settled = t - 1
            break
    reached = mass_m > 0
    return reference.SpreadMap(arms, rounds, settled, tuple(center_list),
                               np.where(reached, cof, -1), np.where(reached, uof, -1), mass_m,
                               np.where(reached, mass_d, 0), history)


def _assert_same_record(got, want):
    for name in ("arms", "rounds", "settled_round", "centers"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("center_of", "origin_of", "mass_m", "mass_d"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert len(got.history) == len(want.history)
    for x, y in zip(got.history, want.history):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_same_map(part, spread, want):
    """An election's partition and its propagation rounds equal the oracle's record."""
    reference.assert_same_partition(part, want.to_partition())
    _assert_same_record(spread_map(spread), want)


@pytest.mark.parametrize("arms", [2, 3, 10, 50])
def test_propagation_equals_oracle(arms):
    rng = np.random.default_rng(500 + arms)
    cases = [(star_graph(9), {0}), (star_graph(9), {3, 7}), (path_graph(30), {0}),
             (complete_graph(5), set(range(5)))]
    for _ in range(40):
        n = int(rng.integers(2, 70))
        g = random_connected_graph(n, float(rng.choice([0.0, 0.05, 0.3])), rng)
        size = int(rng.integers(1, min(n, 8) + 1))
        cases.append((g, {int(c) for c in rng.choice(n, size=size, replace=False)}))
    for g, centers in cases:
        _assert_same_record(centers_to_components(g, centers, arms),
                            _propagation_oracle(g, centers, arms))


def _informed_greedy_oracle(g, arms):
    """The informed greedy search in its first, quadratic form.

    Pending nodes are a Python set, the next center is the set's maximum
    by (closed degree, -id), and the two-hop test runs one multi-source BFS
    from all centers on every pass.  compute_centers_informed keeps a
    running mask instead and must elect the same centers in the same order.
    """
    n = g.node_count
    clamp = np.minimum(np.array([g.closed_degrees[v] for v in range(n)]), arms)
    clamp_score = MASS_DECAY_DENOM * np.log(clamp)
    pending = set(range(n))
    centers = []
    comp = None
    while pending:
        centers.append(max(pending, key=lambda v: (g.closed_degrees[v], -v)))
        comp = _propagation_oracle(g, centers, arms)
        score = np.where(
            comp.mass_m > 0,
            MASS_DECAY_DENOM * np.log(np.maximum(comp.mass_m, 1)) - comp.mass_d,
            -np.inf,
        )
        near = g.multi_source_distances(centers) <= 2
        pending = {v for v in range(n) if score[v] < clamp_score[v] and not near[v]}
    return tuple(centers), comp


def _informed(g, arms):
    """The informed election's partition, then the greedy's addition order and rounds."""
    return compute_centers_informed(g, arms), *_greedy_centers(g, arms)


@pytest.mark.parametrize("arms", [2, 3, 10, 50])
def test_informed_election_equals_quadratic_oracle(arms):
    rng = np.random.default_rng(1000 + arms)
    graphs = [star_graph(12), path_graph(40), complete_graph(9), random_connected_graph(300, 0.0, arms)]
    for _ in range(30):
        n = int(rng.integers(2, 90))
        graphs.append(random_connected_graph(n, float(rng.choice([0.0, 0.03, 0.15, 0.5])), rng))
    for g in graphs:
        part, order, _ = _informed(g, arms)
        centers, comp = _informed_greedy_oracle(g, arms)
        assert tuple(order) == centers
        got = json.dumps(partition_to_json(part))
        assert got == json.dumps(partition_to_json(comp.to_partition()))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 60),
    density=st.sampled_from([0.0, 0.0, 0.04, 0.12, 0.5]),  # trees, sparse cycles, dense
    seed=st.integers(0, 2**32 - 1),
    arms=st.sampled_from([2, 3, 10, 50]),
)
def test_informed_election_equals_oracle_on_random_graphs(n, density, seed, arms):
    g = random_connected_graph(n, density, seed)
    part, order, spread = _informed(g, arms)
    centers, comp = _informed_greedy_oracle(g, arms)
    assert tuple(order) == centers
    _assert_same_map(part, spread, comp)


def _blocking_graph():
    """Hub 0 (clamp 10) with leaves 1..8, a path 0-9-10-11-12, and node 13
    (clamp 5, leaves 14..16) beyond 12; node 17 hangs off 12."""
    edges = [(0, v) for v in range(1, 9)] + [(0, 9), (9, 10), (10, 11), (11, 12), (12, 13),
                                             (13, 14), (13, 15), (13, 16), (12, 17)]
    return build_graph(18, edges)


def test_informed_added_center_can_lower_mass():
    # 0's mass reaches 13 only at depth 5, below 13's own clamp, so 13 is
    # elected second.  Its neighbor 12 then freezes on 13 at round 1,
    # before 0's larger mass (10, 4) arrives, and 17 inherits the drop.
    g = _blocking_graph()
    part, order, found = _informed(g, 10)
    assert order == [0, 13]
    centers, comp = _informed_greedy_oracle(g, 10)
    assert tuple(order) == centers
    _assert_same_map(part, found, comp)

    spread = _SpreadRounds(g, 10)
    spread.add(np.array([0]))
    before = reference.decoded_rounds(spread)[-1, 2:, :18]
    moved = spread.add(np.array([13]))
    after = reference.decoded_rounds(spread)[-1, 2:, :18]
    assert {12, 17} <= set(moved.tolist())
    assert (before[:, 12].tolist(), after[:, 12].tolist()) == ([10, 4], [5, 1])
    assert (before[:, 17].tolist(), after[:, 17].tolist()) == ([10, 5], [5, 2])
    for v in (12, 17):
        assert OrderedMass(*after[:, v].tolist()) < OrderedMass(*before[:, v].tolist())
        assert reference.mass(part, v) == OrderedMass(*after[:, v].tolist())


def _informed_greedy_repropagating(g, arms):
    """The informed greedy with one whole-graph propagation (the oracle's) per
    pass, a running two-hop mask, and pending nodes re-scored from scratch."""
    n = g.node_count
    cdeg = g.closed_degrees
    clamp_score = MASS_DECAY_DENOM * np.log(degree_clamp(g, arms))
    near = np.zeros(n, dtype=bool)
    pending = np.arange(n)
    centers, comp = [], None
    while pending.size:
        nxt = int(pending[cdeg[pending].argmax()])
        centers.append(nxt)
        comp = _propagation_oracle(g, centers, arms)
        score = np.where(comp.mass_m > 0,
                         MASS_DECAY_DENOM * np.log(np.maximum(comp.mass_m, 1)) - comp.mass_d, -np.inf)
        near[list(reference.ball(g, nxt, 2))] = True
        pending = np.flatnonzero((score < clamp_score) & ~near)
    return tuple(centers), comp


def test_informed_election_large_tree_byte_identical():
    g = random_connected_graph(1500, 0.0, 1500)
    part, order, spread = _informed(g, 10)
    centers, comp = _informed_greedy_repropagating(g, 10)
    assert tuple(order) == centers
    _assert_same_map(part, spread, comp)
    got = json.dumps(partition_to_json(part))
    assert got == json.dumps(partition_to_json(comp.to_partition()))


def _assert_rounds_match(spread, g, centers, arms):
    n = g.node_count
    hist = _propagation_oracle(g, centers, arms).history
    states = reference.decoded_rounds(spread)
    for t in range(spread.rounds + 1):
        want = hist[min(t, len(hist) - 1)]  # the last round repeats past settling
        assert (states[t, :, :n] == want).all(), (centers, t)
        assert states[t, :, n].tolist() == [-1, n, 0, 0]


def _add_orders(arms):
    """Graphs, each with five orders of adding centers: lists of ``add`` batches."""
    rng = np.random.default_rng(2000 + arms)
    graphs = [star_graph(9), path_graph(30), complete_graph(6), _blocking_graph()]
    for _ in range(12):
        n = int(rng.integers(2, 60))
        graphs.append(random_connected_graph(n, float(rng.choice([0.0, 0.05, 0.3])), rng))
    # large enough that both sparse and dense rounds run under the real share
    graphs += [star_graph(40), random_connected_graph(200, 0.0, rng)]
    for g in graphs:
        n = g.node_count
        greedy = _greedy_centers(g, arms)[0]
        perm = [int(v) for v in rng.permutation(n)[:int(rng.integers(1, min(n, 8) + 1))]]
        cuts = rng.choice(np.arange(1, len(perm)), size=min(2, len(perm) - 1), replace=False)
        hub = int(rng.integers(n))
        yield g, [
            [[c] for c in greedy],  # the greedy's own order, one center per call
            [[c] for c in perm],  # any order, adjacent centers included
            [greedy],  # the whole set in one call
            [[int(x) for x in part] for part in np.split(perm, np.sort(cuts))],  # sets after sets
            [greedy[:1], [hub, *reference.neighbors(g, hub)]],  # adjacent centers in one call, after a center
        ]


def _added(g, arms, batches):
    """Run ``batches`` through one ``_SpreadRounds``: yield it, the centers so far,
    the last round before the batch and the batch's ``add`` result after each."""
    spread = _SpreadRounds(g, arms)
    done = []
    for batch in batches:
        new = sorted(set(batch) - set(done))
        before = spread.states[-1].copy()
        moved = spread.add(np.array(new))
        done += new
        yield spread, done, before, moved


@pytest.mark.parametrize("arms", [2, 3, 10, 50])
def test_spread_rounds_equal_history_after_every_center(arms):
    for g, orders in _add_orders(arms):
        for batches in orders:
            for spread, done, before, moved in _added(g, arms, batches):
                _assert_rounds_match(spread, g, done, arms)
                changed = np.flatnonzero((spread.states[-1] != before).any(axis=0))
                assert moved.tolist() == changed.tolist()


@pytest.mark.parametrize("arms", [2, 3, 10, 50])
def test_dense_and_sparse_rounds_keep_equal_states(monkeypatch, arms):
    for g, orders in _add_orders(arms):
        for batches in orders:
            runs = []
            for share in (ALL_DENSE, ALL_SPARSE):
                monkeypatch.setattr(partition, "_DENSE_SHARE", share)
                runs.append([(spread.states.tobytes(), spread.is_center.tobytes(), moved.tolist())
                             for spread, _, _, moved in _added(g, arms, batches)])
            assert runs[0] == runs[1], (g.node_count, batches)


def _shaped_graph(kind, n, seed):
    """A connected n-node graph: a tree, a sparse or dense random graph, a
    caterpillar (a path with leaves hung at random) or hubs (a tree of
    about n / 15 hubs, the other nodes their leaves, plus n / 10 chords)."""
    rng = np.random.default_rng(seed)
    if kind in ("tree", "sparse", "dense"):
        return random_connected_graph(n, {"tree": 0.0, "sparse": 0.05, "dense": 0.4}[kind], rng)
    core = max(1, n // (4 if kind == "caterpillar" else 15))
    if kind == "caterpillar":
        edges = {(v - 1, v) for v in range(1, core)}
    else:
        edges = set(random_connected_graph(core, 0.0, rng).edges())
    edges |= {(int(rng.integers(core)), v) for v in range(core, n)}
    for _ in range(n // 10 if kind == "hubs" else 0):
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((u, v))
    return build_graph(n, sorted(edges))


GREEDY_CASES = {
    "kind": st.sampled_from(["tree", "sparse", "dense", "caterpillar", "hubs"]),
    "n": st.integers(2, 90),
    "seed": st.integers(0, 2**32 - 1),
    "arms": st.sampled_from([2, 3, 4, 5, 10, 50]),
}


def _assert_same_greedy(g, arms):
    """The greedy's order and every kept round equal one center per ``add``'s."""
    order, spread = _greedy_centers(g, arms)
    want, oracle = reference.sequential_greedy(g, arms)
    assert order == want
    assert spread.states.tobytes() == oracle.states.tobytes()
    assert spread.is_center.tobytes() == oracle.is_center.tobytes()


@settings(max_examples=150, deadline=None)
@given(**GREEDY_CASES)
def test_informed_greedy_equals_one_center_per_add(kind, n, seed, arms):
    _assert_same_greedy(_shaped_graph(kind, n, seed), arms)


@pytest.mark.parametrize("n", [1500, 3000, 10_000])
def test_informed_greedy_equals_one_center_per_add_on_large_trees(n):
    _assert_same_greedy(random_connected_graph(n, 0.0, n), 10)


@pytest.mark.parametrize("arms", [2, 3, 4, 5, 10, 50])
def test_informed_greedy_equals_one_center_per_add_on_blocking_graph(arms):
    _assert_same_greedy(_blocking_graph(), arms)


def test_informed_greedy_fails_loudly_if_a_node_stays_unsatisfied(monkeypatch):
    # adds that spread nothing leave every node unsatisfied after the last clamp
    monkeypatch.setattr(_SpreadRounds, "add", lambda self, new: new)
    with pytest.raises(AssertionError, match="left a node unsatisfied"):
        _greedy_centers(path_graph(9), 3)


@settings(max_examples=150, deadline=None)
@given(**GREEDY_CASES)
def test_one_center_per_add_never_raises_the_clamp(kind, n, seed, arms):
    # why the greedy can add each clamp's picks in one call
    g = _shaped_graph(kind, n, seed)
    order = reference.sequential_greedy(g, arms)[0]
    assert (np.diff(degree_clamp(g, arms)[order]) <= 0).all()


def test_luby_singleton_and_empty():
    g = path_graph(4)
    solo = luby_2mis(g, {2}, 5, np.random.default_rng(0))
    assert solo.joined == frozenset({2})
    assert solo.rounds_used == 1
    empty = luby_2mis(g, set(), 5, np.random.default_rng(0))
    assert empty.joined == frozenset()
    assert empty.rounds_used == 0 and not empty.exhausted


def test_luby_clique_single_winner():
    g = complete_graph(8)
    for seed in range(30):
        tr = luby_2mis(g, range(8), 10, np.random.default_rng(seed))
        assert len(tr.joined) == 1
        assert tr.rounds_used == 1


def test_luby_independence_and_maximality():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        g = random_connected_graph(n, float(rng.uniform(0, 0.4)), rng)
        m = int(rng.integers(1, n + 1))
        universe = {int(x) for x in rng.choice(n, size=m, replace=False)}
        tr = luby_2mis(g, universe, 40, np.random.default_rng(int(rng.integers(2**31))))
        assert is_r_independent(g, tr.joined, 2)
        if not tr.exhausted:
            assert is_r_mis(g, tr.joined, universe, 2)
        assert 1 <= tr.rounds_used <= 40


def test_luby_deterministic_and_budgeted():
    g = random_connected_graph(20, 0.2, 3)
    a = luby_2mis(g, range(20), 30, np.random.default_rng(7))
    b = luby_2mis(g, range(20), 30, np.random.default_rng(7))
    assert a.joined == b.joined and a.rounds_used == b.rounds_used
    tight = luby_2mis(path_graph(30), range(30), 1, np.random.default_rng(1))
    assert tight.rounds_used == 1
    # one round on a long path almost surely leaves participants stranded
    assert tight.exhausted


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["path", "star", "clique", "random"]), n=st.integers(1, 80),
       density=st.sampled_from([0.0, 0.05, 0.2]), graph_seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 1.0), budget=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_luby_equals_per_ball_oracle(kind, n, density, graph_seed, share, budget, seed):
    g = {"path": lambda: path_graph(n), "star": lambda: star_graph(n - 1),
         "clique": lambda: complete_graph(n),
         "random": lambda: random_connected_graph(n, density, graph_seed)}[kind]()
    pick = np.random.default_rng(graph_seed)
    universe = np.flatnonzero(pick.random(n) < share).tolist()
    pick.shuffle(universe)  # any order: both sort it
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = luby_2mis(g, universe, budget, got_rng)
    assert got == reference.luby_2mis(g, universe, budget, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("size", [1, 3, 40, 400])
@pytest.mark.parametrize("budget", [1, mis_round_budget(5000, 10, 100_000)])
def test_luby_few_participants_on_a_large_tree_equal_per_ball_oracle(size, budget):
    # few participants on a large graph: each round runs on their two-hop region only
    g = random_connected_graph(5000, 0.0, 25)
    indptr, indices = g.csr
    pick = np.random.default_rng(size)
    universe = [int(pick.choice(np.flatnonzero(np.diff(indptr) == 1)))]  # a leaf
    if size > 1:  # with its one neighbor: an adjacent pair
        universe.append(int(indices[indptr[universe[0]]]))
        others = np.setdiff1d(np.arange(g.node_count), universe)
        universe += pick.choice(others, size - 2, replace=False).tolist()
    pick.shuffle(universe)
    got_rng, want_rng = np.random.default_rng(size + budget), np.random.default_rng(size + budget)
    got = luby_2mis(g, universe, budget, got_rng)
    assert got == reference.luby_2mis(g, universe, budget, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got.joined and (got.exhausted or is_r_mis(g, got.joined, universe, 2))


class _TiedDraws:
    """A generator stand-in whose every draw is 0.5: each pair of participants ties."""

    def random(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)


def test_luby_ties_go_to_the_lowest_id():
    for g in (path_graph(12), star_graph(6), complete_graph(5), random_connected_graph(40, 0.1, 8)):
        tr = luby_2mis(g, range(g.node_count), 12, _TiedDraws())
        assert tr == reference.luby_2mis(g, range(g.node_count), 12, _TiedDraws())
        assert min(tr.joined) == 0
    assert luby_2mis(path_graph(12), range(12), 12, _TiedDraws()).joined == {0, 3, 6, 9}


def test_mis_round_budget_value():
    assert mis_round_budget(80, 10, 100_000) == 34
    assert mis_round_budget(12, 3, 100_000) == 27


def test_uninformed_edge_graph():
    g = build_graph(2, [(0, 1)])
    el = compute_centers_uninformed(g, 2, 2, 1000, np.random.default_rng(0))
    assert len(el.partition.centers) == 1
    assert validate_partition(g, el.partition).ok


def test_uninformed_star_hub_first_iteration():
    # hub has clamp K, so it is the only iteration-0 candidate; leaves are
    # then center-adjacent and never join
    g = star_graph(6)
    el = compute_centers_uninformed(g, 5, 7, 1000, np.random.default_rng(4))
    assert el.partition.centers.tolist() == [0]
    assert el.luby_calls[0].universe == frozenset({0})
    assert all(not c.result.joined for c in el.luby_calls[1:])


def test_uninformed_step_accounting():
    for n, arms, horizon in [(6, 3, 100_000), (10, 5, 1000), (2, 2, 10)]:
        g = path_graph(n)
        n_upper = 2 * n
        el = compute_centers_uninformed(g, arms, n_upper, horizon, np.random.default_rng(1))
        budget = math.ceil(3 * math.log(n_upper * math.sqrt(arms * horizon)))
        assert el.luby_round_budget == budget
        pass_rounds = spread_rounds(arms) + 1
        assert el.protocol_steps == arms * (4 * budget + pass_rounds)
        assert el.final_pass_steps == pass_rounds
        assert el.total_steps == el.protocol_steps + pass_rounds
        assert el.total_steps < 12 * arms * math.log(arms * arms * n_upper * horizon)


def test_uninformed_full_budget_charged_after_early_finish():
    # a clique is fully satisfied after iteration 0, yet all K iterations bill
    g = complete_graph(5)
    el = compute_centers_uninformed(g, 4, 10, 500, np.random.default_rng(2))
    assert len(el.luby_calls) == 4
    budget = mis_round_budget(10, 4, 500)
    assert el.protocol_steps == 4 * (4 * budget + spread_rounds(4) + 1)


def _uninformed_repropagating(g, arms, n_upper, horizon, rng):
    """The uninformed election with one from-scratch propagation (the oracle's)
    after every iteration and one more for the final map; satisfied is
    re-scored from each map's final masses and round-2 center pointers."""
    n = g.node_count
    budget = mis_round_budget(n_upper, arms, horizon)
    clamp = degree_clamp(g, arms)
    clamp_score = MASS_DECAY_DENOM * np.log(clamp)
    satisfied = np.zeros(n, dtype=bool)
    center_mask = np.zeros(n, dtype=bool)
    calls = []
    for t in range(arms):
        bucket = np.flatnonzero(~satisfied & (clamp == arms - t))
        outcome = reference.luby_2mis(g, bucket.tolist(), budget, rng)
        calls.append(LubyCall(frozenset(int(v) for v in bucket), outcome))
        center_mask[sorted(outcome.joined)] = True
        if center_mask.any():
            comp = _propagation_oracle(g, np.flatnonzero(center_mask).tolist(), arms)
            score = np.where(comp.mass_m > 0,
                             MASS_DECAY_DENOM * np.log(np.maximum(comp.mass_m, 1)) - comp.mass_d,
                             -np.inf)
            near = comp.history[min(2, len(comp.history) - 1)][0] >= 0
            satisfied = (score >= clamp_score) | near
    centers = np.flatnonzero(center_mask).tolist()
    return tuple(centers), calls, budget, _propagation_oracle(g, centers, arms)


def _assert_uninformed_equals_repropagating(g, arms, seed):
    n_upper, horizon = g.node_count + 3, 100_000
    el = compute_centers_uninformed(g, arms, n_upper, horizon, np.random.default_rng(seed))
    centers, calls, budget, comp = _uninformed_repropagating(
        g, arms, n_upper, horizon, np.random.default_rng(seed))
    assert tuple(el.partition.centers.tolist()) == centers and el.luby_calls == calls
    pass_rounds = spread_rounds(arms) + 1
    protocol = arms * (4 * budget + pass_rounds)
    assert (el.luby_round_budget, el.protocol_steps, el.final_pass_steps, el.total_steps) == (
        budget, protocol, pass_rounds, protocol + pass_rounds)
    # the rounds of the election's joiners, added call by call as the election adds them
    spread = _SpreadRounds(g, arms)
    for call in el.luby_calls:
        if call.result.joined:
            spread.add(np.array(sorted(call.result.joined)))
    _assert_same_map(el.partition, spread, comp)


@pytest.mark.parametrize("arms", [2, 3, 5, 10, 50])
def test_uninformed_election_equals_repropagating_oracle(arms):
    rng = np.random.default_rng(3000 + arms)
    for i in range(40):
        n = int(rng.integers(2, 80))
        g = random_connected_graph(n, float(rng.choice([0.0, 0.0, 0.04, 0.15, 0.5])), rng)
        _assert_uninformed_equals_repropagating(g, arms, i)


def test_uninformed_election_large_graphs_equal_repropagating_oracle():
    _assert_uninformed_equals_repropagating(random_connected_graph(10_000, 0.0, 10_000), 10, 0)
    # a uniform random tree plus as many distinct random chords as nodes
    rng = np.random.default_rng(3)
    edges = set(random_connected_graph(3000, 0.0, rng).edges())
    while len(edges) < 2 * 3000 - 1:
        u, v = sorted(int(x) for x in rng.integers(0, 3000, size=2))
        if u != v:
            edges.add((u, v))
    _assert_uninformed_equals_repropagating(build_graph(3000, sorted(edges)), 10, 1)


def test_uninformed_properties_on_randoms():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 35))
        g = random_connected_graph(n, float(rng.uniform(0, 0.4)), rng)
        arms = int(rng.choice([2, 5]))
        el = compute_centers_uninformed(
            g, arms, 2 * n, 100_000, np.random.default_rng(int(rng.integers(2**31)))
        )
        assert is_r_independent(g, set(el.partition.centers.tolist()), 2)
        report = validate_partition(g, el.partition)
        assert report.ok, report.lines()


def test_validator_passes_informed_outputs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, float(rng.uniform(0, 0.5)), rng)
        report = validate_partition(g, compute_centers_informed(g, 5))
        assert report.ok
        assert {c.name for c in report.checks} == {
            "assignment-cover",
            "component-closure-connectivity",
            "mass-recurrence",
            "origin-minimality",
            "two-independence",
            "mass-floor",
            "center-eccentricity",
        }


def _failing_names(g, part):
    report = validate_partition(g, part)
    return {c.name for c in report.checks if not c.passed}


def test_validator_catches_adjacent_centers():
    g = path_graph(5)
    comp = centers_to_components(g, {1, 2}, 5)
    bad = comp.to_partition()
    names = _failing_names(g, bad)
    assert "two-independence" in names
    report = validate_partition(g, bad)
    witness = next(c.witness for c in report.checks if c.name == "two-independence")
    assert "1" in witness and "2" in witness


def test_validator_catches_corrupt_mass_pair():
    g = path_graph(5)
    part = compute_centers_informed(g, 5)
    mass_d = list(part.mass_d)
    victim = next(v for v in range(5) if part.delay[v] == 1)
    mass_d[victim] += 1
    bad = type(part)(
        arms=part.arms,
        centers=part.centers,
        center_of=part.center_of,
        origin_of=part.origin_of,
        delay=part.delay,
        mass_m=part.mass_m,
        mass_d=tuple(mass_d),
    )
    assert "mass-recurrence" in _failing_names(g, bad)


def test_validator_catches_bad_origin():
    g = path_graph(5)
    comp = centers_to_components(g, {2}, 5)
    part = comp.to_partition()
    origin = list(part.origin_of)
    origin[0], origin[4] = 4, 0  # not even neighbors
    bad = type(part)(
        arms=part.arms,
        centers=part.centers,
        center_of=part.center_of,
        origin_of=origin and tuple(origin),
        delay=part.delay,
        mass_m=part.mass_m,
        mass_d=part.mass_d,
    )
    assert "origin-minimality" in _failing_names(g, bad)


def test_validator_reports_relay_assigned_to_its_origin():
    # a relay pointed at its non-center origin: (c) used to read that origin's
    # component and raise KeyError; now the checks that need components skip
    g = random_connected_graph(60, 0.0, 0)
    part = compute_centers_informed(g, 10)
    relay = next(v for v in range(60) if part.center_of[v] != v
                 and part.origin_of[v] not in part.centers)
    center_of = list(part.center_of)
    center_of[relay] = part.origin_of[relay]
    bad = dataclasses.replace(part, center_of=tuple(center_of))
    lines = validate_partition(g, bad).lines()
    assert lines == reference.validate_partition(g, bad).lines()
    assert lines[0] == ("FAIL  assignment-cover  "
                        f"(node {relay} assigned to non-center {part.origin_of[relay]})")
    assert lines[2:4] == [f"FAIL  {name}  (skipped: component structure broken)"
                          for name in ("mass-recurrence", "origin-minimality")]


def test_validator_skips_depth_checks_after_a_torn_last_component():
    # a leaf moved into the highest center's component, away from it: (b) fails on
    # that center, the last one (b) looks at, and (c) and (d) are skipped
    g = random_connected_graph(60, 0.0, 0)
    part = compute_centers_informed(g, 10)
    last = max(part.centers)
    leaf = next(v for v in range(60) if reference.degree(g, v) == 1 and part.delay[v] >= 2
                and part.center_of[reference.neighbors(g, v)[0]] != last)
    center_of = list(part.center_of)
    center_of[leaf] = last
    bad = dataclasses.replace(part, center_of=tuple(center_of))
    lines = validate_partition(g, bad).lines()
    assert lines == reference.validate_partition(g, bad).lines()
    assert lines[1] == ("FAIL  component-closure-connectivity  "
                        f"(component of center {last} is not connected)")
    assert lines[2:4] == [f"FAIL  {name}  (skipped: component structure broken)"
                          for name in ("mass-recurrence", "origin-minimality")]


@pytest.mark.parametrize("kind", ["away", "late"])
def test_validator_reports_origin_in_the_wrong_place(kind):
    # a relay's origin moved to another neighbor one hop closer to its own
    # center but in another component, or in its component but no closer
    g = random_connected_graph(60, 0.05, 2)
    part = compute_centers_informed(g, 10)
    cof, delay = part.center_of, part.delay
    want = (True, -1) if kind == "away" else (False, 0)  # (other component, depth step)
    v, u = next((v, u) for v in range(60) if cof[v] != v for u in reference.neighbors(g, v)
                if (cof[u] != cof[v], delay[u] - delay[v]) == want)
    origin_of = list(part.origin_of)
    origin_of[v] = u
    bad = dataclasses.replace(part, origin_of=tuple(origin_of))
    lines = validate_partition(g, bad).lines()
    assert lines == reference.validate_partition(g, bad).lines()
    assert lines[3] == "FAIL  origin-minimality  ({})".format(
        f"node {v}: origin {u} lives in another component" if kind == "away" else
        f"node {v}: origin depth {delay[u]} does not precede own depth {delay[v]}")


_FIELDS = ["center_of", "component", "origin_of", "delay", "mass_m", "mass_d", "centers", "arms"]


def _mutated(part, field, node, value):
    """``part`` with one field changed at ``node``: an id field to another node, the
    center to node ``value``'s ("component"), a count to ``value``, the center set
    with ``node`` toggled, or the arms."""
    n = part.node_count
    if field == "arms":
        return dataclasses.replace(part, arms=2 + abs(value))
    if field == "centers":
        return dataclasses.replace(part, centers=sorted(set(part.centers.tolist()) ^ {node % n}))
    if field == "component":
        field, value = "center_of", part.center_of[value % n]
    column = list(getattr(part, field))
    column[node % n] = value % n if field in ("center_of", "origin_of") else value
    return dataclasses.replace(part, **{field: tuple(column)})


def _lines_or_error(validate, g, part):
    try:
        return validate(g, part).lines()
    except ValueError as exc:  # no center at all
        return type(exc), str(exc)


def _assert_validators_agree(g, part, path):
    assert _lines_or_error(validate_partition, g, part) == _lines_or_error(
        reference.validate_partition, g, part)
    write_partition(path, part)
    buf = io.StringIO()
    json.dump(partition_to_json(part), buf, indent=1)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == buf.getvalue() + "\n"


def _elected(g, arms, setting, seed):
    if setting == "informed":
        return compute_centers_informed(g, arms)
    return compute_centers_uninformed(
        g, arms, g.node_count + 3, 100_000, np.random.default_rng(seed)).partition


@pytest.mark.parametrize("setting", ["informed", "uninformed"])
@settings(max_examples=210, deadline=None)
@given(n=st.integers(2, 40), density=st.sampled_from([0.0, 0.0, 0.05, 0.15, 0.4]),
       seed=st.integers(0, 2**32 - 1), arms=st.sampled_from([2, 3, 5, 10]),
       mutations=st.lists(st.tuples(st.sampled_from(_FIELDS), st.integers(0, 39),
                                    st.integers(-1, 12)), min_size=2, max_size=2))
@example(n=5, density=0.0, seed=0, arms=5, mutations=[("mass_d", 1, -1), ("mass_m", 1, -2)])
def test_validator_equals_oracle(tmp_path_factory, setting, n, density, seed, arms, mutations):
    g = random_connected_graph(n, density, seed)
    try:
        part = _elected(g, arms, setting, seed)
    except ValueError as exc:  # an exhausted election left nodes unreached; nothing to check
        assert "never reached by any center" in str(exc)
        return
    path = tmp_path_factory.mktemp("partition") / "p.json"
    for case in [part] + [_mutated(part, *m) for m in mutations]:
        _assert_validators_agree(g, case, path)


@pytest.mark.parametrize("m, d", [(3, -1), (-2, 0), (0, 0)])
def test_validator_reports_a_mass_pair_below_the_floor(tmp_path, m, d):
    # center 1 of the path's partition stores (3, 0); a negative field fails the
    # floor check with a witness, as the nil pair does
    g = path_graph(5)
    doc = partition_to_json(compute_centers_informed(g, 5))
    assert (doc["centers"], doc["mass_m"][1], doc["mass_d"][1]) == ([1, 4], 3, 0)
    doc["mass_m"][1], doc["mass_d"][1] = m, d
    part = partition_from_json(doc)
    assert validate_partition(g, part).lines()[5] == (
        f"FAIL  mass-floor  (node 1: mass Mass(m={m}, d={d}) below floor (3, 6))")
    _assert_validators_agree(g, part, tmp_path / "p.json")


@pytest.mark.parametrize("setting", ["informed", "uninformed"])
def test_validator_equals_oracle_on_large_tree(tmp_path, setting):
    g = random_connected_graph(10_000, 0.0, 10_000)
    part = _elected(g, 10, setting, 0)
    assert validate_partition(g, part).ok
    rng = np.random.default_rng(7)
    for field in _FIELDS:
        case = _mutated(part, field, int(rng.integers(10_000)), int(rng.integers(-1, 13)))
        _assert_validators_agree(g, case, tmp_path / "p.json")


@pytest.mark.parametrize("form", [tuple, list, np.array, lambda xs: np.array(xs, np.int32)])
def test_partition_columns_are_read_only_int64(form):
    cols = {"centers": [0], "center_of": [0, 0, 0], "origin_of": [0, 0, 1],
            "delay": [0, 1, 2], "mass_m": [2, 2, 2], "mass_d": [0, 1, 2]}
    given_cols = {name: form(col) for name, col in cols.items()}
    built = Partition(arms=3, **given_cols)
    spread = _SpreadRounds(path_graph(3), 3)
    spread.add(np.array([0]))
    elected = spread.partition()
    for part in (built, elected, partition_from_json(partition_to_json(built)),
                 pickle.loads(pickle.dumps(built))):  # as --workers returns it
        for name, col in cols.items():
            got = getattr(part, name)
            assert got.dtype == np.int64 and got.tolist() == col, name
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1
    # the columns are copies: neither the caller's arrays nor the rounds are shared
    if isinstance(given_cols["mass_m"], np.ndarray):
        given_cols["mass_m"][0] = 7
    spread.states[-1, 2, 0] = spread.center_key[1]  # (3, 0), node 1's mass as a center
    assert built.mass_m[0] == 2 and elected.mass_m[0] == 2 and spread.partition().mass_m[0] == 3


def test_partition_json_round_trip():
    g = random_connected_graph(14, 0.3, 6)
    part = compute_centers_informed(g, 5)
    doc = json.loads(json.dumps(partition_to_json(part)))
    back = partition_from_json(doc)
    reference.assert_same_partition(back, part)
    with pytest.raises(ValueError):
        partition_from_json({**doc, "delay": doc["delay"][:-1]})


def _json_doc():
    g = random_connected_graph(14, 0.3, 6)
    return json.loads(json.dumps(partition_to_json(compute_centers_informed(g, 5))))


@pytest.mark.parametrize("center", [-1, 14])
def test_partition_json_rejects_center_out_of_range(center):
    doc = _json_doc()
    with pytest.raises(ValueError, match="centers holds node"):
        partition_from_json({**doc, "centers": doc["centers"] + [center]})


@pytest.mark.parametrize("key", ["center_of", "origin_of"])
@pytest.mark.parametrize("node", [-1, 14])
def test_partition_json_rejects_pointer_out_of_range(key, node):
    doc = _json_doc()
    doc[key][3] = node
    with pytest.raises(ValueError, match=f"{key} holds node {node} outside 0..13"):
        partition_from_json(doc)


@pytest.mark.parametrize("arms", [1, 0, -3])
def test_partition_json_rejects_too_few_arms(arms):
    with pytest.raises(ValueError, match="at least 2 arms"):
        partition_from_json({**_json_doc(), "arms": arms})


def test_partition_json_rejects_duplicate_centers():
    doc = _json_doc()
    with pytest.raises(ValueError, match="duplicate centers"):
        partition_from_json({**doc, "centers": doc["centers"] + doc["centers"][:1]})


def test_mass_floor_constant():
    # e^{-1} * clamp in pair form is (clamp, 6); every assigned node beats it
    g = random_connected_graph(25, 0.2, 9)
    part = compute_centers_informed(g, 10)
    clamp = degree_clamp(g, 10)
    for v in range(25):
        assert OrderedMass(int(clamp[v]), MASS_DECAY_DENOM) <= reference.mass(part, v)
