import json
import math

import numpy as np
import pytest

from coopmab.graph import (
    build_graph,
    complete_graph,
    is_r_independent,
    is_r_mis,
    path_graph,
    random_connected_graph,
    star_graph,
)
from coopmab.partition import (
    MASS_DECAY_DENOM,
    NIL_MASS,
    ComponentMap,
    EmptyCenterSetError,
    Mass,
    SpreadRound,
    centers_to_components,
    compute_centers_informed,
    compute_centers_uninformed,
    degree_clamp,
    luby_2mis,
    min_center_distance,
    mis_round_budget,
    partition_from_json,
    partition_to_json,
    spread_history_violations,
    spread_rounds,
    validate_partition,
)


def test_mass_basics():
    assert NIL_MASS.is_nil and NIL_MASS.value() == 0.0
    m = Mass(3, 2)
    assert m.value() == pytest.approx(3 * math.exp(-2 / 6))
    assert m.score() == pytest.approx(6 * math.log(3) - 2)
    assert m.decayed() == Mass(3, 3)
    assert NIL_MASS.decayed() == NIL_MASS
    with pytest.raises(ValueError):
        Mass(-1, 0)
    with pytest.raises(ValueError):
        Mass(0, 3)  # nil is canonically (0, 0)


def test_mass_ordering():
    assert NIL_MASS < Mass(2, 100)
    assert Mass(2, 0) < Mass(3, 0)
    assert Mass(3, 1) < Mass(3, 0)
    # deeper copy of a bigger component can still beat a small center
    assert Mass(2, 0) < Mass(10, 9)
    assert not Mass(5, 2) < Mass(5, 2)
    assert Mass(5, 2) <= Mass(5, 2)
    # pair order must agree with the real-valued mass on random pairs
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = Mass(int(rng.integers(1, 11)), int(rng.integers(0, 40)))
        b = Mass(int(rng.integers(1, 11)), int(rng.integers(0, 40)))
        if a.value() != b.value():
            assert (a < b) == (a.value() < b.value())


def test_spread_rounds_values():
    assert spread_rounds(2) == 8
    assert spread_rounds(5) == 19
    assert spread_rounds(10) == 27


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
        assert comp.mass(v) == Mass(min(g.closed_degree(v), 5), 0)


def test_spread_star():
    g = star_graph(5)
    comp = centers_to_components(g, {0}, 10)
    assert comp.mass(0) == Mass(6, 0)
    for leaf in range(1, 6):
        assert comp.origin_of[leaf] == 0
        assert comp.mass(leaf) == Mass(6, 1)


def test_spread_requires_centers_and_marks_unreached():
    g = path_graph(3)
    with pytest.raises(EmptyCenterSetError):
        centers_to_components(g, set(), 2)
    # arms=2 gives 9 update rounds; nodes further than that stay nil
    long = path_graph(12)
    comp = centers_to_components(long, {0}, 2)
    assert comp.rounds == spread_rounds(2) + 1
    assert comp.center_of[10] == -1 and comp.center_of[11] == -1
    assert comp.mass(11) == NIL_MASS
    assert not comp.fully_assigned()
    with pytest.raises(ValueError):
        comp.to_partition()


def test_spread_history_audit_clean_on_randoms():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 35))
        g = random_connected_graph(n, float(rng.uniform(0, 0.4)), rng)
        arms = int(rng.choice([2, 5, 10]))
        centers = compute_centers_informed(g, arms).centers
        comp = centers_to_components(g, centers, arms)
        assert spread_history_violations(g, comp) == []
        assert 0 <= comp.settled_round <= comp.rounds


def test_spread_tie_break_lowest_id():
    # node 2 sits between equal-mass centers 0 and 4: origin must be node 1
    g = path_graph(5)
    comp = centers_to_components(g, {0, 4}, 2)
    assert comp.origin_of.tolist() == [0, 0, 1, 4, 4]
    assert comp.center_of[2] == 0


def test_informed_star():
    g = star_graph(10)  # hub 0 plus 10 leaves, N = K + 1 for K = 10
    found = compute_centers_informed(g, 10)
    assert found.centers == (0,)
    part = found.component_map.to_partition()
    assert part.role(0) == "center"
    assert all(part.role(v) == "adjacent" for v in range(1, 11))


def test_informed_clique_and_edge():
    assert compute_centers_informed(complete_graph(6), 10).centers == (0,)
    assert compute_centers_informed(build_graph(2, [(0, 1)]), 2).centers == (0,)


def test_informed_path_adds_far_end():
    found = compute_centers_informed(path_graph(5), 5)
    assert found.centers == (1, 4)
    assert found.iterations == 2


def test_informed_terminates_within_node_count():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, float(rng.uniform(0, 0.5)), rng)
        found = compute_centers_informed(g, 5)
        assert found.iterations <= n
        assert is_r_independent(g, set(found.centers), 2)


def _propagation_oracle(g, centers, arms):
    """centers_to_components in its first form: four state arrays per round,
    the padded adjacency and the mass scores rebuilt on every call and round."""
    n = g.node_count
    center_list = sorted(set(centers))
    rounds = spread_rounds(arms) + 1
    clamp = np.minimum(np.array([g.closed_degree(v) for v in range(n)]), arms)
    center_mask = np.zeros(n, dtype=bool)
    center_mask[center_list] = True
    ids = np.arange(n)
    mass_m = np.where(center_mask, clamp, 0).astype(np.int64)
    mass_d = np.zeros(n, dtype=np.int64)
    cof = np.where(center_mask, ids, -1).astype(np.int64)
    uof = np.where(center_mask, ids, -1).astype(np.int64)
    pad = np.full((n, max(g.degree(v) for v in range(n))), n, dtype=np.int64)
    for v in range(n):
        pad[v, : g.degree(v)] = g.adj[v]
    history = [SpreadRound(cof.copy(), uof.copy(), mass_m.copy(), mass_d.copy())]
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
        history.append(SpreadRound(cof.copy(), uof.copy(), mass_m.copy(), mass_d.copy()))
        if not changed:
            settled = t - 1
            break
    reached = mass_m > 0
    return ComponentMap(arms, rounds, settled, tuple(center_list), np.where(reached, cof, -1),
                        np.where(reached, uof, -1), mass_m, np.where(reached, mass_d, 0), history)


def _assert_same_map(got, want):
    for name in ("arms", "rounds", "settled_round", "centers"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("center_of", "origin_of", "mass_m", "mass_d"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert len(got.history) == len(want.history)
    for x, y in zip(got.history, want.history):
        for name in ("center_of", "origin_of", "mass_m", "mass_d"):
            assert getattr(x, name).tobytes() == getattr(y, name).tobytes(), name


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
        _assert_same_map(centers_to_components(g, centers, arms),
                         _propagation_oracle(g, centers, arms))


def _informed_greedy_oracle(g, arms):
    """The informed greedy search in its first, quadratic form.

    Pending nodes are a Python set, the next center is the set's maximum
    by (closed degree, -id), and the two-hop test takes the minimum of one
    full BFS per center on every pass.  compute_centers_informed keeps a
    running mask instead and must elect the same centers in the same order.
    """
    n = g.node_count
    clamp = np.minimum(np.array([g.closed_degree(v) for v in range(n)]), arms)
    clamp_score = MASS_DECAY_DENOM * np.log(clamp)
    pending = set(range(n))
    centers = []
    comp = None
    while pending:
        centers.append(max(pending, key=lambda v: (g.closed_degree(v), -v)))
        comp = _propagation_oracle(g, centers, arms)
        score = np.where(
            comp.mass_m > 0,
            MASS_DECAY_DENOM * np.log(np.maximum(comp.mass_m, 1)) - comp.mass_d,
            -np.inf,
        )
        near = np.minimum.reduce([g.distances_from(c) for c in centers]) <= 2
        pending = {v for v in range(n) if score[v] < clamp_score[v] and not near[v]}
    return tuple(centers), comp


@pytest.mark.parametrize("arms", [2, 3, 10, 50])
def test_informed_election_equals_quadratic_oracle(arms):
    rng = np.random.default_rng(1000 + arms)
    graphs = [star_graph(12), path_graph(40), complete_graph(9), random_connected_graph(300, 0.0, arms)]
    for _ in range(30):
        n = int(rng.integers(2, 90))
        graphs.append(random_connected_graph(n, float(rng.choice([0.0, 0.03, 0.15, 0.5])), rng))
    for g in graphs:
        found = compute_centers_informed(g, arms)
        centers, comp = _informed_greedy_oracle(g, arms)
        assert found.centers == centers and found.iterations == len(centers)
        got = json.dumps(partition_to_json(found.component_map.to_partition()))
        assert got == json.dumps(partition_to_json(comp.to_partition()))


def test_luby_singleton_and_empty():
    g = path_graph(4)
    solo = luby_2mis(g, {2}, 5, np.random.default_rng(0))
    assert solo.joined == frozenset({2})
    assert solo.rounds_used == 1 and solo.step_cost == 4
    empty = luby_2mis(g, set(), 5, np.random.default_rng(0))
    assert empty.joined == frozenset()
    assert empty.rounds_used == 0 and empty.step_cost == 0 and not empty.exhausted


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
        assert tr.step_cost == 4 * tr.rounds_used


def test_luby_deterministic_and_budgeted():
    g = random_connected_graph(20, 0.2, 3)
    a = luby_2mis(g, range(20), 30, np.random.default_rng(7))
    b = luby_2mis(g, range(20), 30, np.random.default_rng(7))
    assert a.joined == b.joined and a.rounds_used == b.rounds_used
    tight = luby_2mis(path_graph(30), range(30), 1, np.random.default_rng(1))
    assert tight.rounds_used == 1
    # one round on a long path almost surely leaves participants stranded
    assert tight.exhausted


def test_mis_round_budget_value():
    assert mis_round_budget(80, 10, 100_000) == 34
    assert mis_round_budget(12, 3, 100_000) == 27


def test_uninformed_edge_graph():
    g = build_graph(2, [(0, 1)])
    el = compute_centers_uninformed(g, 2, 2, 1000, np.random.default_rng(0))
    assert len(el.centers) == 1
    part = el.final_map.to_partition()
    assert validate_partition(g, part).ok


def test_uninformed_star_hub_first_iteration():
    # hub has clamp K, so it is the only iteration-0 candidate; leaves are
    # then center-adjacent and never join
    g = star_graph(6)
    el = compute_centers_uninformed(g, 5, 7, 1000, np.random.default_rng(4))
    assert el.centers == (0,)
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


def test_uninformed_properties_on_randoms():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 35))
        g = random_connected_graph(n, float(rng.uniform(0, 0.4)), rng)
        arms = int(rng.choice([2, 5]))
        el = compute_centers_uninformed(
            g, arms, 2 * n, 100_000, np.random.default_rng(int(rng.integers(2**31)))
        )
        assert is_r_independent(g, set(el.centers), 2)
        part = el.final_map.to_partition()
        report = validate_partition(g, part)
        assert report.ok, report.lines()


def test_validator_passes_informed_outputs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, float(rng.uniform(0, 0.5)), rng)
        part = compute_centers_informed(g, 5).component_map.to_partition()
        report = validate_partition(g, part)
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


def _informed_partition(g, arms):
    return compute_centers_informed(g, arms).component_map.to_partition()


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
    part = _informed_partition(g, 5)
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


def test_partition_json_round_trip():
    g = random_connected_graph(14, 0.3, 6)
    part = _informed_partition(g, 5)
    doc = json.loads(json.dumps(partition_to_json(part)))
    back = partition_from_json(doc)
    assert back == part
    with pytest.raises(ValueError):
        partition_from_json({**doc, "delay": doc["delay"][:-1]})


def _json_doc():
    g = random_connected_graph(14, 0.3, 6)
    return json.loads(json.dumps(partition_to_json(_informed_partition(g, 5))))


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
    part = _informed_partition(g, 10)
    clamp = degree_clamp(g, 10)
    for v in range(25):
        assert Mass(int(clamp[v]), MASS_DECAY_DENOM) <= part.mass(v)
