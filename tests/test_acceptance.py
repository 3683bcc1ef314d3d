"""Release gate: one test per numbered criterion, one printed verdict line each.

Every test prints `criterion N: PASS/FAIL - detail` before asserting, so a
red run still reports the verdict of each criterion it reached.  The heavy
sweeps (600 elections) are computed once and shared between criteria.
"""

import json
import math
import time

import numpy as np
import pytest
from reference import (
    OrderedMass,
    complete_graph,
    independence_number,
    is_r_independent,
    is_r_mis,
    mass,
    mass_value,
)

from coopmab import cli, exp3
from coopmab.graph import (
    Graph,
    format_edge_list,
    path_graph,
    random_connected_graph,
    star_graph,
)
from coopmab.partition import (
    MASS_DECAY_DENOM,
    compute_centers_informed,
    compute_centers_uninformed,
    luby_2mis,
    mis_round_budget,
    spread_rounds,
    validate_partition,
)
from coopmab.simulate import (
    bernoulli_losses,
    degree_bound,
    Lane,
    individual_bound,
    run_informed,
    run_informed_batch,
    run_lanes,
    run_uninformed,
    solo_lane,
    switching_losses,
)

SWEEP_SEED = 11
SWEEP_SIZE = 200
SWEEP_ARMS = (2, 5, 10)
ELECTION_HORIZON = 100_000

_CACHE: dict = {}


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _graphs() -> list[Graph]:
    if "graphs" not in _CACHE:
        rng = np.random.default_rng(SWEEP_SEED)
        out = []
        for _ in range(SWEEP_SIZE):
            n = int(rng.integers(2, 51))
            density = float(rng.uniform(0.0, 0.5))
            out.append(random_connected_graph(n, density, rng))
        _CACHE["graphs"] = out
    return _CACHE["graphs"]


def _elections():
    # one full uninformed sweep, shared by criteria 2 and 3
    if "elections" not in _CACHE:
        out = []
        for idx, g in enumerate(_graphs()):
            for arms in SWEEP_ARMS:
                rng = np.random.default_rng(7_000_000 + 31 * idx + arms)
                e = compute_centers_uninformed(g, arms, 2 * g.node_count, ELECTION_HORIZON, rng)
                out.append((g, arms, 2 * g.node_count, e))
        _CACHE["elections"] = out
    return _CACHE["elections"]


def test_criterion_1_informed_partition_sweep(capsys):
    t0 = time.monotonic()
    failures = []
    for idx, g in enumerate(_graphs()):
        for arms in SWEEP_ARMS:
            part = compute_centers_informed(g, arms)
            report = validate_partition(g, part)
            if not report.ok:
                bad = [c.name for c in report.checks if not c.passed]
                failures.append(f"graph {idx} arms {arms}: {bad}")
    elapsed = time.monotonic() - t0
    runs = len(_graphs()) * len(SWEEP_ARMS)
    detail = f"{runs} informed partitions fully validated, {len(failures)} failures, {elapsed:.1f}s"
    _verdict(capsys, 1, not failures and elapsed < 60.0, detail)


def test_criterion_2_uninformed_partition_sweep(capsys):
    t0 = time.monotonic()
    independence_failures = []
    floor_failures = []
    conditional_runs = 0
    luby_calls = 0
    luby_nonmaximal = 0
    fail_prob_sum = 0.0
    fail_prob_var = 0.0

    for idx, (g, arms, _n_upper, election) in enumerate(_elections()):
        part = election.partition
        if not is_r_independent(g, part.centers.tolist(), 2):
            independence_failures.append(idx)
        all_maximal = True
        for call in election.luby_calls:
            luby_calls += 1
            p = 1.0 / (arms * ELECTION_HORIZON)
            fail_prob_sum += p
            fail_prob_var += p * (1.0 - p)
            if not is_r_mis(g, call.result.joined, call.universe, 2):
                luby_nonmaximal += 1
                all_maximal = False
        if all_maximal:
            conditional_runs += 1
            floor = {v: OrderedMass(min(g.closed_degrees[v], arms), MASS_DECAY_DENOM)
                     for v in range(g.node_count)}
            if any(mass(part, v) < floor[v] for v in range(g.node_count)):
                floor_failures.append(idx)

    # top up with standalone elections until the pooled sample is large enough
    rng = np.random.default_rng(22)
    while luby_calls < 10_000:
        n = int(rng.integers(4, 17))
        g = random_connected_graph(n, float(rng.uniform(0.0, 0.4)), rng)
        budget = mis_round_budget(2 * n, 10, ELECTION_HORIZON)
        result = luby_2mis(g, range(n), budget, rng)
        luby_calls += 1
        p = 1.0 / (10 * ELECTION_HORIZON)
        fail_prob_sum += p
        fail_prob_var += p * (1.0 - p)
        if not is_r_mis(g, result.joined, range(n), 2):
            luby_nonmaximal += 1

    tolerance = fail_prob_sum + 3.0 * math.sqrt(fail_prob_var)
    elapsed = time.monotonic() - t0
    ok = (
        not independence_failures
        and not floor_failures
        and luby_nonmaximal <= tolerance
        and elapsed < 300.0
    )
    detail = (
        f"{len(_elections())} elections: independence failures {len(independence_failures)}, "
        f"mass-floor failures {len(floor_failures)} over {conditional_runs} conditional runs, "
        f"{luby_nonmaximal}/{luby_calls} non-maximal (tolerance {tolerance:.2f}), {elapsed:.1f}s"
    )
    _verdict(capsys, 2, ok, detail)


def test_criterion_3_setup_step_accounting(capsys):
    mismatches = []
    over_bound = []
    for idx, (_g, arms, n_upper, election) in enumerate(_elections()):
        budget = mis_round_budget(n_upper, arms, ELECTION_HORIZON)
        theta = spread_rounds(arms)
        expected = arms * (4 * budget + theta + 1) + (theta + 1)
        if election.total_steps != expected:
            mismatches.append(f"run {idx}: {election.total_steps} != {expected}")
        limit = 12.0 * arms * math.log(arms * arms * n_upper * ELECTION_HORIZON)
        if not election.total_steps < limit:
            over_bound.append(f"run {idx}: {election.total_steps} >= {limit:.1f}")
    # independent combos beyond the sweep's n_upper = 2N choice
    for n, arms, n_upper, horizon in ((6, 3, 40, 10_000), (10, 5, 10, 1_000), (2, 2, 2, 10)):
        g = path_graph(n)
        e = compute_centers_uninformed(g, arms, n_upper, horizon, np.random.default_rng(3))
        budget = mis_round_budget(n_upper, arms, horizon)
        expected = arms * (4 * budget + spread_rounds(arms) + 1) + (spread_rounds(arms) + 1)
        if e.total_steps != expected:
            mismatches.append(f"combo ({n},{arms},{n_upper},{horizon})")
        if not e.total_steps < 12.0 * arms * math.log(arms * arms * n_upper * horizon):
            over_bound.append(f"combo ({n},{arms},{n_upper},{horizon})")
    ok = not mismatches and not over_bound
    detail = (
        f"{len(_elections()) + 3} setups: {len(mismatches)} closed-form mismatches, "
        f"{len(over_bound)} above the 12K*ln(K^2*n_upper*T) ceiling"
    )
    _verdict(capsys, 3, ok, detail)


def test_criterion_4_weight_sandwich_under_debug(capsys):
    # horizons all satisfy T >= K^2 ln K, so the one-step floor check is armed
    runs = []
    r = run_informed(star_graph(9), 10, 2000,
                     bernoulli_losses([0.3] + [0.6] * 9, 41), 141, debug=True)
    runs.append(("star-10", r))
    r = run_informed(path_graph(7), 5, 1000,
                     bernoulli_losses([0.2, 0.5, 0.5, 0.5, 0.8], 42), 142, debug=True)
    runs.append(("path-7", r))
    g = random_connected_graph(20, 0.15, np.random.default_rng(43))
    r = run_informed(g, 5, 1000, bernoulli_losses([0.4, 0.5, 0.5, 0.6, 0.6], 43), 143, debug=True)
    runs.append(("random-20", r))
    r = run_uninformed(path_graph(6), 3, 12, 1000,
                       bernoulli_losses([0.3, 0.5, 0.7], 44), 144, debug=True)
    runs.append(("uninformed-path-6", r))
    r = run_informed(complete_graph(6), 5, 1000,
                     bernoulli_losses([0.1, 0.5, 0.5, 0.5, 0.9], 45), 145, debug=True)
    runs.append(("clique-6", r))
    r = run_informed(star_graph(3), 3, 1000,
                     switching_losses([(0, 0), (500, 2)], 3), 146, debug=True)
    runs.append(("switch-star-4", r))

    violations = [f"{name}: {v}" for name, run in runs for v in run.debug_violations]
    detail = f"{len(runs)} audited runs, {len(violations)} invariant violations"
    if violations:
        detail += f"; first: {violations[0]}"
    _verdict(capsys, 4, not violations, detail)


def test_criterion_5_estimator_unbiased(capsys):
    t0 = time.monotonic()
    n = 1_000_000
    rng = np.random.default_rng(5150)
    worst = 0.0
    failures = []
    for q in (0.1, 0.5, 0.9):
        for loss in (0.3, 1.0):
            scale = float(exp3.estimated_loss_vector(
                np.array([loss]), np.array([q]), np.array([True])
            )[0])
            assert scale == loss / q
            hits = rng.random(n) < q
            draws = np.where(hits, scale, 0.0)
            err = abs(float(draws.mean()) - loss)
            allowed = 3.0 * float(draws.std(ddof=1)) / math.sqrt(n)
            worst = max(worst, err / allowed)
            if err > allowed:
                failures.append(f"q={q} loss={loss}: |bias| {err:.2e} > {allowed:.2e}")
    elapsed = time.monotonic() - t0
    detail = f"6 configs x 1e6 draws, worst |bias|/3SE = {worst:.2f}, {elapsed:.1f}s"
    _verdict(capsys, 5, not failures and elapsed < 10.0, detail)


def test_criterion_6_star_regret_bounds(capsys):
    t0 = time.monotonic()
    g = star_graph(10)
    arms, horizon, seeds = 10, 100_000, 20
    means = [0.4] + [0.5] * (arms - 1)
    oracles = [bernoulli_losses(means, 100 + i) for i in range(seeds)]
    # one election, all seeds in lockstep; each run equals run_informed's bit for bit
    runs = run_informed_batch(g, arms, horizon, oracles, [9000 + i for i in range(seeds)])
    semis = [r.semi_regret for r in runs]
    part = runs[-1].partition
    mean_semi = np.mean(semis, axis=0)
    hub = int(part.centers[0])
    assert mass(part, hub) == OrderedMass(arms, 0) and g.closed_degrees[hub] == 11

    hub_bound = 4.0 * math.sqrt(math.log(arms) * (arms / mass_value(part, hub)) * horizon)
    assert hub_bound == pytest.approx(4.0 * math.sqrt(math.log(arms) * horizon), rel=1e-12)
    leaf_failures = []
    for v in range(g.node_count):
        if v == hub:
            continue
        b7 = individual_bound(mass_value(part, v), arms, horizon)
        b12 = degree_bound(g.closed_degrees[v], arms, horizon)
        assert b7 == pytest.approx(
            7.0 * math.sqrt(math.log(arms) * (arms / (arms * math.exp(-1 / 6))) * horizon),
            rel=1e-12,
        )
        assert b12 == pytest.approx(
            12.0 * math.sqrt(math.log(arms) * (1 + arms / 2) * horizon), rel=1e-12
        )
        if not (mean_semi[v] <= b7 and mean_semi[v] <= b12):
            leaf_failures.append(v)
    elapsed = time.monotonic() - t0
    ok = mean_semi[hub] <= hub_bound and not leaf_failures and elapsed < 120.0
    worst_leaf = float(max(mean_semi[v] for v in range(g.node_count) if v != hub))
    detail = (
        f"{seeds} seeds: hub mean semi-regret {mean_semi[hub]:.1f} <= {hub_bound:.1f} "
        f"(ratio {mean_semi[hub] / hub_bound:.2f}), worst leaf {worst_leaf:.1f} <= "
        f"{individual_bound(mass_value(part, 1), arms, horizon):.1f}, {elapsed:.1f}s"
    )
    _verdict(capsys, 6, ok, detail)


def test_criterion_7_cooperation_beats_solo(capsys):
    t0 = time.monotonic()
    arms, horizon, seeds = 10, 100_000, 20
    g = complete_graph(arms + 1)
    means = [0.4] + [0.5] * (arms - 1)
    oracles = [bernoulli_losses(means, 100 + i) for i in range(seeds)]
    # the clique and solo runs as lanes of one kernel call; each equals run_informed /
    # run_solo_exp3 seed by seed, bit for bit
    part = compute_centers_informed(g, arms)
    lanes = [Lane(g, part, oracle, np.random.default_rng(9000 + i)) for i, oracle in enumerate(oracles)]
    lanes += [solo_lane(arms, oracle, 7000 + i) for i, oracle in enumerate(oracles)]
    runs = run_lanes(lanes, horizon)
    clique = [float(r.semi_regret[r.partition.centers[0]]) for r in runs[:seeds]]
    solo = [float(s.semi_regret[0]) for s in runs[seeds:]]
    clique_mean = float(np.mean(clique))
    solo_mean = float(np.mean(solo))
    ratio = clique_mean / solo_mean
    target = math.sqrt(2.0 / (arms + 1))
    elapsed = time.monotonic() - t0
    ok = clique_mean < solo_mean and target / 3.0 <= ratio <= target * 3.0
    detail = (
        f"{seeds} seeds: clique agent {clique_mean:.1f} vs solo {solo_mean:.1f}, "
        f"ratio {ratio:.3f} within [{target / 3.0:.3f}, {target * 3.0:.3f}], {elapsed:.1f}s"
    )
    _verdict(capsys, 7, ok, detail)


def test_criterion_8_average_regret_reference(capsys):
    arms, horizon = 5, 10_000
    means = [0.3, 0.5, 0.5, 0.5, 0.5]
    rng = np.random.default_rng(808)
    harmonic_failures = []
    lanes, alphas = [], []
    for i in range(20):
        n = int(rng.integers(4, 31))
        g = random_connected_graph(n, float(rng.uniform(0.0, 0.4)), rng)
        alpha = independence_number(g)
        harmonic = sum(1.0 / g.closed_degrees[v] for v in range(n))
        if harmonic > alpha + 1e-9:
            harmonic_failures.append(i)
        part = compute_centers_informed(g, arms)
        lanes.append(Lane(g, part, bernoulli_losses(means, 500 + i), np.random.default_rng(9500 + i)))
        alphas.append(alpha)
    ratios = []
    for lane, alpha, r in zip(lanes, alphas, run_lanes(lanes, horizon)):  # one kernel call
        alpha_reference = math.sqrt((1.0 + arms * alpha / lane.graph.node_count) * horizon)
        ratios.append(float(np.mean(r.semi_regret)) / alpha_reference)
    detail = (
        f"20 graphs: harmonic-sum <= independence-number failures {len(harmonic_failures)}; "
        f"mean regret / sqrt((1+K*alpha/N)*T) in [{min(ratios):.2f}, {max(ratios):.2f}] (report-only)"
    )
    _verdict(capsys, 8, not harmonic_failures, detail)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    star = tmp_path / "star.g"
    star.write_text(format_edge_list(star_graph(4)))
    path = tmp_path / "path.g"
    path.write_text(format_edge_list(path_graph(6)))

    def run(args_out_prefix, extra):
        code = cli.main(
            ["simulate", "--graph", str(extra["graph"]), "--arms", "3",
             "--horizon", "2000", "--adversary", "bernoulli:0.2,0.5,0.8",
             "--seeds", "2", "--out", str(args_out_prefix)] + extra.get("flags", [])
        )
        assert code == 0
        csv = (args_out_prefix.parent / (args_out_prefix.name + ".csv")).read_bytes()
        doc = json.loads((args_out_prefix.parent / (args_out_prefix.name + ".json")).read_text())
        return csv, [s["digest"] for s in doc["per_seed"]]

    mismatches = []
    for tag, extra in (
        ("informed", {"graph": star}),
        ("uninformed", {"graph": path, "flags": ["--setting", "uninformed", "--nbar", "12"]}),
    ):
        csv_a, digests_a = run(tmp_path / f"{tag}-a", extra)
        csv_b, digests_b = run(tmp_path / f"{tag}-b", extra)
        if csv_a != csv_b:
            mismatches.append(f"{tag}: csv bytes differ")
        if digests_a != digests_b:
            mismatches.append(f"{tag}: digests differ")
    detail = "2 settings x 2 identical invocations: " + (
        "bit-identical CSVs and digests" if not mismatches else "; ".join(mismatches)
    )
    _verdict(capsys, 9, not mismatches, detail)
