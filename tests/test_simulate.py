import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
import reference
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coopmab import exp3, simulate
from coopmab.graph import build_graph, path_graph, random_connected_graph, star_graph
from coopmab.partition import (
    Partition,
    compute_centers_informed,
    compute_centers_uninformed,
    mass_value,
    partition_from_json,
    partition_to_json,
)
from coopmab.simulate import (
    Lane,
    LossOracle,
    RunResult,
    bernoulli_losses,
    degree_bound,
    individual_bound,
    matrix_losses,
    run_informed,
    run_informed_batch,
    run_lanes,
    run_solo_exp3,
    run_uninformed,
    solo_lane,
    switching_losses,
    uninformed_degree_bound,
    uninformed_lane,
)


def test_bernoulli_oracle_prefix_stable_and_bounded():
    oracle = bernoulli_losses([0.3, 0.7], 5)
    a = oracle.rows(0, 50)
    b = oracle.rows(0, 200)
    assert np.array_equal(a, b[:50])
    assert ((b == 0.0) | (b == 1.0)).all()
    again = bernoulli_losses([0.3, 0.7], 5).rows(0, 200)
    assert np.array_equal(b, again)
    # long-run frequency near the mean
    wide = bernoulli_losses([0.3, 0.7], 5).rows(0, 20000)
    assert wide[:, 0].mean() == pytest.approx(0.3, abs=0.02)
    with pytest.raises(ValueError):
        bernoulli_losses([0.3, 1.2], 5)


def test_matrix_oracle_validation():
    table = np.array([[0.0, 1.0], [0.5, 0.25]])
    oracle = matrix_losses(table)
    assert np.array_equal(oracle.rows(0, 2), table)
    with pytest.raises(ValueError):
        oracle.rows(0, 3)  # more steps than rows
    with pytest.raises(ValueError):
        matrix_losses(np.array([[0.0, 2.0]]))


@pytest.mark.parametrize("cells", [[(1, 9)], [(0, 0), (1, 9)], "all"])
def test_matrix_oracle_rejects_nan(cells):
    table = np.zeros((2, 10))
    if cells == "all":
        table[:] = np.nan
    for cell in [] if cells == "all" else cells:
        table[cell] = np.nan
    with pytest.raises(ValueError, match=r"loss table entries must lie in \[0, 1\]"):
        matrix_losses(table)


def test_switch_oracle_semantics():
    oracle = switching_losses([(0, 0), (4, 2)], 3)
    rows = oracle.rows(0, 6)
    assert np.array_equal(rows[:4, 0], np.zeros(4))
    assert np.array_equal(rows[:4, 1:], np.ones((4, 2)))
    assert np.array_equal(rows[4:, 2], np.zeros(2))
    assert rows[4:, 0].min() == 1.0
    with pytest.raises(ValueError):
        switching_losses([(3, 0)], 3)  # must start at step 0
    with pytest.raises(ValueError):
        switching_losses([(0, 7)], 3)
    # two switches at one step have no order to favor either arm by
    for dup in ([(0, 2), (0, 1)], [(0, 1), (0, 2)], [(0, 0), (5, 1), (5, 2)]):
        with pytest.raises(ValueError, match="two switches at step"):
            switching_losses(dup, 3)


def test_zero_losses_zero_regret():
    g = build_graph(2, [(0, 1)])
    oracle = matrix_losses(np.zeros((400, 2)))
    res = run_informed(g, 2, 400, oracle, 3)
    assert np.array_equal(res.regret, np.zeros(2))
    assert np.array_equal(res.semi_regret, np.zeros(2))
    assert res.best_arm == 0  # tie broken to the lowest arm


def test_dominant_arm_is_learned():
    g = star_graph(4)
    table = np.ones((4000, 3))
    table[:, 0] = 0.0
    res = run_informed(g, 3, 4000, matrix_losses(table), 11)
    want = reference.run_informed(g, 3, 4000, matrix_losses(table), 11, record_distributions=True)
    reference.assert_same_run(res, want)
    final = want.dist_history[-1]
    assert (final[:, 0] > 0.9).all()
    assert (res.regret <= 0.25 * 4000).all()


def test_determinism_and_digest():
    g = random_connected_graph(8, 0.3, 2)
    oracle = bernoulli_losses([0.4, 0.5, 0.6], 9)
    a = run_informed(g, 3, 600, oracle, 17)
    b = run_informed(g, 3, 600, oracle, 17)
    assert a.digest == b.digest
    assert np.array_equal(a.realized_loss, b.realized_loss)
    assert np.array_equal(a.semi_loss, b.semi_loss)
    assert a.best_arm == b.best_arm


def test_adversary_oblivious_to_policy_seed():
    g = random_connected_graph(8, 0.3, 2)
    oracle = bernoulli_losses([0.4, 0.5, 0.6], 9)
    a = run_informed(g, 3, 600, oracle, 17)
    b = run_informed(g, 3, 600, oracle, 4242)
    assert np.array_equal(a.arm_loss, b.arm_loss)  # loss table unchanged
    assert a.digest != b.digest  # actions differ


def test_relay_causality_on_path():
    g = path_graph(5)
    part = reference.centers_to_components(g, {2}, 4).to_partition()
    oracle = bernoulli_losses([0.2, 0.4, 0.6, 0.8], 1)
    res = run_informed(g, 4, 60, oracle, 5, partition=part)
    want = reference.run_informed(g, 4, 60, oracle, 5, record_distributions=True, partition=part)
    reference.assert_same_run(res, want, each_step=True)
    hist = want.dist_history  # hist[t-1] = distributions played at round t
    uniform = np.full(4, 0.25)
    for v in range(5):
        d = part.delay[v]
        for t in range(60):
            if t >= d:
                assert np.array_equal(hist[t][v], hist[t - d][2])
            else:
                assert np.array_equal(hist[t][v], uniform)


def test_center_weights_reconstructable_from_messages():
    # rebuild the center's whole trajectory offline from played distributions,
    # actions, and the loss table; it must match the simulation bit for bit
    g = star_graph(3)
    oracle = bernoulli_losses([0.3, 0.5, 0.7], 8)
    sink = io.StringIO()
    res = run_informed(g, 3, 300, oracle, 21, log_sink=sink)
    want = reference.run_informed(g, 3, 300, oracle, 21, record_distributions=True)
    reference.assert_same_run(res, want, each_step=True)
    actions = np.zeros((300, 4), dtype=int)
    for t, v, action, _, _ in reference.log_records(sink.getvalue()):
        actions[t - 1, v] = action
    losses = bernoulli_losses([0.3, 0.5, 0.7], 8).rows(0, 300)

    members = np.array(reference.closed_neighborhood(g, 0))
    rate = exp3.learning_rate(reference.mass_value(res.partition, 0), 3, 300)
    lw = np.zeros(3)
    for t in range(1, 301):
        played = want.dist_history[t - 1]
        assert np.array_equal(played[0], exp3.probs_from_log_weights(lw))
        observe = 1.0 - np.prod(1.0 - played[members], axis=0)
        observed = np.zeros(3, dtype=bool)
        observed[actions[t - 1, members]] = True
        est = exp3.estimated_loss_vector(losses[t - 1], observe, observed)
        lw = exp3.exp3_update_raw(lw, rate, est)


def test_debug_run_has_no_violations():
    g = star_graph(6)
    oracle = bernoulli_losses([0.4] + [0.5] * 4, 3)
    res = run_informed(g, 5, 2000, oracle, 13, debug=True)
    assert res.debug_violations == []


def test_run_log_matches_ledger():
    g = path_graph(4)
    oracle = bernoulli_losses([0.5, 0.5], 2)
    sink = io.StringIO()
    res = run_informed(g, 2, 150, oracle, 7, log_sink=sink)
    totals = np.zeros(4)
    seen_roles = {}
    records, table = reference.log_records(sink.getvalue()), oracle.rows(0, 150)
    assert [(t, v) for t, v, *_ in records] == [(t, v) for t in range(1, 151) for v in range(4)]
    for t, v, action, loss, role in records:
        assert loss == table[t - 1, action]
        totals[v] += loss
        seen_roles[v] = role
    assert np.allclose(totals, res.realized_loss)
    assert seen_roles == {v: reference.role(res.partition, v) for v in range(4)}


def test_uninformed_run_timeline():
    g = path_graph(4)
    oracle = bernoulli_losses([0.3, 0.6], 4)
    res = run_uninformed(g, 2, 8, 500, oracle, 19)
    election = compute_centers_uninformed(g, 2, 8, 500, np.random.default_rng(19))
    assert res.setup_steps == election.total_steps
    assert res.total_steps == res.setup_steps + 500
    reference.assert_same_partition(res.partition, election.partition)
    # warm-up charges the row mean to the semi ledger
    warm = oracle.rows(0, res.setup_steps).mean(axis=1).sum()
    semi_setup = res.policy_start[1]  # the semi ledger where the policy phase starts
    assert np.allclose(semi_setup, warm)


def test_uninformed_zero_losses():
    g = path_graph(4)
    res = run_uninformed(g, 2, 8, 300, matrix_losses(np.zeros((5000, 2))), 1)
    assert np.array_equal(res.regret, np.zeros(4))
    assert np.array_equal(_policy_phase(res)[2], np.zeros(4))


def _policy_phase(res: RunResult):
    """The policy phase's realized loss, best-arm loss and regret, from the run's ledgers."""
    realized, _, arm = res.policy_start
    realized, arm = res.realized_loss - realized, res.arm_loss - arm
    best = float(arm[arm.argmin()])
    return realized, best, realized - best


def test_policy_slice_consistency():
    g = star_graph(4)
    oracle = bernoulli_losses([0.2, 0.5, 0.5], 6)
    res = run_uninformed(g, 3, 10, 400, oracle, 23)
    losses = oracle.rows(0, res.total_steps)
    policy_rows = losses[res.setup_steps:]
    realized, best_loss, regret = _policy_phase(res)
    assert best_loss == pytest.approx(policy_rows.sum(axis=0).min())
    assert np.allclose(regret, realized - best_loss)
    # full-timeline regret uses the best arm over setup + policy steps
    assert res.arm_loss[res.best_arm] == pytest.approx(losses.sum(axis=0).min())


def test_run_argument_validation():
    g = path_graph(3)
    oracle = bernoulli_losses([0.5, 0.5], 0)
    with pytest.raises(exp3.ArmsTooFewError):
        run_informed(g, 1, 10, bernoulli_losses([0.5], 0), 0)
    with pytest.raises(ValueError):
        run_informed(g, 2, 0, oracle, 0)
    with pytest.raises(ValueError):
        run_informed(g, 3, 10, oracle, 0)  # oracle arm count mismatch
    with pytest.raises(ValueError):
        run_uninformed(g, 2, 2, 100, oracle, 0)  # n_upper below node count


def test_short_horizon_warns():
    g = path_graph(3)
    oracle = bernoulli_losses([0.5] * 10, 1)
    with pytest.warns(RuntimeWarning):
        res = run_informed(g, 10, 50, oracle, 2)
    assert res.short_horizon


def test_short_horizon_warning_points_at_the_caller():
    # each entry point reports the warning at the line that called it, so
    # the default filter shows one warning per calling line
    g, oracle = path_graph(3), bernoulli_losses([0.5] * 10, 1)
    calls = {
        "run_informed": lambda: run_informed(g, 10, 5, oracle, 1),
        "run_informed_batch": lambda: run_informed_batch(g, 10, 5, [oracle], [1]),
        "run_uninformed": lambda: run_uninformed(g, 10, 3, 5, oracle, 1),
        "run_solo_exp3": lambda: run_solo_exp3(10, 5, oracle, 1),
        "run_lanes": lambda: run_lanes([solo_lane(10, oracle, 1)], 5),
    }
    for name, call in calls.items():
        with pytest.warns(RuntimeWarning, match="horizon 5") as record:
            call()
        assert [w.filename for w in record] == [__file__], name


def _logged_steps(sink) -> list[int]:
    return sorted({t for t, *_ in reference.log_records(sink.getvalue())})


# the kernel steps on to the block's end before it checks, so numpy may warn
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("seeds", [1, 2])
def test_kernel_raises_on_a_non_finite_estimate(monkeypatch, bad, seeds):
    # A loss table the oracle constructors would reject: the loss at step 3
    # makes the played arm's estimate non-finite.  The run raises before it
    # hashes or logs the block that holds step 3 (steps 3-4 of 2-step blocks).
    monkeypatch.setattr(simulate, "BATCH_ROWS", 2)
    table = np.full((6, 2), 0.5)
    oracles = [LossOracle(kind="matrix", arms=2, table=table)] * seeds
    table = table.copy()
    table[2] = bad
    oracles[-1] = LossOracle(kind="matrix", arms=2, table=table)
    sinks = [io.StringIO() for _ in range(seeds)]
    with pytest.raises(exp3.NonFiniteEstimateError):
        if seeds == 1:
            run_informed(path_graph(3), 2, 6, oracles[0], 4, log_sink=sinks[0])
        else:
            run_informed_batch(path_graph(3), 2, 6, oracles, [4, 5], log_sinks=sinks)
    assert [_logged_steps(sink) for sink in sinks] == [[1, 2]] * seeds


@pytest.mark.parametrize("seeds", [1, 2])
def test_kernel_raises_on_an_observed_arm_with_zero_probability(monkeypatch, seeds):
    # One agent, 2 arms, step size 20.  Step 1 plays arm 0 at loss 1, so arm
    # 0's log-weight falls to -40 and its probability to about 4e-18, which
    # 1 - (1 - p) rounds to an observation probability of 0.  Step 2 plays
    # arm 1; step 3's draw of 1e-18 lands in arm 0.  The run raises before
    # it hashes or logs the block that holds step 3.
    monkeypatch.setattr(simulate, "BATCH_ROWS", 2)
    monkeypatch.setattr(exp3, "learning_rate", lambda mass, arms, horizon: 20.0)
    draws = {4: [[0.1], [0.5], [1e-18]], 5: [[0.1], [0.5], [0.5]]}
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RiggedDraws(draws[seed]))
    oracle = matrix_losses(np.tile([1.0, 0.0], (6, 1)))
    one = build_graph(1, ())
    solo = Partition(arms=2, centers=(0,), center_of=(0,), origin_of=(0,), delay=(0,),
                     mass_m=(1,), mass_d=(0,))
    sinks = [io.StringIO() for _ in range(seeds)]
    with pytest.raises(exp3.ZeroObservationProbabilityError):
        if seeds == 1:
            run_informed(one, 2, 6, oracle, 4, log_sink=sinks[0], partition=solo)
        else:
            run_informed_batch(one, 2, 6, [oracle] * 2, [5, 4], solo, log_sinks=sinks)
    assert [_logged_steps(sink) for sink in sinks] == [[1, 2]] * seeds


def test_checkpoints_cover_run():
    g = path_graph(3)
    oracle = bernoulli_losses([0.5, 0.5], 1)
    res = run_informed(g, 2, 1000, oracle, 3)
    steps = [c[0] for c in res.checkpoints]
    assert steps[-1] == 1000
    assert len(steps) >= 250
    assert steps == sorted(steps)
    # the final snapshot is the final ledger
    _, realized, semi, arm = res.checkpoints[-1]
    assert np.array_equal(realized, res.realized_loss)
    assert np.array_equal(semi, res.semi_loss)
    assert np.array_equal(arm, res.arm_loss)
    # cumulative ledgers never decrease between snapshots
    for (t0, r0, s0, a0), (t1, r1, s1, a1) in zip(res.checkpoints, res.checkpoints[1:]):
        assert t0 < t1
        assert (r1 >= r0).all() and (s1 >= s0 - 1e-12).all() and (a1 >= a0).all()
    # identical rerun reproduces every snapshot exactly
    again = run_informed(g, 2, 1000, oracle, 3)
    for (t0, r0, s0, a0), (t1, r1, s1, a1) in zip(res.checkpoints, again.checkpoints):
        assert t0 == t1 and np.array_equal(r0, r1) and np.array_equal(s0, s1)


def _capped_star(arms):
    # 2,000 agents, one center: a snapshot holds 4,000 + arms ledger cells,
    # so CHECKPOINT_CELLS, not the horizon, spaces the snapshots
    g = star_graph(1999)
    return g, reference.centers_to_components(g, {0}, arms).to_partition()


def test_capped_snapshots_equal_reference():
    g, part = _capped_star(3)
    oracle = bernoulli_losses([0.3, 0.5, 0.7], 5)
    run = run_informed(g, 3, 600, oracle, 6, partition=part)
    assert [c[0] for c in run.checkpoints[:2]] == [10, 20]  # 600 // 256 alone gives 2
    reference.assert_same_run(run, reference.run_informed(g, 3, 600, oracle, 6, partition=part))


def test_snapshot_cells_per_seed_within_the_cap():
    # 654 steps: 65 snapshots of 4,003 cells fit the cap, and spacing them
    # ceil(654 * 4,003 / cap) = 10 steps apart would make 66.  Each seed's
    # snapshots equal its one-seed run's, whichever seeds share the call.
    g, part = _capped_star(3)
    oracles = [bernoulli_losses([0.3, 0.5, 0.7], 7 + i) for i in range(3)]
    batch = run_informed_batch(g, 3, 654, oracles, [8, 9, 10], part)
    for run, oracle, seed in zip(batch, oracles, (8, 9, 10)):
        cells = sum(r.size + s.size + a.size for _, r, s, a in run.checkpoints)
        assert simulate.CHECKPOINT_CELLS - 6 * 4003 < cells <= simulate.CHECKPOINT_CELLS
        assert run.checkpoints[-1][0] == 654
        reference.assert_same_run(run, run_informed(g, 3, 654, oracle, seed, partition=part))


def test_run_memory_does_not_grow_with_the_horizon():
    # Traced peak of a run at 8T steps against T steps, T = 512: the
    # checkpoints stay about 256 however long the run, and nothing else
    # the kernel keeps grows with T.  Copying every agent's distribution at
    # every step (11 agents, 10 arms) would add about 4 MB here.  An
    # untraced first run warms numpy's lazily built state up.
    g, arms, horizon = star_graph(10), 10, 512
    oracle = bernoulli_losses(np.linspace(0.2, 0.8, arms), 1)
    run_informed(g, arms, horizon, oracle, 2)
    peaks = []
    for steps in (horizon, 8 * horizon):
        tracemalloc.start()
        try:
            run_informed(g, arms, steps, oracle, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def test_solo_baseline():
    oracle = bernoulli_losses([0.3, 0.5, 0.5], 12)
    res = run_solo_exp3(3, 2000, oracle, 9)
    assert res.partition.node_count == 1
    assert reference.mass(res.partition, 0) == reference.OrderedMass(1, 0)
    assert np.isfinite(res.regret).all()


def test_sampler_never_plays_zero_arm_at_boundary():
    g = build_graph(2, [(0, 1)])
    oracle = matrix_losses(np.zeros((3, 3)))
    with pytest.warns(RuntimeWarning):  # horizon intentionally tiny
        res = run_informed(g, 3, 1, oracle, 0, partition=None)
        want = reference.run_informed(g, 3, 1, oracle, 0, record_distributions=True)
    # direct check on the fallback: rig a world-like row with a zero arm
    p = np.array([0.5, 0.0, 0.5])
    assert exp3.sample_action(p, 0.5) == 0
    assert exp3.sample_action(p, 0.5000001) == 2
    assert want.dist_history  # run completed
    reference.assert_same_run(res, want, each_step=True)


class _RiggedDraws:
    """Policy stream stand-in: serves preset uniform draws row by row, 0.5 after them."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.pos = 0

    def random(self, shape):
        out = np.full(shape, 0.5)
        take = self.rows[self.pos:self.pos + shape[0]]
        out[:len(take)] = take
        self.pos += shape[0]
        return out


@pytest.mark.filterwarnings("ignore:horizon")
def test_sampler_fallback_matches_sample_action(monkeypatch):
    # Two agents on an edge, center 0, arms 7: the uniform CDF ends at
    # 0.9999999999999998, so the largest draw below 1 lands past it.  A huge
    # mass makes the learning rate so large that every arm observed with a
    # positive loss drops to probability exactly 0 the next round; a draw of
    # 0.0 then counts a zero-probability arm 0.  Those cells take the fallback.
    arms, horizon = 7, 3
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(np.full(arms, 1.0 / arms))[-1] < top
    g = path_graph(2)
    part = Partition(arms=arms, centers=(0,), center_of=(0, 0), origin_of=(0, 0),
                     delay=(0, 1), mass_m=(10**12, 10**12), mass_d=(0, 1))
    table = np.outer(10.0 ** -np.arange(1, 2 * horizon, 2), np.arange(1, arms + 1))
    oracle = matrix_losses(table)  # distinct loss per arm and step
    # Fallback cells (seed, agent) by round: (11, 1); (11, 0) and (22, 0);
    # (22, 1).  None sits at the transpose of another, so a swapped batch
    # index shows.
    draws = {
        11: [[0.05, top], [0.0, 0.5], [0.9, 0.3]],
        22: [[0.05, 0.05], [0.0, 0.5], [0.9, 0.0]],
    }
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RiggedDraws(draws[seed]))
    sample_action = exp3.sample_action
    calls = []

    def spy(p, u):
        calls.append(float(u))
        return sample_action(p, u)

    monkeypatch.setattr(exp3, "sample_action", spy)
    singles = [reference.run_informed(g, arms, horizon, oracle, seed, partition=part,
                                      record_distributions=True) for seed in draws]
    assert sorted(calls) == [0.0, 0.0, 0.0, top]  # every rigged cell took the fallback
    calls.clear()
    kernel = [run_informed(g, arms, horizon, oracle, seed, partition=part) for seed in draws]
    assert sorted(calls) == [0.0, 0.0, 0.0, top]
    calls.clear()
    batch = run_informed_batch(g, arms, horizon, [oracle, oracle], list(draws), partition=part)
    assert sorted(calls) == [0.0, 0.0, 0.0, top]

    for (seed, rows), single, one, batched in zip(draws.items(), singles, kernel, batch):
        realized = np.zeros(2)
        for t in range(horizon):
            p = single.dist_history[t]
            played = [sample_action(p[v], rows[t][v]) for v in range(2)]
            realized += table[t][played]
        assert single.realized_loss.tobytes() == realized.tobytes(), seed
        for run in (one, batched):
            assert run.realized_loss.tobytes() == realized.tobytes(), seed
            assert run.digest == single.digest
            reference.assert_same_run(run, single, each_step=True)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 10**4), spread=st.sampled_from([0.0, 1.0, 36.0, 40.0, 745.0, 1e4, np.inf]),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(k=10**4, spread=1.0, share=0.0, seed=1)
@example(k=10**4, spread=36.0, share=0.5, seed=2)
@example(k=2, spread=np.inf, share=0.0, seed=3)
def test_last_cdf_entry_stays_above_the_fallback_floor(k, spread, share, seed):
    # Log-weights as an update leaves them (row max 0): a share of the arms at
    # 0 and the rest spread down to -spread, in eight rows at once as the
    # kernel's centers; and the uniform start.  The sampler's fallback is
    # tested only where a draw exceeds the floor, so no row's last CDF entry
    # may lie below it.
    rng = np.random.default_rng(seed)
    lw = np.where(rng.random((8, k)) < share, 0.0, -spread * (1.0 - rng.random((8, k))))
    lw[np.arange(8), rng.integers(0, k, 8)] = 0.0
    cdf = np.add.accumulate(exp3.probs_from_log_weights(lw), axis=1)
    floor = simulate._cdf_floor(k)
    assert cdf[:, -1].min() >= floor
    assert np.cumsum(np.full(k, 1.0 / k))[-1] >= floor


@pytest.mark.filterwarnings("ignore:horizon")
def test_fallback_on_rare_draws_inside_a_block_matches_reference(monkeypatch):
    # Two agents on an edge, center 0, 7 arms, 4-step blocks over 8 steps.
    # Step 1 charges arm 0 alone and both agents play it, so a huge learning
    # rate drops arm 0 to probability exactly 0 at the center from step 2,
    # and at the relay from step 3; no other loss, so the rest stay uniform.
    # At step 2 the relay still plays the uniform start, whose CDF ends at
    # 1 - 2^-52, so its draw of 1 - 2^-53 lies above every arm; at step 3 both
    # draws of 0 land on arm 0; at step 6 the center's draw of 1 - 2^-53 is
    # above the floor but within its CDF, and the relay's 0 lands on arm 0.
    # Those steps are inside their blocks.  Seed 5 draws no rare value.
    monkeypatch.setattr(simulate, "BATCH_ROWS", 4)
    arms, horizon, top = 7, 8, 1.0 - 2.0 ** -53
    g = path_graph(2)
    part = Partition(arms=arms, centers=(0,), center_of=(0, 0), origin_of=(0, 0),
                     delay=(0, 1), mass_m=(10**12, 10**12), mass_d=(0, 1))
    table = np.zeros((horizon, arms))
    table[0, 0] = 1.0
    oracle = matrix_losses(table)
    draws = {4: [[0.05, 0.05], [0.5, top], [0.0, 0.0], [0.5, 0.5], [0.5, 0.5], [top, 0.0]],
             5: [[0.05, 0.05]]}
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RiggedDraws(draws[seed]))
    sample_action, calls = exp3.sample_action, []

    def spy(p, u):
        calls.append(float(u))
        return sample_action(p, u)

    monkeypatch.setattr(exp3, "sample_action", spy)
    want = [reference.run_informed(g, arms, horizon, oracle, seed, partition=part,
                                   record_distributions=True) for seed in draws]
    assert sorted(calls) == [0.0, 0.0, 0.0, top]
    assert want[0].dist_history[1][1, 0] > 0.0 == want[0].dist_history[2][1, 0]
    for play in (lambda: [run_informed(g, arms, horizon, oracle, s, partition=part) for s in draws],
                 lambda: run_informed_batch(g, arms, horizon, [oracle] * 2, list(draws), part)):
        calls.clear()
        runs = play()
        assert sorted(calls) == [0.0, 0.0, 0.0, top]
        for run, one in zip(runs, want):
            assert run.digest == one.digest
            reference.assert_same_run(run, one, each_step=True)


def test_bound_helpers_are_plain_formulas():
    assert individual_bound(10.0, 10, 100_000) == pytest.approx(
        7 * math.sqrt(math.log(10) * 100_000)
    )
    assert degree_bound(11, 10, 100_000) == pytest.approx(
        12 * math.sqrt(math.log(10) * (1 + 10 / 11) * 100_000)
    )
    assert uninformed_degree_bound(2, 10, 22, 100_000) == pytest.approx(
        12 * (10 * math.log(100 * 22 * 100_000)
              + math.sqrt(math.log(10) * 6 * 100_000)) + 1
    )


def test_switch_adversary_full_run():
    g = path_graph(4)
    oracle = switching_losses([(0, 1), (300, 0)], 2)
    res = run_informed(g, 2, 600, oracle, 3)
    table = oracle.rows(0, 600)
    assert res.arm_loss[0] == pytest.approx(table[:, 0].sum())
    assert res.best_arm in (0, 1)


def _oracle_of_kind(kind, steps):
    return {
        "bernoulli": bernoulli_losses([0.3, 0.5, 0.7], 4),
        "switch": switching_losses([(0, 1), (250, 2), (700, 0)], 3),
        "matrix": matrix_losses(np.random.default_rng(4).random((steps, 3))),
    }[kind]


@pytest.mark.parametrize("kind", ["bernoulli", "switch", "matrix"])
def test_oracle_row_blocks_join_to_matrix(kind):
    steps = 1000
    oracle = _oracle_of_kind(kind, steps)
    cuts = [0, 1, 250, 250, 333, 701, steps]
    joined = np.concatenate([oracle.rows(a, b) for a, b in zip(cuts, cuts[1:])])
    whole = oracle.rows(0, steps)
    assert joined.dtype == whole.dtype and joined.shape == whole.shape
    assert joined.tobytes() == whole.tobytes()
    with pytest.raises(ValueError):
        oracle.rows(5, 4)


@pytest.mark.parametrize("kind", ["bernoulli", "switch", "matrix"])
@pytest.mark.parametrize("setup", [0, 37, 64, 130])
def test_oracle_stream_blocks_join_to_rows(kind, setup):
    # The kernel's reads: 64-row blocks of the warm-up, then of a policy
    # phase that starts at `setup` (mid-block unless a multiple of 64), with
    # a few random cuts besides.  Joined, the blocks equal rows bit for bit.
    steps = 1000
    oracle = _oracle_of_kind(kind, steps)
    cuts = sorted({0, steps, *range(0, setup, 64), *range(setup, steps, 64),
                   *np.random.default_rng(setup).integers(1, steps, 6).tolist()})
    read = oracle.stream(steps)
    joined = np.concatenate([read(b - a) for a, b in zip(cuts, cuts[1:])])
    whole = oracle.rows(0, steps)
    assert joined.dtype == whole.dtype and joined.shape == whole.shape
    assert joined.tobytes() == whole.tobytes()


def test_oracle_stream_checks_the_table_length():
    oracle = matrix_losses(np.zeros((5, 2)))
    assert oracle.stream(5)(5).shape == (5, 2)
    with pytest.raises(ValueError, match="loss table has 5 rows, run needs 6"):
        oracle.stream(6)


def _batch_oracles(kind, seeds, arms, steps):
    if kind == "bernoulli":
        return [bernoulli_losses(np.linspace(0.3, 0.7, arms), 60 + i) for i in range(seeds)]
    if kind == "switch":
        return [switching_losses([(0, i % arms), (steps // 2, arms - 1)], arms)
                for i in range(seeds)]
    return [matrix_losses(np.random.default_rng(60 + i).random((steps, arms)))
            for i in range(seeds)]


BATCH_CASES = [
    ("star", star_graph(6), 4, "bernoulli"),
    ("path", path_graph(6), 3, "switch"),
    ("random", random_connected_graph(12, 0.3, 5), 3, "matrix"),
]


@pytest.mark.parametrize("seeds", [1, 3])
@pytest.mark.parametrize("name,g,arms,kind", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
@pytest.mark.parametrize("block", [1024, 37])
def test_batch_runs_equal_per_seed_runs(monkeypatch, name, g, arms, kind, seeds, block):
    # 1101 steps: not a multiple of either block size, of the 1024-row draw
    # refill, nor of the checkpoint spacing, so the last step is a checkpoint of its own
    horizon = 1101
    monkeypatch.setattr(simulate, "BATCH_ROWS", block)
    oracles = _batch_oracles(kind, seeds, arms, horizon)
    policy_seeds = [300 + 7 * i for i in range(seeds)]
    batch = run_informed_batch(g, arms, horizon, oracles, policy_seeds)
    assert len(batch) == seeds
    for run, oracle, seed in zip(batch, oracles, policy_seeds):
        reference.assert_same_run(run, reference.run_informed(g, arms, horizon, oracle, seed))
    solo = run_lanes([solo_lane(arms, o, s) for o, s in zip(oracles, policy_seeds)], horizon)
    for run, oracle, seed in zip(solo, oracles, policy_seeds):
        reference.assert_same_run(run, reference.run_solo_exp3(arms, horizon, oracle, seed))


@pytest.mark.parametrize("name,g,arms,kind", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_uninformed_runs_equal_reference_runs(monkeypatch, name, g, arms, kind):
    # the warm-up phase takes several blocks, and the checkpoint spacing
    # follows setup + horizon, not the horizon alone
    horizon = 1101
    monkeypatch.setattr(simulate, "BATCH_ROWS", 37)
    for oracle, seed in zip(_batch_oracles(kind, 2, arms, 4000), (11, 12)):
        run = run_uninformed(g, arms, 2 * g.node_count, horizon, oracle, seed)
        assert run.setup_steps > 37
        want = reference.run_uninformed(g, arms, 2 * g.node_count, horizon, oracle, seed)
        reference.assert_same_run(run, want)


@pytest.mark.filterwarnings("ignore:horizon")
@pytest.mark.parametrize("case", ["solo", "edge-informed", "edge-uninformed", "arms-300", "mixed"])
def test_kernel_equals_reference_where_sum_order_shows(case):
    # Horizons of 2,304 steps and more space checkpoints 9 or more steps
    # apart, so each ledger sum runs over more than 8 steps: there numpy
    # sums a reduction over a lone contiguous axis pairwise, not step by
    # step.  One seed of the one-agent solo run and of a two-agent run have
    # the fewest cells per step.  With 300 arms, an action counted in 8 bits
    # would wrap (300 reads as 44).  The mixed case runs one-, two- and
    # four-agent lanes in one kernel call.
    oracle = bernoulli_losses(np.linspace(0.2, 0.8, 3), 90)
    if case == "solo":
        run, want = (f.run_solo_exp3(3, 3000, oracle, 91) for f in (simulate, reference))
    elif case == "edge-informed":
        run, want = (f.run_informed(path_graph(2), 3, 2400, oracle, 92) for f in (simulate, reference))
    elif case == "edge-uninformed":
        run, want = (f.run_uninformed(path_graph(2), 3, 4, 2400, oracle, 93)
                     for f in (simulate, reference))
        assert run.setup_steps > 0
    elif case == "mixed":
        edge, star = path_graph(2), star_graph(3)
        lanes = [solo_lane(3, oracle, 91), *(Lane(g, compute_centers_informed(g, 3), oracle,
                                                  np.random.default_rng(seed))
                                             for g, seed in ((edge, 92), (star, 97), (edge, 98)))]
        runs = run_lanes(lanes, 2400)
        wants = [reference.run_solo_exp3(3, 2400, oracle, 91),
                 *(reference.run_informed(g, 3, 2400, oracle, seed)
                   for g, seed in ((edge, 92), (star, 97), (edge, 98)))]
        for run, want in zip(runs, wants):
            reference.assert_same_run(run, want)
        run, want = runs[0], wants[0]
    else:
        means = np.random.default_rng(94).random(300)
        run, want = (f.run_informed(star_graph(3), 300, 60, bernoulli_losses(means, 95), 96)
                     for f in (simulate, reference))
    assert want.checkpoints[0][0] >= 9 or case == "arms-300"  # the checkpoint spacing
    reference.assert_same_run(run, want, each_step=case == "arms-300")


def _lane_graph(kind: str, n: int, seed: int):
    return build_graph(1, ()) if kind == "solo" else _small_graph(kind, n, seed)


@pytest.mark.filterwarnings("ignore:horizon")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    shapes=st.lists(st.tuples(st.sampled_from(["star", "path", "random", "solo"]),
                              st.integers(2, 7)), min_size=1, max_size=5),
    arms=st.integers(2, 4),
    horizon=st.integers(5, 60),
    setting=st.sampled_from(["informed", "uninformed"]),
    block=st.sampled_from([3, 37, simulate.BATCH_ROWS]),
    cells=st.sampled_from([9, simulate.BATCH_CELLS]),
)
# equal n side by side (one product over both lanes), then other sizes
@example(shapes=[("star", 4), ("path", 4), ("solo", 2), ("random", 6), ("solo", 2)], arms=3,
         horizon=40, setting="informed", block=37, cells=simulate.BATCH_CELLS)
@example(shapes=[("solo", 2), ("path", 5), ("path", 5), ("star", 3)], arms=2, horizon=30,
         setting="uninformed", block=3, cells=simulate.BATCH_CELLS)
def test_lanes_of_one_call_equal_their_runs_alone(shapes, arms, horizon, setting, block, cells):
    # Lanes of different sizes, the one-node graph's included, share kernel
    # calls (at 9 cells, several calls).  Each lane's result, log bytes and
    # audit messages equal its run alone and the reference's.  Losses of 5.0
    # and -3.0 make the audit fire, as in the test above.  Uninformed lanes
    # share n_upper, so their elections charge one setup length; a one-node
    # lane plays that many warm-up steps too.
    n_upper = 16
    setup = 0 if setting == "informed" else compute_centers_uninformed(
        path_graph(2), arms, n_upper, horizon, np.random.default_rng(0)).total_steps
    graphs = [_lane_graph(kind, n, i) for i, (kind, n) in enumerate(shapes)]
    oracles = []
    for i in range(len(shapes)):
        table = np.where(np.random.default_rng(i).random((setup + horizon, arms)) < 0.3, -3.0, 5.0)
        table[setup] = 5.0
        table.setflags(write=False)
        oracles.append(LossOracle(kind="matrix", arms=arms, table=table))

    def lane(i, sink):
        g, oracle, seed = graphs[i], oracles[i], 50 + 7 * i
        if g.node_count == 1:
            return dataclasses.replace(solo_lane(arms, oracle, seed), log_sink=sink, setup=setup)
        if setting == "uninformed":
            return uninformed_lane(g, arms, n_upper, horizon, oracle, seed, sink)
        return Lane(g, compute_centers_informed(g, arms), oracle, np.random.default_rng(seed), sink)

    logs = [[io.StringIO() for _ in shapes] for _ in range(3)]  # one call, alone, reference
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BATCH_ROWS", block)
        mp.setattr(simulate, "BATCH_CELLS", cells)
        runs = run_lanes([lane(i, sink) for i, sink in enumerate(logs[0])], horizon, debug=True)
        alone = [run_lanes([lane(i, sink)], horizon, debug=True)[0]
                 for i, sink in enumerate(logs[1])]
    for i, (run, one) in enumerate(zip(runs, alone)):
        ln = lane(i, logs[2][i])
        want = reference.run_lane(ln.graph, ln.partition, ln.oracle, ln.rng, setup, horizon,
                                  debug=True, log_sink=ln.log_sink, exhaustions=ln.exhaustions)
        assert run.setup_steps == setup and run.debug_violations
        reference.assert_same_run(run, one, each_step=True)  # setup + horizon < 512
        reference.assert_same_run(run, want, each_step=True)
        assert logs[0][i].getvalue() == logs[1][i].getvalue() == logs[2][i].getvalue()
        assert logs[0][i].getvalue().count("\n") == 1 + setup + horizon


def _lanes(*specs):
    """A lane per (graph, setting) on one oracle, K = 3; "solo" for a solo lane."""
    oracle, lanes = bernoulli_losses([0.3, 0.6, 0.5], 4), []
    for i, (g, setting) in enumerate(specs):
        if setting == "solo":
            lanes.append(solo_lane(3, oracle, i))
        elif setting == "informed":
            lanes.append(Lane(g, compute_centers_informed(g, 3), oracle, np.random.default_rng(i)))
        else:
            lanes.append(uninformed_lane(g, 3, g.node_count, 200, oracle, i))
    return lanes


@pytest.mark.parametrize("specs", [
    [(None, "solo")],  # one node: no neighbor entries
    [(star_graph(6), "informed")],
    [(path_graph(9), "uninformed")],  # relays at delay 1 and beyond
    [(path_graph(4), "informed"), (star_graph(3), "uninformed"), (None, "solo")],
])
def test_layout_of_segments_origins_and_runs(specs):
    lanes = _lanes(*specs)
    lay = simulate._layout(lanes, 200)
    sizes = [lane.partition.node_count for lane in lanes]
    assert (lay.arms, lay.sizes, lay.off) == (3, sizes, np.cumsum([0, *sizes]).tolist())
    # centers lane by lane in partition order, each segment its closed neighborhood
    want = [(l, c) for l, lane in enumerate(lanes) for c in lane.partition.centers.tolist()]
    assert list(zip(lay.center_lane.tolist(), lay.nodes.tolist())) == want
    ends = [*lay.starts[1:].tolist(), lay.members.size]
    for i, (l, c) in enumerate(want):
        (indptr, indices), o = lanes[l].graph.csr, lay.off[l]
        hood = sorted([c, *indices[indptr[c]:indptr[c + 1]].tolist()])
        assert lay.centers[i] == o + c
        assert lay.members[lay.starts[i]:ends[i]].tolist() == [o + x for x in hood]
        part = lanes[l].partition
        mass = mass_value(int(part.mass_m[c]), int(part.mass_d[c]))
        assert lay.rates[i, 0] == exp3.learning_rate(mass, 3, 200)
    assert lay.rates.shape == (len(want), 1)
    for l, lane in enumerate(lanes):
        part, o, g = lane.partition, lay.off[l], lane.graph
        for v in range(part.node_count):
            origin, role = int(lay.origin[o + v]) - o, int(lay.roles[l][v])
            if part.center_of[v] == v:
                assert (origin, role) == (v, 0)
            else:
                assert origin == part.origin_of[v] and g.are_adjacent(np.array([v]),
                                                                      np.array([origin]))[0]
                assert role == (1 if part.delay[v] == 1 else 2)
    # maximal runs of equal sizes, covering the lanes in order
    assert [l for l0, l1 in lay.runs for l in range(l0, l1)] == list(range(len(lanes)))
    assert all(len({sizes[l] for l in range(l0, l1)}) == 1 for l0, l1 in lay.runs)
    assert all(sizes[l1 - 1] != sizes[l1] for _, l1 in lay.runs[:-1])


def test_run_lanes_packs_consecutive_lanes_into_kernel_calls(monkeypatch):
    # at 10 agents a call: lanes of 4, 4 | 4 | 12 (alone, past the cap) | 1
    calls = []

    def spy(lanes, *args):
        calls.append([lane.partition.node_count for lane in lanes])
        return batch(lanes, *args)

    batch = simulate._run_batch
    monkeypatch.setattr(simulate, "_run_batch", spy)
    monkeypatch.setattr(simulate, "BATCH_CELLS", 10)
    oracle = bernoulli_losses([0.3, 0.6], 4)
    graphs = [path_graph(4), star_graph(3), path_graph(4), path_graph(12)]
    lanes = [Lane(g, compute_centers_informed(g, 2), oracle, np.random.default_rng(i))
             for i, g in enumerate(graphs)] + [solo_lane(2, oracle, 4)]
    runs = run_lanes(lanes, 30)
    assert calls == [[4, 4], [4], [12], [1]]
    for run, g, seed in zip(runs, graphs, range(4)):
        reference.assert_same_run(run, reference.run_informed(g, 2, 30, oracle, seed))
    reference.assert_same_run(runs[-1], reference.run_solo_exp3(2, 30, oracle, 4))


def test_lanes_sharing_an_oracle_read_it_once_per_block(monkeypatch):
    # lanes 1, 2 and 3 share one oracle object and lane 0 has its own: each
    # 16-step block reads two oracles' streams, and every lane plays its own losses
    made, reads, stream = [], [], simulate.LossOracle.stream

    def spy(oracle, stop):
        made.append((oracle.seed, stop))
        read = stream(oracle, stop)

        def spied(m):
            reads.append((oracle.seed, m))
            return read(m)
        return spied

    monkeypatch.setattr(simulate.LossOracle, "stream", spy)
    monkeypatch.setattr(simulate, "BATCH_ROWS", 16)
    shared, own = bernoulli_losses([0.3, 0.6, 0.5], 4), bernoulli_losses([0.7, 0.2, 0.5], 5)
    cases = [(path_graph(5), own), (path_graph(4), shared), (star_graph(3), shared)]
    lanes = [Lane(g, compute_centers_informed(g, 3), oracle, np.random.default_rng(i))
             for i, (g, oracle) in enumerate(cases)] + [solo_lane(3, shared, 9)]
    runs = run_lanes(lanes, 64)
    assert made == [(5, 64), (4, 64)]  # one stream per oracle
    assert reads == [(5, 16), (4, 16)] * 4  # then two reads a block
    for i, (run, (g, oracle)) in enumerate(zip(runs, cases)):
        reference.assert_same_run(run, reference.run_informed(g, 3, 64, oracle, i))
    reference.assert_same_run(runs[-1], reference.run_solo_exp3(3, 64, shared, 9))


def test_run_lanes_checks_its_lanes():
    oracle = bernoulli_losses([0.3, 0.6], 4)
    g = path_graph(4)
    with pytest.raises(ValueError, match="need at least one lane"):
        run_lanes([], 30)
    with pytest.raises(ValueError, match=r"lanes need one setup length, got \[0, 5\]"):
        run_lanes([solo_lane(2, oracle, 1), dataclasses.replace(solo_lane(2, oracle, 2), setup=5)],
                  30)
    with pytest.raises(ValueError, match="oracle is over 2 arms, run uses 3"):
        run_lanes([solo_lane(3, bernoulli_losses([0.3, 0.6, 0.5], 4), 1), solo_lane(2, oracle, 1)],
                  30)
    bad = _relay_partition(2, origin_of=(0, 0, 0, 2))  # node 2 is two hops from 0
    with pytest.raises(ValueError, match="relay 2 copies node 0, which is not its neighbor"):
        run_lanes([solo_lane(2, oracle, 1), Lane(g, bad, oracle, np.random.default_rng(1))], 30)


def test_snapshot_spacing_follows_each_lanes_own_size():
    # In one call, the 2,000-agent star's snapshots are capped (every 11
    # steps, as in the test above) while the 3-node path's come every 2
    # steps, as each would alone.
    g, part = _capped_star(3)
    oracle = bernoulli_losses([0.3, 0.5, 0.7], 7)
    small = path_graph(3)
    lanes = [Lane(g, part, oracle, np.random.default_rng(8)),
             Lane(small, compute_centers_informed(small, 3), oracle, np.random.default_rng(9))]
    big, path = run_lanes(lanes, 654)
    assert [c[0] for c in big.checkpoints[:2]] == [11, 22]
    assert [c[0] for c in path.checkpoints[:2]] == [2, 4]
    reference.assert_same_run(big, run_informed(g, 3, 654, oracle, 8, partition=part))
    reference.assert_same_run(path, reference.run_informed(small, 3, 654, oracle, 9))


def test_solo_short_horizon_equals_reference():
    # 5 steps is below 3^2 ln 3: a solo run warns and flags the short
    # horizon as the graph runs do, and so does the reference
    oracle = bernoulli_losses([0.2, 0.5, 0.8], 97)
    with pytest.warns(RuntimeWarning, match="horizon 5"):
        run = run_solo_exp3(3, 5, oracle, 98)
    with pytest.warns(RuntimeWarning, match="horizon 5"):
        want = reference.run_solo_exp3(3, 5, oracle, 98)
    assert run.short_horizon
    reference.assert_same_run(run, want)


def test_batch_takes_a_given_partition_and_checks_arguments():
    g = path_graph(5)
    part = reference.centers_to_components(g, {2}, 3).to_partition()
    oracles = [bernoulli_losses([0.2, 0.5, 0.8], 1), bernoulli_losses([0.2, 0.5, 0.8], 2)]
    batch = run_informed_batch(g, 3, 300, oracles, [5, 6], partition=part)
    for run, oracle, seed in zip(batch, oracles, (5, 6)):
        assert run.partition is part
        want = reference.run_informed(g, 3, 300, oracle, seed, partition=part)
        reference.assert_same_run(run, want)
    with pytest.raises(ValueError):
        run_informed_batch(g, 3, 300, oracles, [5])  # one seed short
    with pytest.raises(ValueError):
        run_informed_batch(g, 3, 300, [], [])
    with pytest.raises(ValueError):
        run_lanes([solo_lane(2, oracles[0], 5)], 300)  # oracle arm count mismatch
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        run_lanes([solo_lane(3, oracle, 5) for oracle in oracles], 0)
    with pytest.raises(exp3.ArmsTooFewError):
        run_informed_batch(g, 1, 300, oracles, [5, 6])


@pytest.mark.parametrize("sinks", [1, 3])
def test_batch_needs_one_log_sink_per_seed(sinks):
    # unchecked, one sink ends in an IndexError after seed 0's lines are written,
    # and a third sink is never written to
    logs = [io.StringIO() for _ in range(sinks)]
    oracles = [bernoulli_losses([0.3, 0.6], 1), bernoulli_losses([0.3, 0.6], 2)]
    with pytest.raises(ValueError, match=f"need one log sink per seed, got {sinks} for 2 seeds"):
        run_informed_batch(star_graph(3), 2, 20, oracles, [5, 6], log_sinks=logs)
    assert [log.getvalue() for log in logs] == [""] * sinks


# one center at either end of a 4-node path, so its relays sit 1, 2 and 3 steps away
_PATH_END = {0: dict(centers=(0,), center_of=(0, 0, 0, 0), origin_of=(0, 0, 1, 2),
                     delay=(0, 1, 2, 3), mass_m=(2, 2, 2, 2), mass_d=(0, 1, 2, 3)),
             3: dict(centers=(3,), center_of=(3, 3, 3, 3), origin_of=(1, 2, 3, 3),
                     delay=(3, 2, 1, 0), mass_m=(2, 2, 2, 2), mass_d=(3, 2, 1, 0))}


@pytest.mark.parametrize("center, column", [(0, "mass_m"), (0, "delay"), (0, "origin_of"),
                                            (3, "mass_m")])
def test_partition_rejects_a_short_column(center, column):
    # unchecked, the short mass_m runs (only the center's entry is read) and the other
    # cases fail inside numpy, with an IndexError or a broadcast error
    cols = dict(_PATH_END[center])
    assert run_informed(path_graph(4), 2, 5, bernoulli_losses([0.3, 0.6], 1), 0,
                        partition=Partition(arms=2, **cols)).partition.node_count == 4
    cols[column] = cols[column][:2]
    with pytest.raises(ValueError, match=f"column {column} has 2 entries, center_of has 4"):
        run_informed(path_graph(4), 2, 5, bernoulli_losses([0.3, 0.6], 1), 0,
                     partition=Partition(arms=2, **cols))


@pytest.mark.parametrize("m, d", [(-1, 0), (2, -1)])
def test_run_rejects_a_negative_center_mass(m, d):
    cols = dict(_PATH_END[0], mass_m=(m, 2, 2, 2), mass_d=(d, 1, 2, 3))
    with pytest.raises(ValueError, match="mass fields must be non-negative"):
        run_informed(path_graph(4), 2, 5, bernoulli_losses([0.3, 0.6], 1), 0,
                     partition=Partition(arms=2, **cols))


def _small_graph(kind: str, n: int, seed: int):
    if kind == "star":
        return star_graph(n - 1)
    if kind == "path":
        return path_graph(n)
    return random_connected_graph(n, 0.4, seed)


def _reweighed(part: Partition, mass: str, order: str) -> Partition:
    """The partition with every mass as elected, inflated 10^6-fold, or decayed e^5-fold,
    and its centers as elected (ascending) or read from a document that lists them in
    descending order."""
    if order == "descending":
        part = partition_from_json({**partition_to_json(part), "centers": part.centers[::-1]})
    if mass == "inflated":
        return dataclasses.replace(part, mass_m=tuple(m * 10**6 for m in part.mass_m))
    if mass == "decayed":
        return dataclasses.replace(part, mass_d=tuple(d + 30 for d in part.mass_d))
    return part


@pytest.mark.filterwarnings("ignore:horizon")
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["star", "path", "random"]),
    n=st.integers(2, 7),
    graph_seed=st.integers(0, 50),
    arms=st.integers(2, 4),
    horizon=st.integers(5, 70),
    setting=st.sampled_from(["informed", "uninformed"]),
    seeds=st.sampled_from([1, 3]),
    mass=st.sampled_from(["elected", "inflated", "decayed"]),
    order=st.sampled_from(["ascending", "descending"]),
    block=st.sampled_from([3, 37, simulate.BATCH_ROWS]),
    cells=st.sampled_from([14, simulate.BATCH_CELLS]),
)
# short horizons, where only the decayed masses bring the floor and ceiling checks in
@example(kind="path", n=5, graph_seed=0, arms=4, horizon=10, setting="informed", seeds=1,
         mass="decayed", order="ascending", block=37, cells=simulate.BATCH_CELLS)
@example(kind="star", n=4, graph_seed=0, arms=3, horizon=6, setting="uninformed", seeds=3,
         mass="decayed", order="ascending", block=3, cells=simulate.BATCH_CELLS)
# three seeds in kernel calls of 14 // 7 = 2 seeds and 1
@example(kind="random", n=7, graph_seed=3, arms=2, horizon=30, setting="informed", seeds=3,
         mass="elected", order="ascending", block=37, cells=14)
# centers [4, 1] and [6, 3, 0]: the kernel's segments follow the partition's order
@example(kind="path", n=7, graph_seed=0, arms=3, horizon=20, setting="informed", seeds=3,
         mass="elected", order="descending", block=37, cells=simulate.BATCH_CELLS)
@example(kind="path", n=7, graph_seed=0, arms=3, horizon=20, setting="uninformed", seeds=1,
         mass="elected", order="descending", block=37, cells=simulate.BATCH_CELLS)
def test_kernel_equals_reference_with_debug_and_log(kind, n, graph_seed, arms, horizon, setting,
                                                    seeds, mass, order, block, cells):
    # Every field, checkpoint, played distribution, log byte and audit message
    # of the kernel equals the per-seed reference simulator.  Losses of 5.0 and
    # -3.0, past what matrix_losses accepts, make the audit fire: at the first
    # policy round every distribution is uniform, so a center's p*estimate on
    # its own arm is at least 5/arms > 1.  Inflated masses give rates so large
    # that arms drop to probability 0; decayed ones give rates small enough
    # for the one-step floor and ceiling checks, short horizons included.  At
    # 14 cells an informed batch splits into kernel calls of 14 // N seeds.
    # A caller's partition may list its centers in any order; descending
    # ones must give the reference's results too.
    g = _small_graph(kind, n, graph_seed)
    n_upper = 2 * g.node_count
    policy_seeds = [40 + 9 * i for i in range(seeds)]
    setups = [
        compute_centers_uninformed(g, arms, n_upper, horizon, np.random.default_rng(s)).total_steps
        if setting == "uninformed" else 0
        for s in policy_seeds
    ]
    oracles = []
    for i, setup in enumerate(setups):
        rng = np.random.default_rng(graph_seed + 100 * i)
        table = np.where(rng.random((setup + horizon, arms)) < 0.3, -3.0, 5.0)
        table[setup] = 5.0
        table.setflags(write=False)
        oracles.append(LossOracle(kind="matrix", arms=arms, table=table))
    kernel_logs = [io.StringIO() for _ in policy_seeds]
    reference_logs = [io.StringIO() for _ in policy_seeds]
    options = dict(debug=True)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BATCH_ROWS", block)
        mp.setattr(simulate, "BATCH_CELLS", cells)
        if setting == "informed":
            part = _reweighed(compute_centers_informed(g, arms), mass, order)
            runs = run_informed_batch(g, arms, horizon, oracles, policy_seeds, part,
                                      log_sinks=kernel_logs, **options)
            expected = [
                reference.run_informed(g, arms, horizon, oracle, seed, partition=part,
                                       log_sink=sink, **options)
                for oracle, seed, sink in zip(oracles, policy_seeds, reference_logs)
            ]
        else:
            def elect(*args):
                election = compute_centers_uninformed(*args)
                return dataclasses.replace(election,
                                           partition=_reweighed(election.partition, mass, order))

            mp.setattr(simulate, "compute_centers_uninformed", elect)
            mp.setattr(reference, "compute_centers_uninformed", elect)
            runs = [
                run_uninformed(g, arms, n_upper, horizon, oracle, seed, log_sink=sink, **options)
                for oracle, seed, sink in zip(oracles, policy_seeds, kernel_logs)
            ]
            expected = [
                reference.run_uninformed(g, arms, n_upper, horizon, oracle, seed, log_sink=sink,
                                         **options)
                for oracle, seed, sink in zip(oracles, policy_seeds, reference_logs)
            ]

    for run, want, log, want_log, setup in zip(runs, expected, kernel_logs, reference_logs,
                                               setups):
        reference.assert_same_run(run, want, each_step=True)  # setup + horizon < 512
        assert run.setup_steps == setup
        assert run.debug_violations
        assert log.getvalue() == want_log.getvalue()
        assert log.getvalue().count("\n") == 1 + setup + horizon


# losses whose repr is easy to get wrong: signed zeros, subnormals and the
# smallest normal, both sides of repr's switch to exponent form below 1e-4,
# and sums that round
EDGE_LOSSES = (-0.0, 0.0, 5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
               9.999999999999999e-06, 1e-05, 1.0000000000000002e-05, 9.999999999999999e-05,
               0.0001, 0.00010000000000000002, 0.1 + 0.2, 0.7 + 0.1, 1 / 3, 0.9999999999999999,
               1.0)


@pytest.mark.filterwarnings("ignore:horizon")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["star", "path", "random"]),
    n=st.integers(2, 7),
    arms=st.integers(2, 4),
    horizon=st.integers(5, 60),
    setting=st.sampled_from(["informed", "uninformed"]),
    seeds=st.sampled_from([1, 3]),
    values=st.lists(st.sampled_from(EDGE_LOSSES) | st.floats(0.0, 1.0), min_size=1, max_size=6),
    block=st.sampled_from([3, 7, 37]),
    cells=st.integers(64, 4096),
)
@example(kind="path", n=5, arms=3, horizon=40, setting="uninformed", seeds=1,
         values=[5e-324, 1e-05, 0.1 + 0.2], block=37, cells=1000)
@example(kind="star", n=4, arms=2, horizon=30, setting="informed", seeds=3,
         values=[9.999999999999999e-05, 0.0001], block=7, cells=700)
def test_log_equals_reference_on_float_edge_cases(kind, n, arms, horizon, setting, seeds, values,
                                                  block, cells):
    # Every loss at step 1 is -0.0 and at step 2 is 0.0, so the first log
    # write holds both whenever it spans two steps; the log must still print
    # each as json.dumps does.  At these budgets an audit holds at most 64
    # center-arm cells (or one step's), so it ends mid-block.
    g = _small_graph(kind, n, 7)
    n_upper = 2 * g.node_count
    policy_seeds = [70 + 3 * i for i in range(seeds)]
    oracles = []
    for i, p_seed in enumerate(policy_seeds):
        setup = (compute_centers_uninformed(g, arms, n_upper, horizon,
                                            np.random.default_rng(p_seed)).total_steps
                 if setting == "uninformed" else 0)
        rng = np.random.default_rng(i)
        table = np.array(values)[rng.integers(0, len(values), (setup + horizon, arms))]
        table[0], table[1] = -0.0, 0.0
        oracles.append(matrix_losses(table))
    kernel_logs = [io.StringIO() for _ in policy_seeds]
    reference_logs = [io.StringIO() for _ in policy_seeds]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BATCH_ROWS", block)
        mp.setattr(simulate, "BATCH_CELLS", cells)
        if setting == "informed":
            runs = run_informed_batch(g, arms, horizon, oracles, policy_seeds, debug=True,
                                      log_sinks=kernel_logs)
        else:
            runs = [run_uninformed(g, arms, n_upper, horizon, oracle, p_seed, debug=True,
                                   log_sink=sink)
                    for oracle, p_seed, sink in zip(oracles, policy_seeds, kernel_logs)]
    for run, oracle, p_seed, log, want_log in zip(runs, oracles, policy_seeds, kernel_logs,
                                                   reference_logs):
        if setting == "informed":
            want = reference.run_informed(g, arms, horizon, oracle, p_seed, debug=True,
                                          log_sink=want_log)
        else:
            want = reference.run_uninformed(g, arms, n_upper, horizon, oracle, p_seed,
                                            debug=True, log_sink=want_log)
        reference.assert_same_run(run, want)
        assert log.getvalue() == want_log.getvalue()
        step1, step2 = log.getvalue().splitlines()[1:3]
        assert step1.startswith('{"t": 1, "loss": [' + ", ".join(["-0.0"] * arms) + "]")
        assert step2.startswith('{"t": 2, "loss": [' + ", ".join(["0.0"] * arms) + "]")


# The oracle constructors take losses in [0, 1] only, and a policy step
# raises on a non-finite estimate, but a hand-built table's warm-up losses
# reach the log as they are: json.dumps prints them, as the reference does.
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_log_prints_non_finite_warm_up_losses_as_json_dumps():
    g, arms, n_upper, horizon = path_graph(4), 2, 8, 20
    setup = compute_centers_uninformed(g, arms, n_upper, horizon,
                                       np.random.default_rng(3)).total_steps
    table = np.full((setup + horizon, arms), 0.5)
    table[0], table[1] = (np.inf, -np.inf), (np.nan, -0.0)
    oracle = LossOracle(kind="matrix", arms=arms, table=table)
    log, want_log = io.StringIO(), io.StringIO()
    run = run_uninformed(g, arms, n_upper, horizon, oracle, 3, debug=True, log_sink=log)
    want = reference.run_uninformed(g, arms, n_upper, horizon, oracle, 3, debug=True,
                                    log_sink=want_log)
    reference.assert_same_run(run, want)
    assert log.getvalue() == want_log.getvalue()
    step1, step2 = log.getvalue().splitlines()[1:3]
    assert step1.startswith('{"t": 1, "loss": [Infinity, -Infinity], ')
    assert step2.startswith('{"t": 2, "loss": [NaN, -0.0], ')


def _relay_partition(arms: int, origin_of=(0, 0, 1, 2)) -> Partition:
    """Path 0-1-2-3 with center 0; node v copies origin_of[v]."""
    return Partition(arms=arms, centers=(0,), center_of=(0, 0, 0, 0), origin_of=origin_of,
                     delay=(0, 1, 2, 3), mass_m=(4, 4, 4, 4), mass_d=(0, 1, 2, 3))


def _informed_both(g, arms, part):
    oracle = bernoulli_losses([0.4, 0.6, 0.5][:arms], 1)
    yield lambda: run_informed(g, arms, 50, oracle, 2, partition=part)
    yield lambda: run_informed_batch(g, arms, 50, [oracle, oracle], [2, 3], partition=part)


def test_caller_partition_fits_the_graph():
    part = _relay_partition(2)
    for run in _informed_both(path_graph(4), 2, part):
        run()  # a valid partition runs
    for run in _informed_both(path_graph(5), 2, part):
        with pytest.raises(ValueError, match="partition covers 4 nodes"):
            run()


def test_caller_partition_fits_the_arms():
    part = _relay_partition(2)
    for run in _informed_both(path_graph(4), 3, part):
        with pytest.raises(ValueError, match="partition is over 2 arms"):
            run()


def test_caller_partition_relays_copy_a_neighbor():
    part = _relay_partition(2, origin_of=(0, 0, 0, 2))  # node 2 is two hops from 0
    for run in _informed_both(path_graph(4), 2, part):
        with pytest.raises(ValueError, match="relay 2 copies node 0"):
            run()


def test_caller_partition_lists_the_self_claiming_nodes():
    claims = dataclasses.replace(_relay_partition(2), center_of=(0, 0, 2, 0))  # 2 is unlisted
    twice = dataclasses.replace(_relay_partition(2), centers=(0, 0))
    for part in (claims, twice):
        for run in _informed_both(path_graph(4), 2, part):
            with pytest.raises(ValueError, match="are not the self-claiming nodes"):
                run()


def test_caller_partition_relays_copy_one_delay_earlier():
    part = _relay_partition(2, origin_of=(0, 0, 3, 2))  # relays 2 and 3 copy each other
    for run in _informed_both(path_graph(4), 2, part):
        with pytest.raises(ValueError, match="relay 2 copies node 3, not one delay step earlier"):
            run()
