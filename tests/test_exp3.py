import io
import json
import math

import numpy as np
import pytest
import reference

from coopmab.exp3 import (
    ArmsTooFewError,
    ZeroObservationProbabilityError,
    estimated_loss_vector,
    exp3_update_raw,
    learning_rate,
    probs_from_log_weights,
    sample_action,
)
from coopmab.graph import path_graph
from coopmab.simulate import matrix_losses, run_informed


def test_learning_rate_frozen_values():
    # 0.5 * sqrt(ln 2 / 2), evaluated once by hand and pinned
    assert learning_rate(1.0, 2, 1) == pytest.approx(0.29435250562886867, abs=1e-15)
    assert round(learning_rate(1.0, 2, 1), 4) == 0.2944
    assert learning_rate(10.0, 10, 100_000) == pytest.approx(0.002399262956094041, abs=1e-18)


def test_learning_rate_simplification_and_regime():
    for k, t in [(2, 50), (5, 1000), (10, 100_000)]:
        assert learning_rate(float(k), k, t) == pytest.approx(0.5 * math.sqrt(math.log(k) / t))
    # rate stays below 1/(2K) once the horizon is long enough
    for k in (2, 3, 10, 40):
        t = math.ceil(k * k * math.log(k))
        for mass in (2.0, k / 2, float(k)):
            assert learning_rate(mass, k, t) <= 1.0 / (2 * k) + 1e-12


def test_learning_rate_rejections():
    with pytest.raises(ArmsTooFewError):
        learning_rate(1.0, 1, 10)
    with pytest.raises(ValueError):
        learning_rate(1.0, 2, 0)
    with pytest.raises(ValueError):
        learning_rate(0.0, 2, 10)


def test_fresh_state_is_uniform():
    p = probs_from_log_weights(np.zeros(4))
    assert np.array_equal(p, np.full(4, 0.25))
    assert reference.is_distribution(p)
    # rows of a batch are normalized one by one
    rows = probs_from_log_weights(np.zeros((3, 2, 5)))
    assert np.array_equal(rows, np.full((3, 2, 5), 0.2))


def test_update_identity_and_monotonicity():
    lw = np.zeros(3)
    same = exp3_update_raw(lw, 0.05, np.zeros(3))
    assert np.allclose(probs_from_log_weights(same), probs_from_log_weights(lw))

    p = probs_from_log_weights(exp3_update_raw(np.zeros(2), 0.1, np.array([0.7, 0.0])))
    assert p[0] < 0.5 < p[1]


def test_update_frozen_example():
    # two arms, rate 0.1, estimates (1, 0): p(0) = e^-0.1 / (e^-0.1 + 1)
    lw = exp3_update_raw(np.zeros(2), 0.1, np.array([1.0, 0.0]))
    p = probs_from_log_weights(lw)
    assert p[0] == pytest.approx(0.47502081252106, abs=1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # a batch takes one rate per row and renormalizes each row on its own
    batch = exp3_update_raw(
        np.array([[0.0, 0.0], [-3.0, -2.0]]), np.array([[0.1], [0.0]]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    assert batch[1].tolist() == [-1.0, 0.0]
    assert probs_from_log_weights(batch)[0].tolist() == p.tolist()


def test_buffered_calls_equal_allocating_calls():
    # the kernel's call form: (seeds, centers, arms) arrays, one rate per
    # center, the update in place and both steps writing into scratch; the
    # results equal the allocating calls bit for bit
    rng = np.random.default_rng(5)
    shape = (4, 50, 10)
    lw = rng.normal(size=shape)
    lw -= lw.max(axis=2, keepdims=True)
    rates = rng.uniform(0.01, 0.5, size=(shape[1], 1))
    est = np.where(rng.random(shape) < 0.5, rng.random(shape) * 4.0, 0.0)
    want = exp3_update_raw(lw, rates, est)
    want_p = probs_from_log_weights(want)
    work, row, p = np.empty(shape), np.empty(shape[:2] + (1,)), np.empty(shape)
    assert exp3_update_raw(lw, rates, est, lw, work, row) is lw
    assert probs_from_log_weights(lw, p, work, row) is p
    assert lw.tobytes() == want.tobytes() and p.tobytes() == want_p.tobytes()


def test_update_rejections():
    # a non-finite estimate is the kernel's to catch, once per block
    # (test_simulate.py::test_kernel_raises_on_a_non_finite_estimate)
    with pytest.raises(ValueError):
        exp3_update_raw(np.zeros(3), 0.05, np.zeros(4))


def test_total_weight_never_grows():
    # losses are non-negative, so sum of p * exp(-rate * est) stays <= 1
    rng = np.random.default_rng(3)
    rate, lw = 0.02, np.zeros(6)
    for _ in range(200):
        est = np.where(rng.random(6) < 0.4, rng.random(6) * 3.0, 0.0)
        p = probs_from_log_weights(lw)
        assert float(np.sum(p * np.exp(-rate * est))) <= 1.0 + 1e-12
        lw = exp3_update_raw(lw, rate, est)
        assert reference.is_distribution(probs_from_log_weights(lw))


def test_update_sandwich_on_random_states():
    # 400 random steps (seed 0): the
    # next distribution is valid, total weight never grows, each arm stays
    # within the one-step floor (1 - rate*est)*p and ceiling 2p at rate <=
    # 1/(2*arms), with estimates kept at p*estimate <= 1 as in real runs.
    rng = np.random.default_rng(0)
    for _ in range(400):
        k = int(rng.integers(2, 12))
        rate = 0.5 / (k * float(rng.uniform(1.0, 4.0)))
        lw = rng.normal(0.0, 1.0, size=k)
        lw -= lw.max()
        p = probs_from_log_weights(lw)
        est = rng.random(k) * np.where(rng.random(k) < 0.5, 0.0, 1.0) / np.maximum(p, 0.2)
        est = np.minimum(est, 1.0 / np.maximum(p, 1e-9))
        q = probs_from_log_weights(exp3_update_raw(lw, rate, est))
        assert reference.is_distribution(q), k
        assert float(np.dot(p, np.exp(-rate * est))) <= 1.0 + 1e-12
        assert not np.any(p * est > 1.0 + 1e-9)
        lo = (1.0 - rate * est) * p
        assert not np.any(q < lo * (1 - 1e-9) - 1e-15), k
        assert not np.any(q > 2.0 * p * (1 + 1e-9) + 1e-15), k


def test_observation_probability():
    # Round 1 on an edge: both agents play uniform, so the center sees an arm
    # with probability 1 - (1/2)^2 = 3/4 and its round-2 distribution divides
    # the observed loss by 3/4.
    sink, oracle = io.StringIO(), matrix_losses([[1.0, 0.0]] * 3)
    res = run_informed(path_graph(2), 2, 3, oracle, 0, log_sink=sink)
    ref = reference.run_informed(path_graph(2), 2, 3, oracle, 0, record_distributions=True)
    reference.assert_same_run(res, ref, each_step=True)
    c = res.partition.centers[0]
    played = set(json.loads(sink.getvalue().splitlines()[1])["action"])  # at step 1
    assert 0 in played  # pinned by the seed: arm 0's loss is seen
    rate = learning_rate(reference.mass_value(res.partition, c), 2, 3)
    want = math.exp(-rate / 0.75) / (math.exp(-rate / 0.75) + 1.0)
    assert ref.dist_history[1][c][0] == pytest.approx(want, abs=1e-15)


def test_estimated_loss_cases():
    est = estimated_loss_vector(
        np.array([1.0, 1.0, 0.3]), np.array([0.5, 0.5, 0.75]), np.array([True, False, True])
    )
    assert est[0] == pytest.approx(2.0)
    assert est[1] == 0.0
    assert est[2] == pytest.approx(0.4)
    with pytest.raises(ZeroObservationProbabilityError):
        estimated_loss_vector(np.array([0.5]), np.array([0.0]), np.array([True]))


def test_estimated_loss_vector_matches_formula():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        losses = rng.random(k)
        probs = rng.uniform(0.05, 1.0, size=k)
        observed = rng.random(k) < 0.5
        vec = estimated_loss_vector(losses, probs, observed)
        for i in range(k):
            want = losses[i] / probs[i] if observed[i] else 0.0
            assert vec[i] == pytest.approx(want, abs=1e-15)


def test_estimated_loss_vector_zero_prob_guard():
    with pytest.raises(ZeroObservationProbabilityError):
        estimated_loss_vector(
            np.array([0.5, 0.5]), np.array([0.0, 0.5]), np.array([True, False])
        )
    # zero prob on an unobserved arm is fine: estimate is 0 there
    out = estimated_loss_vector(
        np.array([0.5, 0.5]), np.array([0.0, 0.5]), np.array([False, True])
    )
    assert out[0] == 0.0 and out[1] == pytest.approx(1.0)


def test_sample_action_examples():
    point = np.array([0.0, 0.0, 0.0, 1.0])
    for draw in (0.0, 0.3, 0.999):
        assert sample_action(point, draw) == 3
    uniform = np.full(4, 0.25)
    assert sample_action(uniform, 0.70) == 2
    assert sample_action(uniform, 0.0) == 0
    # a draw exactly on a CDF boundary resolves to the lower arm
    assert sample_action(uniform, 0.25) == 0
    assert sample_action(uniform, 0.25 + 1e-12) == 1


def test_sample_action_skips_zero_arms():
    p = np.array([0.5, 0.0, 0.5])
    seen = {sample_action(p, d) for d in np.linspace(0.0, 0.999, 1000)}
    assert seen == {0, 2}
    assert sample_action(p, 0.5) == 0  # boundary lands on the lower positive arm


def test_sample_action_frequencies():
    # 2e4 seeded uniform draws:
    # the zero arm is never played, and each arm's frequency lies within 5
    # standard errors of its probability
    p = np.array([0.1, 0.0, 0.5, 0.4])
    draws = np.random.default_rng(1).random(20_000)
    counts = np.bincount([sample_action(p, float(d)) for d in draws], minlength=4)
    freq = counts / counts.sum()
    assert counts[1] == 0
    assert np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / counts.sum()) + 1e-12), freq


def test_sample_action_rejections():
    with pytest.raises(ArmsTooFewError):
        sample_action(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        sample_action(np.full(3, 1 / 3), 1.0)
    with pytest.raises(ValueError):
        sample_action(np.full(3, 1 / 3), -0.1)
