"""Test oracle: the per-seed simulator the seed-batched kernel replaced.

``SimWorld`` advances one run one global step at a time, with a Python
loop over centers; ``run_informed``, ``run_uninformed`` and
``run_solo_exp3`` drive it one seed per call.  The code is kept as it was
in ``coopmab.simulate`` so that the differential tests in
``test_simulate.py`` compare the kernel with an independent implementation
rather than with itself.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO

import numpy as np

from coopmab import exp3
from coopmab.graph import Graph
from coopmab.partition import Partition, compute_centers_informed, compute_centers_uninformed
from coopmab.simulate import ROLE_CODES, LossOracle, RunResult, _check_run_args, _result


class SimWorld:
    """Mutable state of one run; advance_round() moves it one global step."""

    def __init__(
        self,
        graph: Graph | None,
        partition: Partition,
        losses: np.ndarray,
        policy_rng: np.random.Generator,
        debug: bool = False,
        check_weight_drift: bool = True,
        log_sink: IO | None = None,
        record_distributions: bool = False,
    ):
        self.partition = partition
        n = partition.node_count
        self.node_count = n
        self.arms = partition.arms
        self.losses = losses
        self.policy_rng = policy_rng
        self.debug = debug
        self.check_weight_drift = check_weight_drift
        self.log_sink = log_sink
        self.record_distributions = record_distributions

        self.t = 1  # next global step, 1-based
        self.dists = np.full((n, self.arms), 1.0 / self.arms)
        self.origin_idx = np.array(
            [partition.origin_of[v] if partition.center_of[v] != v else v for v in range(n)]
        )
        self.roles = np.array([ROLE_CODES[partition.role(v)] for v in range(n)], dtype=np.int64)
        self.role_names = [partition.role(v) for v in range(n)]
        horizon_left = losses.shape[0]
        self.center_members: list[tuple[int, np.ndarray]] = []
        self.center_logw: dict[int, np.ndarray] = {}
        self.center_rate: dict[int, float] = {}
        for c in partition.centers:
            nbrs = np.array(graph.closed_neighborhood(c)) if graph is not None else np.array([c])
            self.center_members.append((c, nbrs))
            self.center_rate[c] = exp3.learning_rate(partition.mass_value(c), self.arms, horizon_left)
            self.center_logw[c] = np.zeros(self.arms)

        self.realized = np.zeros(n)
        self.semi = np.zeros(n)
        self.arm_cum = np.zeros(self.arms)
        self._rows = np.arange(n)
        self._draw_buf = np.empty((0, n))
        self._draw_ptr = 0
        self.violations: list[str] = []
        self.checkpoints: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        self.checkpoint_every = max(1, losses.shape[0] // 256)
        self.dist_history: list[np.ndarray] = []

        self.digest = hashlib.blake2b(digest_size=8)
        header = np.array([n, self.arms, losses.shape[0]], dtype=np.int64)
        self.digest.update(header.tobytes())
        self.digest.update(self.roles.tobytes())

    def set_center_horizon(self, horizon: int) -> None:
        """Re-tune center learning rates for the true policy horizon."""
        for c in self.partition.centers:
            self.center_rate[c] = exp3.learning_rate(
                self.partition.mass_value(c), self.arms, horizon
            )
            self.center_logw[c] = np.zeros(self.arms)

    def _charge(self, actions: np.ndarray, loss_row: np.ndarray, semi_add: np.ndarray) -> None:
        charged = loss_row[actions]
        self.realized += charged
        self.semi += semi_add
        self.arm_cum += loss_row
        # one update, same byte stream: step, then actions as int64, then losses
        self.digest.update(
            np.int64(self.t).tobytes()
            + actions.astype(np.int64, copy=False).tobytes()
            + charged.tobytes()
        )
        if self.log_sink is not None:
            for v in range(self.node_count):
                self.log_sink.write(
                    json.dumps(
                        {
                            "t": self.t,
                            "v": v,
                            "action": int(actions[v]),
                            "loss": float(charged[v]),
                            "role": self.role_names[v],
                        }
                    )
                    + "\n"
                )
        if self.t % self.checkpoint_every == 0 or self.t == self.losses.shape[0]:
            self.checkpoints.append(
                (self.t, self.realized.copy(), self.semi.copy(), self.arm_cum.copy())
            )

    def warmup_round(self) -> None:
        """Uniform i.i.d. play while the partition protocol is still running."""
        n, k = self.node_count, self.arms
        actions = self.policy_rng.integers(0, k, size=n)
        loss_row = self.losses[self.t - 1]
        semi_add = np.full(n, loss_row.mean())
        self._charge(actions, loss_row, semi_add)
        self.t += 1

    def sample_actions(self) -> np.ndarray:
        """Inverse-CDF sample per agent, one uniform draw each, arms ascending."""
        p = self.dists
        n, k = p.shape
        if self._draw_ptr >= self._draw_buf.shape[0]:
            # block fill gives the same stream as one random(n) call per round
            self._draw_buf = self.policy_rng.random((1024, n))
            self._draw_ptr = 0
        draws = self._draw_buf[self._draw_ptr]
        self._draw_ptr += 1
        cdf = np.cumsum(p, axis=1)
        actions = (cdf < draws[:, None]).sum(axis=1)
        clipped = np.minimum(actions, k - 1)
        suspect = (actions >= k) | (p[self._rows, clipped] <= 0.0)
        if suspect.any():
            for v in np.flatnonzero(suspect):
                actions[v] = exp3.sample_action(p[v], float(draws[v]))
        return actions

    def advance_round(self) -> None:
        p = self.dists
        if self.record_distributions:
            self.dist_history.append(p.copy())
        actions = self.sample_actions()
        loss_row = self.losses[self.t - 1]
        self._charge(actions, loss_row, p @ loss_row)

        new_dists = p[self.origin_idx]  # relays stage the origin's round-t distribution
        for c, nbrs in self.center_members:
            sub = p[nbrs]
            observe = 1.0 - np.prod(1.0 - sub, axis=0)
            observed = np.zeros(self.arms, dtype=bool)
            observed[actions[nbrs]] = True
            est = exp3.estimated_loss_vector(loss_row, observe, observed)
            # the exponential-weights step, written out here rather than
            # taken from coopmab.exp3, so the kernel is checked against it
            if not np.isfinite(est).all():
                raise exp3.NonFiniteEstimateError("loss estimates must be finite")
            lw = self.center_logw[c] - self.center_rate[c] * est
            lw -= lw.max()
            w = np.exp(lw)
            p_next = w / w.sum()
            if self.debug:
                self._audit_center(c, p[c], p_next, est, self.center_rate[c], observe)
            self.center_logw[c] = lw
            new_dists[c] = p_next
        self.dists = new_dists
        self.t += 1

    def _audit_center(self, c, p_now, p_next, est, rate, observe) -> None:
        tol = 1e-9
        if np.any(observe <= 0.0):
            # only a problem if the arm was actually estimated
            bad = np.flatnonzero((est != 0.0) & (observe <= 0.0))
            if bad.size:
                self.violations.append(f"t={self.t} center {c}: estimate with zero observe prob")
        per_arm = p_now * est
        if np.any(per_arm > 1.0 + tol):
            a = int(per_arm.argmax())
            self.violations.append(
                f"t={self.t} center {c}: p*estimate = {per_arm[a]:.12f} > 1 on arm {a}"
            )
        if not exp3.is_distribution(p_next, 1e-12):
            self.violations.append(f"t={self.t} center {c}: update left an invalid distribution")
        if self.check_weight_drift and rate <= 0.5 / self.arms + 1e-15:
            lo = (1.0 - rate * est) * p_now
            if np.any(p_next < lo * (1.0 - tol) - 1e-15):
                a = int((lo - p_next).argmax())
                self.violations.append(
                    f"t={self.t} center {c}: arm {a} fell below one-step floor "
                    f"({p_next[a]:.12e} < {lo[a]:.12e})"
                )
            hi = 2.0 * p_now
            if np.any(p_next > hi * (1.0 + tol) + 1e-15):
                a = int((p_next - hi).argmax())
                self.violations.append(
                    f"t={self.t} center {c}: arm {a} above one-step ceiling "
                    f"({p_next[a]:.12e} > {hi[a]:.12e})"
                )



def _finish(world: SimWorld, setting, horizon, setup, n_upper, oracle, p_seed,
            snapshot, exhaustions=0, short=False) -> RunResult:
    return _result(setting, world.partition, world.realized, world.semi, world.arm_cum,
                   world.digest.hexdigest(), world.checkpoints, horizon, setup, n_upper,
                   oracle, p_seed, snapshot, violations=world.violations,
                   dist_history=world.dist_history, exhaustions=exhaustions, short=short)


def run_informed(
    g: Graph,
    arms: int,
    horizon: int,
    oracle: LossOracle,
    policy_seed: int,
    debug: bool = False,
    log_sink: IO | None = None,
    record_distributions: bool = False,
    partition: Partition | None = None,
) -> RunResult:
    """Simulate with the graph known in advance: partitioning costs no steps."""
    short = _check_run_args(g, arms, horizon, oracle)
    if partition is None:
        partition = compute_centers_informed(g, arms).component_map.to_partition()
    losses = oracle.rows(0, horizon)
    world = SimWorld(
        g,
        partition,
        losses,
        np.random.default_rng(policy_seed),
        debug=debug,
        check_weight_drift=not short,
        log_sink=log_sink,
        record_distributions=record_distributions,
    )
    snapshot = (world.realized.copy(), world.arm_cum.copy(), world.semi.copy())
    for _ in range(horizon):
        world.advance_round()
    return _finish(world, "informed", horizon, 0, None, oracle, policy_seed, snapshot,
                   short=short)


def run_uninformed(
    g: Graph,
    arms: int,
    n_upper: int,
    horizon: int,
    oracle: LossOracle,
    policy_seed: int,
    debug: bool = False,
    log_sink: IO | None = None,
    record_distributions: bool = False,
) -> RunResult:
    """Simulate the full uninformed protocol: elect centers while playing uniform.

    The policy RNG stream is consumed in a fixed order: first the election
    protocol's draws, then one uniform action per agent per setup step, then
    the policy phase.  Losses accrue from step 1; regret is reported against
    the best fixed arm over the whole played timeline (policy-phase-only
    variant included in the result).
    """
    short = _check_run_args(g, arms, horizon, oracle)
    rng = np.random.default_rng(policy_seed)
    election = compute_centers_uninformed(g, arms, n_upper, horizon, rng)
    partition = election.final_map.to_partition()
    setup = election.total_steps
    losses = oracle.rows(0, setup + horizon)
    world = SimWorld(
        g,
        partition,
        losses,
        rng,
        debug=debug,
        check_weight_drift=not short,
        log_sink=log_sink,
        record_distributions=record_distributions,
    )
    world.set_center_horizon(horizon)
    for _ in range(setup):
        world.warmup_round()
    assert world.t - 1 == setup, "warm-up step accounting drifted"
    snapshot = (world.realized.copy(), world.arm_cum.copy(), world.semi.copy())
    for _ in range(horizon):
        world.advance_round()
    exhaustions = sum(1 for call in election.luby_calls if call.result.exhausted)
    return _finish(world, "uninformed", horizon, setup, n_upper, oracle, policy_seed,
                   snapshot, exhaustions=exhaustions, short=short)


def _solo_partition(arms: int) -> Partition:
    """The one-agent partition the solo baselines run on."""
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    return Partition(
        arms=arms,
        centers=(0,),
        center_of=(0,),
        origin_of=(0,),
        delay=(0,),
        mass_m=(1,),
        mass_d=(0,),
    )


def run_solo_exp3(
    arms: int, horizon: int, oracle: LossOracle, policy_seed: int
) -> RunResult:
    """Baseline: one agent, no neighbors, importance weights from its own play."""
    solo = _solo_partition(arms)
    if oracle.arms != arms:
        raise ValueError(f"oracle is over {oracle.arms} arms, run uses {arms}")
    losses = oracle.rows(0, horizon)
    world = SimWorld(None, solo, losses, np.random.default_rng(policy_seed))
    snapshot = (world.realized.copy(), world.arm_cum.copy(), world.semi.copy())
    for _ in range(horizon):
        world.advance_round()
    return _finish(world, "solo", horizon, 0, None, oracle, policy_seed, snapshot)
