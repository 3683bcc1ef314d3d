"""Synchronous simulation of cooperative bandit play against oblivious losses.

Timing model, per global step t: every agent plays its round-t distribution,
losses land, and messages carrying (action, loss, distribution actually
played at t) reach all neighbors at the end of the step.  Centers fold the
neighborhood's round-t distributions into importance-weighted estimates and
update weights, producing their round-(t+1) distribution; every other agent
stages its origin's round-t distribution to play at t+1.  Losses come from
an oracle that is a pure function of (adversary seed, t, arm), so no policy
can influence them.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from . import exp3
from .graph import Graph, independence_number
from .partition import (
    Partition,
    compute_centers_informed,
    compute_centers_uninformed,
)

ROLE_CODES = {"center": 0, "adjacent": 1, "simple": 2}


@dataclass(frozen=True)
class LossOracle:
    """Oblivious loss process: the full matrix depends only on its own seed."""

    kind: str
    arms: int
    seed: int = 0
    means: tuple[float, ...] | None = None
    table: np.ndarray | None = None
    switches: tuple[tuple[int, int], ...] | None = None

    def matrix(self, steps: int) -> np.ndarray:
        """Losses for global steps 1..steps, shape (steps, arms), values in [0, 1].

        Regenerated from scratch on every call: the first rows are identical
        no matter how many steps are requested.
        """
        return self.rows(0, steps)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Losses for global steps start+1..stop, byte-equal to matrix(stop)[start:]."""
        if not 0 <= start <= stop:
            raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
        steps = stop - start
        if self.kind == "bernoulli":
            rng = np.random.default_rng(self.seed)
            # PCG64 spends one 64-bit output per double: skip the earlier rows
            rng.bit_generator.advance(start * self.arms)
            draws = rng.random((steps, self.arms))
            return (draws < np.asarray(self.means)).astype(float)
        if self.kind == "matrix":
            if self.table.shape[0] < stop:
                raise ValueError(
                    f"loss table has {self.table.shape[0]} rows, run needs {stop}"
                )
            return np.array(self.table[start:stop], dtype=float)
        if self.kind == "switch":
            favored = np.zeros(steps, dtype=np.int64)
            for first, arm in self.switches:
                if first < stop:
                    favored[max(first - start, 0):] = arm
            out = np.ones((steps, self.arms))
            out[np.arange(steps), favored] = 0.0
            return out
        raise ValueError(f"unknown oracle kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "bernoulli":
            return "bernoulli:" + ",".join(f"{m:g}" for m in self.means)
        if self.kind == "matrix":
            return f"matrix:{self.table.shape[0]}x{self.table.shape[1]}"
        return "switch:" + ",".join(f"arm{a}@{s}" for s, a in self.switches)


def bernoulli_losses(means: Sequence[float], seed: int) -> LossOracle:
    means = tuple(float(m) for m in means)
    if len(means) < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 means, got {len(means)}")
    if any(not 0.0 <= m <= 1.0 for m in means):
        raise ValueError(f"means must lie in [0, 1], got {means}")
    return LossOracle(kind="bernoulli", arms=len(means), seed=seed, means=means)


def matrix_losses(table) -> LossOracle:
    arr = np.array(table, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"loss table must be steps x arms with arms >= 2, got {arr.shape}")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("loss table entries must lie in [0, 1]")
    arr.setflags(write=False)
    return LossOracle(kind="matrix", arms=arr.shape[1], table=arr)


def switching_losses(switches: Sequence[tuple[int, int]], arms: int) -> LossOracle:
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    sw = sorted((int(s), int(a)) for s, a in switches)
    if not sw or sw[0][0] != 0:
        raise ValueError("first switch must start at step 0")
    for _, arm in sw:
        if not 0 <= arm < arms:
            raise ValueError(f"switch arm {arm} outside 0..{arms - 1}")
    return LossOracle(kind="switch", arms=arms, switches=tuple(sw))


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
            lw = exp3.exp3_update_raw(self.center_logw[c], self.center_rate[c], est)
            p_next = exp3.probs_from_log_weights(lw)
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


@dataclass
class RunResult:
    """Outcome ledger of one simulation."""

    setting: str
    node_count: int
    arms: int
    horizon: int
    setup_steps: int
    total_steps: int
    n_upper: int | None
    partition: Partition | None
    adversary: str
    adversary_seed: int
    policy_seed: int
    realized_loss: np.ndarray
    semi_loss: np.ndarray
    arm_loss: np.ndarray
    best_arm: int
    best_arm_loss: float
    regret: np.ndarray
    semi_regret: np.ndarray
    policy_realized_loss: np.ndarray
    policy_semi_loss: np.ndarray
    policy_arm_loss: np.ndarray
    policy_best_arm: int
    policy_best_arm_loss: float
    policy_regret: np.ndarray
    policy_semi_regret: np.ndarray
    digest: str
    checkpoints: list = field(repr=False, default_factory=list)
    debug_violations: list[str] = field(default_factory=list)
    luby_budget_exhaustions: int = 0
    short_horizon: bool = False
    dist_history: list = field(repr=False, default_factory=list)


def _finish(world: SimWorld, setting, horizon, setup, n_upper, oracle, p_seed,
            snapshot, exhaustions=0, short=False) -> RunResult:
    return _result(setting, world.partition, world.realized, world.semi, world.arm_cum,
                   world.digest.hexdigest(), world.checkpoints, horizon, setup, n_upper,
                   oracle, p_seed, snapshot, violations=world.violations,
                   dist_history=world.dist_history, exhaustions=exhaustions, short=short)


def _result(setting, partition, realized, semi, arm_loss, digest, checkpoints, horizon,
            setup, n_upper, oracle, p_seed, snapshot, violations=None, dist_history=None,
            exhaustions=0, short=False) -> RunResult:
    realized_0, arm_0, semi_0 = snapshot
    best = int(arm_loss.argmin())  # argmin's first-hit rule = lowest-index tie-break
    best_loss = float(arm_loss[best])
    pol_realized = realized - realized_0
    pol_semi = semi - semi_0
    pol_arm = arm_loss - arm_0
    pol_best = int(pol_arm.argmin())
    pol_best_loss = float(pol_arm[pol_best])
    return RunResult(
        setting=setting,
        node_count=partition.node_count,
        arms=partition.arms,
        horizon=horizon,
        setup_steps=setup,
        total_steps=setup + horizon,
        n_upper=n_upper,
        partition=partition,
        adversary=oracle.describe(),
        adversary_seed=int(oracle.seed),
        policy_seed=p_seed,
        realized_loss=realized,
        semi_loss=semi,
        arm_loss=arm_loss,
        best_arm=best,
        best_arm_loss=best_loss,
        regret=realized - best_loss,
        semi_regret=semi - best_loss,
        policy_realized_loss=pol_realized,
        policy_semi_loss=pol_semi,
        policy_arm_loss=pol_arm,
        policy_best_arm=pol_best,
        policy_best_arm_loss=pol_best_loss,
        policy_regret=pol_realized - pol_best_loss,
        policy_semi_regret=pol_semi - pol_best_loss,
        digest=digest,
        checkpoints=checkpoints,
        debug_violations=[] if violations is None else violations,
        luby_budget_exhaustions=exhaustions,
        short_horizon=short,
        dist_history=[] if dist_history is None else dist_history,
    )


def _check_run_args(g: Graph, arms: int, horizon: int, oracle: LossOracle) -> bool:
    if g.node_count < 2:
        raise ValueError(f"need at least 2 agents, got {g.node_count}")
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if oracle.arms != arms:
        raise ValueError(f"oracle is over {oracle.arms} arms, run uses {arms}")
    short = horizon < arms * arms * math.log(arms)
    if short:
        warnings.warn(
            f"horizon {horizon} is below arms^2*ln(arms); regret guarantees do not apply",
            RuntimeWarning,
            stacklevel=3,
        )
    return short


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
    losses = oracle.matrix(horizon)
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
    losses = oracle.matrix(setup + horizon)
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
    losses = oracle.matrix(horizon)
    world = SimWorld(None, solo, losses, np.random.default_rng(policy_seed))
    snapshot = (world.realized.copy(), world.arm_cum.copy(), world.semi.copy())
    for _ in range(horizon):
        world.advance_round()
    return _finish(world, "solo", horizon, 0, None, oracle, policy_seed, snapshot)


BATCH_ROWS = 1024  # steps per block of losses, policy draws and digest records
BATCH_CELLS = 1 << 18  # at most this many seed-agent-steps per block


def _run_batch(
    graph: Graph | None,
    partition: Partition,
    horizon: int,
    oracles: Sequence[LossOracle],
    policy_seeds: Sequence[int],
    setting: str,
    short: bool = False,
) -> list[RunResult]:
    """Play one run per (oracle, policy seed) on a shared partition, all seeds each round.

    The arithmetic of SimWorld.advance_round on (seeds, agents, arms) arrays,
    reduced in the same order, so every seed's result is bit-identical to
    its own SimWorld run.  Losses and policy draws are read, and digest
    records hashed, one block of steps at a time.
    """
    seeds, n, k = len(oracles), partition.node_count, partition.arms
    rngs = [np.random.default_rng(s) for s in policy_seeds]
    origin_idx = np.array(
        [partition.origin_of[v] if partition.center_of[v] != v else v for v in range(n)]
    )
    roles = np.array([ROLE_CODES[partition.role(v)] for v in range(n)], dtype=np.int64)
    header = np.array([n, k, horizon], dtype=np.int64).tobytes() + roles.tobytes()
    digests = [hashlib.blake2b(header, digest_size=8) for _ in range(seeds)]
    record = np.dtype([("t", np.int64), ("a", np.int64, (n,)), ("c", np.float64, (n,))])
    centers = []
    for c in partition.centers:
        nbrs = np.array(graph.closed_neighborhood(c)) if graph is not None else np.array([c])
        rate = exp3.learning_rate(partition.mass_value(c), k, horizon)
        centers.append((c, nbrs, rate))
    logw = [np.zeros((seeds, k)) for _ in centers]

    dists = np.full((seeds, n, k), 1.0 / k)
    realized = np.zeros((seeds, n))
    semi = np.zeros((seeds, n))
    arm_cum = np.zeros((seeds, k))
    checkpoints: list[list] = [[] for _ in range(seeds)]
    every = max(1, horizon // 256)
    seed_col = np.arange(seeds)[:, None]
    agent_row = np.arange(n)[None, :]
    row_offset = seed_col * k  # flat index of each seed's loss row in a (seeds, arms) block
    block = max(1, min(BATCH_ROWS, BATCH_CELLS // (seeds * n)))

    for start in range(0, horizon, block):
        stop = min(start + block, horizon)
        losses = np.empty((stop - start, seeds, k))
        draws = np.empty((stop - start, seeds, n))
        for s in range(seeds):
            losses[:, s] = oracles[s].rows(start, stop)
            # row-major fill: the same stream SimWorld reads 1024 rows at a time
            draws[:, s] = rngs[s].random((stop - start, n))
        actions_blk = np.empty((stop - start, seeds, n), dtype=np.int64)
        charged_blk = np.empty((stop - start, seeds, n))
        for j in range(stop - start):
            t = start + j + 1
            p = dists
            u = draws[j]
            cdf = np.cumsum(p, axis=2)
            actions = np.sum(cdf < u[:, :, None], axis=2, out=actions_blk[j])
            clipped = np.minimum(actions, k - 1)
            suspect = (actions >= k) | (p[seed_col, agent_row, clipped] <= 0.0)
            if suspect.any():
                for s, v in zip(*np.nonzero(suspect)):
                    actions[s, v] = exp3.sample_action(p[s, v], float(u[s, v]))
            loss_row = losses[j]
            charged = np.take(loss_row, row_offset + actions, out=charged_blk[j])
            realized += charged
            semi += np.matmul(p, loss_row[:, :, None])[:, :, 0]  # p @ loss_row per seed
            arm_cum += loss_row
            if t % every == 0 or t == horizon:
                for s in range(seeds):
                    checkpoints[s].append(
                        (t, realized[s].copy(), semi[s].copy(), arm_cum[s].copy())
                    )

            new_dists = p[:, origin_idx]
            for i, (c, nbrs, rate) in enumerate(centers):
                observe = 1.0 - np.prod(1.0 - p[:, nbrs], axis=1)
                observed = np.zeros((seeds, k), dtype=bool)
                observed[seed_col, actions[:, nbrs]] = True
                est = exp3.estimated_loss_vector(loss_row, observe, observed)
                # exp3_update_raw and probs_from_log_weights, row by row
                if not np.isfinite(est).all():
                    raise exp3.NonFiniteEstimateError("loss estimates must be finite")
                lw = logw[i] - rate * est
                lw -= lw.max(axis=1, keepdims=True)
                w = np.exp(lw)
                new_dists[:, c] = w / w.sum(axis=1, keepdims=True)
                logw[i] = lw
            dists = new_dists

        for s in range(seeds):
            rec = np.empty(stop - start, dtype=record)
            rec["t"] = np.arange(start + 1, stop + 1)
            rec["a"] = actions_blk[:, s]
            rec["c"] = charged_blk[:, s]
            digests[s].update(rec.tobytes())  # the bytes SimWorld hashes step by step

    zero_n, zero_k = np.zeros(n), np.zeros(k)  # ledgers at the policy phase's start
    return [
        _result(setting, partition, realized[s], semi[s], arm_cum[s], digests[s].hexdigest(),
                checkpoints[s], horizon, 0, None, oracles[s], policy_seeds[s],
                (zero_n, zero_k, zero_n), short=short)
        for s in range(seeds)
    ]


def _check_batch(arms: int, oracles: Sequence[LossOracle], policy_seeds: Sequence[int]) -> None:
    if len(oracles) != len(policy_seeds) or not oracles:
        raise ValueError(
            f"need one oracle per policy seed, got {len(oracles)} and {len(policy_seeds)}"
        )
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    for oracle in oracles:
        if oracle.arms != arms:
            raise ValueError(f"oracle is over {oracle.arms} arms, run uses {arms}")


def run_informed_batch(
    g: Graph,
    arms: int,
    horizon: int,
    oracles: Sequence[LossOracle],
    policy_seeds: Sequence[int],
    partition: Partition | None = None,
) -> list[RunResult]:
    """run_informed for each (oracle, policy seed) pair, on one election, seeds in lockstep.

    Each result equals run_informed(g, arms, horizon, oracle, seed,
    partition=partition) bit for bit; the batch only shares the per-round
    numpy calls between seeds.
    """
    _check_batch(arms, oracles, policy_seeds)
    short = _check_run_args(g, arms, horizon, oracles[0])
    if partition is None:
        partition = compute_centers_informed(g, arms).component_map.to_partition()
    return _run_batch(g, partition, horizon, oracles, policy_seeds, "informed", short)


def run_solo_exp3_batch(
    arms: int, horizon: int, oracles: Sequence[LossOracle], policy_seeds: Sequence[int]
) -> list[RunResult]:
    """run_solo_exp3 for each (oracle, policy seed) pair, seeds in lockstep."""
    _check_batch(arms, oracles, policy_seeds)
    return _run_batch(None, _solo_partition(arms), horizon, oracles, policy_seeds, "solo")


@dataclass
class AgentReportRow:
    agent: int
    role: str
    closed_degree: int
    mass_m: int
    mass_d: int
    delay: int
    realized_regret: float
    semi_regret: float
    bound_center: float | None
    bound_individual: float
    bound_degree: float


@dataclass
class RegretReport:
    rows: list[AgentReportRow]
    mean_regret: float
    mean_semi_regret: float
    harmonic_degree_sum: float
    alpha: int | None
    alpha_reference: float | None
    caro_wei_ok: bool | None

    def lines(self) -> list[str]:
        out = [
            f"{'agent':>5} {'role':>8} {'|N(v)|':>6} {'mass':>10} {'delay':>5} "
            f"{'regret':>12} {'semi':>12} {'bound7':>12} {'bound12':>14}"
        ]
        for r in self.rows:
            out.append(
                f"{r.agent:>5} {r.role:>8} {r.closed_degree:>6} "
                f"({r.mass_m:>3},{r.mass_d:>3}) {r.delay:>5} "
                f"{r.realized_regret:>12.2f} {r.semi_regret:>12.2f} "
                f"{r.bound_individual:>12.1f} {r.bound_degree:>14.1f}"
            )
        out.append(
            f"mean regret {self.mean_regret:.2f}, mean semi {self.mean_semi_regret:.2f}, "
            f"sum 1/|N(v)| = {self.harmonic_degree_sum:.4f}"
        )
        if self.alpha is not None:
            out.append(
                f"independence number {self.alpha}, average-regret reference "
                f"{self.alpha_reference:.1f}, harmonic sum within alpha: {self.caro_wei_ok}"
            )
        return out


def individual_bound(mass_value: float, arms: int, horizon: int) -> float:
    """7 * sqrt(ln(arms) * (arms / mass) * horizon): per-agent guarantee."""
    return 7.0 * math.sqrt(math.log(arms) * (arms / mass_value) * horizon)


def center_bound(mass_value: float, arms: int, horizon: int) -> float:
    """4 * sqrt(ln(arms) * (arms / mass) * horizon): tighter form at centers."""
    return 4.0 * math.sqrt(math.log(arms) * (arms / mass_value) * horizon)


def degree_bound(closed_degree: int, arms: int, horizon: int) -> float:
    """12 * sqrt(ln(arms) * (1 + arms/|N(v)|) * horizon): degree-only form."""
    return 12.0 * math.sqrt(math.log(arms) * (1.0 + arms / closed_degree) * horizon)


def uninformed_degree_bound(closed_degree: int, arms: int, n_upper: int, horizon: int) -> float:
    """Degree-only form plus the price of electing centers online."""
    setup_price = arms * math.log(arms * arms * n_upper * horizon)
    return 12.0 * (setup_price + math.sqrt(math.log(arms) * (1.0 + arms / closed_degree) * horizon)) + 1.0


def regret_report(result: RunResult, g: Graph | None = None) -> RegretReport:
    """Per-agent regret next to every bound the run's mass structure implies."""
    arms, horizon = result.arms, result.horizon
    part = result.partition
    rows = []
    harmonic = 0.0
    for v in range(result.node_count):
        if part is not None and g is not None:
            closed = g.closed_degree(v)
        else:
            closed = 1  # solo baseline
        harmonic += 1.0 / closed
        mass_value = part.mass_value(v) if part is not None else 1.0
        role = part.role(v) if part is not None else "center"
        if result.setting == "uninformed":
            b12 = uninformed_degree_bound(closed, arms, result.n_upper, horizon)
        else:
            b12 = degree_bound(closed, arms, horizon)
        rows.append(
            AgentReportRow(
                agent=v,
                role=role,
                closed_degree=closed,
                mass_m=part.mass_m[v] if part is not None else 1,
                mass_d=part.mass_d[v] if part is not None else 0,
                delay=part.delay[v] if part is not None else 0,
                realized_regret=float(result.regret[v]),
                semi_regret=float(result.semi_regret[v]),
                bound_center=center_bound(mass_value, arms, horizon) if role == "center" else None,
                bound_individual=individual_bound(mass_value, arms, horizon),
                bound_degree=b12,
            )
        )
    alpha = None
    alpha_ref = None
    caro_wei = None
    if g is not None and g.node_count <= 30:
        alpha = independence_number(g)
        alpha_ref = math.sqrt((1.0 + arms * alpha / g.node_count) * horizon)
        caro_wei = harmonic <= alpha + 1e-9
    return RegretReport(
        rows=rows,
        mean_regret=float(np.mean(result.regret)),
        mean_semi_regret=float(np.mean(result.semi_regret)),
        harmonic_degree_sum=harmonic,
        alpha=alpha,
        alpha_reference=alpha_ref,
        caro_wei_ok=caro_wei,
    )
