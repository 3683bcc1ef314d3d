"""Synchronous simulation of cooperative bandit play against oblivious losses.

Per global step t: every agent plays its round-t distribution, losses
land, and messages (action, loss, distribution played at t) reach all
neighbors at the step's end.  Centers fold them into importance-weighted
estimates and update to their round-(t+1) distribution; every other agent
stages its origin's round-t distribution to play at t+1.  Losses are a
pure function of (adversary seed, t, arm), so no policy can move them.

One kernel, ``_run_batch``, advances every run: any number of seeds that
share a partition, in lockstep, with every center updated at once.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from . import exp3
from .graph import Graph, _distinct, build_graph
from .partition import (
    Mass,
    Partition,
    _first,
    compute_centers_informed,
    compute_centers_uninformed,
)

ROLE_CODES = ("center", "adjacent", "simple")  # a role's code is its index


@dataclass(frozen=True)
class LossOracle:
    """Oblivious loss process: the full matrix depends only on its own seed."""

    kind: str
    arms: int
    seed: int = 0
    means: tuple[float, ...] | None = None
    table: np.ndarray | None = None
    switches: tuple[tuple[int, int], ...] | None = None

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Losses for global steps start+1..stop, shape (stop - start, arms), values in [0, 1].

        Regenerated from scratch on every call and a pure function of the
        step numbers: rows(a, c) is rows(a, b) followed by rows(b, c).
        """
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
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
        raise ValueError("loss table entries must lie in [0, 1]")
    arr.setflags(write=False)
    return LossOracle(kind="matrix", arms=arr.shape[1], table=arr)


def switching_losses(switches: Sequence[tuple[int, int]], arms: int) -> LossOracle:
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    sw = sorted((int(s), int(a)) for s, a in switches)
    if not sw or sw[0][0] != 0:
        raise ValueError("first switch must start at step 0")
    for (step, _), (nxt, _) in zip(sw, sw[1:]):
        if step == nxt:
            raise ValueError(f"two switches at step {step}")
    for _, arm in sw:
        if not 0 <= arm < arms:
            raise ValueError(f"switch arm {arm} outside 0..{arms - 1}")
    return LossOracle(kind="switch", arms=arms, switches=tuple(sw))


@dataclass
class RunResult:
    """Ledgers of a run: realized and semi-expected (p . loss) loss per agent, loss per arm."""

    partition: Partition
    setup_steps: int
    total_steps: int
    realized_loss: np.ndarray
    semi_loss: np.ndarray
    arm_loss: np.ndarray
    policy_start: tuple[np.ndarray, np.ndarray, np.ndarray]  # the three, after the warm-up
    digest: str
    checkpoints: list = field(repr=False)
    debug_violations: list[str]
    luby_budget_exhaustions: int = 0
    short_horizon: bool = False

    @property
    def best_arm(self) -> int:
        return int(self.arm_loss.argmin())  # argmin's first-hit rule = lowest-index tie-break

    @property
    def regret(self) -> np.ndarray:
        return self.realized_loss - float(self.arm_loss[self.best_arm])

    @property
    def semi_regret(self) -> np.ndarray:
        return self.semi_loss - float(self.arm_loss[self.best_arm])

    @property
    def policy_semi_regret(self) -> np.ndarray:
        """Semi regret of the policy phase alone, against that phase's best arm."""
        arm = self.arm_loss - self.policy_start[2]
        return (self.semi_loss - self.policy_start[1]) - float(arm[arm.argmin()])


def _check_run_args(arms: int, horizon: int, oracles: Sequence[LossOracle],
                    policy_seeds: Sequence[int], log_sinks: Sequence | None = None) -> bool:
    """Check a run's arguments in any setting; return (and warn) whether the
    horizon is below arms^2*ln(arms), where the regret guarantees do not apply.
    """
    if len(oracles) != len(policy_seeds) or not oracles:
        raise ValueError(f"need one oracle per policy seed, got {len(oracles)} and "
                         f"{len(policy_seeds)}")
    if log_sinks is not None and len(log_sinks) != len(oracles):
        raise ValueError(f"need one log sink per seed, got {len(log_sinks)} for "
                         f"{len(oracles)} seeds")
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for oracle in oracles:
        if oracle.arms != arms:
            raise ValueError(f"oracle is over {oracle.arms} arms, run uses {arms}")
    short = horizon < arms * arms * math.log(arms)
    if short:
        up = 3 + (sys._getframe(2).f_globals is globals())  # skip a one-seed wrapper
        warnings.warn(f"horizon {horizon} is below arms^2*ln(arms); regret guarantees do not "
                      "apply", RuntimeWarning, stacklevel=up)
    return short


BATCH_ROWS = 64  # steps per block of losses, policy draws, digest records and log lines
BATCH_CELLS = 1 << 16  # at most this many seed-agent-steps per block
CHECKPOINT_CELLS = 1 << 18  # ledger snapshot cells per seed, at most (or one snapshot)


def _run_batch(graph: Graph, partition: Partition, horizon: int, oracles: Sequence[LossOracle],
               rngs: Sequence[np.random.Generator], setup: int = 0, short: bool = False,
               debug: bool = False, log_sinks: Sequence[IO | None] | None = None,
               exhaustions: int = 0) -> list[RunResult]:
    """Play one run per (oracle, policy stream) on a shared partition, all seeds each round.

    Global steps 1..setup are uniform warm-up play while the uninformed
    election runs (one ``integers`` draw per agent); steps
    setup+1..setup+horizon follow the protocol (one ``random`` draw per
    agent).  The arithmetic is done on (seeds, agents, arms) arrays in a
    fixed reduction order, so a seed's result does not depend on which
    seeds share its batch.  Per block of steps, draws are checked for zeros
    and log-weights for non-finite values before any hashing or logging.
    The debug audit and the log writer take several steps at once, at most
    BATCH_CELLS / 64 center-arm cells or lines each, or one step's if more.
    """
    seeds, n, k = len(oracles), partition.node_count, partition.arms
    total = setup + horizon
    for oracle in oracles:  # a loss table shorter than the run fails here, not midway
        oracle.rows(total - 1, total)
    node, centers = np.arange(n), partition.centers
    is_center = partition.center_of == node
    origin_idx = np.where(is_center, node, partition.origin_of)
    # 0 a center, 1 a relay one delay step from its center, 2 any other relay
    roles = np.where(is_center, 0, 2 - (partition.delay == 1))
    header = np.array([n, k, total], dtype=np.int64).tobytes() + roles.tobytes()
    digests = [hashlib.blake2b(header, digest_size=8) for _ in range(seeds)]
    sinks = [None] * seeds if log_sinks is None else list(log_sinks)
    cells = BATCH_CELLS >> 6
    if any(x is not None for x in sinks):  # steps per write; a line's fixed text (_log_lines)
        lines = max(1, cells // n)
        agent_v, role_text, arm_text = (np.array(f, dtype=object) for f in (
            [f', "v": {v}, "action": ' for v in range(n)],
            [f', "role": "{r}"}}\n' for r in ROLE_CODES],
            [f'{a}, "loss": ' for a in range(k)]))
        frags = agent_v, role_text.take(roles), arm_text

    # The centers' closed neighborhoods laid end to end, members ascending:
    # segment i, from starts[i], is centers[i]'s; slot maps each entry back to
    # its center.  CSR neighbors (gathered as in graph._bfs) and the centers,
    # keyed slot * n + member, sort into that layout.
    indptr, indices = graph.csr
    sizes, own = graph.closed_degrees.take(centers), np.arange(centers.size)
    starts = np.cumsum(sizes) - sizes
    nbr = np.repeat(own, sizes - 1)  # the slot of each neighbor entry
    at = np.arange(nbr.size) + (indptr.take(centers) - starts + own).take(nbr)
    keys = np.sort(np.concatenate((nbr * n + indices.take(at), own * n + centers)))
    slot, flat = keys // n, keys % n
    masses = zip(partition.mass_m.take(centers).tolist(), partition.mass_d.take(centers).tolist())
    rates = np.array([[exp3.learning_rate(Mass(m, d).value(), k, horizon)] for m, d in masses])
    drift = (not short) & (rates[:, 0] <= 0.5 / k + 1e-15)  # centers the drift audit covers
    logw = np.zeros((seeds, len(centers), k))
    step_rates = np.broadcast_to(rates, logw.shape).copy()  # full shape: no ufunc buffering
    chunk = max(1, cells // logw.size) if debug else 1  # steps per audit

    # two buffers of every agent's distribution and CDF: a step reads one, writes the other
    state = np.empty((2, 2, seeds, n, k))
    state[0, 0] = 1.0 / k
    np.cumsum(state[0, 0], axis=2, out=state[0, 1])
    views = [(x, x[0], x[1], x.reshape(-1, k)) for x in state]  # x, p, CDF, arm rows
    count, ones = np.empty((seeds, n)), np.ones(k)
    violations: list[list[str]] = [[] for _ in range(seeds)]
    # ledger snapshots, about 256 and at most CHECKPOINT_CELLS cells a seed (_checkpoints)
    every = max(1, total // 256, -(-total // max(1, CHECKPOINT_CELLS // (2 * n + k))))
    # flat indices of observed[s, slot[f], 0]; center rows of a state buffer's arm rows
    seed_col = np.arange(seeds)[:, None]
    observed_cell = (seed_col * len(centers) + slot) * k
    center_rows = ((seed_col * n + centers).ravel() + [[0], [seeds * n]]).ravel()
    block = max(1, min(BATCH_ROWS, BATCH_CELLS // (seeds * n)))
    # Running totals: realized and semi-expected loss per agent, loss per
    # arm.  Rows 1..m of `steps` and `losses` take a block's charges,
    # expected losses and loss rows; with the totals in the row before a
    # segment, a sum over rows adds the segment step by step, as a per-step
    # `+=` does (two agent totals keep the inner axis 2 long or more: numpy
    # sums a lone contiguous axis pairwise).
    ledgers, cut = np.zeros(seeds * (2 * n + k)), 2 * seeds * n  # one array: one copy a snapshot
    totals, arm_totals = ledgers[:cut].reshape(2, seeds, n), ledgers[cut:].reshape(seeds, k)
    snaps = np.empty((-(-total // every), ledgers.size))
    steps, losses = np.empty((block + 1,) + totals.shape), np.empty((block + 1, seeds, k))
    # digest records, one seed's block contiguous: the policy step writes
    # actions straight into them, and they are hashed where they lie
    record = np.empty((seeds, block), dtype=[("t", np.int64), ("a", np.int64, (n,)),
                                             ("c", np.float64, (n,))])
    draws_buf = np.empty((block, seeds, n))
    charged_buf = np.empty(seeds * block * n)
    index_buf = draws_buf.reshape(-1).view(np.int64)  # used once a block's draws are spent
    # flat index of losses[1 + j, s, 0]
    loss_base = ((np.arange(1, block + 1) * seeds + seed_col) * k)[:, :, None]

    for warm, first, last in ((True, 0, setup), (False, setup, total)):
        if not warm:  # ledgers at the policy phase's start; step scratch
            start_ledgers = (totals[0].copy(), totals[1].copy(), arm_totals.copy())
            stash = np.empty((4, chunk * seeds) + logw.shape[1:])  # p_now, p_next, est, observe
            p_now, p_out, est, observe = stash
            gathered, observed = np.empty((seeds, flat.size, k)), np.empty(logw.shape, bool)
            fresh, row = np.empty((2,) + logw.shape), np.empty(logw.shape[:2] + (1,))
            # the centers' new distribution and CDF; the CDF's rows are scratch until then
            (p_next, work), fresh_rows = fresh, fresh.reshape(-1, k)
            expected, draw_col = steps[1:, 1, ..., None], draws_buf[..., None]  # per step j
            loss_col, loss_rows = losses[1:, ..., None], losses[1:, :, None]
        for start in range(first, last, block):
            m = min(start + block, last) - start
            actions = record["a"][:, :m]
            for s in range(seeds):
                losses[1:m + 1, s] = oracles[s].rows(start, start + m)
            # row-major fills: the same streams as one call per step
            if warm:
                for s in range(seeds):
                    actions[s] = rngs[s].integers(0, k, size=(m, n))
                steps[1:m + 1, 1] = losses[1:m + 1].mean(axis=2, keepdims=True)
            else:
                draws = draws_buf[:m]
                for s in range(seeds):
                    draws[:, s] = rngs[s].random((m, n))
                zero_draw = not draws.all()  # some draw is exactly 0
            for j in range(0 if warm else m):
                (now, p, cdf, _), (new, p_new, _, new_rows) = views
                act = actions[:, j]
                # inverse-CDF sample, arms ascending: the action is the number
                # of arms whose CDF lies below the draw (exact small sums in
                # p_new until the relays' take fills it).  That arm has positive
                # probability unless every arm lies below or the draw is 0;
                # those cells take the fallback.
                np.matmul(np.less(cdf, draw_col[j], out=p_new), ones, out=count)
                act[...] = count
                if np.maximum.reduce(count, axis=None) >= k or zero_draw and not draws[j].all():
                    draw = draws[j]
                    for s, v in zip(*np.nonzero((count >= k) | (draw == 0.0))):
                        act[s, v] = exp3.sample_action(p[s, v], float(draw[s, v]))
                np.matmul(p, loss_col[j], out=expected[j])  # p @ loss row, the expected loss

                # relays stage the origin's round-t distribution and CDF ("clip"
                # lets take write to out unbuffered; every index is in range)
                now.take(origin_idx, axis=2, out=new, mode="clip")
                if debug:
                    t, i = start + j + 1, (start + j - setup) % chunk
                    p_now, p_out, est, observe = stash[:, i * seeds:(i + 1) * seeds]
                # each center: products over its closed neighborhood, members ascending
                p.take(flat, axis=1, out=gathered, mode="clip")
                np.multiply.reduceat(np.subtract(1.0, gathered, out=gathered), starts, axis=1,
                                     out=observe)
                np.subtract(1.0, observe, out=observe)
                observed.fill(False)
                observed.put(observed_cell + act.take(flat, axis=1), True)
                exp3.estimated_loss_vector(loss_rows[j], observe, observed, out=est)
                exp3.exp3_update_raw(logw, step_rates, est, logw, work, row)  # finiteness: below
                exp3.probs_from_log_weights(logw, p_next, work, row)
                np.add.accumulate(p_next, axis=2, out=work)
                if debug:
                    p.take(centers, axis=1, out=p_now)
                    p_out[...] = p_next
                    if i == chunk - 1 or t == total:
                        _audit(violations, t - i, centers, *stash[:, :(i + 1) * seeds], rates,
                               drift)
                new_rows[center_rows] = fresh_rows
                views.reverse()
            if not (warm or np.isfinite(logw).all()):
                raise exp3.NonFiniteEstimateError("loss estimates must be finite")

            # charged losses, one gather for the block: losses[1 + j, s, actions[s, j, v]]
            index = index_buf[:seeds * m * n].reshape(seeds, m, n)
            charged = charged_buf[:seeds * m * n].reshape(seeds, m, n)
            losses.take(np.add(loss_base[:, :m], actions, out=index), out=charged, mode="clip")
            record["c"][:, :m] = charged
            record["t"][:, :m] = np.arange(start + 1, start + m + 1)
            steps[1:m + 1, 0] = charged.transpose(1, 0, 2)
            for s in range(seeds):
                digests[s].update(record[s, :m])  # step, actions as int64, losses; step by step
                if sinks[s] is not None:
                    for a in range(0, m, lines):
                        _log_lines(sinks[s], start + a + 1, actions[s, a:a + lines],
                                   charged[s, a:a + lines], *frags)

            # fold the block into the totals, cut at its checkpoint steps
            lo = 0
            for hi in (*range(every - start % every, m, every), m):
                steps[lo], losses[lo] = totals, arm_totals
                np.add.reduce(steps[lo:hi + 1], axis=0, out=totals)
                np.add.reduce(losses[lo:hi + 1], axis=0, out=arm_totals)
                if (start + hi) % every == 0 or start + hi == total:
                    snaps[(start + hi - 1) // every] = ledgers
                lo = hi

    checkpoints = _checkpoints(snaps, every, total, seeds, n, k)
    return [
        RunResult(partition, setup, total, totals[0, s], totals[1, s], arm_totals[s],
                  tuple(x[s] for x in start_ledgers), digests[s].hexdigest(), checkpoints[s],
                  violations[s], exhaustions, short)
        for s in range(seeds)
    ]


def _checkpoints(snaps, every, total, seeds, n, k) -> list[list]:
    """Each seed's checkpoints (t, realized, semi, arm), views into ``snaps``.

    Row c of ``snaps`` holds the ledgers at step min((c + 1) * every, total):
    realized then semi loss per seed and agent, then loss per seed and arm.
    """
    totals = snaps[:, :2 * seeds * n].reshape(-1, 2, seeds, n)
    arms = snaps[:, 2 * seeds * n:].reshape(-1, seeds, k)
    times = [min(t, total) for t in range(every, total + every, every)]
    return [[(t, *totals[c, :, s], arms[c, s]) for c, t in enumerate(times)] for s in range(seeds)]


def _audit(violations, t0, centers, p_now, p_next, est, observe, rates, drift) -> None:
    """Append the debug audit's findings on the center updates of rounds t0, t0+1, ...

    Arrays are (rounds * seeds, centers, arms), seed fastest; ``drift`` marks
    the centers the one-step floor and ceiling checks cover (rate <= 0.5/arms,
    horizon not short).
    """
    tol = 1e-9
    zero_observe = ((est != 0.0) & (observe <= 0.0)).any(axis=2)
    per_arm = p_now * est
    over_one = (per_arm > 1.0 + tol).any(axis=2)
    invalid = ~(
        (p_next >= 0.0).all(axis=2)
        & (p_next <= 1.0 + exp3.DISTRIBUTION_TOL).all(axis=2)
        & (np.abs(p_next.sum(axis=2) - 1.0) <= exp3.DISTRIBUTION_TOL)
    )
    lo = (1.0 - rates * est) * p_now
    hi = 2.0 * p_now
    below = drift & (p_next < lo * (1.0 - tol) - 1e-15).any(axis=2)
    above = drift & (p_next > hi * (1.0 + tol) + 1e-15).any(axis=2)
    for r, i in zip(*np.nonzero(zero_observe | over_one | invalid | below | above)):
        j, s = divmod(int(r), len(violations))
        out, at = violations[s], f"t={t0 + j} center {centers[i]}: "
        if zero_observe[r, i]:
            out.append(at + "estimate with zero observe prob")
        if over_one[r, i]:
            a = int(per_arm[r, i].argmax())
            out.append(at + f"p*estimate = {per_arm[r, i, a]:.12f} > 1 on arm {a}")
        if invalid[r, i]:
            out.append(at + "update left an invalid distribution")
        if below[r, i]:
            a = int((lo[r, i] - p_next[r, i]).argmax())
            out.append(at + f"arm {a} fell below one-step floor "
                       f"({p_next[r, i, a]:.12e} < {lo[r, i, a]:.12e})")
        if above[r, i]:
            a = int((p_next[r, i] - hi[r, i]).argmax())
            out.append(at + f"arm {a} above one-step ceiling "
                       f"({p_next[r, i, a]:.12e} > {hi[r, i, a]:.12e})")


def _log_lines(sink: IO, first_t: int, actions, charged, agent_v, agent_role, arm_text) -> None:
    """One JSON line per agent per step, steps from first_t on, built column by column.

    A line is '{"t": T', agent_v[v], arm_text[action], the loss's repr and
    agent_role[v]; each distinct bit pattern of the losses is formatted
    once, so -0.0 keeps its sign.
    """
    bits = charged.view(np.int64)
    seen = _distinct(np.array(bits))
    losses = np.array(list(map(repr, seen.view(np.float64).tolist())), dtype=object)
    cols = np.empty(actions.shape + (5,), dtype=object)
    steps = [f'{{"t": {t}' for t in range(first_t, first_t + len(actions))]
    cols[..., 0] = np.array(steps, dtype=object)[:, None]
    cols[..., 1] = agent_v
    cols[..., 2] = arm_text.take(actions)
    cols[..., 3] = losses.take(seen.searchsorted(bits))
    cols[..., 4] = agent_role
    sink.write("".join(cols.ravel().tolist()))


def _check_partition(g: Graph, arms: int, partition: Partition) -> None:
    """A caller's partition must fit the graph and the run: size, arms, centers, relays."""
    n = g.node_count
    if partition.node_count != n:
        raise ValueError(f"partition covers {partition.node_count} nodes, graph has {n}")
    if partition.arms != arms:
        raise ValueError(f"partition is over {partition.arms} arms, run uses {arms}")
    node, cof, uof, delay = np.arange(n), partition.center_of, partition.origin_of, partition.delay
    centers = sorted(partition.centers.tolist())
    if np.flatnonzero(cof == node).tolist() != centers:
        raise ValueError(f"centers {centers} are not the self-claiming nodes")
    u, apart = np.clip(uof, 0, n - 1), ~g.are_adjacent(node, uof)
    v = _first((cof != node) & (apart | (delay.take(u) != delay - 1)))
    if v is not None:
        raise ValueError(f"relay {v} copies node {uof[v]}, which is not its neighbor" if apart[v]
                         else f"relay {v} copies node {uof[v]}, not one delay step earlier")


def run_informed_batch(g: Graph, arms: int, horizon: int, oracles: Sequence[LossOracle],
                       policy_seeds: Sequence[int], partition: Partition | None = None,
                       debug: bool = False, log_sinks: Sequence | None = None) -> list[RunResult]:
    """run_informed for each (oracle, policy seed) pair, on one election, seeds in lockstep.

    Each result equals run_informed(g, arms, horizon, oracle, seed, ...)
    with the same options bit for bit; the batch only shares the
    per-round numpy calls between seeds.
    """
    short = _check_run_args(arms, horizon, oracles, policy_seeds, log_sinks)
    if partition is None:
        partition = compute_centers_informed(g, arms)
    else:
        _check_partition(g, arms, partition)
    rngs = [np.random.default_rng(s) for s in policy_seeds]
    sinks = [None] * len(oracles) if log_sinks is None else log_sinks
    # at most BATCH_CELLS seed-agents per kernel call bound its (seeds, agents, arms) arrays
    per_call = max(1, BATCH_CELLS // g.node_count)
    return [
        run
        for a in range(0, len(oracles), per_call)
        for run in _run_batch(g, partition, horizon, oracles[a:a + per_call],
                              rngs[a:a + per_call], short=short, debug=debug,
                              log_sinks=sinks[a:a + per_call])
    ]


def run_informed(g: Graph, arms: int, horizon: int, oracle: LossOracle, policy_seed: int,
                 debug: bool = False, log_sink: IO | None = None,
                 partition: Partition | None = None) -> RunResult:
    """Simulate with the graph known in advance: partitioning costs no steps."""
    return run_informed_batch(g, arms, horizon, [oracle], [policy_seed], partition, debug,
                              [log_sink])[0]


def run_uninformed(g: Graph, arms: int, n_upper: int, horizon: int, oracle: LossOracle,
                   policy_seed: int, debug: bool = False, log_sink: IO | None = None) -> RunResult:
    """Simulate the full uninformed protocol: elect centers while playing uniform.

    The policy stream serves the election's draws, then one uniform action
    per agent per setup step, then the policy phase.  Losses accrue from
    step 1; regret is against the best fixed arm over the whole timeline
    (the result derives the policy phase's semi regret too).
    """
    short = _check_run_args(arms, horizon, [oracle], [policy_seed])
    rng = np.random.default_rng(policy_seed)
    election = compute_centers_uninformed(g, arms, n_upper, horizon, rng)
    return _run_batch(g, election.partition, horizon, [oracle], [rng],
                      setup=election.total_steps, short=short, debug=debug,
                      log_sinks=[log_sink], exhaustions=election.exhaustions)[0]


def run_solo_exp3(arms: int, horizon: int, oracle: LossOracle, policy_seed: int) -> RunResult:
    """Baseline: one agent, no neighbors, importance weights from its own play."""
    return run_solo_exp3_batch(arms, horizon, [oracle], [policy_seed])[0]


def run_solo_exp3_batch(arms: int, horizon: int, oracles: Sequence[LossOracle],
                        policy_seeds: Sequence[int]) -> list[RunResult]:
    """run_solo_exp3 for each (oracle, policy seed) pair, seeds in lockstep.

    A run on the one-node graph: the agent's closed neighborhood is itself.
    """
    short = _check_run_args(arms, horizon, oracles, policy_seeds)
    solo = Partition(arms=arms, centers=(0,), center_of=(0,), origin_of=(0,), delay=(0,),
                     mass_m=(1,), mass_d=(0,))
    rngs = [np.random.default_rng(s) for s in policy_seeds]
    return _run_batch(build_graph(1, ()), solo, horizon, oracles, rngs, short=short)


def individual_bound(mass_value: float, arms: int, horizon: int) -> float:
    """7 * sqrt(ln(arms) * (arms / mass) * horizon): per-agent guarantee."""
    return 7.0 * math.sqrt(math.log(arms) * (arms / mass_value) * horizon)


def degree_bound(closed_degree: int, arms: int, horizon: int) -> float:
    """12 * sqrt(ln(arms) * (1 + arms/|N(v)|) * horizon): degree-only form."""
    return 12.0 * math.sqrt(math.log(arms) * (1.0 + arms / closed_degree) * horizon)


def uninformed_degree_bound(closed_degree: int, arms: int, n_upper: int, horizon: int) -> float:
    """Degree-only form plus the price of electing centers online."""
    setup_price = arms * math.log(arms * arms * n_upper * horizon)
    return 12.0 * (setup_price + math.sqrt(math.log(arms) * (1.0 + arms / closed_degree) * horizon)) + 1.0
