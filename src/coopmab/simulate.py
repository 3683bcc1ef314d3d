"""Synchronous simulation of cooperative bandit play against oblivious losses.

Per global step t: every agent plays its round-t distribution, losses
land, and messages (action, loss, distribution played at t) reach all
neighbors at the step's end.  Centers fold them into importance-weighted
estimates and update to their round-(t+1) distribution; every other agent
stages its origin's round-t distribution to play at t+1.  Losses are a
pure function of (adversary seed, t, arm), so no policy can move them;
their processes live in ``coopmab.losses`` and are exported here too.

One kernel, ``_run_batch``, advances every run: any list of lanes (a lane
is one run: graph, partition, oracle, policy stream, log sink) on one flat
agent axis, in lockstep, with every center updated at once.
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
from .losses import LossOracle, bernoulli_losses, matrix_losses, switching_losses  # noqa: F401
from .partition import (
    Partition,
    _first,
    compute_centers_informed,
    compute_centers_uninformed,
    mass_value,
)

ROLE_CODES = ("center", "adjacent", "simple")  # a role's code is its index


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
    snapshots: np.ndarray = field(repr=False)  # (checkpoints, 2N + K): the three per row
    debug_violations: list[str]
    luby_budget_exhaustions: int = 0
    short_horizon: bool = False

    @property
    def checkpoints(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """(t, realized, semi, arm) at every snapshot step, views into ``snapshots``."""
        n, total = self.realized_loss.size, self.total_steps
        every = _snapshot_every(total, n, self.arm_loss.size)
        return [(min(t, total), row[:n], row[n:2 * n], row[2 * n:])
                for t, row in zip(range(every, total + every, every), self.snapshots)]

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


@dataclass(frozen=True, eq=False)
class Lane:
    """One run: graph, partition, loss oracle, policy stream and log sink.  ``setup``
    uniform warm-up steps (the uninformed election's) precede the policy phase.  A
    run draws from ``rng`` and writes to ``log_sink``, so a lane plays once."""

    graph: Graph
    partition: Partition
    oracle: LossOracle
    rng: np.random.Generator
    log_sink: IO | None = None
    setup: int = 0
    exhaustions: int = 0  # the election's, copied into the result


def _check_run_args(arms: int, horizon: int, oracles: Sequence[LossOracle]) -> bool:
    """Check a run's arms, horizon and oracles; return (and warn, at the first caller
    outside this module) whether the horizon is below arms^2*ln(arms), where the
    regret guarantees do not apply.
    """
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for oracle in oracles:
        if oracle.arms != arms:
            raise ValueError(f"oracle is over {oracle.arms} arms, run uses {arms}")
    short = horizon < arms * arms * math.log(arms)
    if short:
        up, frame = 2, sys._getframe(1)
        while frame.f_globals is globals():
            up, frame = up + 1, frame.f_back
        warnings.warn(f"horizon {horizon} is below arms^2*ln(arms); regret guarantees do not "
                      "apply", RuntimeWarning, stacklevel=up)
    return short


BATCH_ROWS = 64  # steps per block of losses, policy draws, digest records and log lines
BATCH_CELLS = 1 << 16  # at most this many agents per kernel call, agent-steps per block
CHECKPOINT_CELLS = 1 << 18  # ledger snapshot cells per lane, at most (or one snapshot)


def _snapshot_every(total: int, n: int, k: int) -> int:
    """Steps between a lane's ledger snapshots: about 256 a run, at most CHECKPOINT_CELLS cells."""
    return max(1, total // 256, -(-total // max(1, CHECKPOINT_CELLS // (2 * n + k))))


def _run_batch(lanes: Sequence[Lane], horizon: int, short: bool = False,
               debug: bool = False) -> list[RunResult]:
    """Play the lanes in lockstep on one flat agent axis, every center updated at once.

    Lane l's agents are off[l]..off[l + 1] - 1 of the axis: its segments,
    origins and center rows carry that offset, and each agent reads its
    lane's loss row.  Global steps 1..setup are uniform warm-up play while
    the uninformed election runs (one ``integers`` draw per agent); steps
    setup+1..setup+horizon follow the protocol (one ``random`` draw per
    agent).  Every sum runs within a lane in a fixed order, so a lane's
    result does not depend on which lanes share the call.  Per block of
    steps, draws are checked for zeros and log-weights for non-finite values
    before any hashing or logging.  The debug audit and the log writer take
    several steps at once, at most BATCH_CELLS / 64 center-arm cells or
    lines each, or one step's if more.
    """
    k, setup = lanes[0].partition.arms, lanes[0].setup
    total = setup + horizon
    oracles = {id(lane.oracle): lane.oracle for lane in lanes}  # each read once a block
    for oracle in oracles.values():  # a loss table shorter than the run fails here, not midway
        oracle.rows(total - 1, total)
    sizes = [lane.partition.node_count for lane in lanes]
    off = np.cumsum([0, *sizes]).tolist()
    a = off[-1]
    # Per lane, offset by off[l]: origins, roles (0 a center, 1 a relay one
    # delay step from its center, 2 any other relay), and the centers' closed
    # neighborhoods laid end to end, members ascending.  CSR neighbors
    # (gathered as in graph._bfs) and the centers, keyed slot * n + member,
    # sort into that layout.
    origin, roles, local, segs, members, masses = ([] for _ in range(6))
    for lane, o in zip(lanes, off):
        part, (indptr, indices) = lane.partition, lane.graph.csr
        n, c = part.node_count, part.centers
        node, size, own = np.arange(n), lane.graph.closed_degrees.take(c), np.arange(c.size)
        is_center = part.center_of == node
        origin.append(o + np.where(is_center, node, part.origin_of))
        roles.append(np.where(is_center, 0, 2 - (part.delay == 1)))
        nbr = np.repeat(own, size - 1)  # the slot of each neighbor entry
        at = np.arange(nbr.size) + (indptr.take(c) - np.cumsum(size) + size + own).take(nbr)
        keys = np.sort(np.concatenate((nbr * n + indices.take(at), own * n + c)))
        members.append(o + keys % n)
        local.append(c)
        segs.append(size)
        masses += zip(part.mass_m.take(c).tolist(), part.mass_d.take(c).tolist())
    origin_idx, local, seg, flat = map(np.concatenate, (origin, local, segs, members))
    center_lane = np.repeat(np.arange(len(lanes)), list(map(len, segs)))
    centers, starts = local + np.take(off, center_lane), np.cumsum(seg) - seg
    slot_cell = np.repeat(np.arange(centers.size), seg) * k  # flat index of observed[slot, 0]
    fresh_at = np.concatenate((centers, centers + a))  # center rows of a state buffer's arm rows
    digests = [hashlib.blake2b(np.array([n, k, total], dtype=np.int64).tobytes() + r.tobytes(),
                               digest_size=8) for n, r in zip(sizes, roles)]
    cells = BATCH_CELLS >> 6
    role_text, arm_text = (np.array(f, dtype=object) for f in (
        [f', "role": "{r}"}}\n' for r in ROLE_CODES], [f'{x}, "loss": ' for x in range(k)]))
    # for a lane with a sink: steps per write and a line's fixed text (_log_lines)
    logs = [lane.log_sink is not None and (lane.log_sink, max(1, cells // n), np.array(
        [f', "v": {v}, "action": ' for v in range(n)], dtype=object), role_text.take(r), arm_text)
        for lane, n, r in zip(lanes, sizes, roles)]
    rates = np.array([[exp3.learning_rate(mass_value(m, d), k, horizon)] for m, d in masses])
    drift = (not short) & (rates[:, 0] <= 0.5 / k + 1e-15)  # centers the drift audit covers
    logw = np.zeros((centers.size, k))
    step_rates = np.broadcast_to(rates, logw.shape).copy()  # full shape: no ufunc buffering
    chunk = max(1, cells // logw.size) if debug else 1  # steps per audit

    # two buffers of every agent's distribution and CDF: a step reads one, writes the other
    state = np.empty((2, 2, a, k))
    state[0, 0] = 1.0 / k
    np.cumsum(state[0, 0], axis=1, out=state[0, 1])
    count, ones = np.empty(a), np.ones(k)
    violations: list[list[str]] = [[] for _ in lanes]
    block = max(1, min(BATCH_ROWS, BATCH_CELLS // a))
    # Running totals: realized and semi-expected loss per agent, loss per
    # lane and arm.  Rows 1..m of `steps` and `losses` take a block's
    # charges, expected losses and loss rows; with the totals in the row
    # before a segment, a sum over rows adds the segment step by step, as a
    # per-step `+=` does (two agent totals keep the inner axis 2 long or
    # more: numpy sums a lone contiguous axis pairwise).
    totals, arm_totals = np.zeros((2, a)), np.zeros((len(lanes), k))

    def ledger(tot, arm, l):  # lane l's realized and semi loss per agent and loss per arm
        return tot[0, off[l]:off[l + 1]], tot[1, off[l]:off[l + 1]], arm[l]

    every = [_snapshot_every(total, n, k) for n in sizes]
    snaps = [np.empty((-(-total // e), 2 * n + k)) for e, n in zip(every, sizes)]
    steps, losses = np.empty((block + 1, 2, a)), np.empty((block + 1, len(lanes), k))
    # a step's actions overwrite the draws they were sampled with; after the
    # step loop they become their flat index into losses (see below)
    draws_buf = np.empty((block, a))
    actions = draws_buf.view(np.int64)
    # flat index of losses[1 + j, lane of v, 0]: a lane's row plus a step's
    lane_cell = np.repeat(np.arange(len(lanes)) * k, sizes)
    step_cell = np.arange(1, block + 1)[:, None] * losses[0].size
    # a lane's digest records (step, actions as int64, losses), one block at a time
    records = [np.empty(block, dtype=[("t", np.int64), ("a", np.int64, (n,)),
                                      ("c", np.float64, (n,))]) for n in sizes]
    # p @ loss row, the expected loss: one (lanes, n, k) @ (lanes, k, 1) product
    # per run of consecutive lanes with equal n
    cut = [l for l in range(1, len(lanes)) if sizes[l] != sizes[l - 1]]
    products = [[(x[0, off[l0]:off[l1]].reshape(-1, sizes[l0], k), losses[1:, l0:l1, :, None],
                  steps[1:, 1, off[l0]:off[l1]].reshape(block, -1, sizes[l0], 1))
                 for l0, l1 in zip([0, *cut], [*cut, len(lanes)])] for x in state]
    views = [(x, x[0], x[1], x.reshape(-1, k), mm) for x, mm in zip(state, products)]

    for warm, begin, end in ((True, 0, setup), (False, setup, total)):
        if not warm:  # ledgers at the policy phase's start; step scratch
            start_ledgers = totals.copy(), arm_totals.copy()
            stash = np.empty((4, chunk) + logw.shape)  # p_now, p_next, est, observe
            p_now, p_out, est, observe = stash[:, 0]
            gathered, observed = np.empty((flat.size, k)), np.empty(logw.shape, bool)
            fresh, row = np.empty((2,) + logw.shape), np.empty((centers.size, 1))
            # the centers' new distribution and CDF; the CDF's rows are scratch until then
            (p_next, work), fresh_rows = fresh, fresh.reshape(-1, k)
            center_loss, draw_col = np.empty((block,) + logw.shape), draws_buf[..., None]
        for start in range(begin, end, block):
            m = min(start + block, end) - start
            draws = draws_buf[:m]
            rows = {i: o.rows(start, start + m) for i, o in oracles.items()}
            for l, (lane, lo, hi) in enumerate(zip(lanes, off, off[1:])):
                losses[1:m + 1, l] = rows[id(lane.oracle)]
                # row-major fills: the same streams as one call per step
                if warm:
                    actions[:m, lo:hi] = lane.rng.integers(0, k, size=(m, hi - lo))
                    steps[1:m + 1, 1, lo:hi] = losses[1:m + 1, l].mean(axis=1, keepdims=True)
                else:
                    draws[:, lo:hi] = lane.rng.random((m, hi - lo))
            if not warm:
                zero_draw = not draws.all()  # some draw is exactly 0
                losses[1:m + 1].take(center_lane, axis=1, out=center_loss[:m])
            for j in range(0 if warm else m):
                (now, p, cdf, _, mm), (new, p_new, _, new_rows, _) = views
                act = actions[j]
                # inverse-CDF sample, arms ascending: the action is the number
                # of arms whose CDF lies below the draw (exact small sums in
                # p_new until the relays' take fills it).  That arm has positive
                # probability unless every arm lies below or the draw is 0;
                # those cells take the fallback.
                np.matmul(np.less(cdf, draw_col[j], out=p_new), ones, out=count)
                if np.maximum.reduce(count, axis=None) >= k or zero_draw and not draws[j].all():
                    draw = draws[j]
                    for v in np.flatnonzero((count >= k) | (draw == 0.0)).tolist():
                        count[v] = exp3.sample_action(p[v], float(draw[v]))
                act[...] = count
                for p_run, loss_run, expected in mm:
                    np.matmul(p_run, loss_run[j], out=expected[j])

                # relays stage the origin's round-t distribution and CDF ("clip"
                # lets take write to out unbuffered; every index is in range)
                now.take(origin_idx, axis=1, out=new, mode="clip")
                if debug:
                    t, i = start + j + 1, (start + j - setup) % chunk
                    p_now, p_out, est, observe = stash[:, i]
                # each center: products over its closed neighborhood, members ascending
                p.take(flat, axis=0, out=gathered, mode="clip")
                np.multiply.reduceat(np.subtract(1.0, gathered, out=gathered), starts, axis=0,
                                     out=observe)
                np.subtract(1.0, observe, out=observe)
                observed.fill(False)
                observed.put(slot_cell + act.take(flat), True)
                exp3.estimated_loss_vector(center_loss[j], observe, observed, out=est)
                exp3.exp3_update_raw(logw, step_rates, est, logw, work, row)  # finiteness: below
                exp3.probs_from_log_weights(logw, p_next, work, row)
                np.add.accumulate(p_next, axis=1, out=work)
                if debug:
                    p.take(centers, axis=0, out=p_now)
                    p_out[...] = p_next
                    if i == chunk - 1 or t == total:
                        _audit(violations, t - i, local, center_lane, *stash[:, :i + 1], rates,
                               drift)
                new_rows[fresh_at] = fresh_rows
                views.reverse()
            if not (warm or np.isfinite(logw).all()):
                raise exp3.NonFiniteEstimateError("loss estimates must be finite")

            # charged losses, one gather for the block: losses[1 + j, lane of v, actions[j, v]],
            # through the actions' flat index, made in place once the records hold them
            for record, lo, hi in zip(records, off, off[1:]):
                record["a"][:m] = actions[:m, lo:hi]
            index, charged = actions[:m], steps[1:m + 1, 0]
            losses.take(np.add(np.add(index, lane_cell, out=index), step_cell[:m], out=index),
                        out=charged, mode="clip")
            for digest, record, log, lo, hi in zip(digests, records, logs, off, off[1:]):
                rec = record[:m]
                rec["t"], rec["c"] = np.arange(start + 1, start + m + 1), charged[:, lo:hi]
                digest.update(rec)  # step by step
                if log:
                    sink, lines, *frags = log
                    for s in range(0, m, lines):
                        _log_lines(sink, start + s + 1, rec["a"][s:s + lines],
                                   rec["c"][s:s + lines], *frags)

            # fold the block into the totals, cut at each lane's checkpoint steps
            lo = 0
            for hi in sorted({h for e in set(every) for h in range(e - start % e, m, e)} | {m}):
                steps[lo], losses[lo] = totals, arm_totals
                np.add.reduce(steps[lo:hi + 1], axis=0, out=totals)
                np.add.reduce(losses[lo:hi + 1], axis=0, out=arm_totals)
                t = start + hi
                for l, (snap, e) in enumerate(zip(snaps, every)):
                    if t % e == 0 or t == total:
                        np.concatenate(ledger(totals, arm_totals, l), out=snap[(t - 1) // e])
                lo = hi

    return [RunResult(lane.partition, setup, total, *ledger(totals, arm_totals, l),
                      ledger(*start_ledgers, l), digest.hexdigest(), snap, found, lane.exhaustions,
                      short)
            for l, (lane, digest, snap, found) in enumerate(zip(lanes, digests, snaps, violations))]


def _audit(violations, t0, centers, lane_of, p_now, p_next, est, observe, rates, drift) -> None:
    """Append the debug audit's findings on the center updates of rounds t0, t0+1, ...

    Arrays are (rounds, centers, arms); center i is node ``centers[i]`` of
    lane ``lane_of[i]``, and ``drift`` marks the centers the one-step floor
    and ceiling checks cover (rate <= 0.5/arms, horizon not short).
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
        out, at = violations[lane_of[i]], f"t={t0 + r} center {centers[i]}: "
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


def run_lanes(lanes: Sequence[Lane], horizon: int, debug: bool = False) -> list[RunResult]:
    """Play every lane for its setup steps and ``horizon`` policy steps; one result each.

    Lanes share arms and setup length.  Consecutive lanes share a kernel call
    of at most BATCH_CELLS agents (a larger lane runs alone), and each result
    equals its lane's run alone, bit for bit.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    arms, setup = lanes[0].partition.arms, lanes[0].setup
    short = _check_run_args(arms, horizon, [lane.oracle for lane in lanes])
    for lane in lanes:
        _check_partition(lane.graph, arms, lane.partition)
    if any(lane.setup != setup for lane in lanes):
        raise ValueError(f"lanes need one setup length, got {sorted({x.setup for x in lanes})}")
    calls, agents = [], BATCH_CELLS
    for lane in lanes:
        agents += lane.partition.node_count
        if agents > BATCH_CELLS:  # a new call
            calls.append([])
            agents = lane.partition.node_count
        calls[-1].append(lane)
    return [run for call in calls for run in _run_batch(call, horizon, short, debug)]


def uninformed_lane(g: Graph, arms: int, n_upper: int, horizon: int, oracle: LossOracle,
                    policy_seed: int, log_sink: IO | None = None) -> Lane:
    """A lane of the full uninformed protocol: the policy stream elects the centers,
    plays one uniform action per agent per setup step, then the policy phase.  The
    setup length depends only on (arms, n_upper, horizon)."""
    rng = np.random.default_rng(policy_seed)
    election = compute_centers_uninformed(g, arms, n_upper, horizon, rng)
    return Lane(g, election.partition, oracle, rng, log_sink, election.total_steps,
                election.exhaustions)


def solo_lane(arms: int, oracle: LossOracle, policy_seed: int) -> Lane:
    """A solo Exp3 lane: the one-node graph, whose agent's closed neighborhood is itself."""
    solo = Partition(arms=arms, centers=(0,), center_of=(0,), origin_of=(0,), delay=(0,),
                     mass_m=(1,), mass_d=(0,))
    return Lane(build_graph(1, ()), solo, oracle, np.random.default_rng(policy_seed))


def run_informed_batch(g: Graph, arms: int, horizon: int, oracles: Sequence[LossOracle],
                       policy_seeds: Sequence[int], partition: Partition | None = None,
                       debug: bool = False, log_sinks: Sequence | None = None) -> list[RunResult]:
    """run_informed for each (oracle, policy seed) pair, as lanes on one election."""
    if len(oracles) != len(policy_seeds) or not oracles:
        raise ValueError(f"need one oracle per policy seed, got {len(oracles)} and "
                         f"{len(policy_seeds)}")
    if log_sinks is not None and len(log_sinks) != len(oracles):
        raise ValueError(f"need one log sink per seed, got {len(log_sinks)} for "
                         f"{len(oracles)} seeds")
    if partition is None:
        partition = compute_centers_informed(g, arms)
    else:  # here, so that a partition over other arms is named before the oracles
        _check_partition(g, arms, partition)
    return run_lanes([Lane(g, partition, oracle, np.random.default_rng(seed), sink)
                      for oracle, seed, sink in zip(oracles, policy_seeds,
                                                    log_sinks or [None] * len(oracles))],
                     horizon, debug)


def run_informed(g: Graph, arms: int, horizon: int, oracle: LossOracle, policy_seed: int,
                 debug: bool = False, log_sink: IO | None = None,
                 partition: Partition | None = None) -> RunResult:
    """Simulate with the graph known in advance: partitioning costs no steps."""
    return run_informed_batch(g, arms, horizon, [oracle], [policy_seed], partition, debug,
                              [log_sink])[0]


def run_uninformed(g: Graph, arms: int, n_upper: int, horizon: int, oracle: LossOracle,
                   policy_seed: int, debug: bool = False, log_sink: IO | None = None) -> RunResult:
    """Simulate the uninformed protocol (uninformed_lane); losses accrue from step 1."""
    lane = uninformed_lane(g, arms, n_upper, horizon, oracle, policy_seed, log_sink)
    return run_lanes([lane], horizon, debug)[0]


def run_solo_exp3(arms: int, horizon: int, oracle: LossOracle, policy_seed: int) -> RunResult:
    """Baseline: one agent, no neighbors, importance weights from its own play."""
    return run_lanes([solo_lane(arms, oracle, policy_seed)], horizon)[0]


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
