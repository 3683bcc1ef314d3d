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
import json
import math
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from . import exp3
from .graph import Graph, _distinct, _neighbors, build_graph
from .losses import LossOracle, bernoulli_losses, matrix_losses, switching_losses  # noqa: F401
from .partition import (
    Partition,
    _check_partition,
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


def _cdf_floor(k: int) -> float:
    """A floor under the last CDF entry of any distribution the kernel samples from.

    Only a draw of 0 or above that entry takes the sampler's fallback.  The
    entry sums p = w / S in order, w >= 0, S = np.add.reduce(w).  With
    u = 2^-53, S = sum(w)(1 + e), |e| <= (k - 1)u; a quotient loses a factor
    1 - u (or 2^-1075 if subnormal) and the running sum (k - 1)u of its total.
    So the entry is >= 1 - 2ku - O(k^2 u^2) > 1 - 4ku, as is the uniform start's.
    """
    return 1.0 - 4 * k * 2.0 ** -53


def _run_batch(lanes: Sequence[Lane], horizon: int, short: bool = False,
               debug: bool = False) -> list[RunResult]:
    """Play the lanes in lockstep on one flat agent axis (``_layout``), every center at once.

    Steps 1..setup are uniform play while the uninformed election runs, the
    rest follow the protocol: only they go through the ``play`` stage.  Each
    lane's sums run in a fixed order, whatever lanes share the call."""
    setup = lanes[0].setup
    total = setup + horizon
    run = _Kernel(lanes, _layout(lanes, horizon), total, short, debug)
    for begin, end, stages in ((0, setup, (run.read, run.charge, run.fold)),
                               (setup, total, (run.read, run.play, run.charge, run.fold))):
        # the ledgers at the phase's start: the policy phase's are kept
        policy_start = [[x.copy() for x in ledger] for ledger in run.ledgers]
        for start in range(begin, end, run.block):
            for stage in stages:
                stage(start, min(start + run.block, end) - start)
    return [RunResult(lane.partition, setup, total, *ledger, tuple(first), digest.hexdigest(),
                      snap, found, lane.exhaustions, short)
            for lane, ledger, first, digest, snap, found
            in zip(lanes, run.ledgers, policy_start, run.digests, run.snaps, run.violations)]


_Layout = namedtuple("_Layout", "arms off sizes origin roles centers nodes center_lane members "
                     "starts rates runs")


def _layout(lanes: Sequence[Lane], horizon: int) -> _Layout:
    """The lanes' index arrays on one flat agent axis, lane l's agents at off[l]..off[l + 1] - 1.

    Per agent: ``origin``, whose distribution it plays.  Per lane: ``sizes``
    and ``roles`` (0 a center, 1 a relay one delay step from its center, 2
    any other relay).  Per center, lane by lane in partition order: its
    agent, node, lane, rate (a column) and closed neighborhood, ``members``
    from ``starts`` on, ascending (sorted by slot * n + member).  ``runs``:
    (first, end) of each run of lanes of equal size."""
    k, sizes = lanes[0].partition.arms, [lane.partition.node_count for lane in lanes]
    off = np.cumsum([0, *sizes]).tolist()
    origin, roles, members, segs, masses = ([] for _ in range(5))
    for lane, o in zip(lanes, off):
        part = lane.partition
        n, c = part.node_count, part.centers
        node, own = np.arange(n), np.arange(c.size)
        is_center = part.center_of == node
        origin.append(o + np.where(is_center, node, part.origin_of))
        roles.append(np.where(is_center, 0, 2 - (part.delay == 1)))
        neighbors, degrees = _neighbors(*lane.graph.csr, c)
        keys = np.sort(np.concatenate((np.repeat(own, degrees) * n + neighbors, own * n + c)))
        members.append(o + keys % n)
        segs.append(degrees + 1)
        masses += zip(part.mass_m.take(c).tolist(), part.mass_d.take(c).tolist())
    center_lane = np.repeat(np.arange(len(lanes)), [x.size for x in segs])
    nodes, seg = np.concatenate([lane.partition.centers for lane in lanes]), np.concatenate(segs)
    rates = np.array([[exp3.learning_rate(mass_value(m, d), k, horizon)] for m, d in masses])
    cut = [l for l in range(1, len(lanes)) if sizes[l] != sizes[l - 1]]
    return _Layout(k, off, sizes, np.concatenate(origin), roles, nodes + np.take(off, center_lane),
                   nodes, center_lane, np.concatenate(members), np.cumsum(seg) - seg, rates,
                   list(zip([0, *cut], [*cut, len(lanes)])))


class _Kernel:
    """A kernel call's buffers and running totals.  Its methods are the stages a block of at
    most ``block`` steps goes through: ``read``, ``play``, ``charge`` and ``fold``."""

    def __init__(self, lanes, lay, total, short, debug):
        k, off, sizes, a = lay.arms, lay.off, lay.sizes, lay.off[-1]
        self.lanes, self.lay, self.total, self.debug = lanes, lay, total, debug
        self.setup = lanes[0].setup
        # a stream per distinct oracle, read once a block; a short loss table fails here
        oracles = {id(lane.oracle): lane.oracle for lane in lanes}
        self.streams = {i: oracle.stream(total) for i, oracle in oracles.items()}
        self.digests = [hashlib.blake2b(np.array([n, k, total], np.int64).tobytes() + r.tobytes(),
                                        digest_size=8) for n, r in zip(sizes, lay.roles)]
        for sink, r in zip((lane.log_sink for lane in lanes), lay.roles):
            if sink is not None:  # log v2's header: every agent's role, once
                sink.write(json.dumps({"version": 2, "role": np.take(ROLE_CODES, r).tolist()})
                           + "\n")
        self.arm_text = np.array([f"{x}{end}" for end in (", ", "]}\n") for x in range(k)], "S")
        self.block = block = max(1, min(BATCH_ROWS, BATCH_CELLS // a))
        # Running totals: realized and semi-expected loss per agent, loss per
        # lane and arm.  Rows 1..m of `steps` and `losses` take a block's
        # charges, expected losses and loss rows; with the totals in the row
        # before a segment, a sum over rows adds the segment step by step, as a
        # per-step `+=` does (two agent totals keep the inner axis 2 long or
        # more: numpy sums a lone contiguous axis pairwise).
        self.totals, self.arm_totals = np.zeros((2, a)), np.zeros((len(lanes), k))
        # each lane's realized and semi loss per agent and loss per arm, views of the totals
        self.ledgers = [(self.totals[0, lo:hi], self.totals[1, lo:hi], self.arm_totals[l])
                        for l, (lo, hi) in enumerate(zip(off, off[1:]))]
        self.every = [_snapshot_every(total, n, k) for n in sizes]
        self.snaps = [np.empty((-(-total // e), 2 * n + k)) for e, n in zip(self.every, sizes)]
        self.steps, self.losses = np.empty((block + 1, 2, a)), np.empty((block + 1, len(lanes), k))
        # a step's actions overwrite the draws they were sampled with; `charge`
        # makes them their flat index into losses
        self.draws = np.empty((block, a))
        self.actions = self.draws.view(np.int64)
        # flat index of losses[1 + j, lane of v, 0]: a lane's row plus a step's
        self.lane_cell = np.repeat(np.arange(len(lanes)) * k, sizes)
        self.step_cell = np.arange(1, block + 1)[:, None] * self.losses[0].size
        # a lane's digest records (step, actions as int64, losses), one block at a time
        self.records = [np.empty(block, dtype=[("t", np.int64), ("a", np.int64, (n,)),
                                               ("c", np.float64, (n,))]) for n in sizes]
        # two buffers of every agent's distribution and CDF: a step reads one, writes the other
        state = np.empty((2, 2, a, k))
        state[0, 0] = 1.0 / k
        np.cumsum(state[0, 0], axis=1, out=state[0, 1])
        views = [(x, x[0], x[1], x.reshape(-1, k), [x[0, off[l0]:off[l1]].reshape(
            -1, sizes[l0], k) for l0, l1 in lay.runs]) for x in state]
        c, h, cells = lay.centers.size, lay.members.size, (lay.centers.size, k)
        self.drift = (not short) & (lay.rates[:, 0] <= 0.5 / k + 1e-15)  # the drift audit's
        self.chunk = max(1, (BATCH_CELLS >> 6) // (c * k)) if debug else 1  # steps per audit
        self.stash = np.empty((4, self.chunk) + cells)  # p_now, p_next, est, observe
        self.slots = [tuple(self.stash[:, i]) for i in range(self.chunk)]  # a step's views
        self.violations: list[list[str]] = [[] for _ in lanes]
        # `play`'s state and scratch, named there: the log-weights, the rates in full
        # shape (no ufunc buffering), the flat index of observed[slot, 0] per member, the
        # center rows of a state buffer's arm rows, and the centers' new distribution and
        # CDF (the CDF's rows are scratch until then)
        fresh = np.empty((2,) + cells)
        self.scratch = (views, np.zeros(cells), np.broadcast_to(lay.rates, cells).copy(),
                        lay.origin, lay.members, lay.starts,
                        k * np.repeat(np.arange(c), np.diff(lay.starts, append=h)),
                        np.concatenate((lay.centers, lay.centers + a)), *fresh,
                        fresh.reshape(-1, k), np.empty((c, 1)), np.empty(a), np.ones(k),
                        np.empty((h, k)), np.empty(cells, bool), np.empty(h, np.int64),
                        np.ones(1, bool))
        self.center_loss = np.empty((block,) + cells)
        # per step: views of its actions, draws (also as a column), center losses and, per run
        # of lanes, loss rows and expected losses p @ loss row (one (lanes, n, k) @ (lanes, k, 1))
        self.per_row = list(zip(self.actions, self.draws, self.draws[..., None], self.center_loss,
                                zip(*(zip(self.losses[1:, l0:l1, :, None], self.steps[
                                    1:, 1, off[l0]:off[l1]].reshape(block, -1, sizes[l0], 1))
                                      for l0, l1 in lay.runs))))

    def read(self, start, m):
        """The block's loss rows and each agent's draws: in the warm-up a uniform action, whose
        expected loss is the row's mean; after it a uniform draw in [0, 1) to sample with."""
        rows = {i: read(m) for i, read in self.streams.items()}
        k, off, losses = self.lay.arms, self.lay.off, self.losses
        for l, (lane, lo, hi) in enumerate(zip(self.lanes, off, off[1:])):
            losses[1:m + 1, l] = rows[id(lane.oracle)]
            # row-major fills: the same streams as one call per step
            if start < self.setup:
                self.actions[:m, lo:hi] = lane.rng.integers(0, k, size=(m, hi - lo))
                self.steps[1:m + 1, 1, lo:hi] = losses[1:m + 1, l].mean(axis=1, keepdims=True)
            else:
                self.draws[:m, lo:hi] = lane.rng.random((m, hi - lo))

    def play(self, start, m):
        """The block's steps: agents sample, centers update, relays stage their origin's play."""
        (views, logw, rates, origin, flat, starts, slot_cell, fresh_at, p_next, work, fresh_rows,
         row, count, ones, gathered, observed, seen, true) = self.scratch
        lay, draws, per_row, k, debug, chunk = (self.lay, self.draws[:m], self.per_row,
                                                self.lay.arms, self.debug, self.chunk)
        p_now, p_out, est, observe = self.slots[0]
        # the steps where a draw is 0 or above the CDF floor
        rare = ((draws.min(axis=1) == 0.0) | (draws.max(axis=1) > _cdf_floor(k))).tolist()
        self.losses[1:m + 1].take(lay.center_lane, axis=1, out=self.center_loss[:m])
        for j in range(m):
            (now, p, cdf, _, mm), (new, p_new, _, new_rows, _) = views
            act, draw, draw_col, loss_row, expect = per_row[j]
            # inverse-CDF sample, arms ascending: the action is the number
            # of arms whose CDF lies below the draw (exact small sums in
            # p_new until the relays' take fills it), an arm of positive
            # probability unless every arm lies below or the draw is 0
            np.matmul(np.less(cdf, draw_col, out=p_new), ones, out=count)
            if rare[j]:
                for v in np.flatnonzero((count >= k) | (draw == 0.0)).tolist():
                    count[v] = exp3.sample_action(p[v], float(draw[v]))
            act[...] = count
            for p_run, (loss_run, expected) in zip(mm, expect):
                np.matmul(p_run, loss_run, out=expected)
            # relays stage the origin's round-t distribution and CDF ("clip"
            # lets take write to out unbuffered; every index is in range)
            now.take(origin, axis=1, out=new, mode="clip")
            if debug:
                t, i = start + j + 1, (start + j - self.setup) % chunk
                p_now, p_out, est, observe = self.slots[i]
            # each center: products over its closed neighborhood, members ascending
            p.take(flat, axis=0, out=gathered, mode="clip")
            np.multiply.reduceat(np.subtract(1.0, gathered, out=gathered), starts, axis=0,
                                 out=observe)
            np.subtract(1.0, observe, out=observe)
            observed.fill(False)
            act.take(flat, out=seen, mode="clip")
            observed.put(np.add(seen, slot_cell, out=seen), true)
            exp3.estimated_loss_vector(loss_row, observe, observed, out=est)
            exp3.exp3_update_raw(logw, rates, est, logw, work, row)  # finiteness: below
            exp3.probs_from_log_weights(logw, p_next, work, row)
            np.add.accumulate(p_next, axis=1, out=work)
            if debug:
                p.take(lay.centers, axis=0, out=p_now)
                p_out[...] = p_next
                if i == chunk - 1 or t == self.total:
                    exp3._audit(self.violations, t - i, lay.nodes, lay.center_lane,
                                *self.stash[:, :i + 1], lay.rates, self.drift)
            new_rows[fresh_at] = fresh_rows
            views.reverse()
        if not np.isfinite(logw).all():
            raise exp3.NonFiniteEstimateError("loss estimates must be finite")

    def charge(self, start, m):
        """Charge each agent its action's loss; hash each lane's records and log its lines."""
        off, actions, charged = self.lay.off, self.actions[:m], self.steps[1:m + 1, 0]
        for record, lo, hi in zip(self.records, off, off[1:]):
            record["a"][:m] = actions[:, lo:hi]
        # one gather for the block, losses[1 + j, lane of v, actions[j, v]], through the
        # actions' flat index, made in place once the records hold them
        self.losses.take(np.add(np.add(actions, self.lane_cell, out=actions), self.step_cell[:m],
                                out=actions), out=charged, mode="clip")
        for l, (digest, record, lane) in enumerate(zip(self.digests, self.records, self.lanes)):
            rec = record[:m]
            rec["t"] = np.arange(start + 1, start + m + 1)
            rec["c"] = charged[:, off[l]:off[l + 1]]
            digest.update(rec)  # step by step
            if lane.log_sink is not None:
                _log_lines(lane.log_sink, start + 1, rec["a"], self.losses[1:m + 1, l],
                           self.arm_text)

    def fold(self, start, m):
        """Fold the block into the totals, cut at each lane's snapshot steps."""
        steps, losses, totals, arm_totals = self.steps, self.losses, self.totals, self.arm_totals
        lo = 0
        for hi in sorted({h for e in set(self.every) for h in range(e - start % e, m, e)} | {m}):
            steps[lo], losses[lo] = totals, arm_totals
            np.add.reduce(steps[lo:hi + 1], axis=0, out=totals)
            np.add.reduce(losses[lo:hi + 1], axis=0, out=arm_totals)
            t = start + hi
            for l, (snap, e) in enumerate(zip(self.snaps, self.every)):
                if t % e == 0 or t == self.total:
                    np.concatenate(self.ledgers[l], out=snap[(t - 1) // e])
            lo = hi


def _log_lines(sink: IO, first_t: int, actions, loss_rows, arm_text) -> None:
    """Log v2's line json.dumps({"t": t, "loss": loss_rows[i], "action": actions[i]}) for each
    step t = first_t + i.

    arm_text[a] is action a's text and separator, arm_text[K + a] the last
    agent's and the line end, NUL-padded: one take and one translate write
    every action's.  Each distinct bit pattern of the losses is formatted
    once, by one json.dumps, so -0.0 keeps its sign.
    """
    bits = loss_rows.view(np.int64)
    seen = _distinct(np.array(bits))
    values = seen.view(np.float64)
    text = np.array(json.dumps(values.tolist())[1:-1].split(", "), object)
    heads = [f'{{"t": {t}, "loss": [{", ".join(row)}], "action": ['
             for t, row in enumerate(text.take(seen.searchsorted(bits)).tolist(), first_t)]
    at = actions.copy()
    at[:, -1] += arm_text.size // 2
    acts = arm_text.take(at).tobytes().translate(None, b"\0").decode()
    sink.write("".join(map(str.__add__, heads, acts.splitlines(True))))


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
