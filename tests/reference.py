"""Test oracles: the Python code the array implementations replaced.

``SimWorld`` advances one run one global step at a time, with a Python
loop over centers; ``run_informed``, ``run_uninformed`` and
``run_solo_exp3`` drive it one seed per call, and return a ``ReferenceRun``:
a ``RunResult`` that also holds the played distributions when asked to
record them; ``run_lane`` plays any partition after any number of
warm-up steps.  ``assert_same_run`` compares two runs field by field.
With a log sink, the world writes log v2 through ``json.dumps``: a header
of every agent's role, then one line per step of its loss row and every
agent's action; ``log_records`` decodes one into per-agent records.  The
code is kept as it was in ``coopmab.simulate`` so that the differential
tests in ``test_simulate.py`` compare the kernel with an independent
implementation rather than with itself.  It shares no table with the
kernel: ``role``, ``ROLES`` (the digest's role codes) and ``mass_value``
derive each node's role and each center's mass from the partition's
columns here.

``neighbors``, ``degree`` and ``closed_neighborhood`` read one node's
neighbors off a graph's CSR arrays, as ``Graph`` once did per node, and
``complete_graph`` builds a clique.  ``random_connected_graph_edges``
draws the random graph's extra edges one scalar draw at a time, as
``coopmab.graph.random_connected_graph`` once did.  ``adjacency`` gives a graph's
neighbor tuples and ``ball`` the nodes within r hops of one node, by a
per-node Python BFS.  ``luby_2mis`` is the two-hop election that builds
one ``ball`` per participant, kept as it was in ``coopmab.partition``
for the differential test in ``test_partition.py``.
``is_r_independent``, ``is_r_mis`` and ``independence_number`` check
r-independence, r-maximality and the independence number on small
graphs; ``reach_within``,
``oracle_independent`` and ``oracle_mis`` judge the first two through
boolean reachability matrices instead, for the sweep in
``test_graph.py``.  No ``coopmab`` code calls any of them.

``parse_edge_list`` and ``build_graph`` are the edge-list reader and the
graph construction that went through per-edge Python sets, and
``validate_partition`` the per-node partition validator, kept as they
were in ``coopmab.graph`` and ``coopmab.partition`` for the differential
tests in ``test_graph.py`` and ``test_partition.py``.  Two changes:
``build_graph`` returns the neighbor tuples (as ``adjacency`` does) rather
than a ``Graph``, checking reachability with the per-node BFS ``Graph`` had, and
``validate_partition`` runs checks (c) and (d) only when every node is
assigned to a center and check (b) passed, and its mass-floor check fails
a stored pair that is no mass (m <= 0 or d < 0) instead of raising.
``spread_history_violations`` and ``induced_subgraph`` have no caller
left in ``coopmab``, and ``is_distribution`` (a 1-D vector over two or more
arms, each in [0, 1 + tol], summing to 1 within tol) is only the tests'.

``OrderedMass`` is the mass pair with the order and score that
``coopmab.partition.Mass`` once had.  ``SpreadMap`` is the record a
propagation once returned: its columns, its kept rounds and its settle
round; ``decoded_rounds`` turns a ``_SpreadRounds``' mass keys back into
(m, d) rows, ``spread_map`` reads a record off them, and
``centers_to_components`` propagates a whole center set into one.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import total_ordering
from typing import IO, Iterable

import numpy as np

import coopmab.graph
import coopmab.partition
from coopmab import exp3, simulate
from coopmab.graph import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    Graph,
    GraphError,
    NodeOutOfRangeError,
    SelfLoopError,
)
from coopmab.partition import (
    MASS_DECAY_DENOM,
    PARTITION_COLUMNS,
    CheckResult,
    EmptyCenterSetError,
    LubyTranscript,
    Partition,
    PartitionReport,
    _SpreadRounds,
    compute_centers_informed,
    compute_centers_uninformed,
    degree_clamp,
    min_center_distance,
)
from coopmab.simulate import LossOracle, RunResult, _check_run_args

ROLES = ("center", "adjacent", "simple")  # the digest header's role codes, by index


def is_distribution(probs, tol: float = exp3.DISTRIBUTION_TOL) -> bool:
    p = np.asarray(probs, dtype=float)
    return bool(
        p.ndim == 1
        and p.size >= 2
        and np.all(p >= 0.0)
        and np.all(p <= 1.0 + tol)
        and abs(float(p.sum()) - 1.0) <= tol
    )


def role(p: Partition, v: int) -> str:
    """Node v's role: a center, a relay one delay step from its center, or another relay."""
    if p.center_of[v] == v:
        return "center"
    return "adjacent" if p.delay[v] == 1 else "simple"


@total_ordering
@dataclass(frozen=True)
class OrderedMass:
    """A mass pair ordered as its value m * exp(-d/6), exactly, nil lowest."""

    m: int
    d: int

    def __post_init__(self):
        self.value()  # raises on a pair that is no mass

    def value(self) -> float:
        return coopmab.partition.mass_value(self.m, self.d)

    def score(self) -> float:
        # 6*ln(m) - d orders masses like value() but stays in a range where
        # float64 is exact far beyond any gap two distinct pairs can have
        return -math.inf if self.m == 0 else MASS_DECAY_DENOM * math.log(self.m) - self.d

    def __lt__(self, other: "OrderedMass") -> bool:
        if (self.m, self.d) == (other.m, other.d):
            return False
        a, b = self.score(), other.score()
        if a != b:
            return a < b
        # distinct pairs cannot share a true score; keep the order total anyway
        return (self.m, -self.d) < (other.m, -other.d)


def mass(p: Partition, v: int) -> OrderedMass:
    return OrderedMass(int(p.mass_m[v]), int(p.mass_d[v]))


def mass_value(p: Partition, v: int) -> float:
    """m * exp(-d/6) of node v's stored pair."""
    return int(p.mass_m[v]) * math.exp(-int(p.mass_d[v]) / MASS_DECAY_DENOM)


def assert_same_partition(a: Partition, b: Partition) -> None:
    """Equal arms, and each column equal in dtype, length and values."""
    assert a.arms == b.arms
    for name in PARTITION_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tolist() == y.tolist(), name


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
            [int(partition.origin_of[v]) if partition.center_of[v] != v else v for v in range(n)]
        )
        self.role_names = [role(partition, v) for v in range(n)]
        self.roles = np.array([ROLES.index(r) for r in self.role_names], dtype=np.int64)
        horizon_left = losses.shape[0]
        self.center_members: list[tuple[int, np.ndarray]] = []
        self.center_logw: dict[int, np.ndarray] = {}
        self.center_rate: dict[int, float] = {}
        for c in partition.centers.tolist():
            nbrs = np.array(closed_neighborhood(graph, c) if graph is not None else [c])
            self.center_members.append((c, nbrs))
            self.center_rate[c] = exp3.learning_rate(mass_value(partition, c), self.arms,
                                                     horizon_left)
            self.center_logw[c] = np.zeros(self.arms)

        self.realized = np.zeros(n)
        self.semi = np.zeros(n)
        self.arm_cum = np.zeros(self.arms)
        self._rows = np.arange(n)
        self._draw_buf = np.empty((0, n))
        self._draw_ptr = 0
        self.violations: list[str] = []
        self.checkpoints: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        # about 256 snapshots a run, at most CHECKPOINT_CELLS ledger cells (or one snapshot)
        fit = max(1, simulate.CHECKPOINT_CELLS // (2 * n + self.arms))
        self.checkpoint_every = max(1, losses.shape[0] // 256, -(-losses.shape[0] // fit))
        self.dist_history: list[np.ndarray] = []

        self.digest = hashlib.blake2b(digest_size=8)
        header = np.array([n, self.arms, losses.shape[0]], dtype=np.int64)
        self.digest.update(header.tobytes())
        self.digest.update(self.roles.tobytes())
        if log_sink is not None:  # log v2: each agent's role once, then one line per step
            log_sink.write(json.dumps({"version": 2, "role": self.role_names}) + "\n")

    def set_center_horizon(self, horizon: int) -> None:
        """Re-tune center learning rates for the true policy horizon."""
        for c in self.partition.centers.tolist():
            self.center_rate[c] = exp3.learning_rate(
                mass_value(self.partition, c), self.arms, horizon
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
            self.log_sink.write(json.dumps({"t": self.t, "loss": loss_row.tolist(),
                                            "action": actions.tolist()}) + "\n")
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
        if not is_distribution(p_next, 1e-12):
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
class ReferenceRun(RunResult):
    """A reference run's result; ``dist_history[t - 1]`` holds every agent's
    distribution played at policy step t when the run records them."""

    dist_history: list = field(repr=False, default_factory=list)


def _finish(world: SimWorld, setup, snapshot, exhaustions=0, short=False) -> ReferenceRun:
    # the snapshots as one (checkpoints, 2N + K) block of ledger rows, as RunResult holds them
    rows = np.array([np.concatenate(c[1:]) for c in world.checkpoints])
    return ReferenceRun(world.partition, setup, world.t - 1, world.realized, world.semi,
                        world.arm_cum, snapshot, world.digest.hexdigest(), rows,
                        world.violations, exhaustions, short, world.dist_history)


def _ledgers(world: SimWorld) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return world.realized.copy(), world.semi.copy(), world.arm_cum.copy()


def assert_same_run(run: RunResult, want: RunResult, each_step: bool = False) -> None:
    """Every ``RunResult`` field equal: arrays, also inside checkpoints and
    ``policy_start``, in dtype, shape and bytes.  With ``each_step``, ``run``
    must hold a checkpoint per step (runs under 512 steps do), so the semi
    ledger compares every agent's p . loss at every step."""
    if each_step:
        assert [c[0] for c in run.checkpoints] == list(range(1, run.total_steps + 1))
    for name in RunResult.__dataclass_fields__:
        a, b = getattr(run, name), getattr(want, name)
        if name == "partition":
            assert_same_partition(a, b)
        else:
            assert _same(a, b), name


def log_records(text: str) -> list[tuple[int, int, int, float, str]]:
    """(t, v, action, loss, role) per agent per step, read from a log v2's lines."""
    header, *steps = map(json.loads, text.splitlines())
    assert header.keys() == {"version", "role"} and header["version"] == 2
    roles = header["role"]
    return [(rec["t"], v, a, rec["loss"][a], roles[v])
            for rec in steps for v, a in enumerate(rec["action"])]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def run_lane(
    g: Graph | None,
    partition: Partition,
    oracle: LossOracle,
    policy_rng: np.random.Generator,
    setup: int,
    horizon: int,
    debug: bool = False,
    log_sink: IO | None = None,
    record_distributions: bool = False,
    exhaustions: int = 0,
) -> ReferenceRun:
    """One run: ``setup`` steps of uniform warm-up play, then ``horizon`` policy
    steps, centers tuned for the policy horizon.  Losses accrue from step 1."""
    short = _check_run_args(partition.arms, horizon, [oracle])
    world = SimWorld(
        g,
        partition,
        oracle.rows(0, setup + horizon),
        policy_rng,
        debug=debug,
        check_weight_drift=not short,
        log_sink=log_sink,
        record_distributions=record_distributions,
    )
    world.set_center_horizon(horizon)
    for _ in range(setup):
        world.warmup_round()
    assert world.t - 1 == setup, "warm-up step accounting drifted"
    snapshot = _ledgers(world)
    for _ in range(horizon):
        world.advance_round()
    return _finish(world, setup, snapshot, exhaustions=exhaustions, short=short)


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
) -> ReferenceRun:
    """Simulate with the graph known in advance: partitioning costs no steps."""
    if partition is None:
        partition = compute_centers_informed(g, arms)
    return run_lane(g, partition, oracle, np.random.default_rng(policy_seed), 0, horizon, debug,
                    log_sink, record_distributions)


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
) -> ReferenceRun:
    """Simulate the full uninformed protocol: elect centers while playing uniform.

    The policy RNG stream is consumed in a fixed order: first the election
    protocol's draws, then one uniform action per agent per setup step, then
    the policy phase.  Losses accrue from step 1; regret is reported against
    the best fixed arm over the whole played timeline (policy-phase-only
    variant included in the result).
    """
    rng = np.random.default_rng(policy_seed)
    election = compute_centers_uninformed(g, arms, n_upper, horizon, rng)
    exhaustions = sum(1 for call in election.luby_calls if call.result.exhausted)
    return run_lane(g, election.partition, oracle, rng, election.total_steps, horizon, debug,
                    log_sink, record_distributions, exhaustions)


def _solo_partition(arms: int) -> Partition:
    """The one-agent partition the solo baselines run on."""
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
) -> ReferenceRun:
    """Baseline: one agent, no neighbors, importance weights from its own play."""
    return run_lane(None, _solo_partition(arms), oracle, np.random.default_rng(policy_seed), 0,
                    horizon)


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    """v's neighbors, ascending: its row of the CSR arrays."""
    indptr, indices = g.csr
    return tuple(indices[indptr[v]:indptr[v + 1]].tolist())


def degree(g: Graph, v: int) -> int:
    return len(neighbors(g, v))


def closed_neighborhood(g: Graph, v: int) -> tuple[int, ...]:
    """Neighbors of v plus v itself, ascending."""
    return tuple(sorted((*neighbors(g, v), v)))


def complete_graph(n: int) -> Graph:
    return coopmab.graph.build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_connected_graph_edges(n: int, extra_edge_prob: float, rng) -> list[tuple[int, int]]:
    """The sorted edges ``coopmab.graph.random_connected_graph`` builds, drawn as it once did.

    A Pruefer tree, then one scalar ``rng.random()`` per non-tree pair in a
    Python double loop over (u, v), u < v, ascending.
    """
    rng = np.random.default_rng(rng)
    if n == 1:
        return []
    seq = rng.integers(0, n, size=n - 2)
    degree = (np.bincount(seq, minlength=n) + 1).tolist()
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: set[tuple[int, int]] = set()
    for x in seq.tolist():
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.add((heapq.heappop(leaves), heapq.heappop(leaves)))
    if extra_edge_prob > 0.0:
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and rng.random() < extra_edge_prob:
                    edges.add((u, v))
    return sorted(edges)


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every node's sorted neighbor tuple, no self entries: what ``build_graph`` returns."""
    return tuple(neighbors(g, v) for v in range(g.node_count))


def ball(g: Graph, v: int, radius: int) -> frozenset[int]:
    """All nodes within BFS distance ``radius`` of v (v included)."""
    reached, frontier = {v}, [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in neighbors(g, u):
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(reached)


def luby_2mis(g: Graph, universe: Iterable[int], max_rounds: int, rng) -> LubyTranscript:
    """Randomized maximal two-hop independent set over ``universe``.

    Per round each remaining participant draws uniform [0,1) and joins iff
    it strictly beats every other participant within two hops in the full
    graph (float ties, probability zero, go to the lowest id).  Joiners
    knock every participant within two hops out of the running.  The
    joined set is two-hop independent unconditionally; it is maximal
    unless the round budget runs out first, which the transcript records.
    """
    active = sorted(set(int(v) for v in universe))
    for v in active:
        if not 0 <= v < g.node_count:
            raise ValueError(f"node {v} outside 0..{g.node_count - 1}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    balls = {v: ball(g, v, 2) for v in active}  # built once per call, dropped after
    joined: set[int] = set()
    remaining = set(active)
    rounds = 0
    while remaining and rounds < max_rounds:
        rounds += 1
        draws = {v: float(rng.random()) for v in sorted(remaining)}  # fixed draw order
        winners = {v for v in remaining if all(
            (draws[v], -v) > (draws[u], -u) for u in balls[v] & remaining if u != v)}
        joined |= winners
        if winners:
            remaining = {v for v in remaining if not (balls[v] & winners)}
    return LubyTranscript(rounds, frozenset(joined), exhausted=bool(remaining))


INDEPENDENCE_LIMIT = 30  # exhaustive independence_number() refuses larger graphs


class TooLargeError(GraphError):
    pass


def is_r_independent(g: Graph, nodes: Iterable[int], r: int) -> bool:
    """True iff all pairs in ``nodes`` are at distance > r in g."""
    members = set(nodes)
    outside = sorted(v for v in members if not 0 <= v < g.node_count)
    if outside:
        raise NodeOutOfRangeError(f"node {outside[0]} outside 0..{g.node_count - 1}")
    return all(ball(g, v, r) & members == {v} for v in members)


def is_r_mis(g: Graph, candidate: Iterable[int], universe: Iterable[int], r: int) -> bool:
    """True iff ``candidate`` is a maximal r-independent subset of ``universe``.

    Distances are measured in the full graph g: two universe nodes conflict
    when their g-distance is at most r.  Maximal means no universe node can
    be added without breaking independence.
    """
    cand, univ = set(candidate), set(universe)
    return (cand <= univ and is_r_independent(g, cand, r)
            and all(ball(g, u, r) & cand for u in univ - cand))


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size by branch and bound.

    Exhaustive, so refuses graphs above INDEPENDENCE_LIMIT nodes.
    """
    n = g.node_count
    if n > INDEPENDENCE_LIMIT:
        raise TooLargeError(f"independence_number limited to {INDEPENDENCE_LIMIT} nodes, got {n}")
    open_mask = [sum(1 << w for w in nbrs) for nbrs in adjacency(g)]
    best = 0

    def search(avail: int, size: int) -> None:
        nonlocal best
        if avail == 0:
            if size > best:
                best = size
            return
        if size + avail.bit_count() <= best:
            return
        # pivot on the densest available vertex; excluding it only helps if
        # it still has available neighbors
        pivot, pivot_deg = -1, -1
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            d = (open_mask[v] & avail).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
            m &= m - 1
        search(avail & ~(open_mask[pivot] | (1 << pivot)), size + 1)
        if pivot_deg > 0:
            search(avail & ~(1 << pivot), size)

    search((1 << n) - 1, 0)
    return best


def reach_within(g: Graph, r: int) -> np.ndarray:
    """Boolean matrix: True where nodes are within distance r (matrix-power route)."""
    n = g.node_count
    a = np.eye(n, dtype=bool)
    a[g.rows(), g.csr[1]] = True
    reach = a.copy()
    for _ in range(r - 1):
        reach = reach @ a
    return reach


def oracle_independent(reach: np.ndarray, nodes: set[int]) -> bool:
    members = sorted(nodes)
    return not any(
        reach[u, w] for i, u in enumerate(members) for w in members[i + 1 :]
    )


def oracle_mis(reach: np.ndarray, cand: set[int], univ: set[int]) -> bool:
    if not cand <= univ or not oracle_independent(reach, cand):
        return False
    return all(any(reach[u, w] for w in cand) for u in univ - cand)


def build_graph(node_count: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Validate a simple connected undirected graph; return its sorted neighbor tuples.

    Raises NodeOutOfRangeError, SelfLoopError, DuplicateEdgeError, or
    DisconnectedError; the checks run in that order.
    """
    if node_count < 1:
        raise NodeOutOfRangeError(f"node_count must be >= 1, got {node_count}")
    seen: set[tuple[int, int]] = set()
    nbrs: list[set[int]] = [set() for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise NodeOutOfRangeError(f"edge ({u}, {v}) outside 0..{node_count - 1}")
        if u == v:
            raise SelfLoopError(f"self loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    if node_count > 1:
        dist = [-1] * node_count
        dist[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        reach = sum(d >= 0 for d in dist)
        if reach != node_count:
            raise DisconnectedError(
                f"graph is disconnected: {reach} of {node_count} nodes reachable from 0"
            )
    return adj


def parse_edge_list(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse the plain edge-list format.

    First data line is ``N M``; the next M lines are ``u v`` with 0-based
    endpoints.  ``#`` starts a comment (full-line or trailing).
    """
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append([str(lineno)] + body.split())
    if not rows:
        raise EdgeListParseError("empty edge list: missing 'N M' header")

    def as_int(tok: str, lineno: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: expected integer, got {tok!r}") from None

    header = rows[0]
    if len(header) != 3:
        raise EdgeListParseError(f"line {header[0]}: header must be 'N M'")
    n = as_int(header[1], header[0])
    m = as_int(header[2], header[0])
    if len(rows) - 1 != m:
        raise EdgeListParseError(f"header declares {m} edges but {len(rows) - 1} edge lines found")
    edges = []
    for row in rows[1:]:
        if len(row) != 3:
            raise EdgeListParseError(f"line {row[0]}: edge line must be 'u v'")
        edges.append((as_int(row[1], row[0]), as_int(row[2], row[0])))
    return build_graph(n, edges)


@dataclass(frozen=True)
class InducedSubgraph:
    """Node-induced view of a parent graph; may be disconnected."""

    nodes: frozenset[int]
    adj: dict[int, tuple[int, ...]]

    def distances_from(self, source: int) -> dict[int, int]:
        """BFS distances within the view; unreachable member nodes are absent."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> InducedSubgraph:
    keep = frozenset(nodes)
    for v in keep:
        if not (0 <= v < g.node_count):
            raise NodeOutOfRangeError(f"node {v} outside 0..{g.node_count - 1}")
    adj = {v: tuple(w for w in neighbors(g, v) if w in keep) for v in keep}
    return InducedSubgraph(keep, adj)


@dataclass
class SpreadMap:
    """A propagation from a fixed center set: its settled columns and kept rounds.

    ``history[t]`` is the (4, N) state after t rounds (rows center_of,
    origin_of, mass_m, mass_d), from round 0 up to the first round equal
    to the one before (all rounds if none is); ``settled_round`` is the
    round before that repeat.  An unreached node's center_of and origin_of
    are -1 and its mass pair (0, 0).
    """

    arms: int
    rounds: int  # update rounds the protocol is charged for
    settled_round: int
    centers: tuple[int, ...]
    center_of: np.ndarray
    origin_of: np.ndarray
    mass_m: np.ndarray
    mass_d: np.ndarray
    history: list[np.ndarray]

    def fully_assigned(self) -> bool:
        return bool(np.all(self.center_of >= 0))

    def to_partition(self) -> Partition:
        if not self.fully_assigned():
            missing = np.flatnonzero(self.center_of < 0).tolist()
            raise ValueError(f"nodes {missing} were never reached by any center")
        return Partition(arms=self.arms, centers=sorted(self.centers), center_of=self.center_of,
                         origin_of=self.origin_of, delay=self.mass_d, mass_m=self.mass_m,
                         mass_d=self.mass_d)


def decoded_rounds(spread: _SpreadRounds) -> np.ndarray:
    """``spread.states`` as int64 rows center_of, origin_of, mass_m, mass_d per round."""
    cof, uof, key = spread.states.astype(np.int64).transpose(1, 0, 2)
    return np.stack((cof, uof, *spread.pair.take(key, axis=1)), axis=1)


def spread_map(spread: _SpreadRounds) -> SpreadMap:
    """The record of the centers added to ``spread`` so far, read off its ``states``."""
    states, last = decoded_rounds(spread), spread.rounds
    n = states.shape[2] - 1
    settled = next((t - 1 for t in range(1, last + 1) if (states[t] == states[t - 1]).all()), last)
    kept = states[:settled + 2, :, :n]
    cof, uof, mass_m, mass_d = kept[-1]
    reached = mass_m > 0
    return SpreadMap(spread.arms, last, settled, tuple(np.flatnonzero(spread.is_center).tolist()),
                     np.where(reached, cof, -1), np.where(reached, uof, -1), mass_m.copy(),
                     np.where(reached, mass_d, 0), list(kept))


def centers_to_components(g: Graph, centers: Iterable[int], arms: int) -> SpreadMap:
    """Propagate center mass outward from the whole center set at once.

    Runs spread_rounds(arms) + 1 synchronous rounds (``_SpreadRounds.add``
    from the empty set).  Nodes never reached report a nil assignment.
    """
    center_list = sorted(set(int(c) for c in centers))
    if not center_list:
        raise EmptyCenterSetError("center set must be non-empty")
    spread = _SpreadRounds(g, arms)
    spread.add(np.array(center_list))
    return spread_map(spread)


def spread_history_violations(g: Graph, comp: SpreadMap) -> list[str]:
    """Internal-consistency audit of a propagation transcript.

    Per node and round: mass never decreases; whenever the mass pair
    changes at round t its depth equals t; and the center claimed at
    round t is within t hops.
    """
    out: list[str] = []
    hist = comp.history
    dist: dict[int, np.ndarray] = {}  # BFS distances of each claimed center, once per call
    for t in range(1, len(hist)):
        prev, cur = hist[t - 1], hist[t]
        for v in range(g.node_count):
            a = OrderedMass(int(prev[2, v]), int(prev[3, v]))
            b = OrderedMass(int(cur[2, v]), int(cur[3, v]))
            if b < a:
                out.append(f"round {t}: node {v} mass dropped {a} -> {b}")
            if a != b:
                if b.d != t:
                    out.append(f"round {t}: node {v} changed to depth {b.d} != round")
                c = int(cur[0, v])
                if c < 0:
                    continue
                if c not in dist:
                    dist[c] = g.multi_source_distances([c])
                if int(dist[c][v]) > t:
                    out.append(f"round {t}: node {v} claims center {c} beyond {t} hops")
    return out


def validate_partition(g: Graph, p: Partition) -> PartitionReport:
    """Re-derive every structural property of a partition from scratch.

    The checks recompute distances and masses independently of however the
    partition was produced, so a buggy generator cannot vouch for itself.
    """
    n = g.node_count
    if p.node_count != n:
        raise ValueError(f"partition covers {p.node_count} nodes, graph has {n}")
    arms = p.arms
    centers = set(p.centers.tolist())
    center_of, origin_of, delay, mass_m, mass_d = (
        x.tolist() for x in (p.center_of, p.origin_of, p.delay, p.mass_m, p.mass_d))
    clamp = degree_clamp(g, arms)
    checks: list[CheckResult] = []

    def add(name: str, witness: str | None) -> None:
        checks.append(CheckResult(name, witness is None, witness))

    # (a) every node is assigned to a real center; centers claim themselves
    w = None
    for v in range(n):
        c = center_of[v]
        if c not in centers:
            w = f"node {v} assigned to non-center {c}"
            break
        if v in centers and (c != v or origin_of[v] != v or delay[v] != 0):
            w = f"center {v} does not claim itself"
            break
    add("assignment-cover", w)

    members: dict[int, set[int]] = {c: set() for c in centers}
    for v in range(n):
        if center_of[v] in members:
            members[center_of[v]].add(v)

    # (b) each component contains its center's closed neighborhood and is connected
    w = None
    comp_dist: dict[int, dict[int, int]] = {}
    for c in sorted(centers):
        part = members[c]
        bad = [u for u in closed_neighborhood(g, c) if u not in part]
        if bad:
            w = f"neighbor {bad[0]} of center {c} assigned elsewhere"
            break
        view = induced_subgraph(g, part)
        dists = view.distances_from(c)
        comp_dist[c] = dists
        if len(dists) != len(part):
            w = f"component of center {c} is not connected"
            break
    add("component-closure-connectivity", w)
    # (c) and (d) read every node's component: a node assigned to a
    # non-center has none, and neither has one past a failed (b)
    sound = w is None and all(c in centers for c in center_of)

    # (c) mass pairs follow the decay recurrence with independently measured depth
    w = None
    if sound:
        for v in range(n):
            c = center_of[v]
            want_m = int(clamp[c])
            want_d = comp_dist[c].get(v)
            if want_d is None:
                w = f"node {v} unreachable inside its component"
                break
            if (mass_m[v], mass_d[v]) != (want_m, want_d) or delay[v] != want_d:
                w = (
                    f"node {v}: stored ({mass_m[v]}, {mass_d[v]}) delay {delay[v]}, "
                    f"recomputed ({want_m}, {want_d})"
                )
                break
    else:
        w = "skipped: component structure broken"
    add("mass-recurrence", w)

    # (d) each relay's origin is a same-component neighbor one hop closer
    w = None
    if sound:
        for v in range(n):
            if v in centers:
                continue
            u = origin_of[v]
            c = center_of[v]
            if u not in neighbors(g, v):
                w = f"node {v}: origin {u} is not a neighbor"
                break
            if center_of[u] != c:
                w = f"node {v}: origin {u} lives in another component"
                break
            du, dv = comp_dist[c].get(u), comp_dist[c].get(v)
            if du is None or dv is None or du != dv - 1:
                w = f"node {v}: origin depth {du} does not precede own depth {dv}"
                break
    else:
        w = "skipped: component structure broken"
    add("origin-minimality", w)

    # (e) centers are pairwise more than two hops apart
    w = None
    if not is_r_independent(g, centers, 2):
        pairs = [
            (a, b) for a in sorted(centers) for b in sorted(ball(g, a, 2) & centers) if a < b
        ]
        w = f"centers {pairs[0]} within two hops"
    add("two-independence", w)

    # (f) every node's mass is at least exp(-1) of its own clamp,
    #     checked in pair form: (clamp, 6) <= (m, d); a pair that is no
    #     mass (m <= 0 or d < 0) fails
    w = None
    for v in range(n):
        m, d = mass_m[v], mass_d[v]
        floor = OrderedMass(int(clamp[v]), MASS_DECAY_DENOM)
        if m <= 0 or d < 0 or not floor <= OrderedMass(m, d):
            w = (f"node {v}: mass Mass(m={m}, d={d}) below floor "
                 f"({int(clamp[v])}, {MASS_DECAY_DENOM})")
            break
    add("mass-floor", w)

    # (g) no node is farther than 6*ln(arms) - 1 hops from the center set
    w = None
    dmin = min_center_distance(g, centers)
    limit = MASS_DECAY_DENOM * math.log(arms) - 1.0
    far = int(dmin.argmax())
    if float(dmin[far]) > limit:
        w = f"node {far} at distance {int(dmin[far])} > {limit:.2f} from all centers"
    add("center-eccentricity", w)

    return PartitionReport(checks)
