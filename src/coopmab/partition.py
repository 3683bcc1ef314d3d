"""Center election and component construction on communication graphs.

Each component has one center that runs the learning algorithm; everyone
else relays its distribution.  A node's mass is a pair (m, d) standing for
m * exp(-d/6), m the center's clamped closed degree and d the node's hop
distance from it, kept exact so comparisons never suffer round-off.

Everything here simulates a synchronous message protocol centrally: per
round, every node sees only its neighbors' previous-round state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exp3 import ArmsTooFewError
from .graph import Graph, _bfs, _distinct, _neighbors

MASS_DECAY_DENOM = 6  # one relay hop multiplies mass by exp(-1/6)


class EmptyCenterSetError(ValueError):
    pass


def mass_value(m: int, d: int) -> float:
    """m * exp(-d/6) of a mass pair; nil, (0, 0), is worth 0.0."""
    if m < 0 or d < 0:
        raise ValueError(f"mass fields must be non-negative, got ({m}, {d})")
    if m == 0 and d != 0:
        raise ValueError("nil mass is canonically (0, 0)")
    return m * math.exp(-d / MASS_DECAY_DENOM)


def degree_clamp(g: Graph, arms: int) -> np.ndarray:
    """min(closed degree, arms) per node: the mass a node would seed as a center."""
    return np.minimum(g.closed_degrees, arms)


def spread_rounds(arms: int) -> int:
    """floor(12 * ln(arms)): round budget that lets mass reach every node worth serving."""
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    return int(math.floor(12.0 * math.log(arms)))


def min_center_distance(g: Graph, centers: Iterable[int]) -> np.ndarray:
    """Per-node hop distance to the nearest center (one multi-source BFS)."""
    sources = list(centers)
    if not sources:
        raise EmptyCenterSetError("no centers given")
    return g.multi_source_distances(sources)


def _mass_keys(top: int, rounds: int) -> tuple[np.ndarray, ...]:
    """Integer keys of the mass pairs (m, d), m <= top and d <= rounds.

    ``key[m, d]`` ranks the pairs from 1 by 6 ln(m) - d, as m * exp(-d/6)
    orders them (distinct pairs' scores lie far apart); nil is 0.
    ``deeper[key]`` is one hop deeper and ``pair[:, key]`` is (m, d).
    """
    score = MASS_DECAY_DENOM * np.log(np.arange(1, top + 1))[:, None] - np.arange(rounds + 1)
    key = np.zeros((top + 1, rounds + 1), dtype=np.int32)
    key[1:] = np.sort(score, axis=None).searchsorted(score) + 1
    out = np.zeros((3, score.size + 1), dtype=np.int32)  # deeper, then pair
    out[0, key[:, :-1]] = key[:, 1:]
    out[1:, key[1:]] = np.indices(key.shape)[:, 1:]
    return key, out[0], out[1:]


PARTITION_COLUMNS = ("centers", "center_of", "origin_of", "delay", "mass_m", "mass_d")


@dataclass(frozen=True, eq=False)
class Partition:
    """Final component assignment used by the simulator, as read-only int64 columns.

    ``centers`` lists the center ids, the other five one entry per node; each
    is copied from whatever int sequence is passed.  Raises ValueError if a
    per-node column's length differs from ``center_of``'s.
    """

    arms: int
    centers: np.ndarray
    center_of: np.ndarray
    origin_of: np.ndarray
    delay: np.ndarray
    mass_m: np.ndarray
    mass_d: np.ndarray

    def __post_init__(self):
        for name in PARTITION_COLUMNS:
            col = np.array(getattr(self, name), dtype=np.int64)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        n = len(self.center_of)
        for name in PARTITION_COLUMNS[2:]:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has {len(getattr(self, name))} entries, "
                                 f"center_of has {n}")

    def __reduce__(self):
        # rebuilt through __post_init__: numpy unpickles an array writeable
        return Partition, (self.arms, *(getattr(self, name) for name in PARTITION_COLUMNS))

    @property
    def node_count(self) -> int:
        return len(self.center_of)


def partition_to_json(p: Partition) -> dict:
    return {"node_count": p.node_count, "arms": p.arms,
            **{name: getattr(p, name).tolist() for name in PARTITION_COLUMNS}}


def partition_from_json(doc: dict) -> Partition:
    """Read a partition document; ids, arms and centers are checked, not trusted.

    Raises ValueError on a field of the wrong length, ``arms < 2``, a
    duplicate center, or a center, ``center_of`` or ``origin_of`` id
    outside 0..node_count-1.  Structural checks are validate_partition's.
    """
    n = int(doc["node_count"])
    arms = int(doc["arms"])
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    arrays = {}
    for key in PARTITION_COLUMNS[1:]:  # the per-node columns
        vals = [int(x) for x in doc[key]]
        if len(vals) != n:
            raise ValueError(f"field {key} has {len(vals)} entries, expected {n}")
        arrays[key] = vals
    centers = [int(c) for c in doc["centers"]]
    if len(set(centers)) != len(centers):
        raise ValueError(f"duplicate centers in {centers}")
    for key, ids in (("centers", centers), ("center_of", arrays["center_of"]),
                     ("origin_of", arrays["origin_of"])):
        bad = [v for v in ids if not 0 <= v < n]
        if bad:
            raise ValueError(f"{key} holds node {bad[0]} outside 0..{n - 1}")
    return Partition(arms=arms, centers=centers, **arrays)


class _SpreadRounds:
    """Every propagation round 0..rounds of a growing center set.

    ``states[t]`` is the (3, N + 1) state after t rounds (see ``add``) of
    the centers so far (rows center_of, origin_of, mass key; column N is
    the nil node), the last round repeated past settling.  With no center,
    mass is nil and from round 1 on each origin is the first neighbor.
    Row v of ``closed`` is v, then its neighbors ascending, padded with N.
    """

    def __init__(self, g: Graph, arms: int):
        n, (indptr, indices) = g.node_count, g.csr
        self.arms = arms
        self.rounds = rounds = spread_rounds(arms) + 1
        self.clamp = degree_clamp(g, arms)
        key, self.deeper, self.pair = _mass_keys(int(self.clamp.max()), rounds)
        self.center_key = key[:, 0].take(self.clamp)  # each node's mass as a center
        width = int(g.closed_degrees.max())
        self.closed = closed = np.full((n + 1, width), n)
        closed[:, 0] = np.arange(n + 1)
        at = np.repeat(np.arange(n) * width + 1 - indptr[:-1], np.diff(indptr))
        closed.put(at + np.arange(indices.size), indices)
        self.offset = np.arange(0, closed.size, width)  # each row's start, flat
        self.is_center = np.zeros(n + 1, dtype=bool)
        # int32: ids up to N, keys up to arms * (rounds + 1)
        self.states = np.zeros((rounds + 1, 3, n + 1), dtype=np.int32)
        self.states[:, :2] = -1
        self.states[0, 1, n] = n
        self.states[1:, 1] = closed[:, 1]
        self._mark = np.zeros(n + 1, dtype=bool)

    def _ids(self, rows: np.ndarray) -> np.ndarray:
        """Sorted distinct ids in ``rows``: a sort in place, or a mask if they outnumber nodes."""
        if rows.size <= self._mark.size:
            return _distinct(rows)
        self._mark[rows] = True
        ids = np.flatnonzero(self._mark)
        self._mark[ids] = False
        return ids

    def add(self, new: np.ndarray) -> np.ndarray:
        """Make ``new``, sorted distinct non-centers, centers; return the
        nodes whose final-round state changed.

        Per round a node whose origin is a center keeps its state; others
        copy the neighbor of highest key (lowest id on ties) one hop deeper.
        So round t is redone only for the ids in the closed rows of D, the
        nodes whose round-(t-1) state changed (D = ``new`` at round 0).
        Once D repeats its states and no node within two hops of D
        changes, later rounds repeat D's states.
        """
        states, rounds, closed = self.states, self.rounds, self.closed
        self.is_center[new] = True
        states[0][:2, new] = new
        states[0][2, new] = self.center_key.take(new)
        changed = new
        for t in range(1, rounds + 1):
            cand = self._ids(closed.take(changed, axis=0))
            prev = states[t - 1]
            own, old = states[t - 1:t + 1].take(cand, axis=2)
            keys = prev[2].take(closed.take(cand, axis=0))
            keys[:, 0] = -1  # a node picks a neighbor
            chosen = closed.take(self.offset.take(cand) + keys.argmax(axis=1))
            del keys
            cur = prev.take(chosen, axis=1)
            cur[1] = chosen
            cur[2] = self.deeper.take(cur[2])
            np.copyto(cur, own, where=self.is_center.take(own[1]))
            diff = np.logical_or.reduce(cur != old)
            states[t][:, cand] = cur
            now = cand[diff]
            if (t < rounds and now.size == changed.size and (now == changed).all()
                    and not np.logical_or.reduce(cur != own)[diff].any()
                    and self._ring_settled(cand, now, t)):
                states[t + 1:, :, now] = states[t].take(now, axis=1)
                break
            changed = now
            del own, old, cur, chosen
        return now

    def _ring_settled(self, near: np.ndarray, core: np.ndarray, t: int) -> bool:
        """No node within two hops of ``core`` but outside it changes from round t on.

        ``near``, core's closed neighborhood, has the ring in its closed
        rows; no ring node was written at rounds t-1 and t, so their rounds
        from t-1 on are still the previous center set's.
        """
        ring = self._ids(self.closed.take(near, axis=0))
        self._mark[core] = True
        ring = ring[~self._mark[ring]]
        self._mark[core] = False
        tail = self.states[t - 1:].take(ring, axis=2)
        return bool((tail == tail[0]).all())

    def unsatisfied(self) -> np.ndarray:
        """Per node: mass below its clamp's, and no center within two hops."""
        return (self.states[-1, 2, :-1] < self.center_key) & (self.states[2, 0, :-1] < 0)

    def partition(self) -> Partition:
        """The centers' partition, read off the last round, which repeats the
        settled state.  Raises ValueError if some node has no center."""
        cof, uof, key = self.states[-1, :, :-1]
        missing = np.flatnonzero(key == 0).tolist()  # nil mass: no center reached it
        if missing:
            raise ValueError(f"nodes {missing} were never reached by any center")
        mass_m, mass_d = self.pair.take(key, axis=1)
        return Partition(arms=self.arms, centers=np.flatnonzero(self.is_center[:-1]),
                         center_of=cof, origin_of=uof, delay=mass_d, mass_m=mass_m, mass_d=mass_d)


def _greedy_centers(g: Graph, arms: int) -> tuple[list[int], _SpreadRounds]:
    """The informed greedy's centers in order of addition, and their rounds.

    Rounds depend only on the center set, so one clamp c's picks share one
    ``add``: outside its ball, a pick p flips no node x of clamp c' >= c
    between satisfied and not.  p gives x at most (c, 1) < (c', 0).  Keys
    never drop over rounds, so p lowers x's mass only by freezing a node y
    on x's origin chain, p or a neighbor.  If y = x, x is in p's ball; else
    p held x's mass, >= (c', 0) >= (c, 0), so p was satisfied: no pick.
    """
    spread = _SpreadRounds(g, arms)
    closed, centers = spread.closed, []
    for c in range(spread.clamp.max(), 0, -1):
        run = np.flatnonzero(spread.clamp == c)
        unsat, picks = np.append(spread.unsatisfied(), False), []  # not the nil node
        for v in run[np.argsort(-g.closed_degrees[run], kind="stable")].tolist():
            if unsat[v]:
                picks.append(v)
                unsat[closed.take(closed[v], axis=0)] = False  # its two-hop ball
        if picks:
            spread.add(np.sort(picks))
            centers += picks
    if spread.unsatisfied().any():
        raise AssertionError("the greedy left a node unsatisfied")
    return centers, spread


def compute_centers_informed(g: Graph, arms: int) -> Partition:
    """Greedily add the densest unsatisfied node until everyone is served.

    A node is satisfied once its mass reaches its own clamped closed degree
    or a center sits within two hops.  Ties in closed degree go to the
    lowest id.  Each clamp's picks join in one pass (``_greedy_centers``).
    """
    if g.node_count < 2:
        raise ValueError(f"need at least 2 nodes, got {g.node_count}")
    return _greedy_centers(g, arms)[1].partition()


@dataclass(frozen=True)
class LubyTranscript:
    """One randomized two-hop independent-set election."""

    rounds_used: int  # each executed round costs 4 message sub-steps
    joined: frozenset[int]
    exhausted: bool  # budget ran out with undecided participants left


def luby_2mis(g: Graph, universe: Iterable[int], max_rounds: int, rng) -> LubyTranscript:
    """Randomized maximal two-hop independent set over ``universe``.

    Per round the remaining participants draw uniform [0,1) in ascending id
    order, and one joins iff it strictly beats every other participant
    within two hops in the full graph (float ties, probability zero, go to
    the lowest id).  Joiners knock every participant within two hops out.
    The joined set is two-hop independent; it is maximal unless the round
    budget runs out first, which the transcript records.
    """
    n, (indptr, indices) = g.node_count, g.csr
    remaining = _distinct(np.fromiter(universe, dtype=np.int64))
    bad = remaining[(remaining < 0) | (remaining >= n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} outside 0..{n - 1}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")

    # rounds run on the participants' closed neighborhood, renumbered;
    # outside neighbors read slot r, which stays 0
    region = _distinct(np.concatenate((remaining, _neighbors(indptr, indices, remaining)[0])))
    r = region.size
    local = np.full(n, r)
    local[region] = np.arange(r)
    nbrs, counts = _neighbors(indptr, indices, region)
    nbrs = np.append(local.take(nbrs), r)  # slot r's row: itself
    starts = np.concatenate(([0], np.cumsum(counts)))

    def two_hop_max(x: np.ndarray) -> np.ndarray:  # a closed-neighborhood maximum, twice
        for _ in range(2):
            x = np.maximum(x, np.maximum.reduceat(x.take(nbrs), starts))
        return x

    mine, joined, rounds = local.take(remaining), np.zeros(r + 1, dtype=bool), 0
    while remaining.size and rounds < max_rounds:
        rounds += 1
        draws = rng.random(remaining.size)
        # (draw, -id) as one integer, equal draws equal; non-participants 0
        key = np.zeros(r + 1, dtype=np.int64)
        key[mine] = (np.sort(draws).searchsorted(draws) + 1) * n + (n - 1 - remaining)
        joined[mine[two_hop_max(key).take(mine) == key.take(mine)]] = True
        # no one left is within two hops of an earlier round's joiner
        keep = ~two_hop_max(joined).take(mine)
        remaining, mine = remaining[keep], mine[keep]
    return LubyTranscript(rounds, frozenset(region[joined[:-1]].tolist()),
                          exhausted=bool(remaining.size))


def mis_round_budget(n_upper: int, arms: int, horizon: int) -> int:
    """ceil(3 * ln(n_upper * sqrt(arms * horizon))) rounds per election.

    Enough rounds that a single election fails to finish with probability
    at most 1 / (arms * horizon), given n_upper bounds the node count.
    """
    if n_upper < 2:
        raise ValueError(f"n_upper must be >= 2, got {n_upper}")
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return int(math.ceil(3.0 * math.log(n_upper * math.sqrt(arms * horizon))))


@dataclass(frozen=True)
class LubyCall:
    universe: frozenset[int]
    result: LubyTranscript


@dataclass
class UninformedElection:
    """Distributed center election when agents know only an upper bound on N."""

    partition: Partition
    luby_calls: list[LubyCall]  # call t is iteration t's election
    luby_round_budget: int
    protocol_steps: int  # arms * (4 * budget + spread_rounds + 1)
    final_pass_steps: int  # one extra propagation to publish the partition
    total_steps: int
    exhaustions: int  # elections whose budget ran out with participants undecided

    @property
    def centers(self) -> np.ndarray:
        # bench/spans.py counts len(result.centers) of either election's result
        return self.partition.centers


def compute_centers_uninformed(
    g: Graph, arms: int, n_upper: int, horizon: int, rng
) -> UninformedElection:
    """Elect centers by descending clamped degree without global knowledge.

    Iteration t runs one two-hop MIS election among the unsatisfied nodes
    of clamped closed degree exactly arms - t and adds its joiners to the
    kept rounds (``_SpreadRounds.unsatisfied`` and ``add``).  Every
    iteration is charged the full synchronous budget, as agents cannot
    detect global emptiness; one final propagation pass publishes the
    partition and is charged on top.
    """
    n = g.node_count
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if n_upper < n:
        raise ValueError(f"n_upper={n_upper} below actual node count {n}")
    budget = mis_round_budget(n_upper, arms, horizon)
    spread = _SpreadRounds(g, arms)
    pass_rounds = spread.rounds

    calls: list[LubyCall] = []
    for t in range(arms):
        bucket = np.flatnonzero(spread.unsatisfied() & (spread.clamp == arms - t))
        outcome = luby_2mis(g, bucket.tolist(), budget, rng)
        calls.append(LubyCall(frozenset(bucket.tolist()), outcome))
        # without joiners no round changes; the steps are still charged
        # below, as the synchronous schedule runs regardless
        if outcome.joined:
            spread.add(np.array(sorted(outcome.joined)))

    if not spread.is_center.any():
        raise EmptyCenterSetError("no node won any election; partition impossible")
    protocol_steps = arms * (4 * budget + pass_rounds)
    return UninformedElection(
        partition=spread.partition(),
        luby_calls=calls,
        luby_round_budget=budget,
        protocol_steps=protocol_steps,
        final_pass_steps=pass_rounds,
        total_steps=protocol_steps + pass_rounds,
        exhaustions=sum(call.result.exhausted for call in calls),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = "" if self.witness is None else f"  ({self.witness})"
        return f"{tag}  {self.name}{extra}"


@dataclass
class PartitionReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _first(mask: np.ndarray) -> int | None:
    """Lowest index where ``mask`` holds, or None."""
    i = int(mask.argmax())
    return i if mask[i] else None


def _scores(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """6 ln(m) - d of every pair, -inf where m <= 0, from math.log once per distinct m."""
    distinct = _distinct(np.maximum(m, 1))
    log = np.fromiter(map(math.log, distinct.tolist()), dtype=float, count=distinct.size)
    return np.where(m > 0, MASS_DECAY_DENOM * log.take(distinct.searchsorted(m)) - d, -np.inf)


def validate_partition(g: Graph, p: Partition) -> PartitionReport:
    """Re-derive every structural property of a partition from scratch.

    The checks recompute distances and masses independently of however the
    partition was produced, so a buggy generator cannot vouch for itself.
    Each reports its first witness in node order.
    """
    n = g.node_count
    if p.node_count != n:
        raise ValueError(f"partition covers {p.node_count} nodes, graph has {n}")
    (indptr, indices), rows, node = g.csr, g.rows(), np.arange(n)
    cof, uof, delay, mass_m, mass_d = p.center_of, p.origin_of, p.delay, p.mass_m, p.mass_d
    is_center = np.zeros(n, dtype=bool)
    is_center[p.centers] = True
    clamp = degree_clamp(g, p.arms)
    checks: list[CheckResult] = []

    def add(name: str, witness: str | None) -> None:
        checks.append(CheckResult(name, witness is None, witness))

    # (a) every node is assigned to a real center; centers claim themselves
    assigned = (cof >= 0) & (cof < n)
    assigned[assigned] = is_center[cof[assigned]]
    v = _first(~assigned | is_center & ((cof != node) | (uof != node) | (delay != 0)))
    add("assignment-cover", None if v is None else f"node {v} assigned to non-center {cof[v]}"
        if not assigned[v] else f"center {v} does not claim itself")

    # (b) each component contains its center's closed neighborhood and is connected;
    # a BFS over same-component edges gives each node its depth in its component
    same = cof.take(rows) == cof.take(indices)
    sub = np.concatenate(([0], np.cumsum(np.bincount(rows[same], minlength=n))))
    depth = _bfs(sub, indices[same], np.flatnonzero(is_center & (cof == node)))
    leaky = is_center & (cof != node)  # a center or a neighbor of it assigned elsewhere
    leaky[rows[is_center.take(rows) & (cof.take(indices) != rows)]] = True
    torn = np.zeros(n, dtype=bool)
    torn[cof[assigned & (depth < 0)]] = True
    c = _first(leaky | torn)
    if c is not None and leaky[c]:  # the lowest member of N(c) assigned elsewhere
        hood = np.append(indices[indptr[c]:indptr[c + 1]], c)
        u = hood[cof.take(hood) != c].min()
    add("component-closure-connectivity", None if c is None else
        f"neighbor {u} of center {c} assigned elsewhere" if leaky[c]
        else f"component of center {c} is not connected")
    # (c) and (d) need every node in the component of a center
    sound = c is None and bool(assigned.all())
    broken = "skipped: component structure broken"

    # (c) mass pairs follow the decay recurrence with independently measured depth
    w = broken
    if sound:
        want_m = clamp.take(cof)
        v = _first((mass_m != want_m) | (mass_d != depth) | (delay != depth))
        w = None if v is None else (
            f"node {v}: stored ({mass_m[v]}, {mass_d[v]}) delay {delay[v]}, "
            f"recomputed ({want_m[v]}, {depth[v]})")
    add("mass-recurrence", w)

    # (d) each relay's origin is a same-component neighbor one hop closer
    w = broken
    if sound:
        u, near = np.clip(uof, 0, n - 1), g.are_adjacent(node, uof)
        away = cof.take(u) != cof
        late = depth.take(u) != depth - 1
        v = _first(~is_center & (~near | away | late))
        w = None if v is None else (
            f"node {v}: origin {uof[v]} is not a neighbor" if not near[v] else
            f"node {v}: origin {uof[v]} lives in another component" if away[v] else
            f"node {v}: origin depth {depth[u[v]]} does not precede own depth {depth[v]}")
    add("origin-minimality", w)

    # (e) centers are pairwise more than two hops apart: no closed
    #     neighborhood holds two centers
    crowded = is_center + np.bincount(rows[is_center.take(indices)], minlength=n) > 1
    crowded[rows[crowded.take(indices)]] = True  # now: some closed neighbor is crowded
    a = _first(is_center & crowded)
    if a is not None:  # and the lowest other center within two hops of it
        near = node == a
        for _ in range(2):
            near[indices[near.take(rows)]] = True
        b = _first(near & is_center & (node != a))
    add("two-independence", None if a is None else f"centers {(a, b)} within two hops")

    # (f) every node's mass is at least exp(-1) of its own clamp,
    #     checked in pair form: (clamp, 6) <= (m, d); a pair that is no
    #     mass fails (d < 0; m <= 0 scores -inf)
    v = _first((mass_d < 0) | (_scores(mass_m, mass_d) < _scores(clamp, MASS_DECAY_DENOM)))
    add("mass-floor", None if v is None else f"node {v}: mass Mass(m={mass_m[v]}, "
        f"d={mass_d[v]}) below floor ({int(clamp[v])}, {MASS_DECAY_DENOM})")

    # (g) no node is farther than 6*ln(arms) - 1 hops from the center set
    w = None
    dmin = min_center_distance(g, p.centers)
    limit = MASS_DECAY_DENOM * math.log(p.arms) - 1.0
    far = int(dmin.argmax())
    if float(dmin[far]) > limit:
        w = f"node {far} at distance {int(dmin[far])} > {limit:.2f} from all centers"
    add("center-eccentricity", w)

    return PartitionReport(checks)
