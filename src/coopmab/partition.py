"""Center election and component construction on communication graphs.

Agents are grouped into components, each owning one center that runs the
learning algorithm while everyone else relays the center's distribution.
The quality of a node's component is its mass: a pair (m, d) standing for
the real number m * exp(-d/6), where m is the center's clamped closed
degree and d the node's hop distance from it.  Pairs are kept exact so
mass comparisons never suffer float round-off on the recurrence itself.

Everything here is a centrally simulated synchronous message protocol:
per round, every node sees only its neighbors' previous-round state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exp3 import ArmsTooFewError
from .graph import Graph, _distinct, induced_subgraph, is_r_independent

MASS_DECAY_DENOM = 6  # one relay hop multiplies mass by exp(-1/6)


class EmptyCenterSetError(ValueError):
    pass


@dataclass(frozen=True)
class Mass:
    """Exact component-quality pair; value() = m * exp(-d/6), nil is (0, 0)."""

    m: int
    d: int

    def __post_init__(self):
        if self.m < 0 or self.d < 0:
            raise ValueError(f"mass fields must be non-negative, got ({self.m}, {self.d})")
        if self.m == 0 and self.d != 0:
            raise ValueError("nil mass is canonically (0, 0)")

    @property
    def is_nil(self) -> bool:
        return self.m == 0

    def value(self) -> float:
        return 0.0 if self.m == 0 else self.m * math.exp(-self.d / MASS_DECAY_DENOM)

    def score(self) -> float:
        # 6*ln(m) - d orders masses like value() but stays in a range where
        # float64 is exact far beyond any gap two distinct pairs can have
        return -math.inf if self.m == 0 else MASS_DECAY_DENOM * math.log(self.m) - self.d

    def decayed(self) -> "Mass":
        return Mass(self.m, self.d + 1) if self.m else NIL_MASS

    def __lt__(self, other: "Mass") -> bool:
        if (self.m, self.d) == (other.m, other.d):
            return False
        a, b = self.score(), other.score()
        if a != b:
            return a < b
        # distinct pairs cannot share a true score; keep the order total anyway
        return (self.m, -self.d) < (other.m, -other.d)

    def __le__(self, other: "Mass") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Mass") -> bool:
        return other < self

    def __ge__(self, other: "Mass") -> bool:
        return other <= self


NIL_MASS = Mass(0, 0)


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


@dataclass(frozen=True)
class SpreadRound:
    """Snapshot of the propagation state after one synchronous round."""

    center_of: np.ndarray  # -1 while unreached
    origin_of: np.ndarray  # raw protocol pointer, -1 while never selected
    mass_m: np.ndarray
    mass_d: np.ndarray


@dataclass
class ComponentMap:
    """Result of mass propagation from a fixed center set."""

    arms: int
    rounds: int  # update rounds the protocol is charged for
    settled_round: int  # state stopped changing after this many updates
    centers: tuple[int, ...]
    center_of: np.ndarray  # -1 = nil (node reports no assignment)
    origin_of: np.ndarray  # -1 = nil
    mass_m: np.ndarray
    mass_d: np.ndarray
    history: list[SpreadRound] = field(repr=False, default_factory=list)

    def mass(self, v: int) -> Mass:
        return Mass(int(self.mass_m[v]), int(self.mass_d[v]))

    def center_pointer_after(self, k: int) -> np.ndarray:
        """center_of as it stood after k update rounds (stable past settling)."""
        return self.history[min(k, len(self.history) - 1)].center_of

    def fully_assigned(self) -> bool:
        return bool(np.all(self.center_of >= 0))

    def to_partition(self) -> "Partition":
        if not self.fully_assigned():
            missing = [int(v) for v in np.flatnonzero(self.center_of < 0)]
            raise ValueError(f"nodes {missing} were never reached by any center")
        return Partition(
            arms=self.arms,
            centers=tuple(sorted(self.centers)),
            center_of=tuple(int(x) for x in self.center_of),
            origin_of=tuple(int(x) for x in self.origin_of),
            delay=tuple(int(x) for x in self.mass_d),
            mass_m=tuple(int(x) for x in self.mass_m),
            mass_d=tuple(int(x) for x in self.mass_d),
        )


def _mass_table(arms: int) -> np.ndarray:
    """Mass score 6 ln(m) - d as ``table[m] - d``; nil (m = 0) scores -inf.

    Equal pairs get equal scores and distinct pairs are far apart, so an
    argmax over scores is exact.
    """
    table = np.full(arms + 1, -np.inf)
    table[1:] = MASS_DECAY_DENOM * np.log(np.arange(1, arms + 1))
    return table


def _padded_rows(g: Graph) -> np.ndarray:
    """(N + 1, max degree) neighbor rows, ascending, padded with the sentinel N.

    Row N belongs to the nil node N and holds only N.  The sentinel gathers
    the nil column of a state, whose score is -inf.
    """
    pad = g.padded_neighbors()
    return np.concatenate((pad, np.full((1, pad.shape[1]), g.node_count)))


def _spread_round(prev, score, nbrs, own, is_center) -> np.ndarray:
    """One synchronous round for the nodes whose padded neighbor rows are ``nbrs``.

    ``prev`` is the whole (4, N + 1) state of the previous round (rows
    center_of, origin_of, mass_m, mass_d; column N is the nil node),
    ``score`` its mass scores and ``own`` the advanced nodes' columns of
    it.  A node whose origin already is a center keeps its state; every
    other node picks the neighbor of highest score (the first, lowest-id
    one on ties, since rows are ascending), inherits its center pointer
    and takes its mass one hop deeper unless that mass is nil.
    """
    best = score.take(nbrs).argmax(axis=1)
    chosen = nbrs.take(np.arange(0, nbrs.size, nbrs.shape[1]) + best)  # flat index of each row's best
    pick = prev.take(chosen, axis=1)
    pick[1] = chosen
    pick[3] += pick[2] > 0
    return np.where(is_center.take(own[1]), own, pick)


def centers_to_components(g: Graph, centers: Iterable[int], arms: int) -> ComponentMap:
    """Propagate center mass outward and let every node pick its origin.

    Runs spread_rounds(arms) + 1 synchronous update rounds.  Per round,
    every node whose current origin is not a center re-selects the
    neighbor of maximum mass (ties to the lowest id), inherits that
    neighbor's center pointer, and takes its mass decayed by one hop.
    Centers, and nodes whose origin already is a center, keep their state.
    Nodes never reached report a nil assignment.
    """
    n = g.node_count
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    center_list = sorted(set(int(c) for c in centers))
    if not center_list:
        raise EmptyCenterSetError("center set must be non-empty")
    for c in center_list:
        if not 0 <= c < n:
            raise ValueError(f"center {c} outside 0..{n - 1}")
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")

    rounds = spread_rounds(arms) + 1
    log_m = _mass_table(arms)
    # One (4, n + 1) state: rows are SpreadRound's center_of, origin_of,
    # mass_m, mass_d.  Column n is a nil node that picks itself each round.
    # A nil mass always has depth 0.
    state = np.zeros((4, n + 1), dtype=np.int64)
    state[:2] = -1
    state[:2, center_list] = center_list
    state[1, n] = n
    state[2, center_list] = degree_clamp(g, arms)[center_list]
    is_center = np.zeros(n + 1, dtype=bool)  # origin -1 reads the False of slot n
    is_center[center_list] = True
    nbrs = _padded_rows(g)

    # a round never writes into an earlier state, so the history holds views
    states = [state]
    settled = rounds
    for t in range(1, rounds + 1):
        new = _spread_round(state, log_m.take(state[2]) - state[3], nbrs, state, is_center)
        changed = (new != state).any()
        state = new
        states.append(state)
        if not changed:
            # the update is a deterministic function of state: a fixed point
            # stays fixed, so the remaining rounds are no-ops
            settled = t - 1
            break
    return _component_map(arms, center_list, states, settled)


def _component_map(arms: int, center_list: list[int], states, settled: int) -> ComponentMap:
    """The map whose history is ``states``, the (4, N + 1) rounds from round 0 on."""
    n = states[0].shape[1] - 1
    history = [SpreadRound(*s[:, :n]) for s in states]
    cof, uof, mass_m, mass_d = states[-1][:, :n]
    reached = mass_m > 0
    return ComponentMap(
        arms=arms,
        rounds=spread_rounds(arms) + 1,
        settled_round=settled,
        centers=tuple(center_list),
        center_of=np.where(reached, cof, -1),
        origin_of=np.where(reached, uof, -1),
        mass_m=mass_m.copy(),
        mass_d=np.where(reached, mass_d, 0),
        history=history,
    )


def spread_history_violations(g: Graph, comp: ComponentMap) -> list[str]:
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
            a = Mass(int(prev.mass_m[v]), int(prev.mass_d[v]))
            b = Mass(int(cur.mass_m[v]), int(cur.mass_d[v]))
            if b < a:
                out.append(f"round {t}: node {v} mass dropped {a} -> {b}")
            if a != b:
                if b.d != t:
                    out.append(f"round {t}: node {v} changed to depth {b.d} != round")
                c = int(cur.center_of[v])
                if c < 0:
                    continue
                if c not in dist:
                    dist[c] = g.distances_from(c)
                if int(dist[c][v]) > t:
                    out.append(f"round {t}: node {v} claims center {c} beyond {t} hops")
    return out


@dataclass(frozen=True)
class Partition:
    """Final per-node component assignment used by the simulator."""

    arms: int
    centers: tuple[int, ...]
    center_of: tuple[int, ...]
    origin_of: tuple[int, ...]
    delay: tuple[int, ...]
    mass_m: tuple[int, ...]
    mass_d: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.center_of)

    def mass(self, v: int) -> Mass:
        return Mass(self.mass_m[v], self.mass_d[v])

    def mass_value(self, v: int) -> float:
        return self.mass(v).value()

    def role(self, v: int) -> str:
        if self.center_of[v] == v:
            return "center"
        return "adjacent" if self.delay[v] == 1 else "simple"


def partition_to_json(p: Partition) -> dict:
    return {
        "node_count": p.node_count,
        "arms": p.arms,
        "centers": list(p.centers),
        "center_of": list(p.center_of),
        "origin_of": list(p.origin_of),
        "delay": list(p.delay),
        "mass_m": list(p.mass_m),
        "mass_d": list(p.mass_d),
    }


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
    for key in ("center_of", "origin_of", "delay", "mass_m", "mass_d"):
        vals = [int(x) for x in doc[key]]
        if len(vals) != n:
            raise ValueError(f"field {key} has {len(vals)} entries, expected {n}")
        arrays[key] = tuple(vals)
    centers = tuple(int(c) for c in doc["centers"])
    if len(set(centers)) != len(centers):
        raise ValueError(f"duplicate centers in {list(centers)}")
    for key, ids in (("centers", centers), ("center_of", arrays["center_of"]),
                     ("origin_of", arrays["origin_of"])):
        bad = [v for v in ids if not 0 <= v < n]
        if bad:
            raise ValueError(f"{key} holds node {bad[0]} outside 0..{n - 1}")
    return Partition(arms=arms, centers=centers, **arrays)


@dataclass
class InformedCenters:
    """Greedy center search outcome (offline: graph known in advance)."""

    centers: tuple[int, ...]  # in order of addition
    component_map: ComponentMap
    iterations: int


class _SpreadRounds:
    """Every propagation round 0..rounds of a growing center set.

    ``states[t]`` is the (4, N + 1) round-t state that centers_to_components
    reaches for the centers added so far, the last round repeated past
    settling, and ``scores[t]`` its mass scores.  The empty set starts it:
    nil mass everywhere and, from round 1 on, every origin at the node's
    first neighbor.
    """

    def __init__(self, g: Graph, arms: int):
        n = g.node_count
        self.rounds = rounds = spread_rounds(arms) + 1
        self.clamp = degree_clamp(g, arms)
        self.log_m = _mass_table(arms)
        self.nbrs = _padded_rows(g)  # contiguous: take() on a strided view copies it whole
        self.is_center = np.zeros(n + 1, dtype=bool)
        # int32 holds every field (ids up to N, m up to arms, d up to rounds)
        # at half the size; the rounds are widened to int64 only for the map
        self.states = np.zeros((rounds + 1, 4, n + 1), dtype=np.int32)
        self.states[:, :2] = -1
        self.states[0, 1, n] = n
        self.states[1:, 1] = self.nbrs[:, 0]
        self.scores = np.full((rounds + 1, n + 1), -np.inf)
        self._mark = np.zeros(n + 1, dtype=bool)

    def add(self, c: int) -> np.ndarray:
        """Make ``c`` a center; return the nodes whose final-round state changed.

        A node's round-t state depends only on its own and its neighbors'
        round-(t-1) states, so round t is redone only for the closed
        neighborhood of D, the nodes whose round-(t-1) state changed
        (D = {c} at round 0).  Once D repeats with the same states and no
        node within two hops of D changes any more, every later round
        only repeats D's states.
        """
        states, scores, rounds = self.states, self.scores, self.rounds
        self.is_center[c] = True
        m = self.clamp[c]
        states[0, :, c] = (c, c, m, 0)
        scores[0, c] = self.log_m[m]
        changed = np.array([c])
        for t in range(1, rounds + 1):
            cand = _distinct(np.concatenate((changed, self.nbrs.take(changed, axis=0).ravel())))
            own, old = states[t - 1:t + 1].take(cand, axis=2)
            nbrs = self.nbrs.take(cand, axis=0)
            new = _spread_round(states[t - 1], scores[t - 1], nbrs, own, self.is_center)
            diff = np.logical_or.reduce(new != old)
            states[t][:, cand] = new
            scores[t, cand] = self.log_m.take(new[2]) - new[3]
            now = cand[diff]
            if (t < rounds and now.size == changed.size and (now == changed).all()
                    and not np.logical_or.reduce(new != own)[diff].any()
                    and self._ring_settled(cand, now, t)):
                states[t + 1:, :, now] = states[t].take(now, axis=1)
                scores[t + 1:, now] = scores[t].take(now)
                break
            changed = now
        return now

    def _ring_settled(self, near: np.ndarray, core: np.ndarray, t: int) -> bool:
        """No node within two hops of ``core`` but outside it changes from round t on.

        ``near`` is core's closed neighborhood, so its neighbors include
        every node within two hops of core outside it.  Those ring nodes
        are outside the sets this update wrote at rounds t-1 and t, so
        their stored rounds from t-1 on are still the previous center set's.
        """
        ring = _distinct(self.nbrs.take(near, axis=0))
        self._mark[core] = True  # a scratch mask; np.setdiff1d costs O(N) here
        ring = ring[~self._mark[ring]]
        self._mark[core] = False
        tail = self.states[t - 1:].take(ring, axis=2)
        return bool((tail == tail[0]).all())


def _greedy_centers(g: Graph, arms: int) -> tuple[list[int], np.ndarray]:
    """The informed greedy's centers in order of addition, and their rounds."""
    spread = _SpreadRounds(g, arms)
    nbrs, final = spread.nbrs, spread.scores[-1]
    n = g.node_count
    cdeg = np.zeros(n + 1, dtype=np.int64)
    cdeg[:n] = g.closed_degrees
    # score a node needs to be satisfied; -inf once a center is within two hops
    target = np.full(n + 1, -np.inf)
    target[:n] = spread.log_m.take(spread.clamp)
    # closed degree while unsatisfied, else 0: argmax's first hit is the lowest id
    key = cdeg.copy()
    centers: list[int] = []
    while True:
        nxt = int(key.argmax())
        if not key[nxt]:
            return centers, spread.states
        if len(centers) == n:
            raise AssertionError("center search failed to shrink the unsatisfied set")
        centers.append(nxt)
        near = np.append(nbrs[nxt], nxt)
        ball = np.concatenate((near, nbrs.take(near, axis=0).ravel()))
        target[ball] = -np.inf
        key[ball] = 0
        moved = spread.add(nxt)
        key[moved] = np.where(final.take(moved) < target.take(moved), cdeg.take(moved), 0)


def compute_centers_informed(g: Graph, arms: int) -> InformedCenters:
    """Greedily add the densest unsatisfied node until everyone is served.

    A node is satisfied once its mass reaches its own clamped closed degree
    or a center sits within two hops.  Ties in closed degree go to the
    lowest id.  Each added center updates every propagation round of the
    grown set (``_SpreadRounds.add``), redoing only the nodes whose state
    it can change, and only nodes whose final mass changed are re-scored.
    Each pass adds exactly one center, so the loop ends within node_count
    iterations.  The kept rounds are centers_to_components' history for
    the final set, the last round repeated, so they build the map: its
    history runs up to the first round that equals the one before.
    """
    n = g.node_count
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    centers, states = _greedy_centers(g, arms)
    last = len(states) - 1
    settled = next((t - 1 for t in range(1, last + 1) if (states[t] == states[t - 1]).all()), last)
    comp = _component_map(arms, sorted(centers), states[:settled + 2].astype(np.int64), settled)
    return InformedCenters(tuple(centers), comp, len(centers))


@dataclass(frozen=True)
class LubyTranscript:
    """One randomized two-hop independent-set election."""

    rounds_used: int
    joined: frozenset[int]
    step_cost: int  # 4 message sub-steps per executed round
    exhausted: bool  # budget ran out with undecided participants left


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
    balls = {v: g.ball(v, 2) for v in active}  # built once per call, dropped after
    joined: set[int] = set()
    remaining = set(active)
    rounds = 0
    while remaining and rounds < max_rounds:
        rounds += 1
        draws = {v: float(rng.random()) for v in sorted(remaining)}  # fixed draw order
        winners = set()
        for v in remaining:
            rank_v = (draws[v], -v)
            others = balls[v] & remaining
            if all(rank_v > (draws[u], -u) for u in others if u != v):
                winners.add(v)
        joined |= winners
        if winners:
            remaining = {v for v in remaining if not (balls[v] & winners)}
    return LubyTranscript(rounds, frozenset(joined), 4 * rounds, exhausted=bool(remaining))


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
    iteration: int
    universe: frozenset[int]
    result: LubyTranscript


@dataclass
class UninformedElection:
    """Distributed center election when agents know only an upper bound on N."""

    centers: tuple[int, ...]
    final_map: ComponentMap
    luby_calls: list[LubyCall]
    luby_round_budget: int
    protocol_steps: int  # arms * (4 * budget + spread_rounds + 1)
    final_pass_steps: int  # one extra propagation to publish the partition
    total_steps: int


def compute_centers_uninformed(
    g: Graph, arms: int, n_upper: int, horizon: int, rng
) -> UninformedElection:
    """Elect centers by descending clamped degree without global knowledge.

    Iteration t runs one two-hop MIS election among still-unsatisfied nodes
    of clamped closed degree exactly arms - t, then re-propagates mass from
    all centers so far.  A node is satisfied once its mass reaches its own
    clamp or a center sits within two hops (equivalently: its center
    pointer is set within two propagation rounds).  Every iteration is
    charged the full synchronous budget, elections that finish early
    included, because agents cannot detect global emptiness; one final
    propagation pass publishes the partition and is charged on top.
    """
    n = g.node_count
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if n_upper < n:
        raise ValueError(f"n_upper={n_upper} below actual node count {n}")
    budget = mis_round_budget(n_upper, arms, horizon)
    pass_rounds = spread_rounds(arms) + 1
    clamp = degree_clamp(g, arms)
    clamp_score = MASS_DECAY_DENOM * np.log(clamp)

    satisfied = np.zeros(n, dtype=bool)
    center_mask = np.zeros(n, dtype=bool)
    calls: list[LubyCall] = []
    for t in range(arms):
        bucket = np.flatnonzero(~satisfied & (clamp == arms - t))
        outcome = luby_2mis(g, bucket.tolist(), budget, rng)
        calls.append(LubyCall(t, frozenset(int(v) for v in bucket), outcome))
        for v in outcome.joined:
            center_mask[v] = True
        centers = np.flatnonzero(center_mask)
        if centers.size:
            comp = centers_to_components(g, centers.tolist(), arms)
            score = np.where(
                comp.mass_m > 0,
                MASS_DECAY_DENOM * np.log(np.maximum(comp.mass_m, 1)) - comp.mass_d,
                -np.inf,
            )
            near = comp.center_pointer_after(2) >= 0
            satisfied = (score >= clamp_score) | near
        # with no centers yet nothing can be satisfied; the steps are still
        # charged below since the synchronous schedule runs regardless

    centers = np.flatnonzero(center_mask)
    if not centers.size:
        raise EmptyCenterSetError("no node won any election; partition impossible")
    final_map = centers_to_components(g, centers.tolist(), arms)
    protocol_steps = arms * (4 * budget + pass_rounds)
    return UninformedElection(
        centers=tuple(int(c) for c in centers),
        final_map=final_map,
        luby_calls=calls,
        luby_round_budget=budget,
        protocol_steps=protocol_steps,
        final_pass_steps=pass_rounds,
        total_steps=protocol_steps + pass_rounds,
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


def validate_partition(g: Graph, p: Partition) -> PartitionReport:
    """Re-derive every structural property of a partition from scratch.

    The checks recompute distances and masses independently of however the
    partition was produced, so a buggy generator cannot vouch for itself.
    """
    n = g.node_count
    if p.node_count != n:
        raise ValueError(f"partition covers {p.node_count} nodes, graph has {n}")
    arms = p.arms
    centers = set(p.centers)
    clamp = degree_clamp(g, arms)
    checks: list[CheckResult] = []

    def add(name: str, witness: str | None) -> None:
        checks.append(CheckResult(name, witness is None, witness))

    # (a) every node is assigned to a real center; centers claim themselves
    w = None
    for v in range(n):
        c = p.center_of[v]
        if c not in centers:
            w = f"node {v} assigned to non-center {c}"
            break
        if v in centers and (c != v or p.origin_of[v] != v or p.delay[v] != 0):
            w = f"center {v} does not claim itself"
            break
    add("assignment-cover", w)

    members: dict[int, set[int]] = {c: set() for c in centers}
    for v in range(n):
        if p.center_of[v] in members:
            members[p.center_of[v]].add(v)

    # (b) each component contains its center's closed neighborhood and is connected
    w = None
    comp_dist: dict[int, dict[int, int]] = {}
    for c in sorted(centers):
        part = members[c]
        bad = [u for u in g.closed_neighborhood(c) if u not in part]
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

    # (c) mass pairs follow the decay recurrence with independently measured depth
    w = None
    if all(c in comp_dist for c in centers):
        for v in range(n):
            c = p.center_of[v]
            want_m = int(clamp[c])
            want_d = comp_dist[c].get(v)
            if want_d is None:
                w = f"node {v} unreachable inside its component"
                break
            if (p.mass_m[v], p.mass_d[v]) != (want_m, want_d) or p.delay[v] != want_d:
                w = (
                    f"node {v}: stored ({p.mass_m[v]}, {p.mass_d[v]}) delay {p.delay[v]}, "
                    f"recomputed ({want_m}, {want_d})"
                )
                break
    else:
        w = "skipped: component structure broken"
    add("mass-recurrence", w)

    # (d) each relay's origin is a same-component neighbor one hop closer
    w = None
    if all(c in comp_dist for c in centers):
        for v in range(n):
            if v in centers:
                continue
            u = p.origin_of[v]
            c = p.center_of[v]
            if u not in g.adj[v]:
                w = f"node {v}: origin {u} is not a neighbor"
                break
            if p.center_of[u] != c:
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
            (a, b) for a in sorted(centers) for b in sorted(g.ball(a, 2) & centers) if a < b
        ]
        w = f"centers {pairs[0]} within two hops"
    add("two-independence", w)

    # (f) every node's mass is at least exp(-1) of its own clamp,
    #     checked in pair form: (clamp, 6) <= (m, d)
    w = None
    for v in range(n):
        if not Mass(int(clamp[v]), MASS_DECAY_DENOM) <= p.mass(v):
            w = f"node {v}: mass {p.mass(v)} below floor ({int(clamp[v])}, {MASS_DECAY_DENOM})"
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
