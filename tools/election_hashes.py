"""sha256 of both elections' results on a fixed set of graphs, to check that a change keeps them.

Run from anywhere (stdlib and numpy only); CHECKOUT is the root of the
checkout whose ``src/`` is imported, this one by default:

    python tools/election_hashes.py /path/to/parent > parent.txt
    python tools/election_hashes.py . > change.txt
    diff parent.txt change.txt

Each case is a graph and an arm count K, and gets five ``sha256  name``
lines:

- ``case.order``: the informed greedy's centers in order of addition
  (``partition._greedy_centers``);
- ``case.rounds``: every round its ``_SpreadRounds`` keeps, decoded into
  (center_of, origin_of, m, d) rows, so a new key encoding alone changes
  no line;
- ``case.informed``: every column of ``compute_centers_informed``'s
  ``Partition``;
- ``case.uninformed``: every column of ``compute_centers_uninformed``'s;
- ``case.luby``: every ``LubyCall`` (universe, rounds used, joined set,
  exhaustion), the other ``UninformedElection`` fields, and the state of
  the election's generator after it.

No line holds the rounds after a single ``add``: the informed greedy adds
all centers of one clamp in one call, so only its final rounds compare
with a greedy that adds one center per call.

The cases, in the order printed:

- ``crit-I-kK``: criteria 1 and 2's graphs and arms (200 random graphs,
  K in {2, 5, 10}), their uninformed elections seeded and bounded as
  ``tests/test_acceptance.py`` does;
- ``shaped-I``: 400 seeded (graph, K) cases, a tree, a sparse or dense
  graph, a caterpillar or hubs of 2-120 nodes, K in {2, 3, 4, 5, 10, 50};
- ``tree-N``: the seeded random trees of 1,500, 3,000 and 10^4 nodes of
  ``tools/election_cost.py``, K = 10;
- ``star``: the 2,000-node star; ``hubs``: 40 hubs on a random tree, 1,960
  leaves hung on them at random and 200 chords; ``mesh``: a 3,000-node
  random tree plus 3,000 chords; each with K = 10;
- ``elect-tree-informed-V`` and ``elect-tree-uninformed-V``: the trees of
  the benchmark's elect-tree workload at seed 0 (``bench/workloads.py``),
  K = 10, the uninformed ones' elections seeded as the workload's ops are.

Uninformed elections outside ``crit`` take n_upper = N and horizon 10^5.
The ``crit``, ``tree`` and ``elect-tree`` graphs come from the checkout's
``random_connected_graph``, as the tests and benchmarks that use them do;
the others are drawn here.  A run takes 5-10 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ARMS = 10
HORIZON = 100_000


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _chords(edges: set, n: int, count: int, rng) -> set:
    """``edges`` plus ``count`` distinct random non-loop pairs (u < v)."""
    target = len(edges) + count
    while len(edges) < target:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    return edges


def _tree(n: int, rng) -> set:
    """A random tree: each node v > 0 joins a uniform earlier node."""
    return {(int(rng.integers(0, v)), v) for v in range(1, n)}


def _hung(core: set, hubs: int, n: int, rng) -> set:
    """``core`` on nodes 0..hubs-1, and each other node a leaf of a random one of them."""
    return core | {(int(rng.integers(hubs)), v) for v in range(hubs, n)}


def _shaped(i: int):
    """Case i of the 400 seeded (edge set, node count, K) cases."""
    rng = np.random.default_rng(i)
    kind = ("tree", "sparse", "dense", "caterpillar", "hubs")[i % 5]
    n = int(rng.integers(2, 121))
    arms = int(rng.choice([2, 3, 4, 5, 10, 50]))
    if kind == "caterpillar":  # a path, and leaves hung on it
        spine = max(1, n // 4)
        edges = _hung({(v - 1, v) for v in range(1, spine)}, spine, n, rng)
    elif kind == "hubs":
        hubs = max(1, n // 15)
        edges = _chords(_hung(_tree(hubs, rng), hubs, n, rng), n, n // 10, rng)
    else:
        chords = {"tree": 0, "sparse": n // 10, "dense": n * (n - 1) // 8}[kind]
        edges = _chords(_tree(n, rng), n, chords, rng)
    return edges, n, arms


def _cases(graph):
    """(name, graph, K, n_upper, horizon, election seed) of every case, in order."""
    rng = np.random.default_rng(11)  # criteria 1 and 2's sweep
    for i in range(200):
        n = int(rng.integers(2, 51))
        g = graph.random_connected_graph(n, float(rng.uniform(0.0, 0.5)), rng)
        for arms in (2, 5, 10):
            yield f"crit-{i}-k{arms}", g, arms, 2 * n, HORIZON, 7_000_000 + 31 * i + arms
    for i in range(400):
        edges, n, arms = _shaped(i)
        yield f"shaped-{i}", graph.build_graph(n, sorted(edges)), arms, n, HORIZON, i
    for n in (1_500, 3_000, 10_000):
        yield f"tree-{n}", graph.random_connected_graph(n, 0.0, n), ARMS, n, HORIZON, 0
    yield "star", graph.star_graph(1_999), ARMS, 2_000, HORIZON, 0
    rng = np.random.default_rng(2_000)
    edges = _chords(_hung(_tree(40, rng), 40, 2_000, rng), 2_000, 200, rng)
    yield "hubs", graph.build_graph(2_000, sorted(edges)), ARMS, 2_000, HORIZON, 0
    rng = np.random.default_rng(3_000)
    edges = _chords(_tree(3_000, rng), 3_000, 3_000, rng)
    yield "mesh", graph.build_graph(3_000, sorted(edges)), ARMS, 3_000, HORIZON, 0
    rng = np.random.default_rng(0)  # the draws of bench/workloads.py's elect-tree at seed 0
    for v in range(3):
        g = graph.random_connected_graph(1_500, 0.0, rng)
        yield f"elect-tree-informed-{v}", g, ARMS, 1_500, HORIZON, 0
        g = graph.random_connected_graph(3_000, 0.0, rng)
        seed = int(rng.integers(2**31))
        yield f"elect-tree-uninformed-{v}", g, ARMS, 3_000, HORIZON, seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]),
                        help="root of the checkout whose src/ runs (default: this one)")
    src = Path(parser.parse_args(argv).checkout, "src").resolve()
    sys.path.insert(0, str(src))
    from coopmab import graph, partition

    if not Path(partition.__file__).resolve().is_relative_to(src):
        print(f"coopmab imported from {partition.__file__}, not from {src}", file=sys.stderr)
        return 1

    def columns(part):
        return [part.arms, *(np.asarray(getattr(part, name), dtype=np.int64)
                             for name in partition.PARTITION_COLUMNS)]

    for name, g, arms, n_upper, horizon, seed in _cases(graph):
        order, spread = partition._greedy_centers(g, arms)
        cof, uof, key = spread.states.astype(np.int64).transpose(1, 0, 2)
        rng = np.random.default_rng(seed)
        election = partition.compute_centers_uninformed(g, arms, n_upper, horizon, rng)
        calls = [(sorted(c.universe), c.result.rounds_used, sorted(c.result.joined),
                  c.result.exhausted) for c in election.luby_calls]
        fields = (election.luby_round_budget, election.protocol_steps,
                  election.final_pass_steps, election.total_steps, election.exhaustions)
        lines = {
            "order": _sha256(list(order)),
            "rounds": _sha256(cof, uof, *spread.pair.take(key, axis=1)),
            "informed": _sha256(*columns(partition.compute_centers_informed(g, arms))),
            "uninformed": _sha256(*columns(election.partition)),
            "luby": _sha256(calls, fields, rng.bit_generator.state),
        }
        for field, digest in lines.items():
            print(f"{digest}  {name}.{field}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
