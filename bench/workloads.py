"""The four benchmark workloads: seeded inputs and the CLI ops run on them.

Each workload writes its inputs (graph files) once, then repeats one
*cycle* of CLI ops in a closed loop.  A cycle holds, for each of a few
independent draws of the inputs, one ``simulate`` op, or, for
``elect-tree``, one informed and one uninformed ``partition`` op.  The
program sees only the generated files and argv; the workload seed never
reaches it directly.  Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from coopmab.graph import (
    build_graph,
    format_edge_list,
    path_graph,
    random_connected_graph,
    star_graph,
)

NAMES = ("star-sweep", "mesh-uninformed", "elect-tree", "path-logged")

# Full sizes, and the toy sizes of the smoke mode.  Every op takes 0.4-3 s
# at full size on a 2-vCPU Xeon, so a 30 s run holds 10-60 cycles.
SIZES = {
    False: {
        "star-sweep": {"leaves": 10, "arms": 10, "horizon": 2000, "seeds": 4},
        "mesh-uninformed": {"nodes": 3000, "extra_edges": 3000, "arms": 10, "horizon": 240, "seeds": 1},
        "elect-tree": {"informed_nodes": 1500, "uninformed_nodes": 3000, "arms": 10},
        "path-logged": {"nodes": 40, "arms": 4, "horizon": 600, "seeds": 1},
    },
    True: {
        "star-sweep": {"leaves": 10, "arms": 10, "horizon": 300, "seeds": 2},
        "mesh-uninformed": {"nodes": 120, "extra_edges": 120, "arms": 10, "horizon": 240, "seeds": 1},
        "elect-tree": {"informed_nodes": 150, "uninformed_nodes": 200, "arms": 10},
        "path-logged": {"nodes": 12, "arms": 4, "horizon": 60, "seeds": 1},
    },
}


# Independent draws of the random inputs in one cycle.  The cost of an op
# depends on its draw (graph shape, elected centers), so a run that covers
# several draws varies less from seed to seed.
VARIANTS = {"star-sweep": 2, "mesh-uninformed": 3, "elect-tree": 3, "path-logged": 4}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the files it writes."""

    name: str  # kind and draw, e.g. "simulate.0" or "informed.1"
    kind: str  # "simulate", "informed" or "uninformed"
    argv: tuple[str, ...]
    out: str  # simulate: prefix of .csv/.json; partition: the JSON file
    log: str | None  # simulate --log prefix
    seeds: int  # simulate seed count; 0 for partition ops

    @property
    def is_simulate(self) -> bool:
        return self.argv[0] == "simulate"

    def output_files(self) -> list[str]:
        if not self.is_simulate:
            return [self.out]
        files = [f"{self.out}.csv", f"{self.out}.json"]
        if self.log is not None:
            files += [f"{self.log}-seed{i}.jsonl" for i in range(self.seeds)]
        return files


def _one_better_arm(rng: np.random.Generator, arms: int) -> str:
    """Bernoulli adversary: every arm has mean 0.5 except one at 0.35."""
    means = ["0.5"] * arms
    means[int(rng.integers(arms))] = "0.35"
    return "bernoulli:" + ",".join(means)


def _mesh(nodes: int, extra_edges: int, rng: np.random.Generator):
    """Uniform random tree plus ``extra_edges`` distinct random chords."""
    edges = set(random_connected_graph(nodes, 0.0, rng).edges())
    target = len(edges) + extra_edges
    while len(edges) < target:
        u, v = (int(x) for x in rng.integers(0, nodes, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(nodes, sorted(edges))


def _write_graph(path: str, g) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))


def _simulate(graph: str, arms: int, horizon: int, seeds: int, rng, out: str, *extra: str) -> tuple:
    return (
        "simulate", "--graph", graph, "--arms", str(arms), "--horizon", str(horizon),
        "--adversary", _one_better_arm(rng, arms), "--seeds", str(seeds),
        "--adversary-seed", str(int(rng.integers(2**31))),
        "--policy-seed", str(int(rng.integers(2**31))),
        "--out", out, "--workers", "1", *extra,
    )


def write_inputs(name: str, seed: int, inputs: str, outputs: str, smoke: bool = False) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed``; return its cycle.

    A cycle holds the ops of ``VARIANTS[name]`` independent draws of the
    workload's random inputs, one after the other.  Everything random is
    drawn from ``seed``, so equal seeds give equal files and argv.  Ops
    write their results under ``outputs``.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    size = SIZES[smoke][name]
    rng = np.random.default_rng(seed)
    os.makedirs(inputs, exist_ok=True)
    ops = []
    for v in range(VARIANTS[name]):
        graph = os.path.join(inputs, f"graph-{v}.txt")
        out = os.path.join(outputs, f"{name}-{v}")
        if name == "star-sweep":
            _write_graph(graph, star_graph(size["leaves"]))
            argv = _simulate(graph, size["arms"], size["horizon"], size["seeds"], rng, out)
            ops.append(Op(f"simulate.{v}", "simulate", argv, out, None, size["seeds"]))
        elif name == "mesh-uninformed":
            _write_graph(graph, _mesh(size["nodes"], size["extra_edges"], rng))
            argv = _simulate(graph, size["arms"], size["horizon"], size["seeds"], rng, out,
                             "--setting", "uninformed", "--nbar", str(size["nodes"]))
            ops.append(Op(f"simulate.{v}", "simulate", argv, out, None, size["seeds"]))
        elif name == "path-logged":
            _write_graph(graph, path_graph(size["nodes"]))
            argv = _simulate(graph, size["arms"], size["horizon"], size["seeds"], rng, out,
                             "--setting", "uninformed", "--nbar", str(size["nodes"]),
                             "--log", out, "--debug-invariants")
            ops.append(Op(f"simulate.{v}", "simulate", argv, out, out, size["seeds"]))
        else:  # elect-tree
            for setting in ("informed", "uninformed"):
                nodes = size[f"{setting}_nodes"]
                path = os.path.join(inputs, f"tree-{setting}-{v}.txt")
                _write_graph(path, random_connected_graph(nodes, 0.0, rng))
                part_out = os.path.join(outputs, f"{setting}-{v}.json")
                argv = ["partition", "--graph", path, "--arms", str(size["arms"]),
                        "--setting", setting, "--out", part_out]
                if setting == "uninformed":
                    argv += ["--nbar", str(nodes), "--policy-seed", str(int(rng.integers(2**31)))]
                ops.append(Op(f"{setting}.{v}", setting, tuple(argv), part_out, None, 0))
    return ops
