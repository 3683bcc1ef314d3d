"""Cost of the observers: ``simulate`` plain, with --log, --debug-invariants and both.

Run from the root of a checkout (stdlib and numpy only):

    python tools/observe_cost.py                 # writes BENCH_observe.json
    python tools/observe_cost.py --baseline ../other-checkout --out cost.json

Two uninformed runs, each one seed: the 40-node path with K = 4 and
horizon 600, and a 3,000-node mesh (a seeded uniform random tree plus
about 3,000 random chords) with K = 10 and horizon 240.  Every arm has Bernoulli
mean 0.5 except arm 0 at 0.35.  Each op goes through ``coopmab.cli.main``
in a worker process, stdout captured, writing its CSV, JSON and log to a
temporary directory.

Each graph runs in ``ROUNDS`` (4) rounds, and a round runs the four modes
one after another, the first mode moving one place each round.  A mode
starts one worker process per checkout (this one, and the ``--baseline``
one when given), each making one untimed op and ``REPEATS`` (6) timed
ones, and the workers take turns op by op, each going first in half the
turns; the checkout that makes the untimed op first alternates by round.
A timing is the median of a mode's 24 timed ops.  The result gives every
mode's overhead as a ratio to the plain run and names the machine it ran
on.  With ``--baseline``, the baseline's rows go to ``baseline_graphs``,
and each of this checkout's rows also holds ``vs_baseline``: per mode,
the ratio of each timed op's wall time to the baseline's op at the same
turn (``pair_ratios``), and the median and quartiles of those ratios.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from _machine import machine
from _turns import serve, take_turns, vs_baseline, warn_unequal_paths

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 4  # per graph, even: each checkout leads half of them, each mode leads one
REPEATS = 6  # timed ops per worker, even: each checkout's op comes first in half the turns
MODES = ("plain", "log", "debug", "both")  # which of --log, --debug-invariants are passed
ADVERSARY_SEED = 11
POLICY_SEED = 12


def _cases():
    from coopmab.graph import path_graph, random_connected_graph

    chord = 3000 / (3000 * 2999 / 2 - 2999)  # about 3,000 chords beside the tree's edges
    return [
        ("path-40", path_graph(40), 4, 600),
        ("mesh-3000", random_connected_graph(3000, chord, 3000), 10, 240),
    ]


def _argv(graph: str, nodes: int, arms: int, horizon: int, mode: str, work: str) -> list[str]:
    means = ",".join(["0.35"] + ["0.5"] * (arms - 1))
    return (["simulate", "--graph", graph, "--arms", str(arms), "--horizon", str(horizon),
             "--setting", "uninformed", "--nbar", str(nodes),
             "--adversary", f"bernoulli:{means}", "--adversary-seed", str(ADVERSARY_SEED),
             "--policy-seed", str(POLICY_SEED), "--out", os.path.join(work, "run")]
            + (["--log", os.path.join(work, "log")] if mode in ("log", "both") else [])
            + (["--debug-invariants"] if mode in ("debug", "both") else []))


def worker(src: str, graph: str, nodes: int, arms: int, horizon: int, mode: str) -> dict:
    """Wall times of REPEATS timed ops of one mode on the package under ``src``, one op per
    turn after an untimed one, and the log's size."""
    sys.path.insert(0, src)
    from coopmab import cli

    times: list[float] = []
    with tempfile.TemporaryDirectory() as work:
        argv = _argv(graph, nodes, arms, horizon, mode, work)

        def run() -> float:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            elapsed = time.perf_counter() - t0
            if code != 0:
                raise SystemExit(f"{mode}: exit code {code}")
            return elapsed

        serve([run] + [lambda: times.append(run())] * REPEATS)
        log = os.path.join(work, "log-seed0.jsonl")
        log_bytes = os.path.getsize(log) if os.path.exists(log) else None
    return {"runs_s": times, "log_bytes": log_bytes}


def measure(checkouts: dict[str, Path], name: str, g, arms: int, horizon: int,
            work: str) -> dict[str, dict]:
    """Each checkout's median wall time of each mode on one graph, its overhead over the
    plain run and, with a baseline, each mode's ratio to the baseline."""
    from coopmab.graph import format_edge_list

    graph = os.path.join(work, f"{name}.txt")
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
    times = {c: {mode: [] for mode in MODES} for c in checkouts}
    log_bytes = dict.fromkeys(checkouts)
    for r in range(ROUNDS):
        for mode in MODES[r % len(MODES):] + MODES[:r % len(MODES)]:
            got = take_turns(__file__, checkouts, REPEATS + 1, "--worker", graph,
                             str(g.node_count), str(arms), str(horizon), mode, lead=r)
            for c, row in got.items():
                times[c][mode] += row["runs_s"]
                log_bytes[c] = row["log_bytes"] or log_bytes[c]
    rows = {}
    for c, runs in times.items():
        median = {mode: statistics.median(ts) for mode, ts in runs.items()}
        rows[c] = {
            "graph": name,
            "nodes": g.node_count,
            "arms": arms,
            "horizon": horizon,
            "log_bytes": log_bytes[c],
            "median_s": median,
            "runs_s": runs,
            "ratio_to_plain": {mode: median[mode] / median["plain"] for mode in MODES},
        }
        print(f"{c} {name}: " + ", ".join(
            f"{mode} {median[mode]:.3f} s (x{rows[c]['ratio_to_plain'][mode]:.2f})"
            for mode in MODES), flush=True)
    if "baseline" in times:  # the two workers took turns op by op
        rows["this"]["vs_baseline"] = {mode: vs_baseline(f"{name} {mode}", [
            t / b for b, t in zip(times["baseline"][mode], times["this"][mode])]) for mode in MODES}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_observe.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout whose src/ runs every mode as well")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    checkouts = {"this": ROOT}
    if args.baseline is not None:
        checkouts = {"baseline": args.baseline.resolve(), **checkouts}
        warn_unequal_paths(checkouts)
    results: dict[str, list[dict]] = {c: [] for c in checkouts}
    with tempfile.TemporaryDirectory() as work:
        for name, g, arms, horizon in _cases():
            for c, row in measure(checkouts, name, g, arms, horizon, work).items():
                results[c].append(row)
    doc = {
        "what": "coopmab simulate wall time per observer mode, uninformed, 1 seed, median of "
                f"{ROUNDS} rounds of {REPEATS} ops in one process per checkout and mode",
        "modes": {"plain": "(none)", "log": "--log", "debug": "--debug-invariants",
                  "both": "--log --debug-invariants"},
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "adversary_seed": ADVERSARY_SEED,
        "policy_seed": POLICY_SEED,
        "machine": machine(),
        "checkouts": list(checkouts),
        "graphs": results["this"],
        **({"baseline_graphs": results["baseline"]} if args.baseline is not None else {}),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        src, graph, nodes, arms, horizon, mode = sys.argv[2:8]
        print(json.dumps(worker(src, graph, int(nodes), int(arms), int(horizon), mode)))
        sys.exit(0)
    sys.exit(main())
