"""Cost of the observers: ``simulate`` plain, with --log, --debug-invariants and both.

Run from the root of a checkout (stdlib and numpy only):

    python tools/observe_cost.py                 # writes BENCH_observe.json
    python tools/observe_cost.py --out cost.json

Two uninformed runs, each one seed: the 40-node path with K = 4 and
horizon 600, and a 3,000-node mesh (a seeded uniform random tree plus
about 3,000 random chords) with K = 10 and horizon 240.  Every arm has Bernoulli
mean 0.5 except arm 0 at 0.35.  Each op goes through ``coopmab.cli.main``
in this process, stdout captured, writing its CSV, JSON and logs to a
temporary directory.  After one untimed run per mode, the four modes run
in turn, the first mode moving one place each round, five rounds; each
timing is the median of its five runs.  The result gives every mode's
overhead as a ratio to the plain run and names the machine it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
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


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(name: str, g, arms: int, horizon: int, work: str) -> dict:
    """Median wall time of each mode on one graph, and its overhead over the plain run."""
    from coopmab import cli
    from coopmab.graph import format_edge_list

    graph = os.path.join(work, f"{name}.txt")
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
    means = ",".join(["0.35"] + ["0.5"] * (arms - 1))
    base = ["simulate", "--graph", graph, "--arms", str(arms), "--horizon", str(horizon),
            "--setting", "uninformed", "--nbar", str(g.node_count),
            "--adversary", f"bernoulli:{means}", "--adversary-seed", str(ADVERSARY_SEED),
            "--policy-seed", str(POLICY_SEED), "--out", os.path.join(work, name)]
    log = os.path.join(work, f"{name}-log")

    def run(mode: str) -> float:
        argv = (base + (["--log", log] if mode in ("log", "both") else [])
                + (["--debug-invariants"] if mode in ("debug", "both") else []))
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"{name} {mode}: exit code {code}")
        return elapsed

    for mode in MODES:
        run(mode)
    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    for r in range(REPEATS):
        for mode in MODES[r % len(MODES):] + MODES[:r % len(MODES)]:
            times[mode].append(run(mode))
    median = {mode: statistics.median(ts) for mode, ts in times.items()}
    return {
        "graph": name,
        "nodes": g.node_count,
        "arms": arms,
        "horizon": horizon,
        "log_bytes": os.path.getsize(f"{log}-seed0.jsonl"),
        "median_s": median,
        "runs_s": times,
        "ratio_to_plain": {mode: median[mode] / median["plain"] for mode in MODES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_observe.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    rows = []
    with tempfile.TemporaryDirectory() as work:
        for name, g, arms, horizon in _cases():
            row = measure(name, g, arms, horizon, work)
            rows.append(row)
            print(f"{name}: " + ", ".join(
                f"{mode} {row['median_s'][mode]:.3f} s (x{row['ratio_to_plain'][mode]:.2f})"
                for mode in MODES), flush=True)
    doc = {
        "what": "coopmab simulate wall time per observer mode, uninformed, 1 seed, median of 5",
        "modes": {"plain": "(none)", "log": "--log", "debug": "--debug-invariants",
                  "both": "--log --debug-invariants"},
        "repeats": REPEATS,
        "adversary_seed": ADVERSARY_SEED,
        "policy_seed": POLICY_SEED,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "graphs": rows,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
