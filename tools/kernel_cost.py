"""CLI ``simulate`` throughput in seed-rounds/s, split by phase, with fresh-process peak RSS.

Run from the root of a checkout (stdlib and numpy only):

    python tools/kernel_cost.py                          # writes BENCH_kernel.json
    python tools/kernel_cost.py --baseline ../other-checkout --out cost.json

Six cases: N = 11 (a star), 200 and 3,000 (seeded uniform random trees
plus about N random chords), each informed and uninformed, with K = 10
arms, horizon 2,000 and 2 seeds.  Every arm has Bernoulli mean 0.5
except arm 0 at 0.35.  One op is one ``coopmab.cli.main`` call writing
its CSV and JSON to a temporary directory, stdout captured.

seed-rounds/s is seeds * (set-up steps + horizon) over the op's wall
time.  The phases split that wall time, measured from outside the
program by wrapping its functions:

- election: ``compute_centers_informed`` or ``compute_centers_uninformed``;
- warm-up: from the election's end to the first loss block of the policy
  phase (uniform play while the election runs; uninformed only);
- policy: from there to the sweep's end (where the program elects a
  seed's partition between two seeds' runs, to that election);
- digest: blake2b ``update`` calls, taken out of warm-up and policy;
- output: from the sweep's end to the op's end (rows, CSV, JSON, table);
- other: from the op's start to the sweep's (graph parsing, checks).

Each case runs in its own process: one untimed op, then five timed ops;
the figures are medians.  Peak RSS is the maximum resident set (VmHWM)
of a fresh process that imports the package and runs one op.  With
``--baseline``, every case also runs on that checkout's ``src/``, right
before this one's, so both see the same moment of the machine.

One more case reads peak RSS alone: N = 20,000 (a seeded uniform random
tree, no chords), informed, the same K, horizon and seeds, one fresh
process per checkout.  At that size the ledger snapshots a run keeps
(``RunResult.snapshots``) are the largest allocation; their cap shows
there.

Five more rows time the kernel itself, in microseconds per step of a
run, by calling it from Python (no CLI, no output), each run's runs as
the lanes of one ``run_lanes`` call:

- ``solo``: one solo Exp3 run, K = 10, 20,000 steps;
- ``clique-11``: 20 seeds on the 11-node clique (one center, ten relays),
  K = 10, 20,000 steps;
- ``star-4``: 4 seeds on the 11-node star, K = 10, 2,000 steps (the shape
  of the benchmark's star-sweep op);
- ``crit8-20``: acceptance criterion 8's 20 random graphs of 4 to 30
  nodes, one seed each, K = 5, 10,000 steps (partitions elected before
  the clock starts);
- ``uninformed-4``: 4 seeds of the uninformed protocol on the 11-node
  star, K = 10, n_upper 11, horizon 2,000; a step is one of the run's
  set-up steps plus the horizon, and each seed's election is timed.

The rows other than crit8-20 draw the Bernoulli means above; crit8-20
has criterion 8's (arm 0 at 0.3, the rest 0.5).  Each row runs in three
processes per checkout, the checkouts alternating, each process one
untimed call and five timed ones; the figure is the median of the
fifteen.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _machine import machine

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
ARMS, HORIZON, SEEDS = 10, 2000, 2
ADVERSARY_SEED, POLICY_SEED = 21, 22
PHASES = ("election", "warmup", "policy", "digest", "output", "other")
STEP_CASES = {"solo": (1, 20_000), "clique-11": (20, 20_000), "star-4": (4, 2_000),
              "crit8-20": (20, 10_000), "uninformed-4": (4, 2_000)}  # runs, policy steps
STEP_ROUNDS = 3  # processes per checkout and step case
PEAK_NODES = 20_000  # the peak-RSS-only case's tree, run informed

# VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork and exec, so a
# child would report this process's resident set when that is larger.
FRESH_OP = """\
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
import coopmab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = coopmab.cli.main(sys.argv[2:])
try:
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak)
"""


def _argv(graph: str, nodes: int, setting: str, out: str) -> list[str]:
    means = ",".join(["0.35"] + ["0.5"] * (ARMS - 1))
    return ["simulate", "--graph", graph, "--arms", str(ARMS), "--horizon", str(HORIZON),
            "--setting", setting, "--nbar", str(nodes), "--adversary", f"bernoulli:{means}",
            "--seeds", str(SEEDS), "--adversary-seed", str(ADVERSARY_SEED),
            "--policy-seed", str(POLICY_SEED), "--out", out, "--workers", "1"]


class Probe:
    """Phase clock fed by wrappers around the program's election, loss and hash calls."""

    def __init__(self):
        self.clock = time.perf_counter
        self.total = dict.fromkeys(PHASES, 0.0)
        self.phase, self.mark, self.setup = None, 0.0, 0
        self.op_start = self.sweep_end = 0.0

    def switch(self, phase) -> None:
        now = self.clock()
        if self.phase is not None:
            self.total[self.phase] += now - self.mark
        self.phase, self.mark = phase, now

    def install(self, cli, simulate) -> None:
        import hashlib
        import types

        probe = self

        def election(fn):
            def wrapped(*args, **kwargs):
                probe.switch("election")
                result = fn(*args, **kwargs)
                probe.setup = getattr(result, "total_steps", 0)  # informed: none
                probe.switch("warmup" if probe.setup else "policy")
                return result
            return wrapped

        for name in ("compute_centers_informed", "compute_centers_uninformed"):
            setattr(simulate, name, election(getattr(simulate, name)))
        oracle_class = simulate.LossOracle

        def policy_at(start) -> None:  # the first policy block starts at the set-up's end
            if probe.phase == "warmup" and start == probe.setup:
                probe.switch("policy")

        if hasattr(oracle_class, "stream"):  # the kernel reads a stream per oracle, in blocks
            stream = oracle_class.stream

            def timed_stream(oracle, stop):
                read, done = stream(oracle, stop), 0

                def timed_read(m):
                    nonlocal done
                    policy_at(done)
                    done += m
                    return read(m)
                return timed_read

            oracle_class.stream = timed_stream
        else:  # a checkout whose kernel calls rows per block (after one length check)
            rows = oracle_class.rows

            def timed_rows(oracle, start, stop):
                policy_at(start)
                return rows(oracle, start, stop)

            oracle_class.rows = timed_rows

        class TimedHash:
            def __init__(self, *args, **kwargs):
                self.h = hashlib.blake2b(*args, **kwargs)

            def update(self, data) -> None:
                t0 = probe.clock()
                self.h.update(data)
                dt = probe.clock() - t0
                probe.total["digest"] += dt
                probe.total[probe.phase] -= dt

            def hexdigest(self) -> str:
                return self.h.hexdigest()

        simulate.hashlib = types.SimpleNamespace(blake2b=TimedHash)
        sweep = cli.sweep

        def timed_sweep(*args, **kwargs):
            probe.switch(None)
            probe.total["other"] += probe.clock() - probe.op_start
            result = sweep(*args, **kwargs)
            probe.switch(None)
            probe.sweep_end = probe.clock()
            return result

        cli.sweep = timed_sweep

    def op(self, cli, argv) -> dict:
        self.total = dict.fromkeys(PHASES, 0.0)
        self.op_start = self.clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        end = self.clock()
        if code != 0:
            raise SystemExit(f"exit code {code} for {' '.join(argv)}")
        self.total["output"] = end - self.sweep_end
        return {"wall": end - self.op_start, **self.total}


def worker(src: str, graph: str, nodes: int, setting: str) -> dict:
    """Phase medians of REPEATS timed ops of one case on the package under ``src``."""
    sys.path.insert(0, src)
    from coopmab import cli, simulate

    probe = Probe()
    probe.install(cli, simulate)
    with tempfile.TemporaryDirectory() as work:
        argv = _argv(graph, nodes, setting, os.path.join(work, "run"))
        probe.op(cli, argv)
        runs = [probe.op(cli, argv) for _ in range(REPEATS)]
        with open(os.path.join(work, "run.json"), encoding="utf-8") as fh:
            setup = [s["setup_steps"] for s in json.load(fh)["per_seed"]]
    wall = statistics.median(r["wall"] for r in runs)
    return {
        "wall_s": wall,
        "seed_rounds_per_s": sum(s + HORIZON for s in setup) / wall,
        "setup_steps": setup,
        "phases_s": {p: statistics.median(r[p] for r in runs) for p in PHASES},
        "wall_runs_s": [r["wall"] for r in runs],
    }


def _step_runs(case: str):
    """(arms, steps per run, a call that plays the case's runs) in the imported package."""
    import numpy as np
    from coopmab import graph, partition, simulate

    seeds, horizon = STEP_CASES[case]
    arms, means = (5, [0.3] + [0.5] * 4) if case == "crit8-20" else (ARMS, [0.35] + [0.5] * 9)
    oracles = [simulate.bernoulli_losses(means, ADVERSARY_SEED + i) for i in range(seeds)]
    pairs = list(zip(oracles, [POLICY_SEED + i for i in range(seeds)]))
    lanes = simulate.run_lanes
    if case == "solo":
        return arms, horizon, lambda: lanes([simulate.solo_lane(arms, *p) for p in pairs], horizon)
    if case in ("clique-11", "star-4"):
        g = graph.star_graph(10) if case == "star-4" else graph.build_graph(
            11, [(u, v) for u in range(11) for v in range(u + 1, 11)])
        return arms, horizon, lambda: simulate.run_informed_batch(g, arms, horizon, *zip(*pairs))
    if case == "crit8-20":  # criterion 8's draws of the graphs
        rng, graphs = np.random.default_rng(808), []
        for _ in range(seeds):
            n = int(rng.integers(4, 31))
            graphs.append(graph.random_connected_graph(n, float(rng.uniform(0.0, 0.4)), rng))
        runs = [(g, partition.compute_centers_informed(g, arms), *p) for g, p in zip(graphs, pairs)]
        return arms, horizon, lambda: lanes(
            [simulate.Lane(g, part, o, np.random.default_rng(s)) for g, part, o, s in runs], horizon)
    star, n_upper = graph.star_graph(10), 11
    setup = partition.compute_centers_uninformed(star, arms, n_upper, horizon,
                                                 np.random.default_rng(0)).total_steps
    return arms, setup + horizon, lambda: lanes(
        [simulate.uninformed_lane(star, arms, n_upper, horizon, *p) for p in pairs], horizon)


def step_worker(src: str, case: str) -> dict:
    """Median microseconds per step of a run over REPEATS calls of one step case."""
    sys.path.insert(0, src)
    arms, steps, run = _step_runs(case)
    run()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        runs.append((time.perf_counter() - t0) / steps * 1e6)
    return {"case": case, "seeds": STEP_CASES[case][0], "steps": steps, "arms": arms,
            "us_per_step": statistics.median(runs), "runs_us_per_step": runs}


def _subprocess(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.strip()[-2000:])
    return proc.stdout


def fresh_peak(src: str, graph: str, nodes: int, setting: str) -> float:
    """Peak RSS in MB (VmHWM) of a fresh process that runs one op of the case."""
    with tempfile.TemporaryDirectory() as work:
        code, rss_kb = _subprocess(
            ["-c", FRESH_OP, src, *_argv(graph, nodes, setting, os.path.join(work, "run"))]
        ).split()[-2:]
    if code != "0":
        raise SystemExit(f"fresh op exit code {code}")
    return int(rss_kb) / 1024.0


def measure(src: str, graph: str, nodes: int, setting: str) -> dict:
    row = json.loads(_subprocess([str(Path(__file__).resolve()), "--worker", src, graph,
                                  str(nodes), setting]))
    row["peak_rss_mb"] = fresh_peak(src, graph, nodes, setting)
    return row


def _graphs(work: str) -> list[tuple[int, str]]:
    """The timed cases' graph files, then the peak-RSS-only case's tree."""
    from coopmab.graph import format_edge_list, random_connected_graph, star_graph

    out = []
    for nodes in (11, 200, 3000, PEAK_NODES):
        if nodes == 11:
            g = star_graph(10)
        elif nodes == PEAK_NODES:
            g = random_connected_graph(nodes, 0.0, nodes)
        else:  # about N chords beside the tree's N - 1 edges
            g = random_connected_graph(nodes, nodes / ((nodes - 1) * (nodes - 2) / 2), nodes)
        path = os.path.join(work, f"graph-{nodes}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(g))
        out.append((nodes, path))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernel.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout whose src/ runs every case as well")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    checkouts = {"this": ROOT}
    if args.baseline is not None:
        checkouts = {"baseline": args.baseline.resolve(), **checkouts}
    results: dict[str, list[dict]] = {name: [] for name in checkouts}
    per_step: dict[str, list[dict]] = {name: [] for name in checkouts}
    peak_only: dict[str, list[dict]] = {name: [] for name in checkouts}
    for case in STEP_CASES:
        rows: dict[str, list[dict]] = {name: [] for name in checkouts}
        for _ in range(STEP_ROUNDS):  # checkouts alternate, so both see the machine's swings
            for name, root in checkouts.items():
                rows[name].append(json.loads(_subprocess(
                    [str(Path(__file__).resolve()), "--step-worker", str(root / "src"), case])))
        for name, got in rows.items():
            runs = [x for row in got for x in row["runs_us_per_step"]]
            row = {**got[0], "us_per_step": statistics.median(runs), "runs_us_per_step": runs}
            per_step[name].append(row)
            print(f"{name} {case}: {row['seeds']} seed(s), {row['us_per_step']:.1f} us per step",
                  flush=True)
    with tempfile.TemporaryDirectory() as work:
        *timed, (nodes, graph) = _graphs(work)
        for name, root in checkouts.items():
            peak = fresh_peak(str(root / "src"), graph, nodes, "informed")
            peak_only[name].append({"nodes": nodes, "setting": "informed", "peak_rss_mb": peak})
            print(f"{name} N={nodes} informed: peak {peak:.1f} MB", flush=True)
        for nodes, graph in timed:
            for setting in ("informed", "uninformed"):
                for name, root in checkouts.items():
                    row = {"nodes": nodes, "setting": setting,
                           **measure(str(root / "src"), graph, nodes, setting)}
                    results[name].append(row)
                    print(f"{name} N={nodes} {setting}: {row['seed_rounds_per_s']:,.0f} "
                          f"seed-rounds/s, {row['wall_s']:.3f} s ("
                          + ", ".join(f"{p} {row['phases_s'][p]:.3f}" for p in PHASES)
                          + f"), peak {row['peak_rss_mb']:.1f} MB", flush=True)
    doc = {
        "what": "coopmab simulate seed-rounds/s by phase, median of 5 in-process ops per case; "
                "per_step: microseconds per policy step of the kernel called from Python; "
                "peak_only: fresh-process peak RSS of one op",
        "config": {"arms": ARMS, "horizon": HORIZON, "seeds": SEEDS, "repeats": REPEATS,
                   "adversary_seed": ADVERSARY_SEED, "policy_seed": POLICY_SEED},
        "machine": machine(),
        "checkouts": list(checkouts),
        "results": results,
        "per_step": per_step,
        "peak_only": peak_only,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--step-worker":
        print(json.dumps(step_worker(*sys.argv[2:4])))
        sys.exit(0)
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        src, graph, nodes, setting = sys.argv[2:6]
        print(json.dumps(worker(src, graph, int(nodes), setting)))
        sys.exit(0)
    sys.exit(main())
