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
- policy: from there to the sweep's end (or the next seed's election);
- digest: blake2b ``update`` calls, taken out of warm-up and policy;
- output: from the sweep's end to the op's end (rows, CSV, JSON, table);
- other: from the op's start to the sweep's (graph parsing, checks).

Each case runs in its own process: one untimed op, then five timed ops;
the figures are medians.  Peak RSS is the maximum resident set of a
fresh process that imports the package and runs one op.  With
``--baseline``, every case also runs on that checkout's ``src/``, right
before this one's, so both see the same moment of the machine.
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

FRESH_OP = """\
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
import coopmab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = coopmab.cli.main(sys.argv[2:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
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
        rows = simulate.LossOracle.rows

        def timed_rows(oracle, start, stop):
            if probe.phase == "warmup" and start >= probe.setup:  # the first policy block
                probe.switch("policy")
            return rows(oracle, start, stop)

        simulate.LossOracle.rows = timed_rows

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


def _subprocess(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.strip()[-2000:])
    return proc.stdout


def measure(src: str, graph: str, nodes: int, setting: str) -> dict:
    row = json.loads(_subprocess([str(Path(__file__).resolve()), "--worker", src, graph,
                                  str(nodes), setting]))
    with tempfile.TemporaryDirectory() as work:
        code, rss_kb = _subprocess(
            ["-c", FRESH_OP, src, *_argv(graph, nodes, setting, os.path.join(work, "run"))]
        ).split()[-2:]
    if code != "0":
        raise SystemExit(f"fresh op exit code {code}")
    row["peak_rss_mb"] = int(rss_kb) / 1024.0
    return row


def _graphs(work: str) -> list[tuple[int, str]]:
    from coopmab.graph import format_edge_list, random_connected_graph, star_graph

    out = []
    for nodes in (11, 200, 3000):
        if nodes == 11:
            g = star_graph(10)
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
    with tempfile.TemporaryDirectory() as work:
        for nodes, graph in _graphs(work):
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
        "what": "coopmab simulate seed-rounds/s by phase, median of 5 in-process ops per case",
        "config": {"arms": ARMS, "horizon": HORIZON, "seeds": SEEDS, "repeats": REPEATS,
                   "adversary_seed": ADVERSARY_SEED, "policy_seed": POLICY_SEED},
        "machine": machine(),
        "checkouts": list(checkouts),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        src, graph, nodes, setting = sys.argv[2:6]
        print(json.dumps(worker(src, graph, int(nodes), setting)))
        sys.exit(0)
    sys.exit(main())
