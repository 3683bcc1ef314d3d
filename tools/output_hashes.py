"""sha256 of every output of a fixed set of CLI runs, to check that a change keeps output bytes.

Run from anywhere (stdlib and numpy only); CHECKOUT is the root of the
checkout whose ``src/`` is imported, this one by default:

    python tools/output_hashes.py /path/to/parent > parent.txt
    python tools/output_hashes.py . > change.txt
    diff parent.txt change.txt

The runs go through ``coopmab.cli.main`` in this process, stdout captured,
in a temporary directory that is removed afterwards:

- ``star``: the 11-node star, informed, K = 10, 4 seeds, ``--log``;
- ``path``: the 40-node path, uninformed, K = 4, 2 seeds, ``--log
  --debug-invariants``;
- ``mesh-informed`` and ``mesh-uninformed``: a seeded 400-node random graph
  (a random tree plus 400 chords), K = 5, a ``matrix:`` adversary of 2,000
  seeded rows, 3 and 2 seeds, ``--workers 2``;
- ``mesh-uninformed-serial``: the same graph and table, uninformed, 3
  seeds on one worker (one kernel call of three lanes), with
  ``--debug-invariants``;
- ``partition-informed`` and ``partition-uninformed``: ``partition --out``
  on the same graph.

The graph and loss-table files are written by this script, not by the
checkout, so both sides of a comparison read the same inputs.  Each output
file (CSV, summary JSON, JSONL log, partition JSON) and each run's stdout
gets one ``sha256  name`` line, in name order.  Each JSONL log also gets a
``name.records`` line: the sha256 of its per-agent records (t, v, action,
loss, role), read from either log format, one line per agent per step or
log v2 (a header of roles, then one line per step).  So a change of log
format alone changes the ``.jsonl`` lines and keeps the ``.records`` ones.
A run that exits nonzero stops the script with exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np


def _edge_text(n: int, edges) -> str:
    edges = sorted(edges)
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _mesh_text(n: int, chords: int, seed: int) -> str:
    """A random tree (each node v > 0 joins a uniform earlier node) plus random chords."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    return _edge_text(n, edges)


def _records(text: str) -> str:
    """sha256 of a log's (t, v, action, loss, role) records, one text line each."""
    lines, roles = [], None
    for rec in map(json.loads, text.splitlines()):
        if "version" in rec:  # log v2's header
            roles = rec["role"]
        elif roles is None:  # one agent's record
            lines.append(f'{rec["t"]} {rec["v"]} {rec["action"]} {rec["loss"]!r} {rec["role"]}\n')
        else:  # one step's: every agent's action, the step's loss row
            t, loss = rec["t"], rec["loss"]
            lines += [f"{t} {v} {a} {loss[a]!r} {roles[v]}\n" for v, a in enumerate(rec["action"])]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _runs(work: Path) -> list[tuple[str, list[str]]]:
    """Write the inputs into ``work``; return (name, CLI arguments) of every run."""
    (work / "star.txt").write_text(_edge_text(11, [(0, v) for v in range(1, 11)]))
    (work / "path.txt").write_text(_edge_text(40, [(v, v + 1) for v in range(39)]))
    (work / "mesh.txt").write_text(_mesh_text(400, 400, 400))
    table = np.random.default_rng(5).random((2000, 5))
    np.savetxt(work / "losses.csv", table, delimiter=",", fmt="%.17g")
    mesh = ["--graph", "mesh.txt", "--arms", "5"]
    sim_mesh = ["simulate", *mesh, "--horizon", "300", "--adversary", "matrix:losses.csv",
                "--workers", "2"]
    return [
        ("star", ["simulate", "--graph", "star.txt", "--arms", "10", "--horizon", "1000",
                  "--adversary", "bernoulli:" + ",".join(["0.3"] + ["0.5"] * 9),
                  "--seeds", "4", "--out", "star", "--log", "star-log"]),
        ("path", ["simulate", "--graph", "path.txt", "--arms", "4", "--horizon", "600",
                  "--setting", "uninformed", "--nbar", "80",
                  "--adversary", "bernoulli:0.35,0.5,0.5,0.5", "--seeds", "2",
                  "--out", "path", "--log", "path-log", "--debug-invariants"]),
        ("mesh-informed", [*sim_mesh, "--seeds", "3", "--out", "mesh-informed"]),
        ("mesh-uninformed", [*sim_mesh, "--setting", "uninformed", "--nbar", "400",
                             "--seeds", "2", "--out", "mesh-uninformed"]),
        ("mesh-uninformed-serial", [*sim_mesh, "--setting", "uninformed", "--nbar", "400",
                                    "--seeds", "3", "--workers", "1", "--debug-invariants",
                                    "--out", "mesh-uninformed-serial"]),
        ("partition-informed", ["partition", *mesh, "--out", "partition-informed.json"]),
        ("partition-uninformed", ["partition", *mesh, "--setting", "uninformed",
                                  "--nbar", "400", "--horizon", "300",
                                  "--out", "partition-uninformed.json"]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]),
                        help="root of the checkout whose src/ runs (default: this one)")
    src = Path(parser.parse_args(argv).checkout, "src").resolve()
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(  # for --workers' child processes
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    from coopmab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"coopmab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = _runs(work)
        inputs = set(os.listdir(work))
        here = os.getcwd()
        os.chdir(work)
        try:
            for name, args in runs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(args)
                if code != 0:
                    print(f"{name}: exit {code}", file=sys.stderr)
                    return 1
                digests[f"{name}.stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        finally:
            os.chdir(here)
        for path in work.iterdir():
            if path.name not in inputs:
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
                if path.suffix == ".jsonl":
                    digests[f"{path.name}.records"] = _records(path.read_text(encoding="utf-8"))
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
