"""Cost of ``coopmab partition`` on seeded graphs: read, both elections, validation, write.

Run from the root of a checkout (stdlib and numpy only):

    python tools/election_cost.py                 # writes BENCH_election.json
    python tools/election_cost.py --baseline ../other-checkout --out cost.json

For each n in 1,500, 3,000, 10^4 and 10^5, one seeded uniform random tree
(``random_connected_graph(n, 0.0, n)``), then the 2,000-node star
(``star_graph(1999)``), then a 3,000-node mesh shaped as the benchmark's
mesh-uninformed graph (a seeded random tree plus 3,000 random chords),
each with K = 10 arms and written as an edge-list file.  Each timing is
the median of 3 runs of: ``read_edge_list`` on that file (parse and
graph build, ``read_s``), the informed election, the
uninformed election (n_upper = n, horizon 10^5, policy seed 0),
``validate_partition`` on each election's partition, and writing the
informed partition's JSON as ``coopmab partition --out`` writes it
(``write_s``).  Every graph runs in a fresh child process, so its
``peak_rss_mb`` (the child's ``VmHWM``, graph included) is that graph's
alone; ``informed_peak_rss_mb`` is the same reading taken right after one
untimed informed election, before the timed runs and anything else: a
process's peak on the star grows with the number of elections it has
run, so a reading after all of them would count the repeats.
``ru_maxrss`` would not do: Linux carries it across fork and exec, so a
child would report this process's peak whenever that is larger.

``informed_sha256`` hashes the informed partition's six columns, and
``uninformed_sha256`` the uninformed one's and every ``LubyCall``
(universe, rounds used, joined set, exhaustion).  With ``--baseline``,
every graph also runs on that checkout's ``src/``, right before this
one's, so both see the same moment of the machine; its elections must
return their partitions as this one's do (``compute_centers_informed`` a
``Partition``, ``compute_centers_uninformed`` one in ``.partition``).  The
script then exits 1 unless both checkouts' hashes are equal on every
graph.  The result, with the machine it ran on, goes to
``BENCH_election.json`` either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _machine import machine

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = (("tree", 1_500), ("tree", 3_000), ("tree", 10_000), ("tree", 100_000), ("star", 2_000),
          ("mesh", 3_000))
ARMS = 10
HORIZON = 100_000
REPEATS = 3


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        out = None  # the previous result is not kept alive through the next run
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _peak_mb() -> float:
    """This process's own peak resident set (VmHWM) in MB."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _mesh(n: int):
    """A seeded random tree on n nodes plus n distinct random chords."""
    import numpy as np

    from coopmab.graph import build_graph, random_connected_graph

    rng = np.random.default_rng(n)
    edges = set(random_connected_graph(n, 0.0, rng).edges())
    while len(edges) < 2 * n - 1:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    return build_graph(n, sorted(edges))


def measure(kind: str, n: int, work: str) -> dict:
    """Time one graph in this process; the caller runs it in a fresh child."""
    import numpy as np

    from coopmab.graph import format_edge_list, random_connected_graph, read_edge_list, star_graph
    from coopmab.partition import (PARTITION_COLUMNS, compute_centers_informed,
                                   compute_centers_uninformed, validate_partition)

    graph = os.path.join(work, f"{kind}-{n}.txt")
    make = {"star": lambda: star_graph(n - 1), "mesh": lambda: _mesh(n),
            "tree": lambda: random_connected_graph(n, 0.0, n)}[kind]
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(make()))
    read_s, g = _median_time(lambda: read_edge_list(graph))
    compute_centers_informed(g, ARMS)  # one untimed election, then its peak
    informed_rss = _peak_mb()
    informed_s, informed = _median_time(lambda: compute_centers_informed(g, ARMS))
    uninformed_s, uninformed = _median_time(
        lambda: compute_centers_uninformed(g, ARMS, n, HORIZON, np.random.default_rng(0)))

    def columns(part):
        return [np.asarray(getattr(part, name), dtype=np.int64).tobytes()
                for name in PARTITION_COLUMNS]

    calls = [(sorted(c.universe), c.result.rounds_used, sorted(c.result.joined),
              c.result.exhausted) for c in uninformed.luby_calls]
    out = {
        "graph": kind,
        "n": n,
        "read_s": read_s,
        "informed_s": informed_s,
        "informed_centers": len(informed.centers),
        "informed_peak_rss_mb": informed_rss,
        "uninformed_s": uninformed_s,
        "uninformed_centers": len(uninformed.partition.centers),
        "informed_sha256": _sha256(*columns(informed)),
        "uninformed_sha256": _sha256(*columns(uninformed.partition), calls),
    }
    parts = {"informed": informed, "uninformed": uninformed.partition}
    for name, part in parts.items():
        out[f"validate_{name}_s"], report = _median_time(lambda: validate_partition(g, part))
        if not report.ok:
            raise SystemExit(f"{kind} n={n}: {name} partition fails validation: {report.lines()}")
    from coopmab.cli import write_partition  # late: informed_peak_rss_mb leaves it out

    out["write_s"], _ = _median_time(
        lambda: write_partition(os.path.join(work, "partition.json"), parts["informed"]))
    out["peak_rss_mb"] = _peak_mb()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_election.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout whose src/ runs every size as well")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)  # kind, n, src, work dir
    args = parser.parse_args(argv)
    if args.child is not None:
        kind, n, src, work = args.child
        sys.path.insert(0, src)
        print(json.dumps(measure(kind, int(n), work)))
        return 0

    checkouts = {"this": ROOT}
    if args.baseline is not None:
        checkouts = {"baseline": args.baseline.resolve(), **checkouts}
    results: dict[str, list[dict]] = {name: [] for name in checkouts}
    with tempfile.TemporaryDirectory() as work:
        for kind, n in GRAPHS:
            for name, root in checkouts.items():
                child = subprocess.run(
                    [sys.executable, __file__, "--child", kind, str(n), str(root / "src"), work],
                    check=True, capture_output=True, text=True)
                row = json.loads(child.stdout.strip().splitlines()[-1])
                results[name].append(row)
                print(f"{name} {kind} n={n}: read {row['read_s']:.3f} s, "
                      f"informed {row['informed_s']:.3f} s ({row['informed_centers']} centers, "
                      f"peak RSS {row['informed_peak_rss_mb']:.1f} MB), "
                      f"uninformed {row['uninformed_s']:.3f} s, "
                      f"validate {row['validate_informed_s']:.3f} / {row['validate_uninformed_s']:.3f} s, "
                      f"write {row['write_s']:.3f} s, peak RSS {row['peak_rss_mb']:.1f} MB", flush=True)
    doc = {
        "what": "partition read, election, validation and write time on seeded uniform random "
                "trees, a star and a chorded tree, K=10, median of 3",
        "arms": ARMS,
        "horizon": HORIZON,
        "repeats": REPEATS,
        "machine": machine(),
        "checkouts": list(checkouts),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.baseline is None:
        return 0
    unequal = [f"{a['graph']} n={a['n']} {key}" for a, b in zip(*results.values())
               for key in ("informed_sha256", "uninformed_sha256") if a[key] != b[key]]
    for line in unequal:
        print(f"elections differ: {line}", file=sys.stderr)
    return 1 if unequal else 0


if __name__ == "__main__":
    sys.exit(main())
