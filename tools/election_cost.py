"""Cost of ``coopmab partition`` on random trees: read, both elections, validation, write.

Run from the root of a checkout (stdlib and numpy only):

    python tools/election_cost.py                 # writes BENCH_election.json
    python tools/election_cost.py --baseline ../other-checkout --out cost.json

For each n in 1,500, 3,000, 10^4 and 10^5, one seeded uniform random tree
(``random_connected_graph(n, 0.0, n)``) with K = 10 arms, written as an
edge-list file.  Each timing is the median of 3 runs of: ``read_edge_list``
on that file (parse and graph build, ``read_s``), the informed election,
the uninformed election (n_upper = n, horizon 10^5, policy seed 0),
``validate_partition`` on each election's partition, and writing the
informed partition's JSON as ``coopmab partition --out`` writes it
(``write_s``).  Every size runs in a fresh child process, so its
``peak_rss_mb`` (the child's ``ru_maxrss``, graph included) is that size's
alone; ``informed_peak_rss_mb`` is the same reading taken right after the
informed runs, before anything else is allocated.  With ``--baseline``,
every size also runs on that checkout's ``src/``, right before this one's,
so both see the same moment of the machine; its elections must return
their partitions as this one's do (``compute_centers_informed`` a
``Partition``, ``compute_centers_uninformed`` one in ``.partition``).
The result, with the machine it ran on, goes to ``BENCH_election.json``.
"""

from __future__ import annotations

import argparse
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
SIZES = (1_500, 3_000, 10_000, 100_000)
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


def measure(n: int, work: str) -> dict:
    """Time one size in this process; the caller runs it in a fresh child."""
    import numpy as np

    from coopmab.graph import format_edge_list, random_connected_graph, read_edge_list
    from coopmab.partition import (compute_centers_informed, compute_centers_uninformed,
                                   validate_partition)

    graph = os.path.join(work, f"tree-{n}.txt")
    with open(graph, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(random_connected_graph(n, 0.0, n)))
    read_s, g = _median_time(lambda: read_edge_list(graph))
    informed_s, informed = _median_time(lambda: compute_centers_informed(g, ARMS))
    informed_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    uninformed_s, uninformed = _median_time(
        lambda: compute_centers_uninformed(g, ARMS, n, HORIZON, np.random.default_rng(0)))
    out = {
        "n": n,
        "read_s": read_s,
        "informed_s": informed_s,
        "informed_centers": len(informed.centers),
        "informed_peak_rss_mb": informed_rss,
        "uninformed_s": uninformed_s,
        "uninformed_centers": len(uninformed.partition.centers),
    }
    parts = {"informed": informed, "uninformed": uninformed.partition}
    for name, part in parts.items():
        out[f"validate_{name}_s"], report = _median_time(lambda: validate_partition(g, part))
        if not report.ok:
            raise SystemExit(f"n={n}: {name} partition fails validation: {report.lines()}")
    from coopmab.cli import write_partition  # late: informed_peak_rss_mb leaves it out

    out["write_s"], _ = _median_time(
        lambda: write_partition(os.path.join(work, "partition.json"), parts["informed"]))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_election.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout whose src/ runs every size as well")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)  # n, src, work dir
    args = parser.parse_args(argv)
    if args.child is not None:
        n, src, work = args.child
        sys.path.insert(0, src)
        print(json.dumps(measure(int(n), work)))
        return 0

    checkouts = {"this": ROOT}
    if args.baseline is not None:
        checkouts = {"baseline": args.baseline.resolve(), **checkouts}
    results: dict[str, list[dict]] = {name: [] for name in checkouts}
    with tempfile.TemporaryDirectory() as work:
        for n in SIZES:
            for name, root in checkouts.items():
                child = subprocess.run(
                    [sys.executable, __file__, "--child", str(n), str(root / "src"), work],
                    check=True, capture_output=True, text=True)
                row = json.loads(child.stdout.strip().splitlines()[-1])
                results[name].append(row)
                print(f"{name} n={n}: read {row['read_s']:.3f} s, "
                      f"informed {row['informed_s']:.3f} s ({row['informed_centers']} centers, "
                      f"peak RSS {row['informed_peak_rss_mb']:.1f} MB), "
                      f"uninformed {row['uninformed_s']:.3f} s, "
                      f"validate {row['validate_informed_s']:.3f} / {row['validate_uninformed_s']:.3f} s, "
                      f"write {row['write_s']:.3f} s, peak RSS {row['peak_rss_mb']:.1f} MB", flush=True)
    doc = {
        "what": "partition read, election, validation and write time on seeded uniform random "
                "trees, K=10, median of 3",
        "arms": ARMS,
        "horizon": HORIZON,
        "repeats": REPEATS,
        "machine": machine(),
        "checkouts": list(checkouts),
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
