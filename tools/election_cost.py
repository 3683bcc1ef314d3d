"""Election cost on random trees: both elections and partition validation.

Run from the root of a checkout (stdlib and numpy only):

    python tools/election_cost.py                 # writes BENCH_election.json
    python tools/election_cost.py --out cost.json

For each n in 1,500, 3,000, 10^4 and 10^5, one seeded uniform random tree
(``random_connected_graph(n, 0.0, n)``) with K = 10 arms.  Each timing is
the median of 3 runs of: the informed election, the uninformed election
(n_upper = n, horizon 10^5, policy seed 0), and ``validate_partition`` on
each election's partition.  Every size runs in a fresh child process, so its
``peak_rss_mb`` (the child's ``ru_maxrss``, graph included) is that size's
alone; ``informed_peak_rss_mb`` is the same reading taken right after the
informed runs, before anything else is allocated.  The result, with the
machine it ran on, goes to ``BENCH_election.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

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


def measure(n: int) -> dict:
    """Time one size in this process; the caller runs it in a fresh child."""
    import numpy as np

    from coopmab.graph import random_connected_graph
    from coopmab.partition import (compute_centers_informed, compute_centers_uninformed,
                                   validate_partition)

    g = random_connected_graph(n, 0.0, n)
    informed_s, informed = _median_time(lambda: compute_centers_informed(g, ARMS))
    informed_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    uninformed_s, uninformed = _median_time(
        lambda: compute_centers_uninformed(g, ARMS, n, HORIZON, np.random.default_rng(0)))
    out = {
        "n": n,
        "informed_s": informed_s,
        "informed_centers": len(informed.centers),
        "informed_peak_rss_mb": informed_rss,
        "uninformed_s": uninformed_s,
        "uninformed_centers": len(uninformed.centers),
    }
    for name, part in (("informed", informed.component_map.to_partition()),
                       ("uninformed", uninformed.final_map.to_partition())):
        out[f"validate_{name}_s"], report = _median_time(lambda: validate_partition(g, part))
        if not report.ok:
            raise SystemExit(f"n={n}: {name} partition fails validation: {report.lines()}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_election.json")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(measure(args.child)))
        return 0

    import numpy as np

    rows = []
    for n in SIZES:
        child = subprocess.run(
            [sys.executable, __file__, "--child", str(n)],
            check=True, capture_output=True, text=True)
        row = json.loads(child.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"n={n}: informed {row['informed_s']:.3f} s ({row['informed_centers']} centers, "
              f"peak RSS {row['informed_peak_rss_mb']:.1f} MB), "
              f"uninformed {row['uninformed_s']:.3f} s, validate {row['validate_informed_s']:.3f} / "
              f"{row['validate_uninformed_s']:.3f} s, peak RSS {row['peak_rss_mb']:.1f} MB", flush=True)
    doc = {
        "what": "election and validation time on seeded uniform random trees, K=10, median of 3",
        "arms": ARMS,
        "horizon": HORIZON,
        "repeats": REPEATS,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "sizes": rows,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
