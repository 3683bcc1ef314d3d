"""Worker processes that take turns, one per checkout, for the tools' ``--baseline`` runs.

A worker is the tool's own script started with a worker flag: it makes one
call per line it reads on stdin, answers each with a line on stdout
(``serve``), and prints its result as one JSON line at the end.
``take_turns`` drives one worker per checkout call by call, so that each
pair of calls sees about the same moment of the machine.  Like
``_machine``, this module is found because the tools run as scripts.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def serve(calls) -> None:
    """Make each call when a line arrives on stdin, and answer it with one on stdout."""
    for call in calls:
        sys.stdin.readline()
        call()
        print(flush=True)


def take_turns(script: str, checkouts: dict[str, Path], calls: int, flag: str, *args: str,
               lead: int = 0) -> dict[str, dict]:
    """One worker process (``script flag src *args``) per checkout, their ``calls`` calls
    taking turns: checkout ``lead`` makes the first call of even turns, the other one that of
    odd turns.  Returns each worker's JSON result by checkout name."""
    procs = {name: subprocess.Popen(
        [sys.executable, str(Path(script).resolve()), flag, str(root / "src"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}) for name, root in checkouts.items()}
    order = list(procs.values())
    order = order[lead % len(order):] + order[:lead % len(order)]
    for call in range(calls):
        for proc in order[::1 if call % 2 == 0 else -1]:
            proc.stdin.write("\n")
            proc.stdin.flush()
            if not proc.stdout.readline():  # the worker ended early
                raise SystemExit(proc.stderr.read().strip()[-2000:])
    rows = {}
    for name, proc in procs.items():
        # read through the pipes' buffers: the last readline may hold the row already
        proc.stdin.close()
        out, err = proc.stdout.read(), proc.stderr.read()
        if proc.wait() != 0:
            raise SystemExit(err.strip()[-2000:])
        rows[name] = json.loads(out)
    return rows


def vs_baseline(what: str, ratios: list[float]) -> dict:
    """Pair ratios (this / baseline) with their median and quartiles, printed as well."""
    low, mid, high = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"this / baseline {what}: median {mid:.3f} of {len(ratios)} pairs "
          f"(quartiles {low:.3f}-{high:.3f})", flush=True)
    return {"pair_ratios": ratios, "median": mid, "quartiles": [low, high]}


def warn_unequal_paths(checkouts: dict[str, Path]) -> None:
    """Warn on stderr when the checkouts' paths differ in length: the same code has timed
    differently from paths a few characters apart."""
    lengths = {name: len(str(root)) for name, root in checkouts.items()}
    if len(set(lengths.values())) > 1:
        print("warning: checkout paths differ in length ("
              + ", ".join(f"{name} {n}" for name, n in lengths.items())
              + " characters); ratios may move with the paths as well as the code",
              file=sys.stderr, flush=True)
