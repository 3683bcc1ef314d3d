"""coopmab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload star-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload elect-tree --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke     # toy-size self-test of the benchmark
    python3 bench/run.py --record    # rewrite bench/reference.json at seed 0

One caller runs one CLI op through ``coopmab.cli.main`` in-process
(stdout captured), waits for it, and runs the next, for ``--seconds``.
``--trace 0`` reports the end-to-end metrics, with op times scaled to a
reference machine speed that ``SpeedGauge`` samples during every op, and
peak RSS from each op run once in a fresh process; ``--trace 1`` alternates
untraced cycles with cycles under ``spans.Tracer`` and reports the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  The
full result, with its machine manifest, goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# speed_probe's time at the fast level of the 2-vCPU Xeon box the benchmark
# was built on; op_scaled_s reads as seconds at that speed
PROBE_REF_S = 0.0018
SAMPLE_EVERY_S = 0.1  # speed sampling interval during a timed op
WAIT_NOTE = "no wait time: no layer queues work, every call runs to completion in the caller"

# Set-up as a fresh process sees it: import coopmab (numpy with it), then
# generate and write the workload's inputs.  Timed inside the child, so
# interpreter start-up is excluded.  Then the child takes speed samples
# (after two that warm numpy's dispatch) and prints their median.
SETUP_PROBE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import coopmab, workloads
workloads.write_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6], sys.argv[7] == "1")
setup = time.perf_counter() - t0
import run
print(setup, statistics.median([run.speed_probe() for _ in range(9)][2:]))
"""

# One CLI op in a fresh process, as a user runs it: prints its wall time,
# exit code and peak RSS in KiB.
FRESH_OP = """\
import contextlib, io, resource, sys, time
sys.path.insert(0, sys.argv[1])
import coopmab.cli
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = coopmab.cli.main(sys.argv[2:])
print(time.perf_counter() - t0, code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def import_program() -> None:
    """Put the checkout's ``src/`` first on sys.path and import coopmab from it."""
    if not (SRC / "coopmab" / "__init__.py").is_file():
        raise RuntimeError(f"no coopmab package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import coopmab

    if Path(coopmab.__file__).resolve().parent != SRC / "coopmab":
        raise RuntimeError(f"coopmab imported from {coopmab.__file__}, not from {SRC}")


@dataclass
class OpResult:
    name: str
    wall: float
    error: str | None
    fingerprint: dict | None
    speed: float = 0.0  # mean speed sample during the op, s; 0 if not sampled
    seed_rounds: int = 0
    csv_bytes: int = 0
    log_bytes: int = 0


class Expected:
    """Outputs each op must reproduce.

    With a reference (the recorded one at the reference seed), every op is
    held to it; without one, to the first op of the same name in the run,
    which had the same inputs.
    """

    def __init__(self, reference: dict | None):
        self.fixed = reference is not None
        self.want = dict(reference or {})

    def check(self, name: str, fingerprint: dict) -> str | None:
        want = self.want.get(name) if self.fixed else self.want.setdefault(name, fingerprint)
        if want is None:
            return f"no reference recorded for op {name!r}"
        if want != fingerprint:
            source = "recorded reference" if self.fixed else "first op with the same inputs"
            return f"outputs differ from the {source}"
        return None


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _collect(op) -> OpResult:
    """Fingerprint an op's output files; raises OSError/KeyError if they are missing."""
    if not op.is_simulate:
        return OpResult(op.name, 0.0, None, {"partition_sha256": _sha256(op.out)})
    with open(f"{op.out}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    per_seed = doc["per_seed"]
    violations = sum(s["debug_violations"] for s in per_seed)
    fp = {"digests": [s["digest"] for s in per_seed], "csv_sha256": _sha256(f"{op.out}.csv")}
    logs = op.output_files()[2:]
    return OpResult(
        op.name, 0.0, f"{violations} debug invariant violation(s)" if violations else None, fp,
        seed_rounds=sum(s["setup_steps"] + doc["config"]["horizon"] for s in per_seed),
        csv_bytes=os.path.getsize(f"{op.out}.csv"),
        log_bytes=sum(os.path.getsize(f) for f in logs),
    )


def run_op(op, expected: Expected, gauge: SpeedGauge | None = None) -> OpResult:
    """One CLI call, timed around ``coopmab.cli.main`` only, then checked.

    With a ``gauge``, the machine's speed is sampled during the call; the
    wall time excludes the sampling, and ``speed`` is the mean sample.
    """
    import coopmab.cli as cli  # attribute looked up per call, so a Tracer's patch applies

    for path in op.output_files():
        if os.path.exists(path):
            os.remove(path)
    captured = io.StringIO()
    crash = None
    if gauge is not None:
        gauge.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(list(op.argv))
    except Exception:  # the op fails; the run goes on and reports it
        code, crash = None, traceback.format_exc(limit=4)
    finally:
        if gauge is not None:
            gauge.stop()
    wall = time.perf_counter() - t0
    speed = 0.0
    if gauge is not None:
        wall -= gauge.inside_s()
        speed = gauge.speed()
    if crash is not None:
        return OpResult(op.name, wall, f"raised: {crash}", None, speed)
    if code != 0:
        tail = captured.getvalue().strip().splitlines()[-3:]
        return OpResult(op.name, wall, f"exit code {code}: {' | '.join(tail)}", None, speed)
    return _checked(op, expected, wall, speed)


def _checked(op, expected: Expected, wall: float, speed: float = 0.0) -> OpResult:
    """The result of an op that exited with code 0, its outputs checked."""
    try:
        result = _collect(op)
    except (OSError, KeyError, ValueError) as exc:
        return OpResult(op.name, wall, f"unreadable output: {exc}", None, speed)
    result.wall, result.speed = wall, speed
    if result.error is None:
        result.error = expected.check(op.name, result.fingerprint)
    return result


def run_op_fresh(op, expected: Expected) -> tuple[OpResult, float]:
    """One CLI call in a fresh process, as a user runs it, then checked.

    Returns the result and the process's peak RSS in MB.
    """
    for path in op.output_files():
        if os.path.exists(path):
            os.remove(path)
    proc = subprocess.run([sys.executable, "-c", FRESH_OP, str(SRC), *op.argv],
                          capture_output=True, text=True, timeout=150)
    try:
        wall, code, rss_kb = (float(x) for x in proc.stdout.split()[-3:])
    except ValueError:
        return OpResult(op.name, 0.0, f"fresh process failed: {proc.stderr.strip()[-300:]}", None), 0.0
    if code != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return OpResult(op.name, wall, f"exit code {code:g}: {' | '.join(tail)}", None), rss_kb / 1024.0
    return _checked(op, expected, wall), rss_kb / 1024.0


def speed_probe() -> float:
    """Wall time of a fixed loop of the benchmark's own: the machine's current speed.

    It is a Python loop of small numpy calls, the kind of work the program
    does per round, and never calls coopmab, so no change to the program
    moves it.  It takes about 2 ms.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(400):
        a = np.exp(-a) + a.sum() * 1e-6
        int(np.argmax(a))
    return time.perf_counter() - t0


class SpeedGauge:
    """Samples the machine's speed while an op runs.

    ``start`` takes one sample, then SIGALRM takes one every
    ``SAMPLE_EVERY_S`` of wall time, in the main thread between two
    bytecodes of the program, until ``stop``.  The time spent sampling
    inside the op is known exactly and is taken out of the op's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(5):  # the first calls warm numpy's dispatch; not samples
            speed_probe()

    def _sample(self, signum, frame) -> None:
        self.samples.append(speed_probe())

    def start(self) -> None:
        self.samples = [speed_probe()]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside_s(self) -> float:
        """Time spent sampling after ``start`` returned."""
        return sum(self.samples[1:])

    def speed(self) -> float:
        """Mean sample: the probe's time at the op's average speed."""
        return statistics.fmean(self.samples)


def run_cycles(cycle, seconds: float, expected: Expected, results: list, tracer=None,
               gauge: SpeedGauge | None = None) -> list[float]:
    """Whole cycles for about ``seconds``, at least one; their wall times.

    A cycle starts only if one more, as long as the last, still ends in time.
    """
    walls: list[float] = []
    lengths: list[float] = []
    t0 = time.perf_counter()
    while not lengths or time.perf_counter() - t0 + lengths[-1] <= seconds:
        c0 = time.perf_counter()
        wall = 0.0
        for op in cycle:
            if tracer is not None:
                tracer.op = len(results)
            gc.collect()  # the last op's garbage, which a fresh CLI process would not hold
            res = run_op(op, expected, gauge)
            results.append(res)
            wall += res.wall
        walls.append(wall)
        lengths.append(time.perf_counter() - c0)
    return walls


def scaled_cycle_s(cycle, results: list[OpResult]) -> float:
    """Cycle time at the reference speed.

    Each op's wall time is scaled by ``PROBE_REF_S`` over its mean speed
    sample; the cycle's is the sum over its ops of their run medians.
    """
    return sum(
        statistics.median(PROBE_REF_S * r.wall / r.speed for r in results if r.name == op.name)
        for op in cycle
    )


def measure_setup(name: str, seed: int, work: Path, inputs: Path, smoke: bool) -> tuple[float, str | None]:
    """Median set-up time at the reference speed over fresh processes.

    Also checks that the inputs repeat.
    """
    repeats = 1 if smoke else SETUP_REPEATS
    times, error = [], None
    for i in range(repeats):
        target = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed),
             str(target), str(work / "out"), "1" if smoke else "0"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            return 0.0, f"set-up failed: {proc.stderr.strip()[-300:]}"
        setup, speed = (float(x) for x in proc.stdout.split()[-2:])
        times.append(PROBE_REF_S * setup / speed)
        files = sorted(os.listdir(inputs))
        same = files == sorted(os.listdir(target)) and all(
            filecmp.cmp(inputs / f, target / f, shallow=False) for f in files
        )
        shutil.rmtree(target)
        if not same:
            error = "two set-ups with the same seed wrote different inputs"
    return statistics.median(times), error


def _spread(values: list[float]) -> dict:
    """Min, quartiles, median, p90, max and sample count of a list of timings."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "p90": _p90(values), "max": max(values), "n": len(values)}


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated inside the sample (never beyond its max)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain file trees
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(name: str, seed: int, seconds: float, trace: int, cycles: int, ops: int) -> dict:
    import numpy

    import coopmab

    return {
        "workload": name, "seed": seed, "run_seconds": seconds, "trace": trace,
        "cycles": cycles, "ops": ops, "load": "closed loop, one caller, --workers 1",
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "caches": _caches(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "coopmab": coopmab.__version__, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                 reference: dict | None) -> dict:
    """Set up, run the closed loop, check every op; return the full result."""
    import spans
    import workloads

    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    work = WORK / f"{tag}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = work / "inputs", work / "out"
    outputs.mkdir(parents=True)
    cycle = workloads.write_inputs(name, seed, str(inputs), str(outputs), smoke)
    problems: list[str] = []
    expected = Expected(reference)
    results: list[OpResult] = []  # timed ops, in this process
    fresh: list[OpResult] = []  # ops in fresh processes, untimed
    metrics: dict[str, float] = {}
    info: dict = {}

    if trace == 0:
        setup_s, error = measure_setup(name, seed, work, inputs, smoke)
        if error:
            problems.append(error)
        # each op once in a fresh process, as users run it, for its peak RSS;
        # in this process the heap that earlier ops leave would add to it
        rss = []
        for op in cycle:
            res, peak = run_op_fresh(op, expected)
            fresh.append(res)
            rss.append(peak)
        # no warm-up cycle: every CLI invocation is a fresh process, so users
        # pay the first op's costs on every run
        walls = run_cycles(cycle, seconds, expected, results, gauge=SpeedGauge())
        metrics = {
            "op_scaled_s": scaled_cycle_s(cycle, results),
            "peak_rss_mb": max(rss),
            "setup_s": setup_s,
        }
        info["fresh_op_peak_rss_mb"] = dict(zip((op.name for op in cycle), rss))
        info["cycle_s"] = _spread(walls)
        info["speed_s"] = _spread([r.speed for r in results])
        for kind in dict.fromkeys(op.kind for op in cycle):
            mine = [r for r in results if r.name.split(".")[0] == kind and r.error is None]
            if not mine:
                continue
            if kind == "simulate":
                info["seed_rounds_per_s"] = _spread([r.seed_rounds / r.wall for r in mine])
                info["seed_rounds_per_op"] = mine[0].seed_rounds
            else:
                info[f"partition_{kind}_s"] = _spread([r.wall for r in mine])
        traced_cycles = len(walls)
    else:
        # untraced and traced cycles alternate, so both see the same drift
        # in machine speed and their difference is the tracing overhead
        tracer = spans.Tracer()
        base, walls, traced = [], [], []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 + base[-1] + walls[-1] <= seconds:
            base += run_cycles(cycle, 0.0, expected, results)
            first = len(results)
            with tracer:
                walls += run_cycles(cycle, 0.0, expected, results, tracer)
            traced += results[first:]
        traced_cycles = len(walls)
        metrics = tracer.metrics(traced_cycles)
        metrics["cli.csv_bytes"] = sum(r.csv_bytes for r in traced) / traced_cycles
        metrics["cli.log_bytes"] = sum(r.log_bytes for r in traced) / traced_cycles
        base_s, traced_s = statistics.median(base), statistics.median(walls)
        metrics["trace.base_s"] = base_s
        metrics["trace.overhead_s"] = traced_s - base_s
        metrics["trace.overhead_ratio"] = (traced_s - base_s) / base_s
        metrics["trace.spans"] = len(tracer.start) / traced_cycles
        info["trace"] = {
            "untraced_cycles": len(base), "traced_cycles": traced_cycles,
            "overhead": f"{traced_s - base_s:+.4f} s per cycle on a base of {base_s:.4f} s "
                        f"(median untraced cycle, {len(base)} samples)",
            "wait": WAIT_NOTE,
            "count_hooks_failed": tracer.observe_errors,
            "layer_self_s": {k: metrics[k] for k in spans.LAYER_SELF},
            "functions [calls, self_s, inclusive_s] per cycle": tracer.functions(traced_cycles),
        }
        tracer.save(str(WORK / f"{tag}.spans.npz"))

    checked = fresh + results
    failed = [r for r in checked if r.error is not None]
    fingerprints = {}
    for r in checked:
        if r.error is None:
            fingerprints.setdefault(r.name, r.fingerprint)
    result = {
        "correct": not failed and not problems,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": metrics,
        "manifest": manifest(name, seed, seconds, trace, traced_cycles, len(checked)),
        "op_failure_ratio": len(failed) / len(checked),
        "info": info,
        "problems": problems + sorted({f"{r.name}: {r.error}" for r in failed}),
        "fingerprints": fingerprints,
        "ops": [[r.name, r.wall, r.speed, r.error] for r in results],
    }
    with open(WORK / f"{tag}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return result


def load_reference(name: str) -> dict:
    """Recorded outputs of ``name`` at the reference seed ({} if none)."""
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(name, {})


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics, as declared."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def print_result(name: str, seed: int, res: dict, units: dict[str, str]) -> None:
    print(f"workload {name} seed {seed}: {res['manifest']['cycles']} timed cycle(s), "
          f"op_failure_ratio {res['op_failure_ratio']} ({res['failed']}/{res['attempted']} ops)")
    for key, val in res["info"].items():
        print(f"  {key}: {json.dumps(val)}")
    for problem in res["problems"][:10]:
        print(f"  FAILED {problem}")
    for key, val in res["metrics"].items():
        print(f"  {key} = {val:.6g} {units.get(key, '?')}")
    print("manifest " + json.dumps(res["manifest"]))


def _corrupt(fingerprint: dict) -> dict:
    """The same fingerprint with the last hex digit of one hash changed."""
    out = json.loads(json.dumps(fingerprint))
    holder, key = (out["digests"], 0) if "digests" in out else (out, next(iter(out)))
    holder[key] = holder[key][:-1] + ("1" if holder[key].endswith("0") else "0")
    return out


def smoke() -> int:
    """Every workload at toy size: all named metrics present, checks fire."""
    import workloads

    end_to_end, per_layer = metric_units()
    problems = []
    for name in workloads.NAMES:
        before = len(problems)
        for trace, want in ((0, end_to_end), (1, per_layer)):
            res = run_workload(name, 1, 0.0, trace, True, None)
            if set(res["metrics"]) != set(want):
                problems.append(f"{name} trace {trace}: metrics {sorted(res['metrics'])} != {sorted(want)}")
            if not res["correct"]:
                problems.append(f"{name} trace {trace}: {res['problems']}")
        bad = {op: _corrupt(fp) for op, fp in res["fingerprints"].items()}
        res = run_workload(name, 1, 0.0, 0, True, bad)
        if res["correct"] or res["failed"] != res["attempted"]:
            problems.append(f"{name}: a corrupted reference went unnoticed")
        print(f"smoke {name}: {'ok' if len(problems) == before else 'FAILED'}")
    for problem in problems:
        print(f"  {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def record() -> int:
    """Write the reference outputs of every workload at the reference seed."""
    import workloads

    doc = {"seed": REFERENCE_SEED, "source_sha256": _source_digest(), "workloads": {}}
    for name in workloads.NAMES:
        res = run_workload(name, REFERENCE_SEED, 0.0, 0, False, None)
        if not res["correct"]:
            print(f"{name}: not recorded, the run failed: {res['problems']}", file=sys.stderr)
            return 1
        doc["workloads"][name] = res["fingerprints"]
        print(f"recorded {name}: {res['fingerprints']}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="star-sweep | mesh-uninformed | elect-tree | path-logged")
    mode.add_argument("--smoke", action="store_true", help="toy-size self-test of every workload")
    mode.add_argument("--record", action="store_true", help=f"rewrite {REFERENCE.name} at seed {REFERENCE_SEED}")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    reference = load_reference(args.workload) if args.seed == REFERENCE_SEED else None
    res = run_workload(args.workload, args.seed, args.seconds, args.trace, False, reference)
    units = metric_units()[args.trace]
    print_result(args.workload, args.seed, res, units)
    metrics = {k: {"value": v, "unit": units.get(k, "?")} for k, v in res["metrics"].items()}
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
