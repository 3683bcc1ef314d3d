"""Command-line harness: partition graphs and run seed sweeps.

Exit codes: 0 success (and, for partition, all checks passed), 1 a check
or reported invariant failed, 2 configuration or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .exp3 import ArmsTooFewError
from .graph import Graph, GraphError, read_edge_list
from .partition import (
    Partition,
    compute_centers_informed,
    compute_centers_uninformed,
    mass_value,
    partition_to_json,
    validate_partition,
)

if TYPE_CHECKING:  # the simulator is imported where a sweep needs it: `partition` never loads it
    from .simulate import LossOracle, RunResult

CSV_COLUMNS = [
    "seed",
    "agent",
    "degree",
    "mass_m",
    "mass_d",
    "delay",
    "regret",
    "regret_semi",
    "bound_individual",
    "bound_degree",
    "setup_steps",
]


def parse_adversary(spec: str, arms: int, seed: int) -> LossOracle:
    """Build a loss oracle from its one-line description.

    Forms: ``bernoulli:m1,m2,...`` (one mean per arm), ``matrix:path.csv``
    (steps x arms values in [0,1]), ``switch:arm0@0,arm3@50000`` (favored
    arm gets loss 0, the rest 1, switching at the given steps).
    """
    from .simulate import bernoulli_losses, matrix_losses, switching_losses

    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"adversary spec {spec!r} missing ':'")
    if kind == "bernoulli":
        means = [float(tok) for tok in rest.split(",") if tok != ""]
        if len(means) != arms:
            raise ValueError(f"bernoulli spec has {len(means)} means, run uses {arms} arms")
        return bernoulli_losses(means, seed)
    if kind == "matrix":
        table = np.loadtxt(rest, delimiter=",", dtype=float, ndmin=2)
        if table.shape[1] != arms:
            raise ValueError(f"loss table has {table.shape[1]} columns, run uses {arms} arms")
        return matrix_losses(table)
    if kind == "switch":
        switches = []
        for tok in rest.split(","):
            if not tok.startswith("arm") or "@" not in tok:
                raise ValueError(f"bad switch entry {tok!r}; expected e.g. arm2@500")
            arm_s, step_s = tok[3:].split("@", 1)
            switches.append((int(step_s), int(arm_s)))
        return switching_losses(switches, arms)
    raise ValueError(f"unknown adversary kind {kind!r}")


@dataclass
class RunConfig:
    """Validated sweep parameters; construction fails fast on bad input."""

    graph_path: str
    arms: int
    horizon: int
    setting: str
    n_upper: int | None
    adversary_spec: str
    seeds: int
    adversary_seed: int
    policy_seed: int
    debug_invariants: bool
    workers: int

    def check(self, g: Graph) -> None:
        if self.arms < 2:
            raise ArmsTooFewError(f"need at least 2 arms, got {self.arms}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.seeds < 1:
            raise ValueError(f"need at least one seed, got {self.seeds}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        _check_seed("--adversary-seed", self.adversary_seed)
        _check_seed("--policy-seed", self.policy_seed)
        if self.setting == "uninformed":
            _check_nbar(self.n_upper, g, "uninformed runs need --nbar (known upper bound on N)")
        self.adversary  # fail fast

    @cached_property
    def adversary(self) -> LossOracle:
        """Seed 0's loss oracle; parsed once, so a matrix file is read once."""
        return parse_adversary(self.adversary_spec, self.arms, self.adversary_seed)


def _check_seed(flag: str, seed: int) -> None:
    if seed < 0:  # numpy's seeding would fail later, naming no flag
        raise ValueError(f"{flag} must be >= 0, got {seed}")


def _check_nbar(nbar: int | None, g: Graph, missing: str) -> None:
    """An uninformed election's --nbar: given (else ``missing``), and at least the node count."""
    if nbar is None:
        raise ValueError(missing)
    if nbar < g.node_count:
        raise ValueError(f"--nbar {nbar} is below the actual node count {g.node_count}")


def _run_seeds(cfg: RunConfig, g: Graph, indices: range, log_prefix: str | None) -> list[RunResult]:
    """The runs of seeds ``indices`` as lanes of one call: informed seeds share one election,
    uninformed seeds elect their own."""
    from .simulate import Lane, run_lanes, uninformed_lane

    base = cfg.adversary  # only a bernoulli oracle reads its seed
    oracles = [replace(base, seed=cfg.adversary_seed + i) if base.kind == "bernoulli" else base
               for i in indices]
    p_seeds = [cfg.policy_seed + i for i in indices]
    with contextlib.ExitStack() as stack:
        sinks = [None] * len(indices) if log_prefix is None else [
            stack.enter_context(open(f"{log_prefix}-seed{i}.jsonl", "w", encoding="utf-8"))
            for i in indices
        ]
        if cfg.setting == "informed":
            part = compute_centers_informed(g, cfg.arms)
            lanes = [Lane(g, part, oracle, np.random.default_rng(seed), sink)
                     for oracle, seed, sink in zip(oracles, p_seeds, sinks)]
        else:
            lanes = [uninformed_lane(g, cfg.arms, cfg.n_upper, cfg.horizon, *lane)
                     for lane in zip(oracles, p_seeds, sinks)]
        return run_lanes(lanes, cfg.horizon, cfg.debug_invariants)


def _pool_worker(payload) -> list[RunResult]:
    cfg, indices, log_prefix = payload
    return _run_seeds(cfg, read_edge_list(cfg.graph_path), indices, log_prefix)


def sweep(cfg: RunConfig, g: Graph, log_prefix: str | None = None) -> list[RunResult]:
    """All seed runs in seed order; --workers splits the seeds into contiguous chunks."""
    workers = min(cfg.workers, cfg.seeds)
    if workers <= 1:
        return _run_seeds(cfg, g, range(cfg.seeds), log_prefix)
    cuts = [cfg.seeds * w // workers for w in range(workers + 1)]
    payloads = [(cfg, range(a, b), log_prefix) for a, b in zip(cuts, cuts[1:])]
    # imported here, not at the top, so that a one-worker call never loads it:
    # loaded before the package's modules, it raised a CLI call's peak RSS by 0.8 MB
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [res for chunk in pool.map(_pool_worker, payloads) for res in chunk]


# a per_agent entry as json.dump(..., indent=1) lays it out two levels deep, after
# the comma that parts it from the one before
_AGENT_ENTRY = "{}\n  {{\n" + ",\n".join(f'   "{key}": {{}}' for key in (
    "agent", "degree", "mass_m", "mass_d", "delay", "mean_regret", "mean_regret_semi",
    "bound_individual", "bound_degree", "within_individual", "within_degree_bound")) + "\n  }}"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(text: str) -> str:
    """A float's repr as the json module writes the float."""
    return _JSON_NONFINITE.get(text, text)


@dataclass
class ResultColumns:
    """A sweep's (seed, agent) rows as columns: seed s's come from results[s], agents ascending.
    Each agent's regrets averaged over seeds, with seed 0's columns, make the summary's
    per_agent list."""

    results: list[RunResult]
    degree: list[int]
    bound_degree: list[float]
    bound_individual: list[list[float]]  # one list per seed
    text: dict[float, str]  # each bound's repr, made once per distinct value
    mean_regret: list[float]
    mean_regret_semi: list[float]

    def _agents(self):
        part = self.results[0].partition
        return zip(range(len(self.degree)), self.degree, part.mass_m.tolist(),
                   part.mass_d.tolist(), part.delay.tolist(), self.mean_regret,
                   self.mean_regret_semi, self.bound_individual[0], self.bound_degree)

    def entries(self) -> Iterator[str]:
        """The per_agent entries' text, as json.dump(..., indent=1) writes them in the summary."""
        text = self.text
        return (_AGENT_ENTRY.format("," if v else "", v, d, m, md, dl, _json_float(repr(mr)),
                                    _json_float(repr(sr)), _json_float(text[bi]),
                                    _json_float(text[bd]), "true" if sr <= bi else "false",
                                    "true" if sr <= bd else "false")
                for v, d, m, md, dl, mr, sr, bi, bd in self._agents())

    def table(self) -> Iterator[str]:
        """The stdout table, one line per agent."""
        return (f"  agent {v:>3} mass ({m},{md}) semi {sr:>10.2f} vs bounds {bi:>10.1f} / "
                f"{bd:>12.1f}\n" for v, _, m, md, _, _, sr, bi, bd in self._agents())


def results_rows(cfg: RunConfig, g: Graph, results: list[RunResult]) -> ResultColumns:
    """The rows' columns; each bound is computed once per distinct degree or mass."""
    from .simulate import degree_bound, individual_bound, uninformed_degree_bound

    degree = g.closed_degrees.tolist()
    if cfg.setting == "uninformed":
        by_degree = {d: uninformed_degree_bound(d, cfg.arms, cfg.n_upper, cfg.horizon)
                     for d in set(degree)}
    else:
        by_degree = {d: degree_bound(d, cfg.arms, cfg.horizon) for d in set(degree)}
    masses = [list(zip(res.partition.mass_m.tolist(), res.partition.mass_d.tolist()))
              for res in results]
    by_mass = {md: individual_bound(mass_value(*md), cfg.arms, cfg.horizon)
               for md in set().union(*masses)}
    # a C-contiguous (agents, seeds) array's row means sum pairwise in seed
    # order, bit for bit np.mean's over each agent's rows
    regret, semi = (np.stack([getattr(res, name) for res in results], axis=1).mean(axis=1).tolist()
                    for name in ("regret", "semi_regret"))
    return ResultColumns(results, degree, [by_degree[d] for d in degree],
                         [[by_mass[md] for md in seed_masses] for seed_masses in masses],
                         {x: repr(x) for x in (*by_degree.values(), *by_mass.values())},
                         regret, semi)


def write_csv(path: str, rows: ResultColumns) -> None:
    """The rows as csv.writer writes them, floats as their repr."""
    text, n = rows.text, len(rows.degree)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for s, res in enumerate(rows.results):
            part = res.partition
            fh.writelines(
                f"{s},{v},{d},{m},{md},{dl},{r!r},{sr!r},{text[bi]},{text[bd]},{res.setup_steps}\r\n"
                for v, d, m, md, dl, r, sr, bi, bd in zip(
                    range(n), rows.degree, part.mass_m.tolist(), part.mass_d.tolist(),
                    part.delay.tolist(), res.regret.tolist(), res.semi_regret.tolist(),
                    rows.bound_individual[s], rows.bound_degree))


def summary_doc(cfg: RunConfig, g: Graph, results: list[RunResult], rows: ResultColumns) -> dict:
    per_seed = [
        {"seed": i, "adversary_seed": cfg.adversary_seed + i, "policy_seed": cfg.policy_seed + i,
         "digest": res.digest, "setup_steps": res.setup_steps, "best_arm": res.best_arm,
         "luby_budget_exhaustions": res.luby_budget_exhaustions,
         "debug_violations": len(res.debug_violations)}
        for i, res in enumerate(results)
    ]
    return {
        "config": {
            "graph": cfg.graph_path, "node_count": g.node_count, "arms": cfg.arms,
            "horizon": cfg.horizon, "setting": cfg.setting, "n_upper": cfg.n_upper,
            "adversary": cfg.adversary_spec, "seeds": cfg.seeds,
            "adversary_seed_base": cfg.adversary_seed, "policy_seed_base": cfg.policy_seed,
            "debug_invariants": cfg.debug_invariants,
        },
        "per_seed": per_seed,
        "per_agent": rows,  # write_summary writes its entries()
        "aggregate": {
            # every row, seed by seed: np.mean's pairwise sum over one array
            "mean_regret": float(np.mean(np.concatenate([res.regret for res in results]))),
            "mean_regret_semi": float(np.mean(np.concatenate([res.semi_regret for res in results]))),
            "mean_policy_regret_semi": float(
                np.mean([np.mean(res.policy_semi_regret) for res in results])
            ),
        },
    }


def write_summary(path: str, doc: dict) -> None:
    """The summary as json.dump(doc, fh, indent=1) and a newline write it, byte for byte."""
    # no JSON text holds a raw newline inside a string, so the split is at the key
    head, tail = json.dumps({**doc, "per_agent": []}, indent=1).split('\n "per_agent": []')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n "per_agent": [')
        fh.writelines(doc["per_agent"].entries())
        fh.write("\n ]" + tail + "\n")


def write_partition(path: str, p: Partition) -> None:
    """What json.dump(partition_to_json(p), fh, indent=1) and a newline write."""
    fields = (f' "{key}": ' + (str(val) if isinstance(val, int) else
                               "[\n  " + ",\n  ".join(map(str, val)) + "\n ]" if val else "[]")
              for key, val in partition_to_json(p).items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(fields) + "\n}\n")


def cmd_partition(args) -> int:
    _check_seed("--policy-seed", args.policy_seed)
    g = read_edge_list(args.graph)
    if args.setting == "informed":
        partition = compute_centers_informed(g, args.arms)
        setup_note = "setup steps charged: 0 (graph known in advance)"
        exhausted = 0
    else:
        _check_nbar(args.nbar, g, "uninformed partitioning needs --nbar")
        election = compute_centers_uninformed(
            g, args.arms, args.nbar, args.horizon, np.random.default_rng(args.policy_seed)
        )
        partition = election.partition
        exhausted = election.exhaustions
        setup_note = (
            f"setup steps charged: {election.total_steps} "
            f"(protocol {election.protocol_steps} + final pass {election.final_pass_steps}; "
            f"election round budget {election.luby_round_budget})"
        )
    report = validate_partition(g, partition)
    print(f"graph {args.graph}: {g.node_count} nodes, arms {args.arms}, setting {args.setting}")
    print(f"centers: {partition.centers.tolist()}")
    print(setup_note)
    if exhausted:
        print(f"WARNING: {exhausted} election(s) exhausted their round budget")
    for line in report.lines():
        print(line)
    if args.out:
        write_partition(args.out, partition)
        print(f"partition written to {args.out}")
    return 0 if report.ok else 1


def cmd_simulate(args) -> int:
    cfg = RunConfig(graph_path=args.graph, arms=args.arms, horizon=args.horizon,
                    setting=args.setting, n_upper=args.nbar, adversary_spec=args.adversary,
                    seeds=args.seeds, adversary_seed=args.adversary_seed,
                    policy_seed=args.policy_seed, debug_invariants=args.debug_invariants,
                    workers=args.workers)
    g = read_edge_list(args.graph)
    cfg.check(g)
    results = sweep(cfg, g, args.log)
    rows = results_rows(cfg, g, results)
    doc = summary_doc(cfg, g, results, rows)
    if args.out:
        write_csv(f"{args.out}.csv", rows)
        write_summary(f"{args.out}.json", doc)
        print(f"wrote {args.out}.csv and {args.out}.json")
    agg = doc["aggregate"]
    print(
        f"{cfg.setting} sweep: {cfg.seeds} seed(s), mean regret {agg['mean_regret']:.2f}, "
        f"mean semi-expected regret {agg['mean_regret_semi']:.2f}"
    )
    sys.stdout.writelines(rows.table())
    violations = sum(len(res.debug_violations) for res in results)
    if violations:
        print(f"DEBUG INVARIANT VIOLATIONS: {violations}")
        for res in results:
            for line in res.debug_violations[:5]:
                print("  " + line)
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coopmab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    part = sub.add_parser("partition", help="compute and validate a center partition")
    part.add_argument("--graph", required=True, help="edge-list file")
    part.add_argument("--arms", type=int, required=True)
    part.add_argument("--setting", choices=["informed", "uninformed"], default="informed")
    part.add_argument("--nbar", type=int, default=None, help="known upper bound on node count")
    part.add_argument("--horizon", type=int, default=100_000,
                      help="horizon the uninformed election budget is tuned for")
    part.add_argument("--policy-seed", type=int, default=0)
    part.add_argument("--out", default=None, help="write the partition as JSON here")
    part.set_defaults(func=cmd_partition)

    sim = sub.add_parser("simulate", help="run a seed sweep and write CSV + JSON results")
    sim.add_argument("--graph", required=True)
    sim.add_argument("--arms", type=int, required=True)
    sim.add_argument("--horizon", type=int, required=True)
    sim.add_argument("--setting", choices=["informed", "uninformed"], default="informed")
    sim.add_argument("--nbar", type=int, default=None)
    sim.add_argument("--adversary", required=True,
                     help="bernoulli:0.4,0.5 | matrix:losses.csv | switch:arm0@0,arm3@50000")
    sim.add_argument("--seeds", type=int, default=1, help="number of (adversary, policy) seed pairs")
    sim.add_argument("--adversary-seed", type=int, default=0, help="base seed; run i adds i")
    sim.add_argument("--policy-seed", type=int, default=10_000, help="base seed; run i adds i")
    sim.add_argument("--out", default=None, help="output prefix for .csv and .json")
    sim.add_argument("--log", default=None, help="prefix for per-seed JSON-lines round logs")
    sim.add_argument("--debug-invariants", action="store_true",
                     help="audit every center update; nonzero exit on any violation")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)
    return top


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
