import csv
import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest
import reference
from reference import partition_from_json

from coopmab.cli import (
    CSV_COLUMNS,
    RunConfig,
    main,
    parse_adversary,
    results_rows,
    summary_doc,
    sweep,
    write_csv,
    write_summary,
)
from coopmab import partition
from coopmab.graph import format_edge_list, path_graph, read_edge_list, star_graph
from coopmab.partition import compute_centers_uninformed
from coopmab.simulate import degree_bound, individual_bound, uninformed_degree_bound


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(format_edge_list(star_graph(4)))
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text(format_edge_list(path_graph(6)))
    return str(path)


def test_parse_adversary_kinds(tmp_path):
    b = parse_adversary("bernoulli:0.4,0.5,0.6", 3, 0)
    assert b.kind == "bernoulli"
    table = np.array([[0.0, 1.0], [0.5, 0.5]])
    f = tmp_path / "m.csv"
    np.savetxt(f, table, delimiter=",")
    m = parse_adversary(f"matrix:{f}", 2, 0)
    assert np.array_equal(m.rows(0, 2), table)
    s = parse_adversary("switch:arm0@0,arm2@100", 3, 0)
    assert s.switches == ((0, 0), (100, 2))


@pytest.mark.parametrize(
    "spec",
    ["bernoulli", "bernoulli:0.4", "pareto:1", "switch:0@0", "switch:arm0_0",
     "switch:arm2@0,arm1@0"],
)
def test_parse_adversary_rejects(spec):
    with pytest.raises(ValueError):
        parse_adversary(spec, 3, 0)


def test_partition_subcommand(star_file, tmp_path, capsys):
    out = tmp_path / "part.json"
    code = main(["partition", "--graph", star_file, "--arms", "3", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "centers: [0]" in stdout
    assert stdout.count("PASS") == 7
    doc = json.loads(out.read_text())
    part = partition_from_json(doc)
    assert part.centers.tolist() == [0]
    assert reference.mass(part, 1) == reference.OrderedMass(3, 1)


def test_partition_uninformed_subcommand(path_file, capsys, monkeypatch, tmp_path):
    code = main(
        ["partition", "--graph", path_file, "--arms", "3", "--setting", "uninformed",
         "--nbar", "12", "--horizon", "1000"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "setup steps charged:" in stdout
    assert "WARNING" not in stdout

    monkeypatch.setattr(partition, "mis_round_budget", lambda *args: 1)  # elections run out
    long_path = tmp_path / "path30.txt"
    long_path.write_text(format_edge_list(path_graph(30)))
    el = partition.compute_centers_uninformed(path_graph(30), 3, 30, 100, np.random.default_rng(0))
    assert el.exhaustions == sum(call.result.exhausted for call in el.luby_calls) > 0
    assert main(["partition", "--graph", str(long_path), "--arms", "3", "--setting", "uninformed",
                 "--nbar", "30", "--horizon", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("setup steps charged:")
    assert lines[3] == f"WARNING: {el.exhaustions} election(s) exhausted their round budget"


def test_usage_and_config_errors(tmp_path, star_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    assert main(["partition", "--graph", str(bad), "--arms", "3"]) == 2

    disc = tmp_path / "disc.txt"
    disc.write_text("4 2\n0 1\n2 3\n")
    assert main(["partition", "--graph", str(disc), "--arms", "3"]) == 2
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000000000 0\n")
    capsys.readouterr()
    assert main(["partition", "--graph", str(huge), "--arms", "3"]) == 2
    assert "1 of 1000000000000000 nodes reachable" in capsys.readouterr().err
    wide = tmp_path / "wide.txt"  # edge keys lo * N + hi would wrap in int64 here
    wide.write_text("1099511627776 2\n16777216 16777217\n0 16777217\n")
    assert main(["partition", "--graph", str(wide), "--arms", "3"]) == 2
    assert capsys.readouterr().err == ("error: graph is disconnected: 3 of 1099511627776 nodes "
                                       "reachable from 0\n")

    assert main(["simulate", "--graph", star_file, "--arms", "3", "--horizon", "10",
                 "--adversary", "bernoulli:0.4"]) == 2  # wrong arity
    assert main(["simulate", "--graph", star_file, "--arms", "3", "--horizon", "10",
                 "--adversary", "bernoulli:0.4,0.4,0.4", "--setting", "uninformed"]) == 2
    assert main(["simulate", "--graph", star_file, "--arms", "3", "--horizon", "10",
                 "--adversary", "bernoulli:0.4,0.4,0.4", "--setting", "uninformed",
                 "--nbar", "2"]) == 2  # below the node count
    assert main(["simulate", "--graph", star_file, "--arms", "3", "--horizon", "10",
                 "--adversary", "switch:arm2@0,arm1@0"]) == 2  # two switches at one step
    column = tmp_path / "column.csv"  # two steps of one arm, not one step of two arms
    column.write_text("0.5\n0.25\n")
    capsys.readouterr()
    assert main(["simulate", "--graph", star_file, "--arms", "2", "--horizon", "2",
                 "--adversary", f"matrix:{column}"]) == 2
    assert "1 columns" in capsys.readouterr().err
    assert main(["simulate", "--graph", star_file, "--arms", "3", "--horizon", "10",
                 "--adversary", "bernoulli:0.4,0.4,0.4", "--workers", "0"]) == 2
    assert main(["nonsense"]) == 2


def test_simulate_rejects_nan_in_matrix(tmp_path, capsys):
    # the NaN is on arm 9 of the one step played: every policy seed must stop
    # before the run, not only those whose draws make the estimate NaN
    edge = tmp_path / "edge.txt"
    edge.write_text("2 1\n0 1\n")
    table = tmp_path / "nan.csv"
    table.write_text(",".join(["0.5"] * 9 + ["nan"]) + "\n")
    for seed in range(1, 6):
        capsys.readouterr()
        assert main(["simulate", "--graph", str(edge), "--arms", "10", "--horizon", "1",
                     "--adversary", f"matrix:{table}", "--policy-seed", str(seed),
                     "--out", str(tmp_path / "run")]) == 2
        assert "loss table entries must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("setting", ["informed", "uninformed"])
def test_short_loss_table_fails_at_the_run_length(tmp_path, capsys, setting):
    # 10 rows for a 100-step policy phase, after the uninformed run's setup
    # steps: the error names all the steps the run needs, and comes before any
    # log line or output file is written
    g = path_graph(3)
    graph, table = tmp_path / "path.txt", tmp_path / "short.csv"
    graph.write_text(format_edge_list(g))
    np.savetxt(table, np.full((10, 2), 0.5), delimiter=",")
    total = 100 + (compute_centers_uninformed(g, 2, 3, 100, np.random.default_rng(10_000))
                   .total_steps if setting == "uninformed" else 0)
    capsys.readouterr()
    assert main(["simulate", "--graph", str(graph), "--arms", "2", "--horizon", "100",
                 "--setting", setting, "--nbar", "3", "--adversary", f"matrix:{table}",
                 "--out", str(tmp_path / "run"), "--log", str(tmp_path / "log")]) == 2
    assert f"loss table has 10 rows, run needs {total}\n" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists() and not (tmp_path / "run.json").exists()
    assert (tmp_path / "log-seed0.jsonl").read_text() == ""


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--adversary-seed", "-1"], "--adversary-seed"),
    (["simulate", "--policy-seed", "-5"], "--policy-seed"),
    (["partition", "--setting", "uninformed", "--nbar", "5", "--policy-seed", "-1"],
     "--policy-seed"),
])
def test_negative_seed_is_rejected_by_flag_before_any_file(tmp_path, star_file, capsys, argv,
                                                         flag):
    # unchecked, numpy's seeding fails mid-run with a message that names no
    # flag, after the log file is opened
    command, *rest = argv
    extra = (["--adversary", "bernoulli:0.4,0.5", "--horizon", "10",
              "--log", str(tmp_path / "lg"), "--out", str(tmp_path / "run")]
             if command == "simulate" else ["--out", str(tmp_path / "part.json")])
    assert main([command, "--graph", star_file, "--arms", "2", *rest, *extra]) == 2
    value = rest[rest.index(flag) + 1]
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got {value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["star.txt"]


def test_simulate_zero_matrix(tmp_path, star_file):
    table = np.zeros((40, 2))
    f = tmp_path / "zeros.csv"
    np.savetxt(f, table, delimiter=",")
    out = tmp_path / "run"
    code = main(
        ["simulate", "--graph", star_file, "--arms", "2", "--horizon", "40",
         "--adversary", f"matrix:{f}", "--out", str(out)]
    )
    assert code == 0
    with open(f"{out}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(r["regret"]) == 0.0 for r in rows)
    assert all(float(r["regret_semi"]) == 0.0 for r in rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_file_read_once(tmp_path, star_file, monkeypatch, workers):
    f = tmp_path / "m.csv"
    np.savetxt(f, np.random.default_rng(3).random((60, 3)), delimiter=",")
    args = ["simulate", "--graph", star_file, "--arms", "3", "--horizon", "60", "--seeds", "3",
            "--adversary", f"matrix:{f}"]
    want = tmp_path / "want"
    assert main(args + ["--out", str(want)]) == 0
    calls = tmp_path / "calls"  # a file, so that calls in worker processes count too
    calls.write_text("")
    real = np.loadtxt

    def counted(*a, **kw):
        with open(calls, "a") as fh:
            fh.write("call\n")
        return real(*a, **kw)

    monkeypatch.setattr(np, "loadtxt", counted)
    got = tmp_path / "got"
    assert main(args + ["--out", str(got), "--workers", str(workers)]) == 0
    # by the config check; the seeds and the workers reuse its table
    assert calls.read_text().splitlines() == ["call"]
    for ext in (".csv", ".json"):
        assert (tmp_path / f"got{ext}").read_bytes() == (tmp_path / f"want{ext}").read_bytes()


def test_simulate_csv_deterministic(tmp_path, star_file):
    args = ["simulate", "--graph", star_file, "--arms", "3", "--horizon", "400",
            "--adversary", "bernoulli:0.2,0.5,0.5", "--seeds", "2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    doc1 = json.loads((tmp_path / "a.json").read_text())
    doc2 = json.loads((tmp_path / "b.json").read_text())
    assert doc1["per_seed"] == doc2["per_seed"]


def test_simulate_csv_columns_and_bounds(tmp_path, star_file):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--graph", star_file, "--arms", "3", "--horizon", "500",
         "--adversary", "bernoulli:0.2,0.5,0.5", "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    with open(f"{out}.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS
        rows = list(reader)
    assert [(r["seed"], r["agent"]) for r in rows] == [
        (str(s), str(a)) for s in range(2) for a in range(5)
    ]
    for r in rows:
        mass = int(r["mass_m"]) * math.exp(-int(r["mass_d"]) / 6)
        expect7 = 7 * math.sqrt(math.log(3) * (3 / mass) * 500)
        expect12 = 12 * math.sqrt(math.log(3) * (1 + 3 / int(r["degree"])) * 500)
        assert float(r["bound_individual"]) == pytest.approx(expect7, rel=1e-12)
        assert float(r["bound_degree"]) == pytest.approx(expect12, rel=1e-12)
        assert int(r["setup_steps"]) == 0


def test_simulate_uninformed_summary(tmp_path, path_file):
    out = tmp_path / "u"
    code = main(
        ["simulate", "--graph", path_file, "--arms", "2", "--horizon", "300",
         "--setting", "uninformed", "--nbar", "12",
         "--adversary", "bernoulli:0.3,0.6", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out.parent / "u.json").read_text())
    assert doc["config"]["setting"] == "uninformed"
    assert doc["per_seed"][0]["setup_steps"] > 0
    with open(f"{out}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["setup_steps"]) == doc["per_seed"][0]["setup_steps"] for r in rows)
    # uninformed bound column includes the election price
    r0 = rows[0]
    setup_price = 2 * math.log(4 * 12 * 300)
    expect = 12 * (setup_price + math.sqrt(math.log(2) * (1 + 2 / int(r0["degree"])) * 300)) + 1
    assert float(r0["bound_degree"]) == pytest.approx(expect, rel=1e-12)


def test_simulate_log_files(tmp_path, star_file):
    out = tmp_path / "r"
    log = tmp_path / "log"
    code = main(
        ["simulate", "--graph", star_file, "--arms", "2", "--horizon", "50",
         "--adversary", "bernoulli:0.4,0.6", "--seeds", "2",
         "--out", str(out), "--log", str(log)]
    )
    assert code == 0
    with open(f"{out}.csv") as fh:
        rows = list(csv.DictReader(fh))
    for seed in (0, 1):
        totals = np.zeros(5)
        with open(f"{log}-seed{seed}.jsonl", encoding="utf-8") as fh:
            for _, v, _, loss, _ in reference.log_records(fh.read()):
                totals[v] += loss
        mine = [row for row in rows if row["seed"] == str(seed)]
        # regret = realized - best fixed arm, one shared best-arm total per seed
        best_totals = {
            int(row["agent"]): totals[int(row["agent"])] - float(row["regret"])
            for row in mine
        }
        assert len(set(round(x, 9) for x in best_totals.values())) == 1


def test_simulate_debug_flag_clean(tmp_path, star_file, capsys):
    code = main(
        ["simulate", "--graph", star_file, "--arms", "2", "--horizon", "400",
         "--adversary", "bernoulli:0.4,0.6", "--debug-invariants"]
    )
    assert code == 0
    assert "DEBUG INVARIANT VIOLATIONS" not in capsys.readouterr().out


def test_simulate_worker_pool_matches_sequential(tmp_path, star_file):
    args = ["simulate", "--graph", star_file, "--arms", "2", "--horizon", "120",
            "--adversary", "bernoulli:0.4,0.6", "--seeds", "2"]
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(args + ["--out", str(seq), "--workers", "1"]) == 0
    assert main(args + ["--out", str(par), "--workers", "2"]) == 0
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


def test_exit_one_when_partition_report_fails(monkeypatch, star_file):
    import coopmab.cli as cli

    class FakeReport:
        ok = False

        def lines(self):
            return ["FAIL  two-independence: rigged"]

    monkeypatch.setattr(cli, "validate_partition", lambda g, p: FakeReport())
    assert main(["partition", "--graph", star_file, "--arms", "3"]) == 1


def _config(path, setting, seeds, **over):
    fields = dict(graph_path=path, arms=3, horizon=150, setting=setting, n_upper=12,
                  adversary_spec="bernoulli:0.3,0.5,0.7", seeds=seeds, adversary_seed=5,
                  policy_seed=20, debug_invariants=True, workers=1)
    fields.update(over)
    return RunConfig(**fields)


INT_COLUMNS = {"seed", "agent", "degree", "mass_m", "mass_d", "delay", "setup_steps"}


@pytest.mark.parametrize("setting", ["informed", "uninformed"])
def test_summary_per_agent_recomputes_from_rows(tmp_path, path_file, setting):
    # the written JSON's per_agent entries, recomputed from the written CSV rows
    g = read_edge_list(path_file)
    for seeds in (1, 3, 4, 12):  # np.mean's pairwise summation blocks from 8 values on
        out = tmp_path / f"run{seeds}"
        assert main(["simulate", "--graph", path_file, "--arms", "3", "--horizon", "150",
                     "--setting", setting, "--nbar", "12", "--adversary", "bernoulli:0.3,0.5,0.7",
                     "--seeds", str(seeds), "--adversary-seed", "5", "--policy-seed", "20",
                     "--debug-invariants", "--out", str(out)]) == 0
        with open(f"{out}.csv") as fh:  # a float's repr reads back as the same float
            rows = [{c: int(x) if c in INT_COLUMNS else float(x) for c, x in r.items()}
                    for r in csv.DictReader(fh)]
        per_agent = json.loads((tmp_path / f"run{seeds}.json").read_text())["per_agent"]
        assert [a["agent"] for a in per_agent] == list(range(g.node_count))
        for v, got in enumerate(per_agent):
            mine = [r for r in rows if r["agent"] == v]
            assert [r["seed"] for r in mine] == list(range(seeds))
            mean_semi = float(np.mean([r["regret_semi"] for r in mine]))
            assert got == {
                "agent": v,
                "degree": mine[0]["degree"],
                "mass_m": mine[0]["mass_m"],
                "mass_d": mine[0]["mass_d"],
                "delay": mine[0]["delay"],
                "mean_regret": float(np.mean([r["regret"] for r in mine])),
                "mean_regret_semi": mean_semi,
                "bound_individual": mine[0]["bound_individual"],
                "bound_degree": mine[0]["bound_degree"],
                "within_individual": mean_semi <= mine[0]["bound_individual"],
                "within_degree_bound": mean_semi <= mine[0]["bound_degree"],
            }


def _dict_rows(cfg, g, results) -> list[dict]:
    """One dict per (seed, agent) row, as the CLI built them before it wrote from columns."""
    rows = []
    for index, res in enumerate(results):
        part = res.partition
        for v in range(res.partition.node_count):
            closed = int(g.closed_degrees[v])
            if cfg.setting == "uninformed":
                b12 = uninformed_degree_bound(closed, cfg.arms, cfg.n_upper, cfg.horizon)
            else:
                b12 = degree_bound(closed, cfg.arms, cfg.horizon)
            rows.append({
                "seed": index, "agent": v, "degree": closed, "mass_m": int(part.mass_m[v]),
                "mass_d": int(part.mass_d[v]), "delay": int(part.delay[v]),
                "regret": float(res.regret[v]), "regret_semi": float(res.semi_regret[v]),
                "bound_individual": individual_bound(reference.mass_value(part, v), cfg.arms,
                                                     cfg.horizon),
                "bound_degree": b12, "setup_steps": res.setup_steps,
            })
    return rows


def _dict_per_agent(rows: list[dict], n: int) -> list[dict]:
    per_agent = []
    for v in range(n):
        mine = [r for r in rows if r["agent"] == v]
        first = mine[0]
        mean_r = float(np.array([r["regret"] for r in mine]).mean())
        mean_sr = float(np.array([r["regret_semi"] for r in mine]).mean())
        per_agent.append({
            "agent": v, "degree": first["degree"], "mass_m": first["mass_m"],
            "mass_d": first["mass_d"], "delay": first["delay"], "mean_regret": mean_r,
            "mean_regret_semi": mean_sr, "bound_individual": first["bound_individual"],
            "bound_degree": first["bound_degree"],
            "within_individual": mean_sr <= first["bound_individual"],
            "within_degree_bound": mean_sr <= first["bound_degree"],
        })
    return per_agent


# floats whose text is easy to get wrong: a signed zero, the smallest
# subnormal, repr's exponent form, an integral value, and the non-finite
# values the json module spells its own way
EDGE_REGRETS = (-0.0, 5e-324, 1e16, 2.0, math.inf, -math.inf, math.nan)


@pytest.mark.filterwarnings("ignore:invalid value")  # inf - inf in a mean over seeds
@pytest.mark.parametrize("setting,seeds", [("informed", 3), ("uninformed", 2), ("informed", 1)])
def test_column_writers_equal_csv_and_json_modules(tmp_path, setting, seeds):
    # write_csv, write_summary and the stdout table, written from columns,
    # are byte for byte what csv.writer, json.dump(indent=1) and one format
    # per row make of dict rows
    path = tmp_path / 'p\u00e4th "q".txt'
    path.write_text(format_edge_list(path_graph(6)))
    g = read_edge_list(str(path))
    cfg = _config(str(path), setting, seeds, debug_invariants=False)
    # edge values in both regret columns, each seed its own mix: with every
    # arm's loss 0.0, a regret is its loss ledger minus 0.0, bit for bit
    results = [
        dataclasses.replace(
            res, arm_loss=np.zeros(cfg.arms),
            realized_loss=np.array([EDGE_REGRETS[(v + s) % 7] for v in range(g.node_count)]),
            semi_loss=np.array([EDGE_REGRETS[(v + 2 * s + 3) % 7] for v in range(g.node_count)]))
        for s, res in enumerate(sweep(cfg, g))
    ]
    rows = results_rows(cfg, g, results)
    doc = summary_doc(cfg, g, results, rows)
    write_csv(str(tmp_path / "cols.csv"), rows)
    write_summary(str(tmp_path / "cols.json"), doc)

    want_rows = _dict_rows(cfg, g, results)
    with open(tmp_path / "dicts.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in want_rows:
            writer.writerow([repr(r[c]) if isinstance(r[c], float) else r[c] for c in CSV_COLUMNS])
    want_doc = dict(doc, per_agent=_dict_per_agent(want_rows, g.node_count))
    with open(tmp_path / "dicts.json", "w", encoding="utf-8") as fh:
        json.dump(want_doc, fh, indent=1)
        fh.write("\n")
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "dicts.csv").read_bytes()
    assert (tmp_path / "cols.json").read_bytes() == (tmp_path / "dicts.json").read_bytes()
    csv_text = (tmp_path / "cols.csv").read_text(encoding="utf-8")
    assert all(x in csv_text for x in (",-0.0,", ",5e-324,", ",1e+16,", ",2.0,", ",nan,"))
    text = (tmp_path / "cols.json").read_text(encoding="utf-8")
    assert '/p\\u00e4th \\"q\\".txt",' in text
    per_agent = text[text.index('"per_agent"'):text.index('"aggregate"')]
    assert all(x in per_agent for x in (": true", ": false", ": NaN"))
    want_table = "".join(
        f"  agent {r['agent']:>3} mass ({r['mass_m']},{r['mass_d']}) "
        f"semi {r['mean_regret_semi']:>10.2f} vs bounds "
        f"{r['bound_individual']:>10.1f} / {r['bound_degree']:>12.1f}\n"
        for r in want_doc["per_agent"])
    assert "".join(doc["per_agent"].table()) == want_table


def test_sweep_elects_once_and_plays_its_seeds_as_lanes_of_one_call(tmp_path, path_file,
                                                                     monkeypatch):
    # per process: an informed sweep makes one election and one run_lanes call,
    # whose lanes share that partition; an uninformed one, one call over its seeds
    from coopmab import cli, simulate

    calls = tmp_path / "calls"  # a file, so that calls in worker processes count too
    elect, run_lanes = cli.compute_centers_informed, simulate.run_lanes

    def record(line):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {line}\n")

    def counted_elect(*args):
        part = elect(*args)
        record(f"elect {id(part)}")
        return part

    def counted_run_lanes(lanes, *args):
        record("run " + " ".join(str(id(lane.partition)) for lane in lanes))
        return run_lanes(lanes, *args)

    monkeypatch.setattr(cli, "compute_centers_informed", counted_elect)
    monkeypatch.setattr(simulate, "run_lanes", counted_run_lanes)
    g = read_edge_list(path_file)
    for setting, workers, chunks in (("informed", 1, [5]), ("informed", 2, [2, 3]),
                                     ("uninformed", 1, [5])):
        calls.write_text("")
        assert len(sweep(_config(path_file, setting, 5, workers=workers), g)) == 5
        by_pid: dict[str, list[list[str]]] = {}
        for line in calls.read_text().splitlines():
            pid, *words = line.split()
            by_pid.setdefault(pid, []).append(words)
        seeds = []  # lanes per process
        for got in by_pid.values():
            if setting == "informed":
                (elected, part), (run, *parts) = got
                assert (elected, run, set(parts)) == ("elect", "run", {part})
            else:
                [(run, *parts)] = got
                assert run == "run" and len(set(parts)) == len(parts)
            seeds.append(len(parts))
        assert sorted(seeds) == chunks


@pytest.mark.parametrize("setting", ["informed", "uninformed"])
def test_sweep_equals_per_seed_reference_runs(tmp_path, path_file, setting):
    # one batch, or contiguous chunks of seeds on two workers (seeds 0-1 and
    # 2-4): each seed's result and log equal the per-seed reference simulator
    g = read_edge_list(path_file)
    for workers in (1, 2):
        prefix = str(tmp_path / f"log{workers}")
        cfg = _config(path_file, setting, 5, workers=workers)
        results = sweep(cfg, g, prefix)
        assert len(results) == 5
        for i, res in enumerate(results):
            oracle = parse_adversary(cfg.adversary_spec, cfg.arms, cfg.adversary_seed + i)
            sink = io.StringIO()
            if setting == "informed":
                want = reference.run_informed(g, 3, 150, oracle, cfg.policy_seed + i,
                                              debug=True, log_sink=sink)
            else:
                want = reference.run_uninformed(g, 3, 12, 150, oracle, cfg.policy_seed + i,
                                                debug=True, log_sink=sink)
            assert res.digest == want.digest
            assert res.setup_steps == want.setup_steps
            assert res.semi_loss.tobytes() == want.semi_loss.tobytes()
            assert res.debug_violations == want.debug_violations == []
            log = tmp_path / f"log{workers}-seed{i}.jsonl"
            assert log.read_text(encoding="utf-8") == sink.getvalue()


@pytest.mark.parametrize("setting", ["informed", "uninformed"])
def test_sweep_logs_hold_a_header_then_every_step_in_order(tmp_path, path_file, setting):
    # seeds as lanes of one kernel call, or chunks of seeds on two workers:
    # each seed's log is one v2 header, then one line per step 1..setup+horizon
    g = read_edge_list(path_file)
    for workers in (1, 2):
        prefix = str(tmp_path / f"log{workers}")
        results = sweep(_config(path_file, setting, 5, workers=workers), g, prefix)
        for i, res in enumerate(results):
            with open(f"{prefix}-seed{i}.jsonl", encoding="utf-8") as fh:
                header, *steps = map(json.loads, fh)
            roles = [reference.role(res.partition, v) for v in range(g.node_count)]
            assert header == {"version": 2, "role": roles}
            assert [rec["t"] for rec in steps] == list(range(1, res.total_steps + 1))
            assert {(len(rec["loss"]), len(rec["action"])) for rec in steps} == {(3, g.node_count)}
