import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from opiniondyn import cli, dynamics, network, outputs
from opiniondyn.config import ConfigError, load_config
from opiniondyn.outputs import write_trajectory
from conftest import HETERO_CASE1, REFERENCE_TERMS


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = {"n_agents": 20, "initial_opinions": list(REFERENCE_TERMS), "seed": 7}
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_command_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    iterations = summary["iterations"]
    opinions = read_rows(out / "opinions.csv")
    assert len(opinions) == (iterations + 1) * 20
    terms = read_rows(out / "terms.csv")
    assert len(terms) == (iterations + 1) * 20
    metrics = read_rows(out / "metrics.csv")
    assert len(metrics) == iterations + 1
    assert metrics[0]["delta_max"] == ""
    for k in range(iterations + 1):
        assert (out / f"network_{k}.edges").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["n_agents"] == 20
    assert manifest["outputs"]["opinions"] == "opinions.csv"


def test_manifest_echo_reproduces_run(tmp_path):
    cfg = write_config(tmp_path)
    first = tmp_path / "first"
    assert cli.main(["run", "--config", str(cfg), "--out", str(first)]) == 0
    echo = json.loads((first / "manifest.json").read_text())["config"]
    echoed_cfg = tmp_path / "echoed.json"
    echoed_cfg.write_text(json.dumps(echo))
    second = tmp_path / "second"
    assert cli.main(["run", "--config", str(echoed_cfg), "--out", str(second)]) == 0
    for name in ("opinions.csv", "terms.csv", "metrics.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_seed_override(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_a), "--seed", "3"]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "3"]) == 0
    assert (out_a / "opinions.csv").read_bytes() == (out_b / "opinions.csv").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_run_empty_network_with_zero_beta_freezes(tmp_path):
    cfg = write_config(
        tmp_path,
        initial_network={"edges": []},
        thresholds={"alpha": 0.0, "beta": 0.0},
    )
    out = tmp_path / "frozen"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] == 1
    rows = read_rows(out / "opinions.csv")
    by_iteration = {}
    for row in rows:
        by_iteration.setdefault(row["iteration"], []).append((row["agent"], row["value"]))
    assert by_iteration["0"] == by_iteration["1"]


def test_compare_outputs_match_run(tmp_path):
    cfg = write_config(tmp_path, hk={"epsilon": 0.25})
    run_out = tmp_path / "single"
    cmp_out = tmp_path / "cmp"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
    assert cli.main([
        "compare", "--config", str(cfg), "--out", str(cmp_out),
        "--models", "threeway,degroot-uniform,degroot-distance,hk-homogeneous:0.10,hk-homogeneous",
    ]) == 0

    # per-model data files are bit-identical to a plain run of the same model
    for name in ("opinions.csv", "terms.csv", "metrics.csv", "summary.json"):
        assert (cmp_out / "threeway" / name).read_bytes() == (run_out / name).read_bytes()

    table = read_rows(cmp_out / "comparison.csv")
    assert [row["model"] for row in table] == [
        "threeway", "degroot-uniform", "degroot-distance",
        "hk-homogeneous:0.10", "hk-homogeneous",
    ]
    degroot = next(r for r in table if r["model"] == "degroot-uniform")
    assert degroot["cluster_count"] == "1"
    hk_low = next(r for r in table if r["model"] == "hk-homogeneous:0.10")
    assert int(hk_low["cluster_count"]) > 1


def test_compare_emits_one_trajectory_set_per_entry(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sixfold"
    specs = [f"hk-homogeneous:{eps}" for eps in (0.35, 0.30, 0.25, 0.20, 0.15, 0.10)]
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                     "--models", ",".join(specs)]) == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(dirs) == 6
    for d in dirs:
        assert (out / d / "opinions.csv").exists()
    assert len(read_rows(out / "comparison.csv")) == 6


def test_compare_gives_a_repeated_model_its_own_directory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                     "--models", "threeway,threeway"]) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["threeway", "threeway_again"]
    assert (out / "threeway" / "opinions.csv").read_bytes() == \
        (out / "threeway_again" / "opinions.csv").read_bytes()


@pytest.mark.parametrize("models,message", [
    ("degroot-uniform:0.3", "takes no parameter"),
    ("hk-homogeneous:abc", "bad epsilon"),
    (" , ", "empty model list"),
])
def test_compare_rejects_a_malformed_model_list(tmp_path, capsys, models, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out), "--models", models]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_a_configured_cluster_tolerance(tmp_path):
    cfg = write_config(tmp_path, cluster_tolerance=0.0)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cluster_tolerance"] == 0.0
    assert summary["final"]["cluster_count"] == 2


def test_run_engine_error_leaves_no_partial_outputs(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)

    def boom(config):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(cli, "run_from_config", boom)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_compare_rejects_unknown_model(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--models", "threeway,voter"])
    assert code == 1
    assert "voter" in capsys.readouterr().err


def test_sweep_concatenation_property(tmp_path):
    cfg = write_config(tmp_path)
    full = tmp_path / "full"
    part1 = tmp_path / "p1"
    part2 = tmp_path / "p2"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(full), "--seeds", "1..6"]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(part1), "--seeds", "1..3"]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(part2), "--seeds", "4..6"]) == 0
    merged = read_rows(part1 / "sweep.csv") + read_rows(part2 / "sweep.csv")
    assert merged == read_rows(full / "sweep.csv")


def test_sweep_deterministic_config_rows_differ_only_in_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        thresholds={"alpha": 0.6, "beta": 0.6},
        rewiring={"p_add": 0.0, "p_cut": 0.0},
        initial_network={"edges": [[0, 1], [2, 3], [4, 5]]},
    )
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "1..5"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [r["seed"] for r in rows] == ["1", "2", "3", "4", "5"]
    stripped = [{k: v for k, v in r.items() if k != "seed"} for r in rows]
    assert all(r == stripped[0] for r in stripped)
    assert all(r["error"] == "" for r in rows)


def test_sweep_builds_the_term_pair_tables_once(tmp_path):
    # every seed's config shares the term set, thresholds and rewiring
    # parameters that key the cache, so only the first step builds tables
    config = load_config(write_config(tmp_path))
    dynamics._pair_tables.cache_clear()
    cli.cmd_sweep(config, [1, 2, 3, 4, 5], tmp_path / "sw")
    assert all(r["error"] == "" for r in read_rows(tmp_path / "sw" / "sweep.csv"))
    info = dynamics._pair_tables.cache_info()
    assert (info.misses, info.hits > 0) == (1, True)


def test_sweep_records_per_seed_failures(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    real = cli.run_from_config

    def flaky(config):
        if config.seed == 2:
            raise RuntimeError("boom")
        return real(config)

    monkeypatch.setattr(cli, "run_from_config", flaky)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--seeds", "1..3"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert rows[1]["seed"] == "2" and rows[1]["error"] == "boom"
    assert rows[0]["error"] == "" and rows[2]["error"] == ""


def summary_row(summary: dict) -> dict:
    """The comparison.csv and sweep.csv columns of a summary.json, as text."""
    final = summary["final"]
    return {"converged": str(summary["converged"]), "iterations": str(summary["iterations"]),
            "variance": repr(final["variance"]), "range": repr(final["range"]),
            "c_aad": repr(final["c_aad"]), "cluster_count": str(final["cluster_count"])}


@pytest.mark.parametrize("overrides,seeds", [
    ({"initial_network": {"edge_prob": 0.1}}, 40),  # the README scenario
    ({"model": "degroot-distance"}, 3),  # values off the term scale
], ids=["readme", "degroot-distance"])
def test_sweep_rows_equal_each_seeds_own_summary(tmp_path, overrides, seeds):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--seeds", f"1..{seeds}"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [row["seed"] for row in rows] == [str(seed) for seed in range(1, seeds + 1)]
    for row in rows:
        run_out = tmp_path / f"run_{row['seed']}"
        assert cli.main(["run", "--config", str(cfg), "--out", str(run_out),
                         "--seed", row["seed"]]) == 0
        summary = json.loads((run_out / "summary.json").read_text())
        assert row == {"seed": row["seed"], **summary_row(summary), "error": ""}
        # ... and the last row of the run's own metrics.csv
        last = read_rows(run_out / "metrics.csv")[-1]
        assert [last[c] for c in ("variance", "range", "c_aad")] == \
            [row[c] for c in ("variance", "range", "c_aad")]


def test_comparison_rows_equal_each_models_summary(tmp_path):
    cfg = write_config(tmp_path, initial_network={"edge_prob": 0.1},
                       hk={"epsilon": 0.25, "epsilons": list(HETERO_CASE1)})
    out = tmp_path / "cmp"
    models = ["threeway", "degroot-uniform", "degroot-distance", "hk-homogeneous:0.10",
              "hk-heterogeneous"]
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                     "--models", ",".join(models)]) == 0
    rows = read_rows(out / "comparison.csv")
    assert [row["model"] for row in rows] == models
    for row in rows:
        summary = json.loads((out / row["model"].replace(":", "_") / "summary.json").read_text())
        assert row == {"model": row["model"], **summary_row(summary)}


@pytest.mark.parametrize("seeds_per_block", [1, 2, 3])
def test_sweep_summarises_one_block_of_final_opinions_at_a_time(tmp_path, monkeypatch,
                                                                seeds_per_block):
    config = load_config(write_config(tmp_path, initial_network={"edge_prob": 0.1}))
    real = cli.run_from_config

    def flaky(config):
        if config.seed == 4:
            raise RuntimeError("boom")
        return real(config)

    monkeypatch.setattr(cli, "run_from_config", flaky)
    seeds = list(range(1, 9))
    cli.cmd_sweep(config, seeds, tmp_path / "whole")
    monkeypatch.setattr(network, "BLOCK_PAIRS", seeds_per_block * config.n_agents)
    with mock.patch.object(cli, "final_metrics", wraps=cli.final_metrics) as batch:
        cli.cmd_sweep(config, seeds, tmp_path / "blocks")
    whole = (tmp_path / "whole" / "sweep.csv").read_bytes()
    assert (tmp_path / "blocks" / "sweep.csv").read_bytes() == whole
    sizes = [len(call.args[0]) for call in batch.call_args_list]
    assert sum(sizes) == len(seeds) - 1 and max(sizes) == seeds_per_block
    rows = read_rows(tmp_path / "whole" / "sweep.csv")
    assert [row["error"] for row in rows] == ["", "", "", "boom", "", "", "", ""]
    assert rows[3] == {"seed": "4", **dict.fromkeys(cli.SUMMARY_COLUMNS, ""), "error": "boom"}


def test_metrics_command_recomputes_run_metrics(tmp_path):
    cfg = write_config(tmp_path)
    run_out = tmp_path / "run"
    met_out = tmp_path / "met"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
    assert cli.main(["metrics", str(run_out / "opinions.csv"), "--out", str(met_out)]) == 0
    original = read_rows(run_out / "metrics.csv")
    recomputed = read_rows(met_out / "metrics.csv")
    assert len(original) == len(recomputed)
    for a, b in zip(original, recomputed):
        for column in ("iteration", "variance", "range", "c_aad", "delta_max"):
            assert a[column] == b[column]
        assert b["avg_degree"] == "" and b["isolated"] == ""


def test_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"n_agents": 20, "initial_opinions": [0] * 19}))
    assert cli.main(["run", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 1
    assert "initial_opinions" in capsys.readouterr().err

    assert cli.main(["metrics", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "y")]) == 2

    missing = cli.main(["run", "--config", str(tmp_path / "ghost.json"),
                        "--out", str(tmp_path / "z")])
    assert missing == 1


@pytest.mark.parametrize("phi,base", [(1100, 2.0), (60, 1e6)])
def test_term_set_overflow_exits_1(tmp_path, capsys, phi, base):
    cfg = write_config(tmp_path, term_set={"phi": phi, "base": base})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "term_set" in capsys.readouterr().err


def test_huge_phi_exits_1_before_building_the_term_table(tmp_path, capsys):
    cfg = write_config(tmp_path, term_set={"phi": 1_000_000_000, "base": 1.0000001})
    start = time.perf_counter()
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "term_set" in err and "phi" in err


def test_unwritable_edge_file_is_a_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocked = tmp_path / "out" / "network_0.edges"
    blocked.mkdir(parents=True)  # a directory where the edge file should go
    record = cli.run_from_config(load_config(cfg))
    with pytest.raises(RuntimeError, match="cannot write .*network_0.edges"):
        write_trajectory(record, tmp_path / "out", 0.01)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "network_0.edges" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["opinions.csv", "terms.csv", "metrics.csv", "summary.json"])
def test_unwritable_table_is_a_runtime_error(tmp_path, capsys, name):
    cfg = write_config(tmp_path)
    (tmp_path / "out" / name).mkdir(parents=True)  # a directory where the table should go
    record = cli.run_from_config(load_config(cfg))
    with pytest.raises(RuntimeError, match=f"cannot write .*{name}"):
        write_trajectory(record, tmp_path / "out", 0.01)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("sweep.csv", ["sweep", "--seeds", "1..2"]),
    ("comparison.csv", ["compare", "--models", "threeway,degroot-uniform"]),
    ("manifest.json", ["run"]),
])
def test_unwritable_command_output_is_a_runtime_error(tmp_path, capsys, name, argv):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where the file should go
    config = load_config(cfg)
    command = {"sweep": lambda: cli.cmd_sweep(config, [1, 2], out),
               "compare": lambda: cli.cmd_compare(config, ["threeway", "degroot-uniform"], out),
               "run": lambda: cli.cmd_run(config, out)}[argv[0]]
    with pytest.raises(RuntimeError, match=f"cannot write .*{name}"):
        command()
    capsys.readouterr()
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot write {out / name}" in capsys.readouterr().err


def test_sweep_rejects_an_empty_seed_list_before_writing(tmp_path):
    config = load_config(write_config(tmp_path))
    out = tmp_path / "sw"
    with pytest.raises(ConfigError, match="empty seed list") as caught:
        cli.cmd_sweep(config, [], out)
    assert caught.value.path == "seeds" and not out.exists()


def test_compare_rejects_an_empty_model_list_before_writing(tmp_path):
    config = load_config(write_config(tmp_path))
    out = tmp_path / "cmp"
    with pytest.raises(ConfigError, match="empty model list") as caught:
        cli.cmd_compare(config, [], out)
    assert caught.value.path == "models" and not out.exists()


def test_parse_seed_range():
    assert cli.parse_seed_range("3..6") == [3, 4, 5, 6]
    assert cli.parse_seed_range("9") == [9]
    with pytest.raises(Exception):
        cli.parse_seed_range("6..3")
    with pytest.raises(Exception):
        cli.parse_seed_range("a..b")


def test_metrics_rejects_nonpositive_d_max(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run_out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
    code = cli.main(["metrics", str(run_out / "opinions.csv"), "--out", str(tmp_path / "met"),
                     "--d-max", "0"])
    assert code == 1
    assert "d_max" in capsys.readouterr().err
    assert not (tmp_path / "met").exists()


def test_compare_rejects_bad_spec_before_any_run(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", str(cfg), "--out", str(out),
                     "--models", "threeway,voter"])
    assert code == 1
    assert not (out / "threeway").exists()


@pytest.mark.parametrize("argv,path", [
    (["run", "--seed", "-1"], "seed"),
    (["compare", "--models", "hk-homogeneous:1.5"], "hk.epsilon"),
    (["compare", "--models", "hk-heterogeneous"], "hk.epsilons"),
])
def test_cli_overrides_are_validated_like_the_config(tmp_path, capsys, argv, path):
    cfg = write_config(tmp_path)
    code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert f"config error at '{path}'" in capsys.readouterr().err


def test_nan_lambda_exits_1_at_thresholds(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"n_agents": 2, "initial_opinions": [0, 6], "thresholds": {"lambda": NaN}}')
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "config error at 'thresholds.lambda'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seeds", ["-3..-1", "18446744073709551614..18446744073709551616",
                                   "-1", "18446744073709551616"])
def test_sweep_rejects_out_of_range_seeds_before_any_run(tmp_path, capsys, monkeypatch, seeds):
    cfg = write_config(tmp_path)
    runs = []
    monkeypatch.setattr(cli, "run_from_config", runs.append)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), f"--seeds={seeds}"]) == 1
    assert "config error at 'seed'" in capsys.readouterr().err
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--config", "{cfg}", "--out", "{out}", "--seeds", "-1..1"],
     "argument --seeds: expected one argument"),
    (["run", "--config", "{cfg}", "--out", "{out}", "--seed", "1.5"],
     "argument --seed: invalid int value: '1.5'"),
    (["simulate", "--config", "{cfg}", "--out", "{out}"], "invalid choice: 'simulate'"),
    (["run", "--out", "{out}"], "the following arguments are required: --config"),
], ids=["seed-range-read-as-an-option", "float-seed", "unknown-command", "missing-config"])
def test_usage_errors_exit_1_with_the_usage_message(tmp_path, capsys, argv, message):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert cli.main([a.format(cfg=cfg, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: opiniondyn") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: opiniondyn")


def test_metrics_reproduces_every_model_of_a_compare(tmp_path):
    models = ["threeway", "degroot-uniform", "degroot-distance", "hk-homogeneous:0.25",
              "hk-heterogeneous"]
    cfg = write_config(tmp_path, hk={"epsilons": [0.05 + 0.02 * k for k in range(20)]})
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                     "--models", ",".join(models)]) == 0
    columns = ("iteration", "variance", "range", "c_aad", "delta_max")
    for name in (spec.replace(":", "_") for spec in models):
        met = tmp_path / "met" / name
        assert cli.main(["metrics", str(out / name / "opinions.csv"), "--out", str(met)]) == 0
        written = read_rows(out / name / "metrics.csv")
        again = read_rows(met / "metrics.csv")
        assert len(written) == len(again) > 1
        assert [[row[c] for c in columns] for row in written] == \
            [[row[c] for c in columns] for row in again]
        assert all(row["avg_degree"] == row["isolated"] == "" for row in again)


def test_metrics_keeps_file_labels_and_reports_bad_files(tmp_path, capsys):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("iteration,agent,value\n5,1,0.5\n5,0,0.25\n2,0,1.0\n2,1,0.0\n")
    assert cli.main(["metrics", str(sparse), "--out", str(tmp_path / "met")]) == 0
    rows = read_rows(tmp_path / "met" / "metrics.csv")
    assert [(r["iteration"], r["range"], r["delta_max"]) for r in rows] == \
        [("2", "1.0", ""), ("5", "0.25", "0.75")]
    capsys.readouterr()
    for name, text, message in [("cols.csv", "iteration,value\n0,0.5\n", "expected columns"),
                                ("empty.csv", "iteration,agent,value,term_index\n",
                                 "no data rows")]:
        bad = tmp_path / name
        bad.write_text(text)
        out = tmp_path / f"out-{name}"
        assert cli.main(["metrics", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


HUGE = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize("field,path", [
    (f'"inertia": {HUGE}', "inertia"),
    (f'"thresholds": {{"alpha": {HUGE}}}', "thresholds.alpha"),
    (f'"rewiring": {{"p_add": {HUGE}}}', "rewiring.p_add"),
    (f'"epsilon": {HUGE}', "epsilon"),
    (f'"initial_network": {{"edge_prob": {HUGE}}}', "initial_network.edge_prob"),
    (f'"hk": {{"epsilons": [{HUGE}, 0.1]}}', "hk.epsilons[0]"),
    ('"seed": ' + "9" * 5000, "config.json"),  # too long even to parse as an integer
], ids=["inertia", "alpha", "p_add", "epsilon", "edge_prob", "epsilons", "5000-digits"])
def test_huge_json_integer_exits_1_at_its_field(tmp_path, capsys, field, path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"n_agents": 2, "initial_opinions": [0, 6], ' + field + "}")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert path + "'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("rows,iteration", [
    ("0,0,0.0\n0,1,1.0\n1,0,0.5\n1,2,0.5\n", 1),  # another agent set
    ("0,0,0.0\n0,1,1.0\n0,1,0.5\n1,0,0.5\n1,1,0.5\n", 0),  # an agent listed twice
    ("0,0,0.0\n0,1,1.0\n1,0,0.5\n", 1),  # an agent missing
], ids=["other-agents", "duplicate", "missing"])
def test_metrics_requires_the_same_agents_in_every_iteration(tmp_path, capsys, rows, iteration):
    opinions = tmp_path / "opinions.csv"
    opinions.write_text("iteration,agent,value\n" + rows)
    out = tmp_path / "met"
    assert cli.main(["metrics", str(opinions), "--out", str(out)]) == 2
    assert f"iteration {iteration} " in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point_runs_and_reports_config_errors(tmp_path):
    pythonpath = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}

    def opiniondyn(config: dict, out: Path) -> int:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        return subprocess.run([sys.executable, "-m", "opiniondyn", "run", "--config", str(cfg),
                               "--out", str(out)], env=env, capture_output=True,
                              timeout=120).returncode

    assert opiniondyn({"n_agents": 2, "initial_opinions": [0, 6]}, tmp_path / "ok") == 0
    assert (tmp_path / "ok" / "manifest.json").exists()
    assert opiniondyn({"n_agents": 2, "initial_opinions": [0, 9]}, tmp_path / "bad") == 1


@pytest.mark.parametrize("rows,line", [
    ("0,0,0.5\n0,1,x\n", 3),  # a value that is not a number
    ("0,0,0.5\nx,1,0.5\n", 3),  # an iteration that is not an integer
    ("0,0,0.5\n0,1\n", 3),  # a row without its value
], ids=["value", "iteration", "short-row"])
def test_metrics_names_the_file_and_line_of_a_bad_number(tmp_path, capsys, rows, line):
    opinions = tmp_path / "opinions.csv"
    opinions.write_text("iteration,agent,value\n" + rows)
    out = tmp_path / "met"
    assert cli.main(["metrics", str(opinions), "--out", str(out)]) == 2
    assert f"{opinions}: line {line}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["nan", "inf", "-0.5"])
def test_metrics_rejects_opinions_outside_the_unit_interval(tmp_path, capsys, text):
    opinions = tmp_path / "opinions.csv"
    opinions.write_text(f"iteration,agent,value\n0,0,0.5\n0,1,{text}\n")
    out = tmp_path / "met"
    assert cli.main(["metrics", str(opinions), "--out", str(out)]) == 2
    assert f"{opinions}: line 3: value {text} outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"n_agents": 2\xff}')
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert f"'{cfg}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_opinions_csv_that_is_not_utf8_is_named(tmp_path, capsys):
    opinions = tmp_path / "opinions.csv"
    opinions.write_bytes(b"iteration,agent,value\n0,0,0.5\n0,1,\xff\n")
    out = tmp_path / "met"
    assert cli.main(["metrics", str(opinions), "--out", str(out)]) == 2
    assert str(opinions) in capsys.readouterr().err
    assert not out.exists()


def test_subnormal_d_max_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, d_max=1e-320)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "d_max" in capsys.readouterr().err
    run_out = tmp_path / "ok"
    assert cli.main(["run", "--config", str(write_config(tmp_path)), "--out", str(run_out)]) == 0
    capsys.readouterr()
    code = cli.main(["metrics", str(run_out / "opinions.csv"), "--out", str(tmp_path / "met"),
                     "--d-max", "1e-320"])
    assert code == 1
    assert "d_max" in capsys.readouterr().err
    assert not (tmp_path / "met").exists()


def test_write_trajectory_saves_each_snapshot_through_save_edge_list(tmp_path, monkeypatch):
    # The benchmark times edge emission by wrapping outputs.save_edge_list.
    record = cli.run_from_config(load_config(write_config(tmp_path)))
    saved = []
    monkeypatch.setattr(outputs, "save_edge_list", lambda net, path: saved.append(net))
    names = write_trajectory(record, tmp_path / "out", 0.01)["networks"]
    assert len(saved) == len(names) == record.iterations + 1
    assert all(a is b for a, b in zip(saved, record.networks))
