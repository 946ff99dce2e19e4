"""End-to-end CLI tests: artifacts, determinism, exit codes."""

import csv
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest
from click.testing import CliRunner

from uavtc import __version__, analytic, cli
from uavtc.cli import emit_plotdata, main
from uavtc.model import ConfigError
from uavtc.numerics import QuadratureError

from helpers import BASELINE_CONFIG, baseline_scenario, count_radial_integrals


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    cfg = dict(BASELINE_CONFIG)
    cfg["replications"] = 400
    cfg["m_initial"] = 5
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# validate-config
# ---------------------------------------------------------------------------


def test_validate_config_echoes_normalized_scenario(runner, config_path):
    result = runner.invoke(main, ["validate-config", "--config", config_path])
    assert result.exit_code == 0
    echoed = json.loads(result.output)
    assert echoed["lambda"] == 0.005
    assert echoed["threshold"] == pytest.approx(0.1)
    assert echoed["speed"] == {"kind": "fixed", "v": 10.0}


def test_validate_config_reports_all_violations(runner, tmp_path):
    bad = tmp_path / "bad.json"
    cfg = dict(BASELINE_CONFIG)
    cfg.update({"lambda": -2.0, "alpha": 1.0, "r_in": 40.0})
    bad.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["validate-config", "--config", str(bad)])
    assert result.exit_code == 2
    assert "lambda" in result.output
    assert "alpha must exceed 2" in result.output
    assert "r_in must be < r_out" in result.output


def test_invalid_json_exits_2(runner, tmp_path):
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    result = runner.invoke(main, ["validate-config", "--config", str(mangled)])
    assert result.exit_code == 2
    assert "JSON" in result.output


_COMMON_FLAGS = {"--config", "--seed", "--replications", "--workers", "--out", "--sweep-t"}


@pytest.mark.parametrize("command, extra", [
    ("interferer-pmf", {"--m"}),
    ("conditional-success", {"--m", "--sweep-tdb"}),
    ("retransmission", set()),
    ("joint-success", {"--sweep-tdb"}),
    ("compare", {"--m", "--sweep-tdb"}),
])
def test_experiment_command_options(command, extra):
    params = main.commands[command].params
    assert {flag for param in params for flag in param.opts} == _COMMON_FLAGS | extra


# ---------------------------------------------------------------------------
# experiment artifacts
# ---------------------------------------------------------------------------


def test_interferer_pmf_artifacts(runner, config_path, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "interferer-pmf", "--config", config_path, "--m", "3",
        "--sweep-t", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "results.csv")
    assert rows[0] == ["m", "t", "n", "p_analytic", "p_mc", "p_poisson_independent"]
    assert all(len(r) == 6 for r in rows[1:])
    probs = [float(r[3]) for r in rows[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    plot = read_csv(out / "plotdata.csv")
    assert plot[0] == ["series", "x", "y"]
    assert len(plot) == 3 * len(rows[1:]) + 1

    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "interferer-pmf"
    assert summary["scenario"]["seed"] == BASELINE_CONFIG["seed"]
    assert summary["rows"] == len(rows) - 1
    assert summary["wall_seconds"] > 0


def test_retransmission_columns(runner, config_path, tmp_path):
    out = tmp_path / "rt"
    result = runner.invoke(main, [
        "retransmission", "--config", config_path, "--sweep-t", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "results.csv")
    assert rows[0] == ["t", "p_retx_analytic", "p_retx_mc", "se", "p_marginal_independent"]
    assert len(rows) == 2


def test_joint_success_columns(runner, config_path, tmp_path):
    out = tmp_path / "js"
    result = runner.invoke(main, [
        "joint-success", "--config", config_path, "--sweep-t", "1",
        "--sweep-tdb", "-10", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "results.csv")
    assert rows[0][:5] == ["t", "threshold_db", "p_joint_analytic", "p_joint_mc", "se"]
    joint, m0, mt, indep = (float(v) for v in rows[1][2:3] + rows[1][5:8])
    assert indep == pytest.approx(m0 * mt, rel=1e-12)
    assert joint <= min(m0, mt) + 1e-9


def test_joint_success_marginals_are_stationary(runner, config_path, tmp_path):
    out = tmp_path / "js"
    result = runner.invoke(main, [
        "joint-success", "--config", config_path, "--sweep-t", "1,5",
        "--sweep-tdb", "-10,0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "results.csv")
    header, body = rows[0], rows[1:]
    m0, mt = header.index("p_marginal_0"), header.index("p_marginal_t")
    assert len(body) == 4
    for row in body:
        assert row[mt] == row[m0]


def test_joint_success_point_is_one_radial_integral(runner, config_path, tmp_path, monkeypatch):
    calls = count_radial_integrals(monkeypatch)
    result = runner.invoke(main, [
        "joint-success", "--config", config_path, "--sweep-t", "1",
        "--sweep-tdb", "-10", "--out", str(tmp_path / "js")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_joint_success_grid_is_one_radial_integral_per_gap(runner, config_path, tmp_path,
                                                           monkeypatch):
    calls = count_radial_integrals(monkeypatch)
    result = runner.invoke(main, [
        "joint-success", "--config", config_path, "--sweep-t", "1,5", "--replications", "300",
        "--sweep-tdb", "-10,0,5", "--out", str(tmp_path / "js")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2


def test_joint_success_runs_where_the_retry_is_undefined(runner, config_path, tmp_path):
    # at -80 dB the first attempt almost never fails, so the retry success is
    # undefined; joint-success does not print it and must still succeed
    out = tmp_path / "js"
    result = runner.invoke(main, [
        "joint-success", "--config", config_path, "--sweep-t", "1",
        "--sweep-tdb", "-80", "--out", str(out)])
    assert result.exit_code == 0, result.output
    header, row = read_csv(out / "results.csv")
    values = dict(zip(header, row))
    assert float(values["p_marginal_0"]) > 1.0 - 1e-12
    assert values["p_marginal_t"] == values["p_marginal_0"]
    assert float(values["p_joint_analytic"]) <= float(values["p_marginal_0"])


def test_summary_version_is_the_package_version_without_a_subprocess(
        runner, config_path, tmp_path, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError(f"cli.run started a subprocess: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    result = runner.invoke(main, [
        "interferer-pmf", "--config", config_path, "--m", "3", "--sweep-t", "1",
        "--workers", "1", "--out", str(tmp_path / "v")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "v" / "summary.json").read_text())["version"] == __version__


def test_successive_runs_start_one_pool(runner, config_path, tmp_path, pool_starts):
    for name in ("a", "b"):
        result = runner.invoke(main, [
            "interferer-pmf", "--config", config_path, "--m", "3,9", "--sweep-t", "1,5",
            "--workers", "2", "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    assert pool_starts == [2]


@pytest.mark.parametrize("command, flags, tasks", [
    # at the grid point as the unit these sent 8, 8, 4 and 8 tasks
    ("interferer-pmf", ["--m", "5,15"], 2),
    ("conditional-success", ["--m", "5,15"], 2),
    ("joint-success", ["--sweep-tdb", "-10,0"], 2),
    ("compare", ["--m", "5"], 4),
])
def test_a_grid_sends_one_task_per_worker(runner, config_path, tmp_path, pool_tasks, command,
                                          flags, tasks):
    result = runner.invoke(main, [
        command, "--config", config_path, *flags, "--sweep-t", "1,5", "--replications", "3000",
        "--workers", "2", "--out", str(tmp_path / "w2")])
    assert result.exit_code == 0, result.output
    assert pool_tasks == ["_run_share"] * tasks
    result = runner.invoke(main, [
        command, "--config", config_path, *flags, "--sweep-t", "1,5", "--replications", "3000",
        "--out", str(tmp_path / "w1")])
    assert result.exit_code == 0, result.output
    for name in ("results.csv", "plotdata.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


@pytest.mark.parametrize("command, flags", [
    ("compare", []),  # no --m and no m_initial: an empty pmf grid
    ("interferer-pmf", ["--m", "3,9"]),
])
def test_one_block_grids_at_three_workers_match_one_worker(runner, tmp_path, pool_starts,
                                                           command, flags):
    path = tmp_path / "no_m.json"
    path.write_text(json.dumps({**BASELINE_CONFIG, "replications": 100}))
    for workers in ("1", "3"):
        result = runner.invoke(main, [
            command, "--config", str(path), *flags, "--sweep-t", "1,5", "--workers", workers,
            "--out", str(tmp_path / workers)])
        assert result.exit_code == 0, result.output
    assert pool_starts == []  # one block per point: each grid runs in this process
    for name in ("results.csv", "plotdata.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()


def test_conditional_success_grid(runner, config_path, tmp_path):
    out = tmp_path / "cs"
    result = runner.invoke(main, [
        "conditional-success", "--config", config_path, "--m", "3,9",
        "--sweep-t", "1", "--sweep-tdb", "-10,0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "results.csv")
    assert rows[0] == ["m", "t", "threshold_db", "p_mc", "se"]
    assert len(rows) == 1 + 2 * 2


def test_compare_table_shape(runner, config_path, tmp_path):
    out = tmp_path / "cmp"
    result = runner.invoke(main, [
        "compare", "--config", config_path, "--m", "4", "--sweep-t", "1",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "results.csv")
    assert rows[0] == ["quantity", "m", "t", "threshold_db", "n",
                       "analytic", "mc", "se", "z"]
    quantities = {r[0] for r in rows[1:]}
    assert {"joint", "marginal_0", "marginal_t", "retx_given_fail", "pmf"} <= quantities
    for r in rows[1:]:
        if r[7] not in ("", "0") and float(r[7]) > 0:
            assert r[8] != ""


def test_compare_leaves_undefined_retry_empty(runner, config_path, tmp_path):
    # at -80 dB the first attempt almost never fails: the retry success is
    # undefined, while the joint and the marginals are well defined
    out = tmp_path / "cmp80"
    result = runner.invoke(main, [
        "compare", "--config", config_path, "--m", "4", "--sweep-t", "1",
        "--sweep-tdb", "-80", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = {r[0]: r for r in read_csv(out / "results.csv")[1:] if r[0] != "pmf"}
    assert rows["retx_given_fail"][5] == "" and rows["retx_given_fail"][8] == ""
    marginal = float(rows["marginal_0"][5])
    assert float(rows["joint"][5]) <= marginal == float(rows["marginal_t"][5])


def test_compare_and_retransmission_read_the_config_threshold(runner, tmp_path):
    # -4.9 dB does not survive a dB -> linear -> dB round trip bit for bit;
    # both commands take the config's own value and convert it once
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**BASELINE_CONFIG, "replications": 400, "threshold_db": -4.9}))
    for command in ("compare", "retransmission"):
        result = runner.invoke(main, [
            command, "--config", str(path), "--sweep-t", "1", "--out", str(tmp_path / command)])
        assert result.exit_code == 0, result.output
    (retx,) = [r for r in read_csv(tmp_path / "compare" / "results.csv")
               if r[0] == "retx_given_fail"]
    header, row = read_csv(tmp_path / "retransmission" / "results.csv")
    values = dict(zip(header, row))
    assert float(retx[3]) == -4.9
    assert retx[5] == values["p_retx_analytic"]
    assert retx[6:8] == [values["p_retx_mc"], values["se"]]


def test_summary_defaults_m_from_config(runner, config_path, tmp_path):
    # config carries m_initial=5; --m can be omitted
    out = tmp_path / "dflt"
    result = runner.invoke(main, [
        "interferer-pmf", "--config", config_path, "--sweep-t", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["m_list"] == [5]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_results_byte_identical_across_runs_and_workers(runner, config_path, tmp_path):
    args = ["compare", "--config", config_path, "--m", "4", "--sweep-t", "1"]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    r1 = runner.invoke(main, args + ["--workers", "1", "--out", str(out1)])
    r2 = runner.invoke(main, args + ["--workers", "3", "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "plotdata.csv").read_bytes() == (out2 / "plotdata.csv").read_bytes()


def test_runs_at_changing_worker_counts_write_identical_files(runner, config_path, tmp_path):
    # the pool a process keeps outlives each run; a one-worker run leaves it be
    outputs = []
    for i, workers in enumerate((2, 1, 2)):
        out = tmp_path / f"run{i}"
        result = runner.invoke(main, [
            "interferer-pmf", "--config", config_path, "--m", "3,9", "--sweep-t", "1,5",
            "--workers", str(workers), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append([(out / name).read_bytes() for name in ("results.csv", "plotdata.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_seed_override_changes_estimates(runner, config_path, tmp_path):
    args = ["retransmission", "--config", config_path, "--sweep-t", "1"]
    outs = []
    for seed in ("11", "12"):
        out = tmp_path / f"s{seed}"
        result = runner.invoke(main, args + ["--seed", seed, "--out", str(out)])
        assert result.exit_code == 0
        outs.append(read_csv(out / "results.csv")[1][2])
    assert outs[0] != outs[1]


# ---------------------------------------------------------------------------
# failure handling
# ---------------------------------------------------------------------------


def test_empty_sweep_list_exits_2(runner, config_path, tmp_path):
    result = runner.invoke(main, [
        "retransmission", "--config", config_path, "--sweep-t", "",
        "--out", str(tmp_path / "never")])
    assert result.exit_code == 2
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command, flag, message", [
    ("retransmission", "--sweep-t=-1", "--sweep-t values must be finite and >= 0"),
    ("interferer-pmf", "--sweep-t=nan", "--sweep-t values must be finite and >= 0"),
    ("retransmission", "--sweep-t=1,inf", "--sweep-t values must be finite and >= 0"),
    ("joint-success", "--sweep-tdb=-10,nan", "--sweep-tdb values must be finite"),
    ("joint-success", "--sweep-tdb=4000", "--sweep-tdb values must be finite"),
    ("joint-success", "--sweep-tdb=-4000", "--sweep-tdb values must be finite"),
    ("interferer-pmf", "--m=2.5", "--m: invalid literal for int()"),
    ("conditional-success", "--m=-1", "--m values must be non-negative integers, got '-1'"),
    ("interferer-pmf", "--m=3,-1", "--m values must be non-negative integers"),
])
def test_bad_sweep_value_exits_2(runner, config_path, tmp_path, command, flag, message):
    out = tmp_path / "never"
    result = runner.invoke(main, [command, "--config", config_path, flag, "--out", str(out)])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


def test_invalid_config_exits_2_without_artifacts(runner, tmp_path):
    bad = tmp_path / "bad.json"
    cfg = dict(BASELINE_CONFIG)
    cfg["p_mobile"] = 7.0
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    result = runner.invoke(main, [
        "retransmission", "--config", bad, "--out", str(out)])
    assert result.exit_code == 2
    assert "p_mobile" in result.output
    assert not out.exists()


def test_degenerate_retransmission_writes_an_empty_retry_cell(runner, tmp_path):
    # no interferers and a -200 dB threshold: the first attempt never fails,
    # so the retry success is undefined on both sides and its cells stay empty
    cfg = dict(BASELINE_CONFIG)
    cfg.update({"lambda": 0.0, "threshold_db": -200.0, "replications": 100})
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "retransmission", "--config", str(path), "--sweep-t", "1,5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    header, *rows = read_csv(out / "results.csv")
    assert len(rows) == 2
    for row in rows:
        values = dict(zip(header, row))
        assert values["p_retx_analytic"] == values["p_retx_mc"] == values["se"] == ""
        assert values["p_marginal_independent"] == "1"


@pytest.mark.parametrize("stage, made", [
    ("rows", []),  # while the rows are computed: nothing is written
    ("plotdata", ["results.csv"]),  # after results.csv is written: it is removed
])
def test_numerical_failure_exits_3_without_artifacts(runner, config_path, tmp_path, monkeypatch,
                                                     stage, made):
    written = []

    def fail(*args):
        raise QuadratureError("integrand is not finite at x=1.0", None, float("inf"))

    def fail_after_results(results_csv, plot_path):
        written.extend(path.name for path in results_csv.parent.iterdir())
        fail()

    if stage == "rows":
        monkeypatch.setattr(analytic, "success_reports", fail)
    else:
        monkeypatch.setattr(cli, "emit_plotdata", fail_after_results)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "retransmission", "--config", config_path, "--sweep-t", "1", "--out", str(out)])
    assert result.exit_code == 3
    assert "numerical failure: integrand is not finite" in result.output
    assert written == made
    assert not out.exists() or not any(out.iterdir())


def test_retransmission_spec_with_several_thresholds_is_rejected(tmp_path):
    # its header has no threshold column, so such rows could not be told apart
    spec = cli.ExperimentSpec(
        kind="retransmission", scenario=baseline_scenario(replications=100), sweep_t=(1.0,),
        sweep_tdb=(-10.0, 0.0), m_list=(), out_dir=tmp_path / "never", workers=1)
    with pytest.raises(ValueError, match="retransmission takes one threshold"):
        cli.run(spec)
    assert not spec.out_dir.exists()


def test_missing_m_is_listed_with_the_other_violations(runner, tmp_path):
    path = tmp_path / "no_m.json"
    path.write_text(json.dumps({**BASELINE_CONFIG, "replications": 400}))
    out = tmp_path / "never"
    result = runner.invoke(main, [
        "interferer-pmf", "--config", str(path), "--sweep-t=-1", "--out", str(out)])
    assert result.exit_code == 2
    assert "--sweep-t values must be finite and >= 0" in result.output
    assert "--m (or m_initial in the config) is required" in result.output
    assert not out.exists()


@pytest.mark.parametrize("change, messages", [
    ({"kind": "interferer-pmf", "m_list": ()},
     ["--m (or m_initial in the config) is required for this experiment"]),
    ({"kind": "conditional-success", "m_list": ()},
     ["--m (or m_initial in the config) is required for this experiment"]),
    ({"kind": "joint-success", "sweep_t": ()},
     ["--sweep-t must be a non-empty comma-separated list"]),
    ({"kind": "compare", "sweep_tdb": ()},
     ["--sweep-tdb must be a non-empty comma-separated list"]),
    ({"kind": "joint-success", "sweep_tdb": (-4000.0,)},
     ["--sweep-tdb values must be finite with a linear threshold > 0, got (-4000.0,)"]),
    ({"kind": "bogus"}, ["kind must be one of interferer-pmf|conditional-success|retransmission|"
                         "joint-success|compare, got 'bogus'"]),
    ({"kind": "interferer-pmf", "sweep_t": (-1.0,), "m_list": (3, -1)},
     ["--sweep-t values must be finite and >= 0, got (-1.0,)",
      "--m values must be non-negative integers, got (3, -1)"]),
    # entries that are no number used to raise a bare TypeError
    ({"kind": "joint-success", "sweep_t": ("1",)},
     ["--sweep-t values must be finite and >= 0, got ('1',)"]),
    ({"kind": "joint-success", "sweep_tdb": ("x",)},
     ["--sweep-tdb values must be finite with a linear threshold > 0, got ('x',)"]),
    ({"kind": "compare", "sweep_t": (1.0, None), "sweep_tdb": (-10.0, "0"), "m_list": ("5",)},
     ["--sweep-t values must be finite and >= 0, got (1.0, None)",
      "--sweep-tdb values must be finite with a linear threshold > 0, got (-10.0, '0')",
      "--m values must be non-negative integers, got ('5',)"]),
])
def test_run_rejects_a_spec_the_command_line_rejects(tmp_path, change, messages):
    # a library spec meets the rules of the flags it stands for, all listed at once
    spec = cli.ExperimentSpec(**{
        "scenario": baseline_scenario(replications=100), "sweep_t": (1.0,),
        "sweep_tdb": (-10.0,), "m_list": (5,), "out_dir": tmp_path / "never", "workers": 1,
        **change})
    with pytest.raises(ConfigError) as exc_info:
        cli.run(spec)
    assert exc_info.value.violations == messages
    assert not spec.out_dir.exists()


@pytest.mark.parametrize("flags, messages", [
    (["interferer-pmf", "--sweep-t=-1", "--m=2.5"],
     ["--m: invalid literal for int() with base 10: '2.5'",
      "--sweep-t values must be finite and >= 0, got '-1'"]),
    (["interferer-pmf", "--sweep-t", "", "--m=-1"],
     ["--sweep-t must be a non-empty comma-separated list",
      "--m values must be non-negative integers, got '-1'"]),
    # a list that does not parse is not also reported as missing
    (["conditional-success", "--m", ""], ["--m must be a non-empty comma-separated list"]),
    (["interferer-pmf", "--m=x"], ["--m: invalid literal for int() with base 10: 'x'"]),
])
def test_a_list_that_does_not_parse_is_listed_with_the_other_violations(runner, tmp_path, flags,
                                                                        messages):
    path = tmp_path / "no_m.json"
    path.write_text(json.dumps({**BASELINE_CONFIG, "replications": 400}))
    out = tmp_path / "never"
    result = runner.invoke(main, [*flags, "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"error: {message}" for message in messages]
    assert not out.exists()


def test_scenario_and_flag_violations_are_listed_together(runner, tmp_path):
    # the scenario's violations used to be raised alone, before any flag was checked
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASELINE_CONFIG, "p_mobile": 7.0, "seed": -1}))
    out = tmp_path / "never"
    result = runner.invoke(main, [
        "interferer-pmf", "--config", str(path), "--m=-1", "--sweep-t=-1", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "error: p_mobile must lie in [0, 1]",
        "error: seed must be >= 0",
        "error: --sweep-t values must be finite and >= 0, got '-1'",
        "error: --m values must be non-negative integers, got '-1'",
    ]
    assert not out.exists()


def test_missing_config_file_exits_2(runner):
    result = runner.invoke(main, ["retransmission", "--config", "/nonexistent.json"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flag, value", [
    ("--seed", "18446744073709551616"), ("--seed", "-1"), ("--replications", "0"),
])
def test_out_of_range_override_exits_2(runner, config_path, tmp_path, flag, value):
    out = tmp_path / "never"
    result = runner.invoke(main, [
        "joint-success", "--config", config_path, "--sweep-tdb", "-10",
        f"{flag}={value}", "--out", str(out)])
    assert result.exit_code == 2
    assert f"error: {flag[2:]} must be" in result.output
    assert not out.exists()


def test_negative_workers_exits_2(runner, config_path, tmp_path):
    for value in ("0", "-1", "abc"):
        out = tmp_path / f"never{value}"
        result = runner.invoke(main, [
            "retransmission", "--config", config_path, "--workers", value, "--out", str(out)])
        assert result.exit_code == 2, (value, result.output)
        assert not out.exists()


# ---------------------------------------------------------------------------
# plot data reshaping
# ---------------------------------------------------------------------------


def test_emit_plotdata_header_only_input(tmp_path):
    src = tmp_path / "results.csv"
    src.write_text("t,p_retx_analytic,p_retx_mc,se,p_marginal_independent\n")
    out = emit_plotdata(src)
    assert out.read_text() == "series,x,y\n"


@pytest.mark.parametrize("results, series", [
    ("m,t,n,p_analytic,p_mc,p_poisson_independent\n5,1.5,2,0.25,0.2475,0.125\n",
     [["m=5,t=1.5,analytic", "2", "0.25"], ["m=5,t=1.5,mc", "2", "0.2475"],
      ["m=5,t=1.5,poisson", "2", "0.125"]]),
    ("m,t,threshold_db,p_mc,se\n15,5,-10,0.625,0.0125\n", [["m=15,t=5", "-10", "0.625"]]),
    ("t,p_retx_analytic,p_retx_mc,se,p_marginal_independent\n2.5,0.5,0.4875,0.0125,0.75\n",
     [["retx,analytic", "2.5", "0.5"], ["retx,mc", "2.5", "0.4875"],
      ["marginal,independent", "2.5", "0.75"]]),
    ("t,threshold_db,p_joint_analytic,p_joint_mc,se,p_marginal_0,p_marginal_t,"
     "p_independent_joint\n1,-4,0.375,0.38,0.005,0.625,0.625,0.390625\n",
     [["joint,T=-4dB,analytic", "1", "0.375"], ["joint,T=-4dB,mc", "1", "0.38"]]),
    ("quantity,m,t,threshold_db,n,analytic,mc,se,z\nmarginal_t,,5,0,,0.5,0.51,0.01,1.25\n",
     [["z,marginal_t,T=0dB", "5", "1.25"]]),
    ("quantity,m,t,threshold_db,n,analytic,mc,se,z\npmf,15,1,,3,0.125,0.12,0.0033,-1.5\n",
     [["z,pmf,m=15,t=1", "3", "-1.5"]]),
])
def test_emit_plotdata_series_of_one_row(tmp_path, results, series):
    src = tmp_path / "results.csv"
    src.write_text(results)
    assert read_csv(emit_plotdata(src)) == [["series", "x", "y"], *series]


def test_emit_plotdata_rejects_empty_file(tmp_path):
    src = tmp_path / "results.csv"
    src.write_text("")
    with pytest.raises(ValueError, match="empty"):
        emit_plotdata(src)


def test_emit_plotdata_rejects_unknown_header(tmp_path):
    src = tmp_path / "results.csv"
    src.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unrecognized"):
        emit_plotdata(src)


# ---------------------------------------------------------------------------
# experiment script
# ---------------------------------------------------------------------------


def test_run_figures_script_writes_three_experiments(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_figures.py"
    spec = importlib.util.spec_from_file_location("run_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--replications", "2000", "--out", str(tmp_path)]) == 0
    for folder, kind in (("fig_count_pmf", "interferer-pmf"),
                         ("fig_conditional", "conditional-success"),
                         ("fig_retransmission", "retransmission")):
        assert read_csv(tmp_path / folder / "results.csv")[0] == list(cli.EXPERIMENTS[kind].header)
