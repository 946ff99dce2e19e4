"""Command-line experiment harness.

Each experiment subcommand reads a flat JSON config, runs a grid of
scenarios, and writes three artifacts into --out:

* ``results.csv``: one row per grid point, floats at 17 significant digits.
  Re-running with the same config and seed reproduces it byte for byte,
  regardless of the worker count.
* ``plotdata.csv``: the same results reshaped into (series, x, y) rows.
* ``summary.json``: scenario echo, version, seed, and wall-clock timing
  (the only artifact containing timestamps).

Exit codes: 0 on success, 2 on config/validation errors, 3 on numerical
failure.  Partially written artifacts are removed on failure.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import __version__, analytic, simulate
from .mobility import check_count, check_gap
from .model import (
    DEFAULT_TDB_GRID,
    ConfigError,
    ValidatedScenario,
    db_to_linear,
    linear_to_db,
    load_config,
    scenario_to_dict,
    validate,
)
from .numerics import QuadratureError

log = logging.getLogger(__name__)

_HEADERS = {
    "interferer-pmf": ["m", "t", "n", "p_analytic", "p_mc", "p_poisson_independent"],
    "conditional-success": ["m", "t", "threshold_db", "p_mc", "se"],
    "retransmission": ["t", "p_retx_analytic", "p_retx_mc", "se", "p_marginal_independent"],
    "joint-success": [
        "t", "threshold_db", "p_joint_analytic", "p_joint_mc", "se",
        "p_marginal_0", "p_marginal_t", "p_independent_joint",
    ],
    "compare": ["quantity", "m", "t", "threshold_db", "n", "analytic", "mc", "se", "z"],
}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    scenario: ValidatedScenario
    sweep_t: tuple[float, ...]
    sweep_tdb: tuple[float, ...]
    m_list: tuple[int, ...]
    out_dir: Path
    workers: int


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _rejects(check, values) -> bool:
    """Whether the shared argument rule ``check`` raises ``ValueError`` on any of ``values``."""
    for value in values:
        try:
            check(value)
        except ValueError:
            return True
    return False


def _parse_list(text: str | None, cast, flag: str):
    if text is None:
        return None
    items = [piece.strip() for piece in text.split(",")]
    if not any(items):
        raise ConfigError([f"{flag} must be a non-empty comma-separated list"])
    try:
        return tuple(cast(piece) for piece in items if piece)
    except ValueError as exc:
        raise ConfigError([f"{flag}: {exc}"]) from exc


@functools.cache
def _version_string() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"{__version__}+g{described.stdout.strip()}"
    except OSError:
        pass
    return __version__


# ---------------------------------------------------------------------------
# Experiment computation
# ---------------------------------------------------------------------------


def _with(scenario: ValidatedScenario, t: float | None = None, threshold_db: float | None = None):
    out = scenario
    if t is not None:
        out = replace(out, t_gap=float(t))
    if threshold_db is not None:
        out = replace(out, threshold=db_to_linear(threshold_db))
    return out


def _rows_interferer_pmf(spec: ExperimentSpec):
    rows = []
    sc = spec.scenario
    for m in spec.m_list:
        for t in spec.sweep_t:
            sc_t = _with(sc, t=t)
            apmf = analytic.conditional_interferer_pmf(m, sc.params, sc.speed, t)
            poisson = analytic.unconditional_interferer_pmf(sc.params, n_max=apmf.n_max)
            mpmf = simulate.estimate_conditional_pmf(
                m, sc_t, n_max=apmf.n_max, workers=spec.workers
            )
            log.info("interferer-pmf m=%d t=%g: n_max=%d tail=%.2e", m, t, apmf.n_max, apmf.tail_mass)
            for n in range(apmf.n_max + 1):
                rows.append([m, t, n, float(apmf.probs[n]), float(mpmf.probs[n]),
                             float(poisson.probs[n])])
    return rows


def _rows_conditional_success(spec: ExperimentSpec):
    rows = []
    sc = spec.scenario
    linear = [db_to_linear(db) for db in spec.sweep_tdb]
    for m in spec.m_list:
        for t in spec.sweep_t:
            results = simulate.estimate_conditional_success(
                m, _with(sc, t=t), thresholds=linear, workers=spec.workers
            )
            log.info("conditional-success m=%d t=%g: %d thresholds", m, t, len(linear))
            for db, res in zip(spec.sweep_tdb, results):
                rows.append([m, t, db, res.estimate, res.std_error])
    return rows


def _rows_retransmission(spec: ExperimentSpec):
    rows = []
    sc = spec.scenario
    for t in spec.sweep_t:
        report = analytic.retransmission_report(sc.params, sc.speed, t, sc.threshold)
        est = simulate.estimate_joint_success(_with(sc, t=t), workers=spec.workers)
        retx = est.retx_given_fail
        log.info("retransmission t=%g: analytic=%.6f", t, report.p_retx_given_fail)
        rows.append([
            t,
            report.p_retx_given_fail,
            None if retx is None else retx.estimate,
            None if retx is None else retx.std_error,
            report.p_marginal_t,
        ])
    return rows


def _rows_joint_success(spec: ExperimentSpec):
    rows = []
    sc = spec.scenario
    for t in spec.sweep_t:
        for db in spec.sweep_tdb:
            rep = analytic.success_report(sc.params, sc.speed, t, db_to_linear(db))
            est = simulate.estimate_joint_success(
                _with(sc, t=t, threshold_db=db), workers=spec.workers
            )
            log.info("joint-success t=%g T=%gdB: analytic=%.6f", t, db, rep.p_joint)
            rows.append([
                t, db, rep.p_joint, est.joint.estimate, est.joint.std_error,
                rep.p_marginal_0, rep.p_marginal_t, rep.p_independent_joint,
            ])
    return rows


def _z_or_none(analytic_value, est):
    if analytic_value is None or est is None or est.std_error == 0.0:
        return None
    return (est.estimate - analytic_value) / est.std_error


def _rows_compare(spec: ExperimentSpec):
    rows = []
    sc = spec.scenario
    for t in spec.sweep_t:
        for db in spec.sweep_tdb:
            rep = analytic.success_report(sc.params, sc.speed, t, db_to_linear(db))
            est = simulate.estimate_joint_success(
                _with(sc, t=t, threshold_db=db), workers=spec.workers
            )
            pairs = [
                ("joint", rep.p_joint, est.joint),
                ("marginal_0", rep.p_marginal_0, est.marginal_0),
                ("marginal_t", rep.p_marginal_t, est.marginal_t),
                ("retx_given_fail", rep.p_retx_given_fail, est.retx_given_fail),
            ]
            log.info("compare t=%g T=%gdB", t, db)
            for name, a_val, e in pairs:
                rows.append([
                    name, None, t, db, None, a_val,
                    None if e is None else e.estimate,
                    None if e is None else e.std_error,
                    _z_or_none(a_val, e),
                ])
    for m in spec.m_list:
        for t in spec.sweep_t:
            apmf = analytic.conditional_interferer_pmf(m, sc.params, sc.speed, t)
            mpmf = simulate.estimate_conditional_pmf(
                m, _with(sc, t=t), n_max=apmf.n_max, workers=spec.workers
            )
            reps = sc.replications
            log.info("compare pmf m=%d t=%g", m, t)
            for n in range(apmf.n_max + 1):
                p_hat = float(mpmf.probs[n])
                se = math.sqrt(p_hat * (1.0 - p_hat) / reps)
                z = (p_hat - float(apmf.probs[n])) / se if se > 0 else None
                rows.append(["pmf", m, t, None, n, float(apmf.probs[n]), p_hat, se, z])
    return rows


_COMPUTE = {
    "interferer-pmf": _rows_interferer_pmf,
    "conditional-success": _rows_conditional_success,
    "retransmission": _rows_retransmission,
    "joint-success": _rows_joint_success,
    "compare": _rows_compare,
}


def run(spec: ExperimentSpec) -> dict:
    """Execute one experiment grid and write all artifacts."""
    started = time.time()
    with simulate.shared_pool(spec.workers):
        rows = _COMPUTE[spec.kind](spec)
    header = _HEADERS[spec.kind]

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    results_path = spec.out_dir / "results.csv"
    summary_path = spec.out_dir / "summary.json"
    plot_path = spec.out_dir / "plotdata.csv"
    summary = {
        "kind": spec.kind,
        "scenario": scenario_to_dict(spec.scenario),
        "sweep_t": list(spec.sweep_t),
        "sweep_tdb": list(spec.sweep_tdb),
        "m_list": list(spec.m_list),
        "workers": spec.workers,
        "version": _version_string(),
        "started_unix": started,
        "wall_seconds": None,
        "rows": len(rows),
        "outputs": [results_path.name, plot_path.name, summary_path.name],
    }
    try:
        with open(results_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([[_fmt(v) for v in row] for row in rows])
        emit_plotdata(results_path, plot_path)
        summary["wall_seconds"] = time.time() - started
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except BaseException:
        for path in (results_path, plot_path, summary_path):
            path.unlink(missing_ok=True)
        raise
    return summary


# ---------------------------------------------------------------------------
# Plot data reshaping
# ---------------------------------------------------------------------------


def emit_plotdata(results_csv: str | Path, out_path: str | Path | None = None) -> Path:
    """Reshape a results.csv into long-form (series, x, y) rows.

    Pure data transformation; introduces no plotting dependency.  The series
    labels identify the grid point and estimator route.
    """
    results_csv = Path(results_csv)
    out_path = Path(out_path) if out_path else results_csv.with_name("plotdata.csv")
    with open(results_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{results_csv} is empty; expected a results header")
        fields = list(reader.fieldnames)
        rows = list(reader)

    def series_rows():
        if fields == _HEADERS["interferer-pmf"]:
            for row in rows:
                tag = f"m={row['m']},t={row['t']}"
                yield f"{tag},analytic", row["n"], row["p_analytic"]
                yield f"{tag},mc", row["n"], row["p_mc"]
                yield f"{tag},poisson", row["n"], row["p_poisson_independent"]
        elif fields == _HEADERS["conditional-success"]:
            for row in rows:
                yield f"m={row['m']},t={row['t']}", row["threshold_db"], row["p_mc"]
        elif fields == _HEADERS["retransmission"]:
            for row in rows:
                yield "retx,analytic", row["t"], row["p_retx_analytic"]
                yield "retx,mc", row["t"], row["p_retx_mc"]
                yield "marginal,independent", row["t"], row["p_marginal_independent"]
        elif fields == _HEADERS["joint-success"]:
            for row in rows:
                tag = f"T={row['threshold_db']}dB"
                yield f"joint,{tag},analytic", row["t"], row["p_joint_analytic"]
                yield f"joint,{tag},mc", row["t"], row["p_joint_mc"]
        elif fields == _HEADERS["compare"]:
            for row in rows:
                if row["quantity"] == "pmf":
                    yield f"z,pmf,m={row['m']},t={row['t']}", row["n"], row["z"]
                else:
                    yield f"z,{row['quantity']},T={row['threshold_db']}dB", row["t"], row["z"]
        else:
            raise ValueError(f"{results_csv} has an unrecognized header: {fields}")

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "x", "y"])
        for series, x, y in series_rows():
            writer.writerow([series, x, y])
    return out_path


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _build_spec(kind, config_path, seed, replications, workers, out_dir, sweep_t, sweep_tdb, m_list):
    overrides = {name: value for name, value in (("seed", seed), ("replications", replications))
                 if value is not None}
    scenario = validate(replace(load_config(config_path), **overrides))
    grid_default = kind in ("conditional-success", "joint-success")
    if workers is None:
        env = os.environ.get("UAVTC_WORKERS")
        try:
            workers = int(env) if env else 1
        except ValueError as exc:
            raise ConfigError([f"UAVTC_WORKERS must be an integer, got {env!r}"]) from exc
    if workers < 1:
        raise ConfigError(["--workers must be >= 1"])
    t_values = _parse_list(sweep_t, float, "--sweep-t")
    tdb_values = _parse_list(sweep_tdb, float, "--sweep-tdb")
    m_values = _parse_list(m_list, int, "--m")
    violations = []
    if t_values is not None and _rejects(check_gap, t_values):
        violations.append(f"--sweep-t values must be finite and >= 0, got {sweep_t!r}")
    if tdb_values is not None and not all(0 < db_to_linear(tdb) < math.inf for tdb in tdb_values):
        violations.append(
            f"--sweep-tdb values must be finite with a linear threshold > 0, got {sweep_tdb!r}")
    if m_values is not None and _rejects(check_count, m_values):
        violations.append(f"--m values must be non-negative integers, got {m_list!r}")
    if violations:
        raise ConfigError(violations)
    default_m = (scenario.m_initial,) if scenario.m_initial is not None else ()
    if tdb_values is None:
        tdb_values = DEFAULT_TDB_GRID if grid_default else (linear_to_db(scenario.threshold),)
    return ExperimentSpec(
        kind=kind,
        scenario=scenario,
        sweep_t=t_values if t_values is not None else (scenario.t_gap,),
        sweep_tdb=tdb_values,
        m_list=m_values if m_values is not None else default_m,
        out_dir=Path(out_dir),
        workers=workers,
    )


def _execute(kind, **kwargs):
    try:
        spec = _build_spec(kind, **kwargs)
        if kind in ("interferer-pmf", "conditional-success") and not spec.m_list:
            raise ConfigError(["--m (or m_initial in the config) is required for this experiment"])
        summary = run(spec)
    except ConfigError as exc:
        for violation in exc.violations:
            click.echo(f"error: {violation}", err=True)
        sys.exit(2)
    except (QuadratureError, ValueError, FloatingPointError, ZeroDivisionError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {spec.out_dir}/results.csv ({summary['rows']} rows)")


def _common_options(fn):
    for option in reversed([
        click.option("--config", "config_path", required=True,
                     type=click.Path(exists=True, dir_okay=False), help="JSON scenario config."),
        click.option("--seed", type=int, default=None, help="Override the config seed."),
        click.option("--replications", type=int, default=None,
                     help="Override the config replication count."),
        click.option("--workers", type=int, default=None,
                     help="Worker processes (default: UAVTC_WORKERS or 1)."),
        click.option("--out", "out_dir", type=click.Path(file_okay=False), default="out",
                     show_default=True, help="Output directory."),
        click.option("--sweep-t", default=None,
                     help="Comma-separated list of time gaps (default: config t_gap)."),
    ]):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Temporally correlated downlink success in a mobile aerial-BS network."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command("validate-config")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def validate_config_cmd(config_path):
    """Check a config file and print the normalized scenario."""
    try:
        scenario = validate(load_config(config_path))
    except ConfigError as exc:
        for violation in exc.violations:
            click.echo(f"error: {violation}", err=True)
        sys.exit(2)
    click.echo(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True))


@main.command("interferer-pmf")
@_common_options
@click.option("--m", "m_list", default=None, help="Comma-separated initial interferer counts.")
def interferer_pmf_cmd(m_list, **kwargs):
    """Conditional interferer-count pmf: analytic vs Monte Carlo vs Poisson."""
    _execute("interferer-pmf", m_list=m_list, sweep_tdb=None, **kwargs)


@main.command("conditional-success")
@_common_options
@click.option("--sweep-tdb", default=None,
              help="Comma-separated thresholds in dB (default: -20..10 step 2).")
@click.option("--m", "m_list", default=None, help="Comma-separated initial interferer counts.")
def conditional_success_cmd(m_list, **kwargs):
    """Monte Carlo success probability conditioned on the initial count."""
    _execute("conditional-success", m_list=m_list, **kwargs)


@main.command("retransmission")
@_common_options
def retransmission_cmd(**kwargs):
    """Failure-conditioned retry success across the time-gap sweep."""
    _execute("retransmission", m_list=None, sweep_tdb=None, **kwargs)


@main.command("joint-success")
@_common_options
@click.option("--sweep-tdb", default=None,
              help="Comma-separated thresholds in dB (default: -20..10 step 2).")
def joint_success_cmd(**kwargs):
    """Joint two-instant success: analytic vs Monte Carlo."""
    _execute("joint-success", m_list=None, **kwargs)


@main.command("compare")
@_common_options
@click.option("--sweep-tdb", default=None,
              help="Comma-separated thresholds in dB (default: config threshold).")
@click.option("--m", "m_list", default=None,
              help="Also compare conditional pmfs for these initial counts.")
def compare_cmd(m_list, **kwargs):
    """Side-by-side analytic vs Monte Carlo table with z-scores."""
    _execute("compare", m_list=m_list, **kwargs)


if __name__ == "__main__":
    main()
