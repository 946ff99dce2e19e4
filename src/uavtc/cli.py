"""Command-line experiment harness.

Each experiment subcommand reads a flat JSON config, runs a grid of
scenarios, and writes three artifacts into --out:

* ``results.csv``: one row per grid point, floats at 17 significant digits.
  Re-running with the same config and seed reproduces it byte for byte,
  regardless of the worker count.
* ``plotdata.csv``: the same results reshaped into (series, x, y) rows.
* ``summary.json``: scenario echo, version, seed, and wall-clock timing
  (the only artifact containing timestamps).

Each experiment is one entry of ``EXPERIMENTS``, which the commands, the
artifact writer and the plot-data reshaper all read.

Exit codes: 0 on success, 2 on config/validation errors, 3 on numerical
failure.  Partially written artifacts are removed on failure.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import click

from . import __version__, analytic, simulate
from .model import (
    DEFAULT_TDB_GRID,
    ConfigError,
    ValidatedScenario,
    check_count,
    check_gap,
    db_to_linear,
    load_config,
    scenario_to_dict,
    validate,
)
from .numerics import QuadratureError

log = logging.getLogger(__name__)


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


# the flag and the element type of each list of a grid spec
_LISTS = {"sweep_t": ("--sweep-t", float), "sweep_tdb": ("--sweep-tdb", float),
          "m_list": ("--m", int)}


def _parse_list(violations: list[str], text: str, flag: str, cast):
    """The values of a comma-separated flag, or None with the reason appended to ``violations``."""
    items = [piece.strip() for piece in text.split(",")]
    try:
        if any(items):
            return tuple(cast(piece) for piece in items if piece)
        violations.append(f"{flag} must be a non-empty comma-separated list")
    except ValueError as exc:
        violations.append(f"{flag}: {exc}")
    return None


# ---------------------------------------------------------------------------
# Experiment computation
# ---------------------------------------------------------------------------


def _sinr_points(spec: ExperimentSpec):
    """Yield (t, dB, analytic report, Monte Carlo estimate) over the (t, threshold) grid.

    Each gap takes one analytic call and one Monte Carlo stream for its
    whole threshold grid.
    """
    sc = spec.scenario
    thresholds = [db_to_linear(db) for db in spec.sweep_tdb]
    for t in spec.sweep_t:
        reps = analytic.success_reports(sc.params, sc.speed, t, thresholds)
        ests = simulate._estimate_joint_grid(
            replace(sc, t_gap=float(t)), thresholds, workers=spec.workers)
        log.info("%s t=%g: %d thresholds", spec.kind, t, len(thresholds))
        yield from ((t, db, rep, est) for db, rep, est in zip(spec.sweep_tdb, reps, ests))


def _pmf_points(spec: ExperimentSpec):
    """Yield (m, t, analytic pmf, Monte Carlo pmf) over the (m, t) grid."""
    sc = spec.scenario
    for m in spec.m_list:
        for t in spec.sweep_t:
            apmf = analytic.conditional_interferer_pmf(m, sc.params, sc.speed, t)
            mpmf = simulate.estimate_conditional_pmf(
                m, replace(sc, t_gap=float(t)), n_max=apmf.n_max, workers=spec.workers
            )
            log.info("%s m=%d t=%g: n_max=%d tail=%.2e", spec.kind, m, t, apmf.n_max,
                     apmf.tail_mass)
            yield m, t, apmf, mpmf


def _estimate(result):
    """(estimate, std_error) of an estimator result, blank where it is undefined."""
    return (None, None) if result is None else (result.estimate, result.std_error)


def _z_or_none(analytic_value, est):
    if analytic_value is None or est is None or est.std_error == 0.0:
        return None
    return (est.estimate - analytic_value) / est.std_error


def _rows_interferer_pmf(spec: ExperimentSpec):
    for m, t, apmf, mpmf in _pmf_points(spec):
        poisson = analytic.unconditional_interferer_pmf(spec.scenario.params, n_max=apmf.n_max)
        for n in range(apmf.n_max + 1):
            yield [m, t, n, float(apmf.probs[n]), float(mpmf.probs[n]), float(poisson.probs[n])]


def _rows_conditional_success(spec: ExperimentSpec):
    linear = [db_to_linear(db) for db in spec.sweep_tdb]
    for m in spec.m_list:
        for t in spec.sweep_t:
            results = simulate.estimate_conditional_success(
                m, replace(spec.scenario, t_gap=float(t)), thresholds=linear,
                workers=spec.workers
            )
            log.info("%s m=%d t=%g: %d thresholds", spec.kind, m, t, len(linear))
            for db, res in zip(spec.sweep_tdb, results):
                yield [m, t, db, res.estimate, res.std_error]


def _rows_retransmission(spec: ExperimentSpec):
    for t, _, rep, est in _sinr_points(spec):
        yield [t, rep.p_retx_given_fail, *_estimate(est.retx_given_fail), rep.p_marginal_t]


def _rows_joint_success(spec: ExperimentSpec):
    for t, db, rep, est in _sinr_points(spec):
        yield [t, db, rep.p_joint, *_estimate(est.joint),
               rep.p_marginal_0, rep.p_marginal_t, rep.p_independent_joint]


def _rows_compare(spec: ExperimentSpec):
    for t, db, rep, est in _sinr_points(spec):
        for name in ("joint", "marginal_0", "marginal_t", "retx_given_fail"):
            a_val, e = getattr(rep, f"p_{name}"), getattr(est, name)
            yield [name, None, t, db, None, a_val, *_estimate(e), _z_or_none(a_val, e)]
    for m, t, apmf, mpmf in _pmf_points(spec):
        for n in range(apmf.n_max + 1):
            p_hat = float(mpmf.probs[n])
            se = math.sqrt(p_hat * (1.0 - p_hat) / spec.scenario.replications)
            z = (p_hat - float(apmf.probs[n])) / se if se > 0 else None
            yield ["pmf", m, t, None, n, float(apmf.probs[n]), p_hat, se, z]


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    """One experiment command: what it computes, writes and accepts."""

    header: tuple[str, ...]
    rows: Callable[[ExperimentSpec], Iterable[list]]  # results rows of the grid
    series: Callable[[dict], list[tuple]]  # (series, x, y) plot rows of one results row
    help: str
    options: tuple = ()  # click options beyond the common ones, in help order
    grid_default: bool = False  # --sweep-tdb defaults to DEFAULT_TDB_GRID, not the config
    needs_m: bool = False  # --m or the config's m_initial is required


_m_option = functools.partial(click.option, "--m", "m_list", default=None)
_tdb_option = functools.partial(click.option, "--sweep-tdb", default=None)
_M_HELP = "Comma-separated initial interferer counts."
_GRID_TDB_HELP = "Comma-separated thresholds in dB (default: -20..10 step 2)."

EXPERIMENTS = {
    "interferer-pmf": _Experiment(
        header=("m", "t", "n", "p_analytic", "p_mc", "p_poisson_independent"),
        rows=_rows_interferer_pmf,
        series=lambda row: [
            (f"m={row['m']},t={row['t']},{route}", row["n"], row[column])
            for route, column in (("analytic", "p_analytic"), ("mc", "p_mc"),
                                  ("poisson", "p_poisson_independent"))],
        help="Conditional interferer-count pmf: analytic vs Monte Carlo vs Poisson.",
        options=(_m_option(help=_M_HELP),),
        needs_m=True,
    ),
    "conditional-success": _Experiment(
        header=("m", "t", "threshold_db", "p_mc", "se"),
        rows=_rows_conditional_success,
        series=lambda row: [(f"m={row['m']},t={row['t']}", row["threshold_db"], row["p_mc"])],
        help="Monte Carlo success probability conditioned on the initial count.",
        options=(_tdb_option(help=_GRID_TDB_HELP), _m_option(help=_M_HELP)),
        grid_default=True,
        needs_m=True,
    ),
    "retransmission": _Experiment(
        header=("t", "p_retx_analytic", "p_retx_mc", "se", "p_marginal_independent"),
        rows=_rows_retransmission,
        series=lambda row: [("retx,analytic", row["t"], row["p_retx_analytic"]),
                            ("retx,mc", row["t"], row["p_retx_mc"]),
                            ("marginal,independent", row["t"], row["p_marginal_independent"])],
        help="Failure-conditioned retry success across the time-gap sweep.",
    ),
    "joint-success": _Experiment(
        header=("t", "threshold_db", "p_joint_analytic", "p_joint_mc", "se",
                "p_marginal_0", "p_marginal_t", "p_independent_joint"),
        rows=_rows_joint_success,
        series=lambda row: [(f"joint,T={row['threshold_db']}dB,{route}", row["t"],
                             row[f"p_joint_{route}"]) for route in ("analytic", "mc")],
        help="Joint two-instant success: analytic vs Monte Carlo.",
        options=(_tdb_option(help=_GRID_TDB_HELP),),
        grid_default=True,
    ),
    "compare": _Experiment(
        header=("quantity", "m", "t", "threshold_db", "n", "analytic", "mc", "se", "z"),
        rows=_rows_compare,
        series=lambda row: [
            (f"z,pmf,m={row['m']},t={row['t']}", row["n"], row["z"]) if row["quantity"] == "pmf"
            else (f"z,{row['quantity']},T={row['threshold_db']}dB", row["t"], row["z"])],
        help="Side-by-side analytic vs Monte Carlo table with z-scores.",
        options=(_tdb_option(help="Comma-separated thresholds in dB (default: config threshold)."),
                 _m_option(help="Also compare conditional pmfs for these initial counts.")),
    ),
}


def _check_spec(spec: ExperimentSpec, violations: list[str] | None = None,
                texts: dict | None = None) -> None:
    """Raise one ``ConfigError`` listing ``violations`` and every rule of a grid ``spec`` breaks.

    A list that is None failed to parse, with the reason in ``violations``,
    and is not checked.  The messages quote a list as ``texts`` gives it
    under its field name, or else as ``spec`` holds it.
    """
    violations = [] if violations is None else violations
    shown = {**vars(spec), **(texts or {})}
    experiment = EXPERIMENTS.get(spec.kind)
    if experiment is None:
        violations.append(f"kind must be one of {'|'.join(EXPERIMENTS)}, got {spec.kind!r}")
    for flag, values in (("--sweep-t", spec.sweep_t), ("--sweep-tdb", spec.sweep_tdb)):
        if values is not None and len(values) == 0:
            violations.append(f"{flag} must be a non-empty comma-separated list")
    if spec.sweep_t is not None and _rejects(check_gap, spec.sweep_t):
        violations.append(f"--sweep-t values must be finite and >= 0, got {shown['sweep_t']!r}")
    if spec.sweep_tdb is not None and not all(
            0 < db_to_linear(tdb) < math.inf for tdb in spec.sweep_tdb):
        violations.append("--sweep-tdb values must be finite with a linear threshold > 0, "
                          f"got {shown['sweep_tdb']!r}")
    if spec.m_list is not None and _rejects(check_count, spec.m_list):
        violations.append(f"--m values must be non-negative integers, got {shown['m_list']!r}")
    if spec.m_list is not None and len(spec.m_list) == 0 and experiment and experiment.needs_m:
        violations.append("--m (or m_initial in the config) is required for this experiment")
    if spec.kind == "retransmission" and spec.sweep_tdb is not None and len(spec.sweep_tdb) > 1:
        # the header has no threshold column to tell the rows of several apart
        violations.append(f"retransmission takes one threshold, got sweep_tdb={spec.sweep_tdb!r}")
    if violations:
        raise ConfigError(violations)


def run(spec: ExperimentSpec) -> dict:
    """Check a grid spec (before ``out_dir`` is made), execute it and write all artifacts."""
    started = time.time()
    _check_spec(spec)
    experiment = EXPERIMENTS[spec.kind]
    rows = list(experiment.rows(spec))

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
        "version": __version__,
        "started_unix": started,
        "wall_seconds": None,
        "rows": len(rows),
        "outputs": [results_path.name, plot_path.name, summary_path.name],
    }
    try:
        with open(results_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(experiment.header)
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
        fields = tuple(reader.fieldnames)
        rows = list(reader)
    series = next((e.series for e in EXPERIMENTS.values() if e.header == fields), None)
    if series is None:
        raise ValueError(f"{results_csv} has an unrecognized header: {list(fields)}")

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "x", "y"])
        for row in rows:
            writer.writerows(series(row))
    return out_path


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _build_spec(kind, config_path, seed, replications, workers, out_dir, sweep_t,
                sweep_tdb=None, m_list=None):
    overrides = {name: value for name, value in (("seed", seed), ("replications", replications))
                 if value is not None}
    config = load_config(config_path) | overrides
    scenario = validate(config)
    texts = {name: text for name, text in zip(_LISTS, (sweep_t, sweep_tdb, m_list))
             if text is not None}
    violations = []
    given = {name: _parse_list(violations, text, *_LISTS[name]) for name, text in texts.items()}
    defaults = {
        "sweep_t": (scenario.t_gap,),
        # the config's own dB value, whose db_to_linear is scenario.threshold
        "sweep_tdb": (DEFAULT_TDB_GRID if EXPERIMENTS[kind].grid_default
                      else (float(config["threshold_db"]),)),
        "m_list": (scenario.m_initial,) if scenario.m_initial is not None else (),
    }
    spec = ExperimentSpec(kind=kind, scenario=scenario, out_dir=Path(out_dir), workers=workers,
                          **(defaults | given))
    _check_spec(spec, violations, texts)
    return spec


def _execute(kind, **kwargs):
    try:
        spec = _build_spec(kind, **kwargs)
        summary = run(spec)
    except ConfigError as exc:
        for violation in exc.violations:
            click.echo(f"error: {violation}", err=True)
        sys.exit(2)
    except (QuadratureError, ValueError, FloatingPointError, ZeroDivisionError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {spec.out_dir}/results.csv ({summary['rows']} rows)")


_COMMON_OPTIONS = (
    click.option("--config", "config_path", required=True,
                 type=click.Path(exists=True, dir_okay=False), help="JSON scenario config."),
    click.option("--seed", type=int, default=None, help="Override the config seed."),
    click.option("--replications", type=int, default=None,
                 help="Override the config replication count."),
    click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                 help="Worker processes."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default="out",
                 show_default=True, help="Output directory."),
    click.option("--sweep-t", default=None,
                 help="Comma-separated list of time gaps (default: config t_gap)."),
)


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


for _kind, _experiment in EXPERIMENTS.items():
    _callback = functools.partial(_execute, _kind)
    for _option in reversed((*_COMMON_OPTIONS, *_experiment.options)):
        _callback = _option(_callback)
    main.command(_kind, help=_experiment.help)(_callback)


if __name__ == "__main__":
    main()
