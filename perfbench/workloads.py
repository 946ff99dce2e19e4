"""The benchmark's workloads: inputs made from a seed, one round, output checks.

A round runs the workload's whole grid once.  ``setup`` imports uavtc, loads
and validates the baseline scenario and builds the grid: that is the work
``setup_s`` times.  ``check`` runs after all timing and compares every
round's outputs with the independent references in ``reference.py``.
"""

from __future__ import annotations

import csv
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import uavtc

import reference

BASELINE = "configs/baseline.json"

# Failures the program signals for a grid point it cannot compute; anything
# else is a fault of the benchmark or the program and ends the run.
_POINT_FAILURES = (uavtc.numerics.QuadratureError, ValueError)


@dataclass
class Round:
    """One pass over the grid: counts, seconds per timed point, outputs."""

    attempted: int = 0
    failed: int = 0
    point_s: list[float | None] = field(default_factory=list)  # None: the point failed
    outputs: list = field(default_factory=list)


def _baseline(root: Path):
    return uavtc.model.validate(uavtc.model.load_config(root / BASELINE))


def _jittered_threshold(rng) -> float:
    # +-0.25 dB around the baseline -10 dB: the quadrature does the same
    # amount of work, the values differ from seed to seed
    return uavtc.db_to_linear(-10.0 + rng.uniform(-0.25, 0.25))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# sinr-analytic
# ---------------------------------------------------------------------------


class SinrAnalytic:
    """retransmission_report over gaps {1, 5} x fading shapes {1, 2}.

    At t=1 a node moving at v=10 can stay in the footprint (radius 25); at
    t=5 it travels the whole diameter.  Shape k sets the jet size (k x k)
    but not the quadrature's node count.
    """

    GAPS = (1.0, 5.0)
    SHAPES = (1, 2)
    TOL = 1e-6  # absolute, on every probability; the reference is good to ~1e-10

    def setup(self, root: Path, seed: int):
        scenario = _baseline(root)
        rng = np.random.default_rng(seed)
        points = []
        for t in self.GAPS:
            for k in self.SHAPES:
                fading = uavtc.model.FadingParams(k=k, omega=1.0 / k)
                params = replace(scenario.params, fading=fading)
                points.append((t, k, _jittered_threshold(rng), params))
        order = rng.permutation(len(points))
        return scenario.speed, [points[i] for i in order]

    def round(self, state, scratch: Path, rec=None) -> Round:
        speed, points = state
        out = Round()
        for t, _, threshold, params in points:
            out.attempted += 1
            try:
                report, seconds = _timed(lambda: uavtc.analytic.retransmission_report(
                    params, speed, t, threshold))
            except _POINT_FAILURES:
                out.failed += 1
                out.outputs.append(None)
                out.point_s.append(None)
                continue
            out.point_s.append(seconds)
            out.outputs.append(report)
        return out

    def check(self, state, rounds: list[Round]) -> list[str]:
        speed, points = state
        problems = _rounds_agree(rounds)
        for (t, k, threshold, params), report in zip(points, rounds[0].outputs):
            if report is None:
                continue
            tag = f"t={t} k={k} T={threshold:.6g}"
            ref = reference.success_probabilities(params, speed.atom, t, threshold)
            retx = (ref["marginal_t"] - ref["joint"]) / (1.0 - ref["marginal_0"])
            expected = {
                "p_joint": ref["joint"],
                "p_marginal_0": ref["marginal_0"],
                "p_marginal_t": ref["marginal_t"],
                "p_retx_given_fail": retx,
                "p_independent_joint": ref["marginal_0"] * ref["marginal_t"],
            }
            for name, want in expected.items():
                got = getattr(report, name)
                # the retry success divides by 1 - marginal_0 (about 0.2 here)
                tol = self.TOL * (10.0 if name == "p_retx_given_fail" else 1.0)
                if not abs(got - want) <= tol:
                    problems.append(f"{tag}: {name}={got!r}, reference {want!r}")
            if not 0.0 <= report.quadrature_error_bound <= self.TOL:
                problems.append(f"{tag}: error bound {report.quadrature_error_bound!r}")
            if report.p_joint > min(report.p_marginal_0, report.p_marginal_t):
                problems.append(f"{tag}: joint exceeds a marginal")
            if not abs(report.p_marginal_0 - report.p_marginal_t) <= self.TOL:
                problems.append(f"{tag}: marginals differ; stationarity requires them equal")
            if report.p_retx_given_fail > report.p_marginal_t:
                problems.append(f"{tag}: retry success exceeds marginal_t")
        return problems


# ---------------------------------------------------------------------------
# mc-joint
# ---------------------------------------------------------------------------


class McJoint:
    """estimate_joint_success with one worker over gaps {1, 3, 5}."""

    GAPS = (1.0, 3.0, 5.0)
    REPLICATIONS = 6000
    Z_MAX = 5.0  # standard errors; the chance of a false alarm per value is ~6e-7

    def setup(self, root: Path, seed: int):
        scenario = _baseline(root)
        rng = np.random.default_rng(seed)
        base = replace(scenario, replications=self.REPLICATIONS,
                       seed=int(rng.integers(2**31)))
        return [replace(base, t_gap=t) for t in self.GAPS]

    def round(self, state, scratch: Path, rec=None) -> Round:
        scenarios = state
        out = Round()
        for scenario in scenarios:
            out.attempted += 1
            try:
                est, seconds = _timed(lambda: uavtc.simulate.estimate_joint_success(
                    scenario, workers=1))
            except _POINT_FAILURES:
                out.failed += 1
                out.outputs.append(None)
                out.point_s.append(None)
                continue
            out.point_s.append(seconds)
            out.outputs.append(est)
        return out

    def check(self, state, rounds: list[Round]) -> list[str]:
        scenarios = state
        problems = _rounds_agree(rounds)
        for scenario, est in zip(scenarios, rounds[0].outputs):
            if est is None:
                continue
            t = scenario.t_gap
            ref = reference.success_probabilities(
                scenario.params, scenario.speed.atom, t, scenario.threshold)
            n = scenario.replications
            for name in ("joint", "marginal_0", "marginal_t"):
                got = getattr(est, name)
                want = ref[name]
                se = math.sqrt(want * (1.0 - want) / n)
                if got.replications != n or not abs(got.estimate - want) <= self.Z_MAX * se:
                    problems.append(
                        f"t={t}: {name}={got.estimate!r} over {got.replications} reps, "
                        f"reference {want!r} (se {se:.3g})")
        return problems


# ---------------------------------------------------------------------------
# count-grid
# ---------------------------------------------------------------------------


class CountGrid:
    """cli.run of interferer-pmf and conditional-success, uniform speed, two workers."""

    M = (5, 15)
    GAPS = (1.0, 5.0)
    V_MIN, V_MAX = 5.0, 15.0
    REPLICATIONS = 3000
    WORKERS = 2
    PMF_TOL = 1e-8  # absolute, analytic pmf against the convolution reference
    Z_MAX = 5.0
    FALSE_ALARM = 1e-6

    def setup(self, root: Path, seed: int):
        import uavtc.cli  # the package does not import its command-line module

        scenario = _baseline(root)
        rng = np.random.default_rng(seed)
        scenario = replace(
            scenario,
            speed=uavtc.model.UniformSpeed(self.V_MIN, self.V_MAX),
            replications=self.REPLICATIONS,
            seed=int(rng.integers(2**31)),
        )
        return [
            uavtc.cli.ExperimentSpec(
                kind=kind, scenario=scenario, sweep_t=self.GAPS,
                sweep_tdb=tuple(uavtc.cli.DEFAULT_TDB_GRID), m_list=self.M,
                out_dir=Path(kind), workers=self.WORKERS,
            )
            for kind in ("interferer-pmf", "conditional-success")
        ]

    def round(self, state, scratch: Path, rec=None) -> Round:
        out = Round()
        points = len(self.M) * len(self.GAPS)
        round_dir = Path(tempfile.mkdtemp(dir=scratch))
        original = uavtc.analytic.conditional_interferer_pmf

        def timed_pmf(*args, **kwargs):
            result, seconds = _timed(lambda: original(*args, **kwargs))
            out.point_s.append(seconds)
            return result

        uavtc.analytic.conditional_interferer_pmf = timed_pmf
        try:
            for spec in state:
                spec = replace(spec, out_dir=round_dir / spec.out_dir)
                out.attempted += points
                try:
                    summary = uavtc.cli.run(spec)
                except _POINT_FAILURES:
                    out.failed += points
                    out.outputs.append(None)
                    continue
                out.outputs.append(spec.out_dir)
                if rec is not None:
                    rec.count("cli.bytes_written", sum(
                        (spec.out_dir / name).stat().st_size for name in summary["outputs"]))
        finally:
            uavtc.analytic.conditional_interferer_pmf = original
        return out

    def check(self, state, rounds: list[Round]) -> list[str]:
        tables = [[None if d is None else _read_results(d) for d in r.outputs] for r in rounds]
        problems = [f"round {i}: results differ from round 0"
                    for i, t in enumerate(tables) if t != tables[0]]
        pmf_rows, cond_rows = tables[0]
        if pmf_rows is not None:
            problems += self._check_pmf(state[0].scenario.params, pmf_rows)
        if cond_rows is not None:
            problems += self._check_conditional(cond_rows)
        return problems

    def _check_pmf(self, params, rows) -> list[str]:
        problems = []
        n_reps = self.REPLICATIONS
        mu = params.lam * math.pi * params.antenna.r_out ** 2
        for m in self.M:
            for t in self.GAPS:
                tag = f"m={m} t={t}"
                sel = [r for r in rows if int(r["m"]) == m and float(r["t"]) == t]
                n = np.array([int(r["n"]) for r in sel])
                if not sel or not np.array_equal(n, np.arange(len(sel))):
                    problems.append(f"{tag}: pmf rows are not n = 0, 1, ...")
                    continue
                p_an = np.array([float(r["p_analytic"]) for r in sel])
                p_mc = np.array([float(r["p_mc"]) for r in sel])
                p_po = np.array([float(r["p_poisson_independent"]) for r in sel])
                ref = reference.count_pmf(m, params, self.V_MIN, self.V_MAX, t, len(sel) - 1)
                err = float(np.max(np.abs(p_an - ref)))
                if not err <= self.PMF_TOL:
                    problems.append(f"{tag}: analytic pmf off the reference by {err:.3g}")
                poisson = np.exp(n * math.log(mu) - mu - np.array([math.lgamma(i + 1) for i in n]))
                if not np.max(np.abs(p_po - poisson)) <= self.PMF_TOL:
                    problems.append(f"{tag}: independent Poisson column off the reference")
                # total variation, the lumped tail included, against the
                # Bretagnolle-Huber-Carol bound: P{sum |p_hat - p| >= eps} <=
                # 2^K exp(-R eps^2 / 2) over K cells; taken at FALSE_ALARM
                tail_ref = max(0.0, 1.0 - float(ref.sum()))
                tv = 0.5 * (np.sum(np.abs(p_mc - ref)) + abs((1.0 - p_mc.sum()) - tail_ref))
                cells = len(ref) + 1
                bound = 0.5 * math.sqrt(
                    2.0 * (cells * math.log(2.0) - math.log(self.FALSE_ALARM)) / n_reps)
                if not tv <= bound:
                    problems.append(f"{tag}: Monte Carlo pmf total variation {tv:.4g} > {bound:.4g}")
                # the mean count, which a biased sampler moves first
                mean_ref = float(n @ ref)
                sd_ref = math.sqrt(float((n - mean_ref) ** 2 @ ref))
                z = (float(n @ p_mc) - mean_ref) / (sd_ref / math.sqrt(n_reps))
                if not abs(z) <= self.Z_MAX:
                    problems.append(f"{tag}: Monte Carlo mean count off the reference by {z:.3g} se")
        return problems

    def _check_conditional(self, rows) -> list[str]:
        problems = []
        grid = [float(db) for db in uavtc.cli.DEFAULT_TDB_GRID]
        for m in self.M:
            for t in self.GAPS:
                sel = [r for r in rows if int(r["m"]) == m and float(r["t"]) == t]
                p = [float(r["p_mc"]) for r in sel]
                if [float(r["threshold_db"]) for r in sel] != grid:
                    problems.append(f"m={m} t={t}: threshold rows missing or out of order")
                elif any(b > a for a, b in zip(p, p[1:])):
                    problems.append(f"m={m} t={t}: success increases with the threshold")
        return problems


def _read_results(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _rounds_agree(rounds: list[Round]) -> list[str]:
    """Every round repeats the same inputs, so outputs must match bit for bit."""
    return [f"round {i}: outputs differ from round 0"
            for i, r in enumerate(rounds) if r.outputs != rounds[0].outputs]


WORKLOADS = {
    "sinr-analytic": SinrAnalytic(),
    "mc-joint": McJoint(),
    "count-grid": CountGrid(),
}
