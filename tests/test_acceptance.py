"""Acceptance gate: the twelve release criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints the measured values behind its verdict
(visible with ``-s`` or in captured output).

The Monte Carlo fixtures are module-scoped and reused across criteria; all
runs use fixed seeds, so the statistical checks are reproducible verbatim.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from uavtc.analytic import (
    conditional_interferer_pmf,
    footprint_egress_integral,
    joint_success,
    laplace_exponent_jet,
    marginal_success,
    mean_departures,
    retransmission_report,
)
from uavtc.cli import main as cli_main
from uavtc.mobility import containment_cdf, displaced_distance
from uavtc.model import FixedSpeed
from uavtc.numerics import _mul_trunc, jet_exp
from uavtc.simulate import (
    estimate_arrivals_departures,
    estimate_conditional_pmf,
    estimate_conditional_success,
    estimate_joint_success,
)

from helpers import (
    BASELINE_CONFIG,
    ScalarJointOracle,
    baseline_scenario,
    linear_coeffs,
    richardson_mixed_partial,
)

REPLICATIONS = 100_000


@pytest.fixture(scope="module")
def base():
    return baseline_scenario(replications=REPLICATIONS)


@pytest.fixture(scope="module")
def count_pairs(base):
    """Analytic vs Monte Carlo conditional pmfs for m in {5,15}, t in {1,5}."""
    pairs = {}
    for m in (5, 15):
        for t in (1.0, 5.0):
            start = time.time()
            analytic = conditional_interferer_pmf(m, base.params, base.speed, t)
            mc = estimate_conditional_pmf(m, replace(base, t_gap=t), n_max=analytic.n_max)
            pairs[(m, t)] = (analytic, mc, time.time() - start)
    return pairs


@pytest.fixture(scope="module")
def gap_sweep(base):
    """Analytic reports and Monte Carlo estimates across t = 1..10."""
    start = time.time()
    rows = []
    for t in range(1, 11):
        report = retransmission_report(base.params, base.speed, float(t), base.threshold)
        est = estimate_joint_success(replace(base, t_gap=float(t)))
        rows.append((float(t), report, est))
    return rows, time.time() - start


@pytest.fixture(scope="module")
def conditional_runs(base):
    """Second-instant success given the initial count, at the -10 dB threshold."""
    runs = {}
    for m in (5, 15):
        for t in (1.0, 5.0):
            res = estimate_conditional_success(
                m, replace(base, t_gap=t), thresholds=[base.threshold])
            runs[(m, t)] = res[0]
    return runs


def test_01_conditional_pmf_total_variation(count_pairs):
    for (m, t), (analytic, mc, wall) in count_pairs.items():
        tv = 0.5 * float(np.sum(np.abs(analytic.probs - mc.probs))) + \
            0.5 * abs(analytic.tail_mass - mc.tail_mass)
        assert tv < 0.02, f"TV {tv:.4f} at m={m}, t={t}"
        print(f"\nACCEPTANCE 01 PASS: m={m} t={t} TV={tv:.5f} ({wall:.1f}s)")


def test_02_arrival_departure_means(base):
    targets = {(1.0, "arrivals"): 2.0, (5.0, "arrivals"): 8.0,
               (1.0, "departures"): 1.0, (5.0, "departures"): 4.0}
    for t in (1.0, 5.0):
        analytic_arr = footprint_egress_integral(base.params, base.speed, t)
        analytic_dep = mean_departures(5, base.params, base.speed, t)
        assert abs(analytic_arr - targets[(t, "arrivals")]) <= 0.5
        assert abs(analytic_dep - targets[(t, "departures")]) <= 0.5
        mc_arr, mc_dep = estimate_arrivals_departures(5, replace(base, t_gap=t))
        assert abs(analytic_arr - mc_arr.estimate) <= 2.0 * mc_arr.std_error
        assert abs(analytic_dep - mc_dep.estimate) <= 2.0 * mc_dep.std_error
        print(f"\nACCEPTANCE 02 PASS: t={t} arrivals {analytic_arr:.4f} "
              f"(mc {mc_arr.estimate:.4f}±{mc_arr.std_error:.4f}), m=5 departures "
              f"{analytic_dep:.4f} (mc {mc_dep.estimate:.4f}±{mc_dep.std_error:.4f})")


def test_03_pmf_normalization_and_degeneracies(base, count_pairs):
    for (m, t), (analytic, _, _) in count_pairs.items():
        total = float(np.sum(analytic.probs)) + analytic.tail_mass
        assert abs(total - 1.0) < 1e-9, f"sum {total} at m={m}, t={t}"
    static = baseline_scenario(p_mobile=0.0)
    pmf_static = conditional_interferer_pmf(7, static.params, static.speed, 2.0)
    arrivals = footprint_egress_integral(static.params, static.speed, 2.0)
    assert arrivals == 0.0
    assert abs(pmf_static.probs[7] - 1.0) < 1e-12
    pmf_frozen = conditional_interferer_pmf(7, base.params, base.speed, 0.0)
    assert abs(pmf_frozen.probs[7] - 1.0) < 1e-12
    print("\nACCEPTANCE 03 PASS: all pmfs normalized to 1e-9; "
          "p=0 and t=0 give exact point masses")


def test_04_joint_success_vs_monte_carlo(gap_sweep):
    rows, wall = gap_sweep
    for t, report, est in rows:
        checks = [
            ("joint", report.p_joint, est.joint),
            ("marginal_0", report.p_marginal_0, est.marginal_0),
            ("marginal_t", report.p_marginal_t, est.marginal_t),
            ("retx", report.p_retx_given_fail, est.retx_given_fail),
        ]
        for name, analytic, mc in checks:
            bound = 3.0 * mc.std_error + report.quadrature_error_bound
            assert abs(analytic - mc.estimate) < bound, (
                f"{name} at t={t}: analytic {analytic:.5f} vs "
                f"mc {mc.estimate:.5f} ± {mc.std_error:.5f}")
    assert wall < 600.0, f"sweep took {wall:.0f}s"
    print(f"\nACCEPTANCE 04 PASS: all quantities within 3 SE for t=1..10 ({wall:.0f}s)")


def test_05_independence_recovery(gap_sweep):
    rows, _ = gap_sweep
    retx = [report.p_retx_given_fail for _, report, _ in rows]
    for earlier, later in zip(retx, retx[1:]):
        assert later >= earlier - 1e-4
    gap_first = abs(rows[0][1].p_marginal_t - retx[0])
    gap_last = abs(rows[-1][1].p_marginal_t - retx[-1])
    assert gap_last < gap_first
    print(f"\nACCEPTANCE 05 PASS: retry success non-decreasing "
          f"({retx[0]:.5f} -> {retx[-1]:.5f}); gap to marginal "
          f"{gap_first:.5f} -> {gap_last:.5f}")


def test_06_failure_conditioning_never_helps(gap_sweep):
    rows, _ = gap_sweep
    for t, report, _ in rows:
        assert report.p_retx_given_fail <= report.p_marginal_t + 1e-9, f"t={t}"
    print("\nACCEPTANCE 06 PASS: retry success <= unconditional marginal at every t")


def test_07_conditioning_direction_reversal(conditional_runs):
    few_early, few_late = conditional_runs[(5, 1.0)], conditional_runs[(5, 5.0)]
    many_early, many_late = conditional_runs[(15, 1.0)], conditional_runs[(15, 5.0)]
    drop = few_early.estimate - few_late.estimate
    drop_se = math.hypot(few_early.std_error, few_late.std_error)
    rise = many_late.estimate - many_early.estimate
    rise_se = math.hypot(many_early.std_error, many_late.std_error)
    assert drop > 2.0 * drop_se, f"m=5 drop {drop:.4f} vs 2se {2*drop_se:.4f}"
    assert rise > 2.0 * rise_se, f"m=15 rise {rise:.4f} vs 2se {2*rise_se:.4f}"
    print(f"\nACCEPTANCE 07 PASS: m=5 success falls {few_early.estimate:.4f} -> "
          f"{few_late.estimate:.4f}; m=15 rises {many_early.estimate:.4f} -> "
          f"{many_late.estimate:.4f}; both beyond 2 SE")


def test_08_jet_derivatives_match_finite_differences():
    worst = 0.0
    for k in (1, 2, 3):
        sc = baseline_scenario(k=k)
        oracle = ScalarJointOracle(sc.params, 10.0, sc.t_gap, sc.threshold)
        exponent = laplace_exponent_jet(sc.params, sc.speed, sc.t_gap, sc.threshold)
        orders = (k - 1, k - 1)
        noise = linear_coeffs(orders, 0.0, oracle.noise_rate, oracle.noise_rate)
        full = _mul_trunc(jet_exp(noise), jet_exp(exponent))
        for i in range(k):
            for j in range(k):
                fd = richardson_mixed_partial(oracle, i, j) / (
                    math.factorial(i) * math.factorial(j))
                rel = abs(float(full[i, j]) - fd) / abs(fd)
                worst = max(worst, rel)
                assert rel < 1e-5, f"k={k} coeff ({i},{j}) rel {rel:.2e}"
    print(f"\nACCEPTANCE 08 PASS: jet coefficients match finite differences, "
          f"worst rel {worst:.2e} over k in {{1,2,3}}")


def test_09_displacement_invariance():
    worst = 0.0
    for k in (1, 2):
        sc = baseline_scenario(k=k)
        for t in (1.0, 5.0):
            m0 = marginal_success(sc.params, sc.speed, t, sc.threshold, "time0")
            mt = marginal_success(sc.params, sc.speed, t, sc.threshold, "timeT")
            worst = max(worst, abs(m0 - mt))
            assert abs(m0 - mt) < 1e-6, f"k={k} t={t}: {m0} vs {mt}"
    print(f"\nACCEPTANCE 09 PASS: marginals agree across instants, worst gap {worst:.2e}")


def test_10_noise_only_closed_form():
    sc = baseline_scenario(**{"lambda": 0.0}, k=1, noise=1e-6)
    p = sc.params
    rate = sc.threshold * p.height**p.alpha * p.noise / (p.fading.omega * p.antenna.g_main)
    expected = math.exp(-2.0 * rate)
    analytic = joint_success(p, sc.speed, sc.t_gap, sc.threshold)
    assert abs(analytic - expected) < 1e-10
    est = estimate_joint_success(sc)
    assert abs(est.joint.estimate - expected) <= 3.0 * est.joint.std_error
    print(f"\nACCEPTANCE 10 PASS: noise-only joint success {analytic:.6f} matches "
          f"exp(-2c)={expected:.6f} (mc {est.joint.estimate:.6f}"
          f"±{est.joint.std_error:.6f})")


def test_11_containment_against_direct_sampling():
    v, t = 10.0, 1.0
    speed = FixedSpeed(v)
    n = 10_000_000
    tol = 4.0 / math.sqrt(n)
    rng = np.random.default_rng(2024)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    grid = []
    for r in (15.0, 25.0):
        grid += [(r, 0.0), (r, r - v * t), (r, r + v * t)]
    grid += [(15.0, 4.0), (15.0, 9.0), (15.0, 14.0), (15.0, 19.0), (15.0, 23.0),
             (25.0, 6.0), (25.0, 12.0), (25.0, 18.0), (25.0, 22.0), (25.0, 24.0),
             (25.0, 28.0), (25.0, 31.0), (25.0, 34.0), (15.0, 30.0)]
    assert len(grid) == 20
    worst = 0.0
    for r, x in grid:
        d = displaced_distance(x, v, theta, t)
        freq = float(np.mean(d <= r))
        diff = abs(containment_cdf(r, x, speed, t) - freq)
        worst = max(worst, diff)
        assert diff < tol, f"(r={r}, x={x}): diff {diff:.2e} vs tol {tol:.2e}"
    print(f"\nACCEPTANCE 11 PASS: containment within {tol:.1e} of 1e7-draw "
          f"frequencies on 20 points (worst {worst:.1e})")


def test_12_compare_is_deterministic_across_workers(tmp_path):
    cfg = dict(BASELINE_CONFIG)
    cfg["replications"] = 2000
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(cfg))
    runner = CliRunner()
    outputs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        result = runner.invoke(cli_main, [
            "compare", "--config", str(config_path), "--m", "5",
            "--sweep-t", "1,2", "--workers", str(workers), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 12 PASS: compare output byte-identical for 1 vs 4 workers")
