"""Analytic pmf / success probability tests against independent oracles."""

import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from uavtc import analytic
from uavtc.analytic import (
    conditional_interferer_pmf,
    footprint_egress_integral,
    footprint_ingress_integral,
    joint_success,
    marginal_success,
    mean_departures,
    retransmission_report,
    success_report,
    success_reports,
    unconditional_interferer_pmf,
)
from uavtc.mobility import containment_cdf
from uavtc.model import FixedSpeed, TabulatedSpeed, UniformSpeed
from uavtc.numerics import QuadratureSpec

import helpers
from helpers import (
    ScalarJointOracle,
    assert_reports_match,
    baseline_scenario,
    count_passes,
    count_radial_integrals,
    pmf_convolution_oracle,
    richardson_mixed_partial,
)


@pytest.fixture(scope="module")
def base():
    return baseline_scenario()


@pytest.fixture(scope="module")
def baseline_report(base):
    return retransmission_report(base.params, base.speed, base.t_gap, base.threshold)


# ---------------------------------------------------------------------------
# ingress / egress integrals
# ---------------------------------------------------------------------------


def test_ingress_matches_frozen_oracle(base):
    got = footprint_ingress_integral(base.params, base.speed, 1.0)
    assert got == pytest.approx(helpers.INGRESS_T1, abs=1e-8)
    assert footprint_ingress_integral(base.params, base.speed, 5.0) == pytest.approx(
        helpers.INGRESS_T5, abs=1e-12)


def test_egress_matches_frozen_oracle(base):
    got = footprint_egress_integral(base.params, base.speed, 1.0)
    assert got == pytest.approx(helpers.ARRIVALS_T1, abs=1e-7)
    assert footprint_egress_integral(base.params, base.speed, 5.0) == pytest.approx(
        helpers.ARRIVALS_T5, rel=1e-9)


def test_mean_departures_matches_frozen_oracle(base):
    assert mean_departures(5, base.params, base.speed, 1.0) == pytest.approx(
        helpers.DEPARTURES_T1_M5, abs=1e-8)
    assert mean_departures(5, base.params, base.speed, 5.0) == pytest.approx(
        helpers.DEPARTURES_T5_M5, abs=1e-12)


def test_ingress_trivial_cases(base):
    assert footprint_ingress_integral(base.params, base.speed, 0.0) == 1.0
    assert footprint_ingress_integral(base.params, FixedSpeed(0.0), 7.0) == 1.0


def test_egress_trivial_cases(base):
    assert footprint_egress_integral(base.params, FixedSpeed(0.0), 7.0) == 0.0
    zero_density = baseline_scenario(**{"lambda": 0.0})
    assert footprint_egress_integral(zero_density.params, zero_density.speed, 1.0) == 0.0
    static = baseline_scenario(p_mobile=0.0)
    assert footprint_egress_integral(static.params, static.speed, 1.0) == 0.0


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("speed", [FixedSpeed(10.0), UniformSpeed(5.0, 15.0)])
def test_count_rates_reject_bad_gaps(base, speed, t):
    for rate in (footprint_ingress_integral, footprint_egress_integral):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            rate(base.params, speed, t)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        mean_departures(5, base.params, speed, t)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        conditional_interferer_pmf(5, base.params, speed, t)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_success_rejects_bad_gaps(base, t):
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        joint_success(base.params, base.speed, t, base.threshold)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        retransmission_report(base.params, base.speed, t, base.threshold)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_success_rejects_bad_thresholds(base, threshold):
    # nan and inf used to end in "integrand is not finite", naming no threshold
    with pytest.raises(ValueError, match="threshold must be finite and >= 0, got"):
        joint_success(base.params, base.speed, 1.0, threshold)
    for which in ("time0", "timeT"):
        with pytest.raises(ValueError, match="threshold must be finite and >= 0, got"):
            marginal_success(base.params, base.speed, 1.0, threshold, which)


def test_success_at_zero_threshold_is_one(base):
    assert joint_success(base.params, base.speed, 1.0, 0.0) == 1.0
    assert marginal_success(base.params, base.speed, 1.0, 0.0, "timeT") == 1.0


@pytest.mark.parametrize("speed", [
    FixedSpeed(10.0),
    UniformSpeed(5.0, 15.0),
    TabulatedSpeed([[0.0, 0.0], [6.0, 0.2], [12.0, 0.05]]),
])
@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_flow_balance_identity(base, speed, t):
    # stationarity of the PPP: expected arrivals equal expected departures
    # of a full-intensity footprint, for every speed law and gap
    p = base.params
    ingress = footprint_ingress_integral(p, speed, t)
    egress = footprint_egress_integral(p, speed, t)
    expected = p.lam * p.p_mobile * math.pi * p.antenna.r_out**2 * (1.0 - ingress)
    assert egress == pytest.approx(expected, rel=1e-8, abs=1e-10)


def _cosine_panels(f, a, b, cuts, n=20):
    """Fixed-node Legendre sum of f over [a, b], one panel between cuts.

    Each panel is mapped through x = lo + half*(1 - cos(u)), which smooths
    the square-root behaviour of the containment law at its kinks.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    u = 0.5 * math.pi * (nodes + 1.0)
    edges = sorted({a, b, *(c for c in cuts if a < c < b)})
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for ui, wi in zip(u, weights):
            total += 0.5 * math.pi * wi * half * math.sin(ui) * f(lo + half * (1.0 - math.cos(ui)))
    return total


@pytest.mark.parametrize("speed", [
    FixedSpeed(10.0),
    UniformSpeed(5.0, 15.0),
    TabulatedSpeed([[0.0, 0.0], [6.0, 0.2], [12.0, 0.05]]),
])
@pytest.mark.parametrize("t", [0.5, 1.0, 3.0, 5.0])
def test_rates_match_containment_integrals(base, speed, t):
    # the rates as radial integrals of the single-node containment law; the
    # gaps straddle 2r/v, where a node at speed 10 can no longer stay inside
    p = base.params
    r = p.antenna.r_out
    tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2000)
    speeds = (speed.atom,) if speed.atom is not None else speed.pdf_breakpoints
    cuts = {r, *(abs(r - v * t) for v in speeds), *(r + v * t for v in speeds)}

    def cdf(x):
        return containment_cdf(r, x, speed, t, tight)

    stay = _cosine_panels(lambda x: cdf(x) * 2.0 * x / (r * r), 0.0, r, cuts)
    arrivals = 2.0 * math.pi * p.lam * p.p_mobile * _cosine_panels(
        lambda x: cdf(x) * x, r, r + speed.support_max * t, cuts)
    assert footprint_ingress_integral(p, speed, t) == pytest.approx(stay, abs=1e-9)
    assert footprint_egress_integral(p, speed, t) == pytest.approx(arrivals, abs=1e-9)


_DENSITIES = {
    "uniform-5-15": UniformSpeed(5.0, 15.0),
    "uniform-0-40": UniformSpeed(0.0, 40.0),
    "table-3": TabulatedSpeed([[0.0, 0.0], [6.0, 0.2], [12.0, 0.05]]),
    "table-5": TabulatedSpeed([[2.0, 0.0], [8.0, 0.1], [15.0, 0.06], [25.0, 0.03], [40.0, 0.0]]),
}


@pytest.mark.parametrize("name", list(_DENSITIES))
@pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0, 5.0, 20.0])
def test_stay_probability_matches_fixed_node_oracle(base, name, t):
    # the sum over the density's pieces against a 64-node Legendre sum and,
    # at small gaps, the moment series; the gaps run past 2r/v_max
    speed = _DENSITIES[name]
    r = base.params.antenna.r_out
    stay = footprint_ingress_integral(base.params, speed, t)
    assert stay == pytest.approx(helpers.stay_probability_oracle(speed, r, t), abs=1e-13)
    if t <= 1e-3:
        assert stay == pytest.approx(helpers.stay_probability_series(speed, r, t), abs=1e-13)


@pytest.mark.parametrize("table, t", [
    ([[40.0, 0.0], [40.001, 1.0]], 1e-9),
    ([[100.0, 0.0], [100.001, 1.0]], 0.1),
])
def test_stay_probability_on_a_narrow_sloped_piece(base, table, t):
    # on these pieces the left moment first - a * zeroth cancels to errors
    # of 2.3e-11 and 1.0e-9; a rule in acos u over the piece itself keeps
    # them under 1e-13
    speed = TabulatedSpeed(table)
    r = base.params.antenna.r_out
    stay = footprint_ingress_integral(base.params, speed, t)
    assert stay == pytest.approx(helpers.stay_probability_oracle(speed, r, t), abs=1e-13)


# E_V[L(V t)] to 40 digits, from scripts/stay_reference.py (mpmath quadrature
# over the law's own knots, r = 25)
_STAY_REFERENCE = [
    (UniformSpeed(5.0, 15.0), 1.0, "0.7474939509099344620972409686887050949185"),
    (UniformSpeed(5.0, 15.0), 5.0, "0.08016333823301070825012073225652351751181"),
    (UniformSpeed(0.0, 40.0), 1e-6, "0.9999994907041821614732339894510330907613"),
    (TabulatedSpeed([[100.0, 0.0], [100.001, 1.0]]), 0.1,
     "0.7470584147517458721987441813599835158039"),
    (TabulatedSpeed([[40.0, 0.0], [40.001, 1.0]]), 1e-9,
     "0.9999999989813913876846012602059708961021"),
    # a piece across u = 1/4
    (TabulatedSpeed([[10.0, 1.0], [10.002, 0.0], [30.0, 0.5]]), 0.8,
     "0.5373806985053818765926345799644535075876"),
    # a piece from u near 0 clipped at u = 1, whose width in acos u an asin would lose
    (TabulatedSpeed([[0.0, 0.28763462856463984], [0.0028413754782673478, 0.0],
                     [9.38269803636661, 0.15382832542525438]]), 6.867234857197809,
     "0.1509156218698489918053621001829095753886"),
    # steep narrow pieces that closed-form moments got 2.5e-14 off
    (TabulatedSpeed([[106.39812722617701, 0.0], [106.78438440687569, 0.6681452373581896],
                     [106.7887357997123, 0.0], [106.7959749714415, 0.0]]), 0.46279027120528743,
     "0.001738436458625873990737505682683583472293"),
    # a spike whose width in u underflows or keeps few digits, under a density near the float limit
    *((TabulatedSpeed([[0.0, 0.0], [1e-307, 1e307], [2e-307, 0.0], [1.0, 0.0]]), t,
       "1.000000000000000020097704443424897951706") for t in (5e-17, 5e-15, 1e-12, 1e-5)),
]


@pytest.mark.parametrize("speed, t, reference", _STAY_REFERENCE)
def test_stay_probability_matches_40_digit_reference(base, speed, t, reference):
    stay = footprint_ingress_integral(base.params, speed, t)
    assert abs(stay - float(reference)) <= 1e-15


@pytest.mark.parametrize("t", [1e-16, 1e-12, 1.0])
def test_stay_probability_with_a_vanishing_knot_gap(base, t):
    # the first piece's width in u underflows to 0 at t = 1e-16 and is
    # subnormal at 1e-12, where dividing by it raised or gave NaN
    speed = TabulatedSpeed([[0.0, 0.0], [1e-306, 1.0], [1.0, 1.0]])
    r = base.params.antenna.r_out
    stay = footprint_ingress_integral(base.params, speed, t)
    assert stay == pytest.approx(helpers.stay_probability_oracle(speed, r, t), abs=1e-13)
    pmf = conditional_interferer_pmf(5, base.params, speed, t)
    assert np.all(np.isfinite(pmf.probs)) and math.isfinite(pmf.tail_mass)


def test_stay_probability_at_vanishing_gaps(base):
    # scale = 2r/t overflows at the smallest gaps; the stay probability is 1 there
    for t in (5e-324, 1e-310, 1e-20):
        assert footprint_ingress_integral(base.params, UniformSpeed(0.0, 40.0), t) == 1.0
    assert footprint_ingress_integral(base.params, UniformSpeed(0.0, 40.0), 1e-15) < 1.0


@pytest.mark.parametrize("speed", [
    UniformSpeed(5.0, 15.0),
    TabulatedSpeed([[0.0, 0.0], [6.0, 0.2], [12.0, 0.05]]),
])
@pytest.mark.parametrize("t", [1.0, 5.0])
def test_count_pmf_runs_no_quadrature(base, monkeypatch, speed, t):
    passes = count_passes(monkeypatch)
    conditional_interferer_pmf(5, base.params, speed, t)
    assert passes == []
    assert "integrate_array_detailed" not in footprint_ingress_integral.__code__.co_names


# ---------------------------------------------------------------------------
# conditional count pmf
# ---------------------------------------------------------------------------


def test_pmf_accepts_numpy_integers(base):
    via_numpy = conditional_interferer_pmf(np.int64(5), base.params, base.speed, 1.0)
    plain = conditional_interferer_pmf(5, base.params, base.speed, 1.0)
    assert type(via_numpy.m) is int and via_numpy.m == 5
    np.testing.assert_array_equal(via_numpy.probs, plain.probs)


@pytest.mark.parametrize("m", [5.0, 2.5, -1, "5"])
def test_pmf_rejects_non_integer_counts(base, m):
    with pytest.raises(ValueError, match="non-negative integer"):
        conditional_interferer_pmf(m, base.params, base.speed, 1.0)
    # mean_departures(2.5, ...) used to return 0.506
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        mean_departures(m, base.params, base.speed, 1.0)


@pytest.mark.parametrize("m", [0, 1, 5, 15])
@pytest.mark.parametrize("t", [1.0, 5.0])
def test_pmf_matches_convolution_oracle(base, m, t):
    pmf = conditional_interferer_pmf(m, base.params, base.speed, t)
    stay = 1.0 - base.params.p_mobile + base.params.p_mobile * \
        footprint_ingress_integral(base.params, base.speed, t)
    arrivals = footprint_egress_integral(base.params, base.speed, t)
    oracle = pmf_convolution_oracle(m, stay, arrivals, pmf.n_max)
    np.testing.assert_allclose(pmf.probs, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [0, 1, 5, 15])
@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
def test_pmf_normalization_grid(base, m, t):
    pmf = conditional_interferer_pmf(m, base.params, base.speed, t)
    assert np.all(pmf.probs >= 0.0)
    assert float(np.sum(pmf.probs)) + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)
    assert pmf.tail_mass < 1e-9
    assert pmf.m == m and pmf.t == t


def test_pmf_degenerate_static_population():
    frozen = baseline_scenario(p_mobile=0.0, **{"lambda": 0.0})
    pmf = conditional_interferer_pmf(6, frozen.params, frozen.speed, 3.0)
    assert pmf.probs[6] == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(pmf.probs[:6])) == pytest.approx(0.0, abs=1e-12)


def test_pmf_degenerate_zero_gap(base):
    pmf = conditional_interferer_pmf(8, base.params, base.speed, 0.0)
    assert pmf.probs[8] == pytest.approx(1.0, abs=1e-12)
    assert pmf.mean() == pytest.approx(8.0, abs=1e-9)


def test_pmf_all_mobile_from_empty_footprint():
    sc = baseline_scenario(p_mobile=1.0, **{"lambda": 0.0})
    pmf = conditional_interferer_pmf(0, sc.params, FixedSpeed(0.0), 4.0)
    assert pmf.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_pmf_mean_identity(base):
    for m, t in [(5, 1.0), (15, 1.0), (5, 5.0)]:
        pmf = conditional_interferer_pmf(m, base.params, base.speed, t)
        expected = m - mean_departures(m, base.params, base.speed, t) + \
            footprint_egress_integral(base.params, base.speed, t)
        # mean of the truncated vector understates by at most tail * n_max
        assert pmf.mean() == pytest.approx(expected, abs=1e-6)


def test_pmf_empty_history_is_pure_poisson(base):
    pmf = conditional_interferer_pmf(0, base.params, base.speed, 1.0)
    arrivals = footprint_egress_integral(base.params, base.speed, 1.0)
    expected = stats.poisson.pmf(np.arange(pmf.n_max + 1), arrivals)
    np.testing.assert_allclose(pmf.probs, expected, rtol=0, atol=1e-12)


def test_pmf_converges_to_unconditional_poisson(base):
    reference = unconditional_interferer_pmf(base.params)
    n = reference.n_max

    def tv(t):
        pmf = conditional_interferer_pmf(15, base.params, base.speed, t, n_max=n)
        return 0.5 * float(np.sum(np.abs(pmf.probs - reference.probs))) + \
            0.5 * abs(pmf.tail_mass - reference.tail_mass)

    # the static fraction never forgets the conditioning, so the distance
    # plateaus at a positive level rather than vanishing
    distances = [tv(t) for t in (1.0, 2.0, 5.0, 10.0, 50.0)]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(distances, distances[1:]))
    assert distances[-1] < distances[0]


def test_pmfs_reject_negative_n_max(base):
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        conditional_interferer_pmf(5, base.params, base.speed, 1.0, n_max=-1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        unconditional_interferer_pmf(base.params, n_max=-1)


@pytest.mark.parametrize("n_max", [2.5, 5.0, "5"])
def test_pmfs_reject_fractional_n_max(base, n_max):
    # 2.5 used to raise a bare TypeError from inside the arithmetic
    with pytest.raises(ValueError, match="n_max must be an integer"):
        conditional_interferer_pmf(5, base.params, base.speed, 1.0, n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        unconditional_interferer_pmf(base.params, n_max=n_max)


def test_pmf_takes_a_numpy_integer_n_max(base):
    pmf = conditional_interferer_pmf(5, base.params, base.speed, 1.0, n_max=np.int64(7))
    assert pmf.n_max == 7
    np.testing.assert_array_equal(
        pmf.probs, conditional_interferer_pmf(5, base.params, base.speed, 1.0, n_max=7).probs)


def test_pmf_explicit_n_max_sets_the_length(base):
    for n_max in (0, 3, 40):
        pmf = conditional_interferer_pmf(5, base.params, base.speed, 1.0, n_max=n_max)
        assert pmf.n_max == n_max
        assert pmf.tail_mass == pytest.approx(max(0.0, 1.0 - float(np.sum(pmf.probs))), abs=1e-12)


@pytest.mark.parametrize("speed", [FixedSpeed(10.0), UniformSpeed(5.0, 15.0)])
@pytest.mark.parametrize("t", [1.0, 5.0])
def test_poisson_mixture_of_conditional_pmfs_is_the_stationary_count(base, speed, t):
    # a Poisson(lambda pi r^2) count at time 0 mixed over the conditional
    # law at time t gives the stationary Poisson count again
    reference = unconditional_interferer_pmf(base.params)
    mu = base.params.lam * math.pi * base.params.antenna.r_out**2
    m_values = np.arange(int(mu + 20.0 * math.sqrt(mu)) + 20)
    weights = stats.poisson.pmf(m_values, mu)
    mixture = sum(
        w * conditional_interferer_pmf(m, base.params, speed, t, n_max=reference.n_max).probs
        for m, w in zip(m_values, weights))
    np.testing.assert_allclose(mixture, reference.probs, rtol=0, atol=1e-12)


def test_unconditional_pmf_is_poisson(base):
    pmf = unconditional_interferer_pmf(base.params)
    mean = base.params.lam * math.pi * base.params.antenna.r_out**2
    expected = stats.poisson.pmf(np.arange(pmf.n_max + 1), mean)
    np.testing.assert_allclose(pmf.probs, expected, rtol=0, atol=1e-12)
    assert pmf.mean() == pytest.approx(mean, abs=1e-6)


# ---------------------------------------------------------------------------
# joint / marginal success
# ---------------------------------------------------------------------------


def test_marginals_agree_across_instants():
    sc = baseline_scenario(k=1)
    m0 = marginal_success(sc.params, sc.speed, 1.0, sc.threshold, "time0")
    mt = marginal_success(sc.params, sc.speed, 1.0, sc.threshold, "timeT")
    assert mt == pytest.approx(m0, abs=1e-6)


def test_success_report_internal_consistency(baseline_report):
    rep = baseline_report
    assert 0.0 < rep.p_joint < 1.0
    assert rep.p_joint <= min(rep.p_marginal_0, rep.p_marginal_t) + 1e-9
    assert rep.p_independent_joint == pytest.approx(
        rep.p_marginal_0 * rep.p_marginal_t, rel=1e-12)
    expected_retx = (rep.p_marginal_t - rep.p_joint) / (1.0 - rep.p_marginal_0)
    assert rep.p_retx_given_fail == pytest.approx(expected_retx, rel=1e-9)
    assert rep.p_retx_given_fail <= rep.p_marginal_t + 1e-9
    assert 0.0 <= rep.quadrature_error_bound < 1e-6


def test_success_report_is_slotted_and_survives_pickle_and_replace(baseline_report):
    assert not hasattr(baseline_report, "__dict__")
    assert pickle.loads(pickle.dumps(baseline_report)) == baseline_report
    changed = dataclasses.replace(baseline_report, p_joint=0.25)
    assert changed.p_joint == 0.25
    assert changed.p_marginal_0 == baseline_report.p_marginal_0


def test_positive_correlation_at_short_gap(baseline_report):
    # shared geometry makes consecutive successes positively associated
    assert baseline_report.p_joint > baseline_report.p_independent_joint


def test_joint_approaches_independence_at_large_gap(base):
    rep = retransmission_report(base.params, base.speed, 100.0, base.threshold)
    assert rep.p_joint == pytest.approx(rep.p_independent_joint, abs=0.01)


@pytest.mark.parametrize("k", [1, 2])
def test_fixed_speed_report_is_constant_once_no_node_can_stay(k):
    # from v t = 2 r_out = 50 on no node is in the footprint at both instants
    sc = baseline_scenario(k=k)
    at_5 = success_report(sc.params, sc.speed, 5.0, sc.threshold)
    for t in (10.0, 1e4, 1e12, 1e300):
        assert success_report(sc.params, sc.speed, t, sc.threshold) == at_5, t


@pytest.mark.parametrize("t", [1e4, 1e12])
def test_speed_density_report_at_long_gaps_matches_the_gap_10_report(base, t):
    # every speed in [5, 15] moves a node 2 r_out or more from t = 10 on
    speed = UniformSpeed(5.0, 15.0)
    at_10 = success_report(base.params, speed, 10.0, base.threshold)
    got = success_report(base.params, speed, t, base.threshold)
    assert_reports_match([got], [at_10], at_10.quadrature_error_bound)


def test_noise_only_closed_form_rayleigh():
    sc = baseline_scenario(**{"lambda": 0.0}, k=1, noise=1e-6)
    p = sc.params
    rate = sc.threshold * p.height**p.alpha * p.noise / (p.fading.omega * p.antenna.g_main)
    expected = math.exp(-2.0 * rate)
    got = joint_success(p, sc.speed, 1.0, sc.threshold)
    assert got == pytest.approx(expected, abs=1e-10)
    # default noise level too
    sc2 = baseline_scenario(**{"lambda": 0.0}, k=1)
    p2 = sc2.params
    rate2 = sc2.threshold * p2.height**p2.alpha * p2.noise / (p2.fading.omega * p2.antenna.g_main)
    assert joint_success(p2, sc2.speed, 1.0, sc2.threshold) == pytest.approx(
        math.exp(-2.0 * rate2), abs=1e-10)


def test_noise_only_closed_form_gamma_shape_two():
    # Gamma(2) fading with no interference: the truncated-sum construction
    # must reproduce [e^{-c}(1+c)]^2 exactly
    sc = baseline_scenario(**{"lambda": 0.0}, k=2, noise=2e-6)
    p = sc.params
    c = sc.threshold * p.height**p.alpha * p.noise / (p.fading.omega * p.antenna.g_main)
    expected = (math.exp(-c) * (1.0 + c)) ** 2
    assert joint_success(p, sc.speed, 1.0, sc.threshold) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_gamma_factor_coefficients_are_the_binomial_series(k):
    # (1 - q s)^(-k) around s = -1 has coefficients C(k+i-1, i) (1+q)^(-k) (q/(1+q))^i
    p = baseline_scenario(k=k).params
    ant = p.antenna
    threshold = 0.1
    d2 = np.array([0.0, 0.25, 1.0, 0.99, 1.01, 4.0]) * ant.r_in ** 2
    d2 = np.append(d2, [ant.r_out ** 2, 1.5 * ant.r_out ** 2])
    h2 = p.height ** 2
    gain = np.where(d2 <= ant.r_in ** 2, ant.g_main, np.where(d2 <= ant.r_out ** 2, ant.g_side, 0.0))
    q = threshold / ant.g_main * gain * (h2 / (h2 + d2)) ** (p.alpha / 2.0)
    ctx = analytic._Exponent(p, [threshold])
    # the recurrence the bracket runs, at the q of the only threshold
    powers = ctx._powers(ctx.attenuation(d2) * ctx.scale[0])
    got = np.stack([power.copy() for power in powers], axis=-1) * ctx.binom
    assert got.shape == (len(d2), k)
    for n, qn in enumerate(q):
        for i in range(k):
            expect = math.comb(k + i - 1, i) * (1.0 + qn) ** -k * (qn / (1.0 + qn)) ** i
            assert got[n, i] == pytest.approx(expect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exponent_jet_is_a_k_by_k_array(k):
    # one (k+1) x (k+1) array per threshold, whose [1:, 1:] block is the joint exponent
    sc = baseline_scenario(k=k)
    exponents, err = analytic._exponent_detailed(sc.params, sc.speed, 1.0, [sc.threshold])
    assert type(exponents) is np.ndarray and exponents.shape == (1, k + 1, k + 1)
    assert exponents[0, 1:, 1:].shape == (k, k) and 0.0 <= err < 1e-8


def test_exponent_jet_vanishes_without_interferers():
    sc = baseline_scenario(**{"lambda": 0.0})
    exponents, err = analytic._exponent_detailed(sc.params, sc.speed, 1.0, [sc.threshold])
    assert np.all(exponents == 0.0) and err == 0.0


def test_retransmission_undefined_when_failures_vanish():
    sc = baseline_scenario(**{"lambda": 0.0}, k=1, threshold_db=-200.0)
    with pytest.raises(ValueError, match="vanishing"):
        retransmission_report(sc.params, sc.speed, 1.0, sc.threshold)


def test_reports_at_vanishing_gaps_equal_the_static_report(base):
    # vt underflows or the direction cuts' quotients overflow to +-inf, so the
    # bracket's one direction panel is [0, pi], as at t = 0; a density's bound
    # adds the estimate of its integral over v
    names = ("p_joint", "p_marginal_0", "p_marginal_t", "p_retx_given_fail", "p_independent_joint")
    for speed in (FixedSpeed(10.0), FixedSpeed(1e-300), UniformSpeed(0.0, 40.0),
                  UniformSpeed(5.0, 15.0)):
        static = success_report(base.params, speed, 0.0, base.threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (5e-324, 1e-310, 1e-20):
                report = success_report(base.params, speed, t, base.threshold)
                for name in names:
                    assert getattr(report, name) == getattr(static, name), (speed, t, name)
                assert report.quadrature_error_bound >= static.quadrature_error_bound


def test_joint_success_respects_marginal_bound_on_grid(base):
    for t in (0.5, 2.0):
        rep = retransmission_report(base.params, base.speed, t, base.threshold)
        assert rep.p_joint <= min(rep.p_marginal_0, rep.p_marginal_t) + 1e-9
        assert rep.p_retx_given_fail <= rep.p_marginal_t + 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_speed_density_success_matches_mixed_oracle(k):
    # the scalar oracle supports one speed; a density mixes its exponents
    # over Legendre nodes in v, split where vt = r_out - r_in
    sc = baseline_scenario(k=k)
    t = 1.0
    speed = UniformSpeed(5.0, 15.0)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    oracles, mix = [], []
    for lo, hi in ((5.0, 10.0), (10.0, 15.0)):
        half = 0.5 * (hi - lo)
        for u, w in zip(nodes, weights):
            oracles.append(ScalarJointOracle(sc.params, lo + half * (1.0 + u), t, sc.threshold))
            mix.append(w * half * speed.pdf(lo + half * (1.0 + u)))
    noise_rate = oracles[0].noise_rate

    def laplace(s1, s2):
        exponent = sum(w * o.exponent(s1, s2) for o, w in zip(oracles, mix))
        return math.exp(noise_rate * (s1 + s2) + exponent)

    def success(n1, n2, at):
        return sum(richardson_mixed_partial(laplace, i, j, at=at) /
                   (math.factorial(i) * math.factorial(j))
                   for i in range(n1) for j in range(n2))

    assert joint_success(sc.params, speed, t, sc.threshold) == pytest.approx(
        success(k, k, (-1.0, -1.0)), abs=1e-6)
    assert marginal_success(sc.params, speed, t, sc.threshold, "timeT") == pytest.approx(
        success(1, k, (0.0, -1.0)), abs=1e-6)
    assert marginal_success(sc.params, speed, t, sc.threshold, "time0") == pytest.approx(
        success(k, 1, (-1.0, 0.0)), abs=1e-6)


def test_report_uses_stationary_marginal(baseline_report):
    assert baseline_report.p_marginal_t == baseline_report.p_marginal_0


@pytest.mark.parametrize("t", [1.0, 3.0])
def test_low_altitude_joint_matches_fine_oracle(t):
    # at h=2 the path loss is singular close to the real direction axis;
    # the pole-doubling direction panels keep the rule accurate there.  The
    # report's time-0 marginal and the time-t marginal come out of the same
    # mobile integral as the joint, so they are checked there too.
    sc = baseline_scenario(k=1, height=2.0)
    oracle = ScalarJointOracle(sc.params, 10.0, t, sc.threshold, n_leg=200)
    assert joint_success(sc.params, sc.speed, t, sc.threshold) == pytest.approx(
        oracle(-1.0, -1.0), abs=1e-10)
    report = retransmission_report(sc.params, sc.speed, t, sc.threshold)
    assert report.p_marginal_0 == pytest.approx(oracle(-1.0, 0.0), abs=1e-10)
    assert marginal_success(sc.params, sc.speed, t, sc.threshold, "timeT") == pytest.approx(
        oracle(0.0, -1.0), abs=1e-10)


def test_fixed_speed_report_is_one_radial_integral(base, monkeypatch):
    calls = count_radial_integrals(monkeypatch)
    retransmission_report(base.params, base.speed, 1.0, base.threshold)
    assert len(calls) == 1


@pytest.mark.parametrize("t, segments, rounds", [(1.0, 4, 1), (5.0, 5, 2)])
def test_fixed_speed_report_starts_from_both_halves_of_each_segment(base, monkeypatch,
                                                                    t, segments, rounds):
    # the radial integral's first round evaluates the u-halves of every
    # mapped segment; at t=1 it converges there, at t=5 it refines once
    passes = count_passes(monkeypatch)
    retransmission_report(base.params, base.speed, t, base.threshold)
    assert passes[0] == [(i / 2, (i + 1) / 2) for i in range(2 * segments)]
    assert len(passes) == rounds


@pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("overrides", [{"height": 0.5, "alpha": 6.0}, {"k": 8, "omega": 0.125}],
                         ids=["low-steep", "k8"])
def test_two_panel_start_agrees_with_one_panel_start(overrides, t, monkeypatch):
    sc = baseline_scenario(**overrides)
    two = retransmission_report(sc.params, sc.speed, t, sc.threshold)
    integrate = analytic._integrate_mapped
    monkeypatch.setattr(analytic, "_integrate_mapped",
                        lambda f, a, b, points, panels: integrate(f, a, b, points))
    one = retransmission_report(sc.params, sc.speed, t, sc.threshold)
    for name in ("p_joint", "p_marginal_0", "p_marginal_t"):
        assert getattr(two, name) == pytest.approx(
            getattr(one, name), abs=two.quadrature_error_bound), name


def test_mapped_integrand_is_called_once_per_pass(monkeypatch):
    passes, sizes = count_passes(monkeypatch), []

    def f(x):
        sizes.append(x.shape)
        return np.stack([x, np.sqrt(2.0 - x)], axis=1)

    value, err = analytic._integrate_mapped(f, 0.0, 2.0, (0.5,))
    assert value == pytest.approx([2.0, 2.0 / 3.0 * 2.0**1.5], abs=1e-9)
    assert len(passes) >= 1
    assert passes[0] == [(0.0, 1.0), (1.0, 2.0)]  # one u segment per x segment
    assert sizes == [(15 * len(segments),) for segments in passes]


# ---------------------------------------------------------------------------
# threshold grids
# ---------------------------------------------------------------------------

GRID_THRESHOLDS = [0.0] + [10.0 ** (db / 10.0) for db in (-80, -40, -20, -10, 0, 10)]


@pytest.mark.parametrize("speed", [FixedSpeed(10.0), UniformSpeed(5.0, 15.0)],
                         ids=["fixed", "uniform"])
@pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_threshold_grid_matches_single_reports(k, t, speed):
    # the grid's integrals refine on its worst component; every threshold
    # keeps the value of its own call
    params = baseline_scenario(k=k, omega=1.0 / k).params
    grid = success_reports(params, speed, t, GRID_THRESHOLDS)
    singles = [success_report(params, speed, t, threshold) for threshold in GRID_THRESHOLDS]
    assert_reports_match(grid, singles, 1e-13)
    assert len({report.quadrature_error_bound for report in grid}) == 1
    assert grid[0].quadrature_error_bound <= 1e-6


def test_zero_threshold_in_a_grid_has_the_exact_zero_exponent(base):
    exponents, _ = analytic._exponent_detailed(base.params, base.speed, 1.0, [0.0, 0.1, 0.0])
    assert np.all(exponents[[0, 2]] == 0.0) and np.any(exponents[1] != 0.0)
    zero, _, again = success_reports(base.params, base.speed, 1.0, [0.0, 0.1, 0.0])
    assert zero.p_joint == zero.p_marginal_0 == again.p_joint == 1.0


def test_grid_without_interferers_has_the_exact_zero_exponent():
    params = baseline_scenario(**{"lambda": 0.0}).params
    exponents, err = analytic._exponent_detailed(params, FixedSpeed(10.0), 1.0, [0.1, 1.0])
    assert np.all(exponents == 0.0) and err == 0.0


def test_grid_rejects_a_bad_threshold(base):
    with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
        success_reports(base.params, base.speed, 1.0, [0.1, math.nan])


def test_grid_is_one_radial_integral_per_gap(base, monkeypatch):
    calls = count_radial_integrals(monkeypatch)
    success_reports(base.params, base.speed, 1.0, GRID_THRESHOLDS)
    assert len(calls) == 1


def _peak_kib(call) -> float:
    call()  # first use builds cached rules
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


# tracemalloc peaks of one success_report before the bracket was batched
_REPORT_PEAK_KIB = {(1, 1.0): 449, (1, 5.0): 694, (2, 1.0): 699, (2, 5.0): 1012,
                    (8, 1.0): 1433, (8, 5.0): 2154}


@pytest.mark.parametrize("k, t", sorted(_REPORT_PEAK_KIB))
def test_report_memory_does_not_grow(k, t):
    sc = baseline_scenario(k=k, omega=1.0 / k)
    peak = _peak_kib(lambda: success_report(sc.params, sc.speed, t, 0.1))
    assert peak <= _REPORT_PEAK_KIB[k, t]


def test_threshold_grid_memory_is_bounded():
    # unbatched, a 16-threshold grid held 9-15 MiB at once
    sc = baseline_scenario(k=2, omega=0.5)
    thresholds = [10.0 ** (db / 10.0) for db in range(-20, 12, 2)]
    assert len(thresholds) == 16
    peak = _peak_kib(lambda: success_reports(sc.params, sc.speed, 5.0, thresholds))
    assert peak < 3 * 1024
