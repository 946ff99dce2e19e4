"""Properties of the analytic count rates and success reports over random scenarios."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavtc.analytic import (
    conditional_interferer_pmf, footprint_egress_integral, footprint_ingress_integral,
    joint_success, marginal_success, success_report, success_reports,
    unconditional_interferer_pmf)
from uavtc.model import FixedSpeed, TabulatedSpeed, UniformSpeed

from helpers import assert_reports_match, baseline_scenario, stay_probability_oracle

PARAMS = baseline_scenario().params
R = PARAMS.antenna.r_out


@st.composite
def uniform_laws(draw):
    v_min = draw(st.floats(0.0, 40.0))
    return UniformSpeed(v_min, v_min + draw(st.floats(0.01, 40.0)))


@st.composite
def tabulated_laws(draw):
    # knots as close as 1 mm/s make narrow, steep sloped pieces
    n = draw(st.integers(2, 6))
    start = draw(st.floats(0.0, 30.0))
    gaps = draw(st.lists(st.floats(0.001, 15.0), min_size=n - 1, max_size=n - 1))
    densities = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)
                     .filter(lambda d: max(d) > 0.0))
    speeds = [start + sum(gaps[:i]) for i in range(n)]
    return TabulatedSpeed([[v, f] for v, f in zip(speeds, densities)])


def _gap(law, fraction: float) -> float:
    """A gap from 1e-9 to three times 2r/v_max, log-uniform in ``fraction``."""
    top = math.log10(3.0 * 2.0 * R / law.support_max)
    return 10.0 ** (-9.0 + fraction * (top + 9.0))


@settings(max_examples=150, deadline=None)
@given(law=st.one_of(uniform_laws(), tabulated_laws()),
       fraction=st.floats(0.0, 1.0), stretch=st.floats(1.0, 10.0))
@example(law=UniformSpeed(5.0, 15.0), fraction=0.0, stretch=1.0)
@example(law=UniformSpeed(40.0, 40.001), fraction=0.0, stretch=1.0)  # a width of b - a is 6e-13 off
@example(law=TabulatedSpeed([[0.0, 0.0], [6.0, 0.2], [12.0, 0.05]]), fraction=1.0, stretch=10.0)
def test_stay_probability_properties(law, fraction, stretch):
    t = _gap(law, fraction)
    stay = footprint_ingress_integral(PARAMS, law, t)
    assert 0.0 <= stay <= 1.0
    assert stay == pytest.approx(stay_probability_oracle(law, R, t), abs=1e-13)
    # non-increasing in t, up to the 1e-13 each value may be off
    assert footprint_ingress_integral(PARAMS, law, t * stretch) <= stay + 1e-13
    # flow balance: the arrivals replace the departures of a full footprint
    flow = PARAMS.lam * PARAMS.p_mobile * math.pi * R * R * (1.0 - stay)
    assert footprint_egress_integral(PARAMS, law, t) == pytest.approx(flow, rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(law=st.one_of(st.builds(FixedSpeed, st.floats(0.0, 40.0)), uniform_laws(), tabulated_laws()),
       lam=st.floats(1e-4, 0.02), p_mobile=st.floats(0.0, 1.0), span=st.floats(0.0, 3.0))
def test_count_pmfs_mix_to_the_stationary_count(law, lam, p_mobile, span):
    # gaps from 0 to three times 2r/v_max, past which no mobile node stays
    t = span * 2.0 * R / max(law.support_max, 1.0)
    params = replace(PARAMS, lam=lam, p_mobile=p_mobile)
    stationary = unconditional_interferer_pmf(params)
    # stationarity: a Poisson count at time 0 moved for t is the same Poisson count
    weights = unconditional_interferer_pmf(params, n_max=2 * stationary.n_max).probs
    mixture = np.zeros(stationary.n_max + 1)
    for m, weight in enumerate(weights):
        pmf = conditional_interferer_pmf(m, params, law, t)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)
        mixture += weight * conditional_interferer_pmf(m, params, law, t, stationary.n_max).probs
    assert np.max(np.abs(mixture - stationary.probs)) <= 1e-13


@st.composite
def sinr_scenarios(draw, heights=st.floats(2.0, 200.0), alphas=st.floats(2.1, 6.0)):
    """A valid fixed-speed scenario, drawn field by field around the baseline."""
    k = draw(st.integers(1, 8))
    r_out = draw(st.floats(5.0, 60.0))
    g_main = draw(st.floats(0.5, 10.0))
    return baseline_scenario(**{
        "lambda": draw(st.floats(1e-4, 0.02)),
        "p_mobile": draw(st.floats(0.0, 1.0)),
        "height": draw(heights),
        "alpha": draw(alphas),
        "k": k,
        "omega": 1.0 / k,
        "g_main": g_main,
        "g_side": g_main * draw(st.floats(0.0, 1.0)),
        "r_in": r_out * draw(st.floats(0.1, 0.95)),
        "r_out": r_out,
        "speed": {"kind": "fixed", "v": draw(st.floats(0.0, 40.0))},
    })


@settings(max_examples=40, deadline=None)
@given(sc=sinr_scenarios(), t=st.floats(0.0, 10.0),
       dbs=st.lists(st.floats(-60.0, 20.0), min_size=1, max_size=4))
def test_threshold_grid_matches_single_reports(sc, t, dbs):
    thresholds = [10.0 ** (db / 10.0) for db in dbs]
    grid = success_reports(sc.params, sc.speed, t, thresholds)
    singles = [success_report(sc.params, sc.speed, t, threshold) for threshold in thresholds]
    assert_reports_match(grid, singles, 1e-13)


# the draw whose two marginals differed most beyond the reported bound, in
# 6,000 draws: 1.3e-13, or 0.58 eps per mean interferer in the integrated disc
_WORST_ROUNDING = baseline_scenario(**{
    "lambda": 0.0035823806746129103, "p_mobile": 0.8500331001562829,
    "height": 98.74125650323467, "alpha": 4.515938364219514, "k": 4, "omega": 0.25,
    "g_main": 6.742973476086396, "g_side": 0.0,
    "r_in": 21.74138200896986, "r_out": 50.53222812864616,
    "speed": {"kind": "fixed", "v": 35.490691091949806},
})


@settings(max_examples=60, deadline=None)
@given(sc=sinr_scenarios(heights=st.floats(0.5, 200.0), alphas=st.floats(2.5, 6.0)),
       span=st.floats(0.0, 3.0), db=st.floats(-60.0, 20.0))
@example(sc=baseline_scenario(height=0.5, alpha=6.0), span=0.5, db=-10.0)
@example(sc=_WORST_ROUNDING, span=2.4727974874860355, db=-59.71782571554183)
def test_success_report_properties(sc, span, db):
    # gaps from 0 to three times 2r/v, past which no mobile node stays
    t = span * 2.0 * sc.params.antenna.r_out / max(sc.speed.v, 1.0)
    threshold = 10.0 ** (db / 10.0)
    report = success_report(sc.params, sc.speed, t, threshold)
    # the bound covers the quadrature, not rounding: x (1 - a0 b0) cancels
    # to about an ulp at each radial node, so the exponent may be off by
    # about eps times the mean number of interferers in the integrated disc
    interferers = sc.params.lam * math.pi * (sc.params.antenna.r_out + sc.speed.v * t) ** 2
    bound = report.quadrature_error_bound + 1e-15 + 4.0 * sys.float_info.epsilon * interferers
    # the report clamps its joint to the marginal; the joint alone is not clamped
    joint = joint_success(sc.params, sc.speed, t, threshold)
    assert joint <= report.p_marginal_0 + bound
    # stationarity: the time-t marginal equals the report's time-0 one
    p_t = marginal_success(sc.params, sc.speed, t, threshold, "timeT")
    assert p_t == pytest.approx(report.p_marginal_0, abs=bound)
