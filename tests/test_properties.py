"""Properties of the analytic count rates and success reports over random scenarios."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from uavtc.analytic import (
    conditional_interferer_pmf, footprint_egress_integral, footprint_ingress_integral,
    joint_success, marginal_success, success_report, success_reports,
    unconditional_interferer_pmf)
from uavtc.model import FixedSpeed, TabulatedSpeed, UniformSpeed, db_to_linear
from uavtc.simulate import estimate_joint_success

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
def sinr_scenarios(draw, heights=st.floats(2.0, 200.0), alphas=st.floats(2.1, 6.0), laws=None,
                   noises=None):
    """A valid scenario, drawn field by field around the baseline.

    The speed is fixed unless ``laws`` draws it, and the noise the
    baseline's unless ``noises`` draws it.
    """
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
        "speed": ({"kind": "fixed", "v": draw(st.floats(0.0, 40.0))} if laws is None
                  else draw(laws).to_dict()),
        **({} if noises is None else {"noise": draw(noises)}),
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


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _z(p_analytic: float, result) -> float:
    """The z-score of an estimate at the binomial standard error of the analytic value.

    The variance is floored at 1/n, so a value of 0 or 1 met exactly scores 0.
    """
    n = result.replications
    variance = max(p_analytic * (1.0 - p_analytic), 1.0 / n)
    return (result.estimate - p_analytic) / math.sqrt(variance / n)


# Monte Carlo against analytic over the scenario space.  The cases are
# pinned: the first four draws of each speed law whose joint success lay in
# [0.05, 0.95], with no gap, threshold or density repeated, among 300 draws of
# this strategy (largest |z| of all 300: 3.75).  Drop ``phases`` to draw more;
# a |z| above 5 (a false alarm about 6e-7 per value) is a finding to report.
@settings(max_examples=12, deadline=None, phases=[Phase.explicit])
@given(sc=sinr_scenarios(heights=_log_uniform(0.5, 200.0), alphas=st.floats(2.5, 6.0),
                         laws=st.one_of(st.builds(FixedSpeed, st.floats(0.0, 40.0)),
                                        uniform_laws(), tabulated_laws()),
                         noises=_log_uniform(1e-14, 1e-8)),
       t=st.floats(0.0, 10.0), db=st.floats(-30.0, 10.0))
@example(sc=baseline_scenario(**{
    "lambda": 0.011933917577373268, "p_mobile": 0.616823253715635, "height": 2.695154068821567,
    "alpha": 3.0262749207088677, "noise": 3.9783300011855077e-13, "k": 4, "omega": 0.25,
    "g_main": 4.482757858160408, "g_side": 9.974467324210464e-309, "r_in": 11.998440396542753,
    "r_out": 59.0,
    "speed": {"kind": "fixed", "v": 28.8713275396263},
}), t=1.5, db=-3.354637609282914)
@example(sc=baseline_scenario(**{
    "lambda": 0.012302633593624492, "p_mobile": 0.39540075795817675, "height": 2.140739220400237,
    "alpha": 3.5921109060672496, "noise": 4.983328229612801e-13, "k": 6,
    "omega": 0.16666666666666666, "g_main": 3.715811496313782, "g_side": 2.9743427521904224,
    "r_in": 19.724192037226878, "r_out": 39.448384074453756,
    "speed": {"kind": "fixed", "v": 20.097199999120633},
}), t=3.8736106368774683, db=10.0)
@example(sc=baseline_scenario(**{
    "lambda": 0.015255636774882377, "p_mobile": 2.225073858507e-311, "height": 40.32766037959527,
    "alpha": 5.560459125010856, "noise": 4.784776293822861e-13, "k": 5, "omega": 0.2,
    "g_main": 3.134561080053899, "g_side": 1.8142145732723656, "r_in": 12.025091704904282,
    "r_out": 57.36431543029706,
    "speed": {"kind": "fixed", "v": 40.0},
}), t=2.047039248212903e-156, db=-18.17000235306496)
@example(sc=baseline_scenario(**{
    "lambda": 0.019999999999999997, "p_mobile": 0.8321036893284006, "height": 1.0,
    "alpha": 2.743466902739238, "noise": 4.08236198940023e-09, "k": 1, "omega": 1.0, "g_main": 9.0,
    "g_side": 4.0901035487172575, "r_in": 9.532597389399616, "r_out": 60.0,
    "speed": {"kind": "fixed", "v": 19.88428608558086},
}), t=1.9537524704301905, db=0.7415311855993945)
@example(sc=baseline_scenario(**{
    "lambda": 0.013884182425421361, "p_mobile": 0.8599524709215065, "height": 1.0290348145658739,
    "alpha": 2.6902534124946236, "noise": 7.671420082073043e-12, "k": 6,
    "omega": 0.16666666666666666, "g_main": 2.588406791085299, "g_side": 1.558315281442299,
    "r_in": 14.628765870826026, "r_out": 26.421480789832057,
    "speed": {"kind": "tabulated", "table": [
        [1.5284618640935071e-148, 0.2718767629185173], [5.453262521147564, 0.5860872354676911],
        [17.444608227127205, 0.034133590007374044],
    ]},
}), t=1.953239531821999e-35, db=8.408573556887276)
@example(sc=baseline_scenario(**{
    "lambda": 0.0092345200839576, "p_mobile": 0.04959436241001837, "height": 5.602489367147128,
    "alpha": 4.277184875100614, "noise": 1.1158818224024139e-09, "k": 3,
    "omega": 0.3333333333333333, "g_main": 10.0, "g_side": 4.49264891569349,
    "r_in": 12.213257257110119, "r_out": 36.63977177133036,
    "speed": {"kind": "tabulated", "table": [
        [3.5732277838173685, 0.2722633734824889], [11.973104318558477, 0.20778495500789848],
        [18.8345769511719, 0.610999317593801], [21.863025690902045, 0.6837624593034767],
        [23.70993598399143, 0.6798161583056844],
    ]},
}), t=1.4064605462180808, db=6.013625375431542e-149)
@example(sc=baseline_scenario(**{
    "lambda": 0.012573976259803945, "p_mobile": 1.0, "height": 1.0, "alpha": 3.66031054514463,
    "noise": 9.999999999999987e-15, "k": 3, "omega": 0.3333333333333333,
    "g_main": 6.141264134342866, "g_side": 3.565518774769516, "r_in": 5.992556294820469,
    "r_out": 10.0,
    "speed": {"kind": "tabulated", "table": [
        [7.680201141406806, 0.0], [14.855928356463178, 0.342477149228452],
        [18.487330718053283, 1.849293932524874e-285],
    ]},
}), t=0.0, db=5.871476906397631)
@example(sc=baseline_scenario(**{
    "lambda": 0.015396396421271837, "p_mobile": 0.46589392213632597, "height": 2.18991874671825,
    "alpha": 3.972203846295482, "noise": 1.4843603517861137e-12, "k": 2, "omega": 0.5,
    "g_main": 1.086023063995644, "g_side": 1.0836121109380522e-291, "r_in": 24.785759486581384,
    "r_out": 51.903269276723165,
    "speed": {"kind": "tabulated", "table": [
        [5.7834862166525705, 0.0052247987273832406], [15.703665859892137, 1.162958264748121e-282],
        [17.64395876271309, 0.24265678202415902], [26.98428774079722, 0.7551271287567087],
    ]},
}), t=2.5779222584776744, db=9.25010017491907)
@example(sc=baseline_scenario(**{
    "lambda": 0.003105707925622019, "p_mobile": 0.8212348631465138, "height": 1.0,
    "alpha": 4.40591935737351, "noise": 2.194450728232202e-10, "k": 1, "omega": 1.0, "g_main": 2.0,
    "g_side": 1.2585500179694942, "r_in": 52.025685431808725, "r_out": 55.81945781297401,
    "speed": {"kind": "uniform", "v_min": 31.95445537245022, "v_max": 44.37864402309675},
}), t=0.11103364595594913, db=9.553147995822194)
@example(sc=baseline_scenario(**{
    "lambda": 0.007756610135602869, "p_mobile": 0.0, "height": 41.731579025815755,
    "alpha": 3.0411547160740344, "noise": 1.0911582331323428e-14, "k": 5, "omega": 0.2,
    "g_main": 5.7845047189457715, "g_side": 3e-323, "r_in": 29.47650447881033,
    "r_out": 42.57757432695929,
    "speed": {"kind": "uniform", "v_min": 34.732103345397725, "v_max": 66.62033832408102},
}), t=6.473801811553926, db=-12.169569122769989)
@example(sc=baseline_scenario(**{
    "lambda": 0.014540437668689735, "p_mobile": 0.0, "height": 1.0, "alpha": 4.82497302565902,
    "noise": 3.291628964616475e-11, "k": 7, "omega": 0.14285714285714285,
    "g_main": 7.163762814817191, "g_side": 0.1643032069648875, "r_in": 3.4339819230210136,
    "r_out": 12.0,
    "speed": {"kind": "uniform", "v_min": 1.037579877783106, "v_max": 2.715250360113605},
}), t=8.639509928178226, db=7.163762814817191)
@example(sc=baseline_scenario(**{
    "lambda": 0.013781443601426016, "p_mobile": 2.2250738585e-313, "height": 1.0, "alpha": 2.5,
    "noise": 9.999999999999987e-15, "k": 2, "omega": 0.5, "g_main": 0.9132195033833426,
    "g_side": 1.6459538057613833e-242, "r_in": 45.93938803057367, "r_out": 48.84433307549007,
    "speed": {"kind": "uniform", "v_min": 10.117836656247878, "v_max": 37.30087132421946},
}), t=1.8023638343939974e-242, db=0.4179591836734694)
def test_monte_carlo_agrees_with_the_analytic_reports(sc, t, db):
    threshold = db_to_linear(db)
    (report,) = success_reports(sc.params, sc.speed, t, [threshold])
    estimate = estimate_joint_success(
        replace(sc, t_gap=t, threshold=threshold, replications=20_000, seed=7))
    for name in ("joint", "marginal_0", "marginal_t"):
        z = _z(getattr(report, f"p_{name}"), getattr(estimate, name))
        assert abs(z) <= 5.0, (name, z)
