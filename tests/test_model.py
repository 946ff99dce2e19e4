"""Config parsing, validation, and domain type tests."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavtc.model import (
    AntennaPattern,
    ConfigError,
    FixedSpeed,
    TabulatedSpeed,
    UniformSpeed,
    config_from_dict,
    db_to_linear,
    linear_to_db,
    load_config,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
    speed_from_dict,
    validate,
)

from helpers import BASELINE_CONFIG, baseline_scenario


def raw(**overrides):
    cfg = dict(BASELINE_CONFIG)
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_collects_every_violation():
    bad = raw(**{"lambda": -1.0}, p_mobile=2.0, alpha=1.5, r_in=30.0)
    with pytest.raises(ConfigError) as exc_info:
        validate(config_from_dict(bad))
    messages = exc_info.value.violations
    assert any("lambda" in m for m in messages)
    assert any("p_mobile must lie in [0, 1]" in m for m in messages)
    assert any("alpha must exceed 2" in m for m in messages)
    assert any("r_in must be < r_out" in m for m in messages)
    assert len(messages) >= 4


def test_non_integer_k_rejected():
    with pytest.raises(ConfigError, match="k must be an integer"):
        validate(config_from_dict(raw(k=2.5)))


@pytest.mark.parametrize("k", [0, 9, -1])
def test_k_out_of_range_rejected(k):
    with pytest.raises(ConfigError):
        validate(config_from_dict(raw(k=k)))


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(raw(rout=25.0))


def test_missing_required_key_reported():
    cfg = raw()
    del cfg["height"]
    with pytest.raises(ConfigError, match="height is required"):
        validate(config_from_dict(cfg))


def test_validate_is_idempotent():
    scenario = baseline_scenario()
    again = validate(scenario)
    assert scenario_to_dict(again) == scenario_to_dict(scenario)


def test_threshold_converted_once():
    scenario = baseline_scenario(threshold_db=-10.0)
    assert scenario.threshold == pytest.approx(0.1, rel=1e-15)
    assert baseline_scenario(threshold_db=0.0).threshold == 1.0
    # thresholds in dB whose linear value overflows or underflows
    with pytest.raises(ConfigError, match="threshold must be finite"):
        validate(config_from_dict(raw(threshold_db=4000.0)))
    with pytest.raises(ConfigError, match="threshold must be > 0"):
        validate(config_from_dict(raw(threshold_db=-4000.0)))


def test_negative_time_gap_rejected():
    with pytest.raises(ConfigError):
        validate(config_from_dict(raw(t_gap=-1.0)))


_REAL_FIELDS = [
    "lambda", "p_mobile", "height", "alpha", "noise", "omega",
    "g_main", "g_side", "r_in", "r_out", "t_gap", "threshold",
]
# (bad value, start of the message naming the field) per serialized field;
# no real field of a scenario may be negative
_BAD_VALUES = {
    **{name: [(math.inf, "must be finite"), (math.nan, "must be finite"),
              (10**400, "must be finite"), (True, "must be a number"), ("1", "must be a number"),
              (-1.0, "must")]
       for name in _REAL_FIELDS},
    "k": [(2.7, "must be an integer"), (True, "must be an integer"),
          (math.inf, "must be an integer"), (0, "must be >= 1"), (9, "must be <= 8")],
    "m_initial": [(3.9, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0")],
    "replications": [(1000.5, "must be an integer"), (True, "must be an integer"),
                     (0, "must be >= 1")],
    "seed": [(-0.5, "must be an integer"), (True, "must be an integer"), (-1, "must be >= 0"),
             (2**64, "must be <= 18446744073709551615")],
}


def _with_field(scenario, name, value):
    """``scenario`` with the field serialized as ``name`` set to ``value``, unchecked."""
    p = scenario.params
    if name in ("k", "omega"):
        return replace(scenario, params=replace(p, fading=replace(p.fading, **{name: value})))
    if name in ("g_main", "g_side", "r_in", "r_out"):
        return replace(scenario, params=replace(p, antenna=replace(p.antenna, **{name: value})))
    if name in ("lambda", "p_mobile", "height", "alpha", "noise"):
        return replace(scenario, params=replace(p, **{"lam" if name == "lambda" else name: value}))
    return replace(scenario, **{name: value})


@pytest.mark.parametrize("field", [*_REAL_FIELDS, "k", "m_initial", "replications", "seed"])
def test_serialized_form_rejects_infinite_fields(field):
    # a raw config, the serialized form ("Infinity" is how json writes
    # float("inf")) and a validated scenario with one field replaced all go
    # through the one checker, so each rejects every bad value by name
    scenario = baseline_scenario()
    payload = json.loads(scenario_to_json(scenario))
    raw_name = "threshold_db" if field == "threshold" else field
    for bad, message in _BAD_VALUES[field]:
        text = json.dumps({**payload, field: bad})
        assert bad is not math.inf or "Infinity" in text
        paths = [
            (field, lambda: scenario_from_json(text)),
            (field, lambda: validate(_with_field(scenario, field, bad))),
        ]
        if not (raw_name == "threshold_db" and bad == -1.0):  # -1 dB is a valid threshold
            paths.append((raw_name, lambda: validate(config_from_dict(raw(**{raw_name: bad})))))
        for name, call in paths:
            with pytest.raises(ConfigError) as exc_info:
                call()
            assert any(v.startswith(f"{name} {message}") for v in exc_info.value.violations), (
                name, bad, exc_info.value.violations)


# ---------------------------------------------------------------------------
# footprint radii vs beam angles
# ---------------------------------------------------------------------------


def test_angles_produce_radii():
    cfg = raw()
    del cfg["r_in"], cfg["r_out"]
    theta_m = math.degrees(math.atan(15.0 / 50.0))
    theta_s = math.degrees(math.atan(25.0 / 50.0))
    scenario = validate(config_from_dict(raw(theta_m_deg=theta_m, theta_s_deg=theta_s,
                                             r_in=None, r_out=None)))
    assert scenario.params.antenna.r_in == pytest.approx(15.0, rel=1e-12)
    assert scenario.params.antenna.r_out == pytest.approx(25.0, rel=1e-12)


def test_consistent_radii_and_angles_accepted():
    theta_m = math.degrees(math.atan(15.0 / 50.0))
    theta_s = math.degrees(math.atan(25.0 / 50.0))
    scenario = validate(config_from_dict(raw(theta_m_deg=theta_m, theta_s_deg=theta_s)))
    assert scenario.params.antenna.r_out == pytest.approx(25.0)


def test_inconsistent_radii_and_angles_rejected():
    with pytest.raises(ConfigError):
        validate(config_from_dict(raw(theta_m_deg=10.0, theta_s_deg=20.0)))


def test_angle_ordering_enforced():
    with pytest.raises(ConfigError, match="theta"):
        validate(config_from_dict(raw(theta_m_deg=30.0, theta_s_deg=20.0,
                                      r_in=None, r_out=None)))


def test_neither_radii_nor_angles_rejected():
    with pytest.raises(ConfigError):
        validate(config_from_dict(raw(r_in=None, r_out=None)))


def _without(*keys, **overrides):
    cfg = raw(**overrides)
    for key in keys:
        del cfg[key]
    return cfg


_NO_FOOTPRINT = "either (r_in, r_out) or (theta_m_deg, theta_s_deg) is required"


@pytest.mark.parametrize("cfg, violations", [
    (_without("r_in", "r_out"), [_NO_FOOTPRINT]),
    (raw(r_in=None, r_out=None), [_NO_FOOTPRINT]),
    (_without("r_in", "r_out", theta_m_deg=30.0, theta_s_deg=20.0),
     ["angles must satisfy 0 < theta_m_deg < theta_s_deg < 90"]),
    (_without("r_in", "r_out", theta_m_deg=10.0), ["theta_s_deg is required"]),
    (raw(theta_s_deg=20.0), ["theta_m_deg is required"]),
    (_without("r_in", "r_out", theta_m_deg=10.0, theta_s_deg=20.0, height=-1.0),
     ["height must be > 0"]),
    (raw(theta_m_deg=10.0, theta_s_deg=20.0),
     ["r_in=15.0 conflicts with the supplied angles (implies 8.816349035423249)",
      "r_out=25.0 conflicts with the supplied angles (implies 18.19851171331012)"]),
    (_without("r_out"), ["r_out is required"]),
    (raw(**{"lambda": -1.0}, p_mobile=2.0, alpha=1.5, r_in=30.0, threshold_db="x", seed=-1,
         speed=None),
     ["threshold_db must be a number", "lambda must be >= 0", "p_mobile must lie in [0, 1]",
      "alpha must exceed 2", "seed must be >= 0", "r_in must be < r_out", "speed is required"]),
])
def test_raw_config_violations_are_listed_once_each(cfg, violations):
    # a radius the angles cannot resolve is reported once, by the radii's own rule
    with pytest.raises(ConfigError) as exc_info:
        validate(config_from_dict(cfg))
    assert exc_info.value.violations == violations


def test_validate_takes_the_dict_of_a_json_config():
    path = Path(__file__).resolve().parent.parent / "configs" / "baseline.json"
    with open(path) as fh:
        assert validate(json.load(fh)) == validate(load_config(path))
    with pytest.raises(ConfigError, match=r"unknown config keys: \['foo'\]"):
        validate({"foo": 1})


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


def test_round_trip_is_bit_exact():
    scenario = baseline_scenario(threshold_db=-9.7, t_gap=1.37)
    clone = scenario_from_json(scenario_to_json(scenario))
    assert clone.threshold == scenario.threshold
    assert clone.t_gap == scenario.t_gap
    assert clone.params == scenario.params
    assert clone.speed == scenario.speed
    assert clone.seed == scenario.seed
    assert clone.replications == scenario.replications
    assert clone.m_initial == scenario.m_initial


def test_round_trip_tabulated_speed():
    scenario = baseline_scenario(
        speed={"kind": "tabulated", "table": [[0.0, 0.0], [5.0, 0.15], [10.0, 0.05]]})
    clone = scenario_from_json(scenario_to_json(scenario))
    assert clone.speed == scenario.speed


_FIVE_KNOTS = [[2, 0], [8, 0.1], [15, 0.06], [25, 0.03], [40, 0]]  # the CI table


@st.composite
def tables(draw):
    n = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.001, 15.0), min_size=n, max_size=n))
    # a subnormal density can round the table's mass to 0, which the law
    # rejects by name (test_table_whose_mass_rounds_to_zero_is_rejected)
    densities = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)
                     .filter(lambda d: max(d) > 0.0))
    return [[v, f] for v, f in zip(np.cumsum(steps).tolist(), densities)]


@settings(deadline=None)
@given(tables())
@example(_FIVE_KNOTS)
def test_round_trip_of_random_tables_is_bit_exact(table):
    law = TabulatedSpeed(table)
    clone = TabulatedSpeed(law.to_dict()["table"])
    assert clone == law and clone.density_knots() == law.density_knots()
    scenario = baseline_scenario(speed={"kind": "tabulated", "table": table})
    assert scenario_from_json(scenario_to_json(scenario)) == scenario


def test_speed_laws_hash_like_they_compare():
    pairs = [
        (FixedSpeed(10), FixedSpeed(10.0)),
        (UniformSpeed(5, 15), UniformSpeed(5.0, 15.0)),
        (TabulatedSpeed(_FIVE_KNOTS), TabulatedSpeed([[v, 2.0 * f] for v, f in _FIVE_KNOTS])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        scenario = baseline_scenario(speed=a.to_dict())
        assert hash(scenario) == hash(replace(scenario, speed=b))
    # the same knots under another class are another law
    assert UniformSpeed(5.0, 15.0) != TabulatedSpeed([[5.0, 0.1], [15.0, 0.1]])


def test_serialized_form_rejects_unknown_keys():
    payload = json.loads(scenario_to_json(baseline_scenario()))
    payload["bogus"] = 1
    with pytest.raises(ConfigError):
        scenario_from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# speed distributions
# ---------------------------------------------------------------------------


def test_fixed_speed_atom():
    s = FixedSpeed(10.0)
    assert s.atom == 10.0
    assert s.support_min == s.support_max == 10.0
    assert s.cdf(9.99) == 0.0 and s.cdf(10.0) == 1.0
    with pytest.raises(TypeError):
        s.pdf(10.0)


def test_uniform_speed_density(caplog):
    with caplog.at_level("WARNING"):
        s = UniformSpeed(5.0, 15.0)
    assert "renormalized" not in caplog.text  # its knots are built at mass 1
    assert s.atom is None
    assert s.pdf(10.0) == pytest.approx(0.1)
    assert s.pdf(4.0) == 0.0 and s.pdf(16.0) == 0.0
    assert s.cdf(5.0) == 0.0 and s.cdf(15.0) == 1.0 and s.cdf(10.0) == pytest.approx(0.5)


@pytest.mark.parametrize("speed", [
    UniformSpeed(5.0, 15.0),
    TabulatedSpeed([[5.0, 0.05], [10.0, 0.15], [15.0, 0.05]]),
])
def test_speed_pdf_on_arrays_matches_scalar_calls(speed):
    v = np.array([0.0, 5.0 - 1e-12, 5.0, 7.5, 10.0, 15.0, 15.0 + 1e-12, 20.0])
    density = speed.pdf(v)
    assert isinstance(density, np.ndarray) and density.shape == v.shape
    scalars = [speed.pdf(float(x)) for x in v]
    assert all(type(d) is float for d in scalars)
    assert density.tolist() == scalars
    assert scalars[1] == 0.0 and scalars[2] > 0.0 and scalars[5] > 0.0 and scalars[6] == 0.0


def test_uniform_speed_invalid_range():
    with pytest.raises(ConfigError):
        speed_from_dict({"kind": "uniform", "v_min": 10.0, "v_max": 10.0})
    with pytest.raises(ConfigError):
        speed_from_dict({"kind": "uniform", "v_min": -1.0, "v_max": 5.0})
    # the laws check themselves, so no path builds a bad one
    for v in (math.inf, math.nan, -1.0, True, "10"):
        with pytest.raises(ConfigError, match="speed.v must"):
            FixedSpeed(v)
        with pytest.raises(ConfigError, match="speed.v must"):
            speed_from_dict({"kind": "fixed", "v": v})
        with pytest.raises(ConfigError, match="speed.v_min must"):
            UniformSpeed(v, 15.0)
        with pytest.raises(ConfigError, match="speed.v_max must"):
            UniformSpeed(5.0, v)
    for lo, hi in ((5.0, 1.0), (5.0, 5.0)):
        with pytest.raises(ConfigError, match="speed.v_max must exceed speed.v_min"):
            UniformSpeed(lo, hi)
    with pytest.raises(ConfigError, match="speed.v must be >= 0"):
        validate(replace(baseline_scenario(), speed=FixedSpeed(-1.0)))
    assert FixedSpeed(10) == FixedSpeed(10.0) and type(FixedSpeed(10).v) is float


def test_tabulated_speed_renormalizes_and_logs(caplog):
    with caplog.at_level("WARNING"):
        s = TabulatedSpeed([[0.0, 0.3], [10.0, 0.3]])
    assert "renormalized" in caplog.text
    assert s.cdf(10.0) == pytest.approx(1.0)
    assert s.cdf(5.0) == pytest.approx(0.5)


def test_tabulated_speed_requires_increasing_grid():
    with pytest.raises(ConfigError):
        TabulatedSpeed([[0.0, 0.1], [0.0, 0.1], [10.0, 0.1]])
    with pytest.raises(ConfigError):
        TabulatedSpeed([[5.0, 0.5], [4.0, 0.5]])
    with pytest.raises(ConfigError):
        TabulatedSpeed([[0.0, -0.5], [1.0, 2.5]])
    with pytest.raises(ConfigError):
        TabulatedSpeed([[0.0, 0.0], [1.0, 0.0]])
    for table in ([[0.0, "x"], [1.0, 1.0]], "abc", [[0.0, 1.0], [1.0]]):
        with pytest.raises(ConfigError, match="speed.table must be a list"):
            TabulatedSpeed(table)


def test_tabulated_speed_requires_finite_entries():
    for table in ([[0.0, math.nan], [1.0, 1.0]], [[0.0, 1.0], [math.inf, 1.0]],
                  [[0.0, math.inf], [1.0, 1.0]], [[math.nan, 1.0], [1.0, 1.0]]):
        with pytest.raises(ConfigError, match="speed.table entries must be finite"):
            TabulatedSpeed(table)
        with pytest.raises(ConfigError, match="speed.table entries must be finite"):
            speed_from_dict({"kind": "tabulated", "table": table})


def test_speed_laws_reject_infinite_densities():
    # a subnormal width or table mass used to build a law of density inf, and
    # the SINR path then failed at 1e300 with "integrand is not finite"
    for build in (lambda: UniformSpeed(0.0, 5e-324),
                  lambda: TabulatedSpeed([[0.0, 1.0], [1e-310, 1.0]]),
                  lambda: speed_from_dict({"kind": "uniform", "v_min": 0.0, "v_max": 5e-324})):
        with pytest.raises(ConfigError, match="speed density must be finite"):
            build()


def test_table_whose_mass_rounds_to_zero_is_rejected():
    # drawn by the round-trip property: the trapezoid mass 0.5 * 5e-324 rounds to 0
    with pytest.raises(ConfigError, match="speed.table must carry positive probability mass"):
        TabulatedSpeed([[1.0, 0.0], [2.0, 5e-324]])


def test_tabulated_speed_cdf_is_exact_piecewise_quadratic():
    # mass on [0,2] = 0.25 (triangle), on [2,4] = 0.5 -> renormalized by 0.75
    s = TabulatedSpeed([[0.0, 0.0], [2.0, 0.25], [4.0, 0.25]])
    with np.errstate(all="raise"):
        assert s.cdf(2.0) == pytest.approx(0.25 / 0.75)
        assert s.cdf(4.0) == pytest.approx(1.0)
    assert s.support_min == 0.0 and s.support_max == 4.0
    assert s.pdf_breakpoints == (0.0, 2.0, 4.0)


def test_density_knots_of_each_speed_law():
    assert UniformSpeed(5.0, 15.0).density_knots() == ((5.0, 15.0), (0.1, 0.1))
    speeds, densities = TabulatedSpeed([[0.0, 0.0], [2.0, 0.25], [4.0, 0.25]]).density_knots()
    assert speeds == (0.0, 2.0, 4.0)
    assert densities == pytest.approx((0.0, 0.25 / 0.75, 0.25 / 0.75), abs=1e-15)
    assert all(type(x) is float for x in speeds + densities)
    with pytest.raises(TypeError, match="use the atom property"):
        FixedSpeed(10.0).density_knots()


@given(st.floats(0.0, 1.0))
def test_tabulated_sampling_inverts_cdf(u):
    s = TabulatedSpeed([[1.0, 0.2], [3.0, 0.2], [6.0, 0.2]])

    class _FakeRng:
        def random(self, size=None):
            return np.full(size, u) if size is not None else u

    draw = float(s.sample(_FakeRng(), 1)[0])
    assert 1.0 <= draw <= 6.0
    assert s.cdf(draw) == pytest.approx(u, abs=1e-9)


def test_tabulated_sampling_keeps_a_spike_near_the_float_limit():
    # a density of 1e200 overflowed the squares of the old inversion, which put
    # every draw of the spike on a knot: 2 distinct draws of mean 5e-201
    s = TabulatedSpeed([[0, 0], [1e-200, 1e200], [2e-200, 0], [1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = s.sample(np.random.default_rng(1), 10_000)
    assert np.unique(draws).size >= 9_990
    assert draws.mean() == pytest.approx(1e-200, rel=0.02)


def test_speed_from_dict_rejects_bad_kinds():
    with pytest.raises(ConfigError):
        speed_from_dict({"kind": "gaussian", "v": 1.0})
    with pytest.raises(ConfigError):
        speed_from_dict({"kind": "fixed"})
    with pytest.raises(ConfigError):
        speed_from_dict({"kind": "fixed", "v": 1.0, "extra": 2})


# ---------------------------------------------------------------------------
# antenna gain
# ---------------------------------------------------------------------------


def test_gain_boundaries_are_right_continuous():
    ant = AntennaPattern(2.0, 0.5, 15.0, 25.0)
    assert ant.gain_at_sq(15.0**2) == 2.0
    assert ant.gain_at_sq((15.0 + 1e-9) ** 2) == 0.5
    assert ant.gain_at_sq(25.0**2) == 0.5
    assert ant.gain_at_sq((25.0 + 1e-9) ** 2) == 0.0
    assert ant.gain_at_sq(np.array([0.0, 20.0, 30.0]) ** 2).tolist() == [2.0, 0.5, 0.0]


@given(st.floats(0.0, 60.0), st.floats(0.0, 60.0))
def test_gain_monotone_non_increasing(d1, d2):
    ant = AntennaPattern(2.0, 0.5, 15.0, 25.0)
    lo, hi = sorted((d1, d2))
    assert ant.gain_at_sq(lo * lo) >= ant.gain_at_sq(hi * hi)


def test_side_gain_above_main_rejected():
    with pytest.raises(ConfigError, match="g_side must not exceed g_main"):
        validate(config_from_dict(raw(g_main=0.5, g_side=2.0)))


# ---------------------------------------------------------------------------
# unit helpers
# ---------------------------------------------------------------------------


@given(st.floats(-60.0, 60.0))
def test_db_round_trip(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_db_reference_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
