"""Displacement kinematics and containment probability tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavtc.mobility import containment_cdf, displaced_distance
from uavtc.model import FixedSpeed, TabulatedSpeed, UniformSpeed

from helpers import CONTAINMENT_FIXED, CONTAINMENT_UNIFORM


def test_displaced_distance_law_of_cosines():
    # theta = 0 points toward the origin
    assert displaced_distance(20.0, 10.0, 0.0, 1.0) == pytest.approx(10.0)
    assert displaced_distance(20.0, 10.0, math.pi, 1.0) == pytest.approx(30.0)
    d = displaced_distance(20.0, 10.0, math.pi / 2.0, 1.0)
    assert d == pytest.approx(math.sqrt(400.0 + 100.0))


@given(st.floats(0.0, 100.0), st.floats(0.0, 50.0),
       st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 10.0))
def test_displaced_distance_nonnegative_and_bounded(x, v, theta, t):
    d = displaced_distance(x, v, theta, t)
    assert d >= 0.0
    assert abs(x - v * t) - 1e-9 <= d <= x + v * t + 1e-9


def test_displaced_distance_vectorized():
    xs = np.array([0.0, 10.0, 20.0])
    d = displaced_distance(xs, 5.0, 0.0, 1.0)
    assert d.shape == (3,)
    assert d == pytest.approx([5.0, 5.0, 15.0])


# ---------------------------------------------------------------------------
# containment probability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,x,v,t,expected", CONTAINMENT_FIXED)
def test_fixed_speed_closed_form_values(r, x, v, t, expected):
    assert containment_cdf(r, x, FixedSpeed(v), t) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("r,x,vr,t,expected", CONTAINMENT_UNIFORM)
def test_uniform_speed_reference_values(r, x, vr, t, expected):
    got = containment_cdf(r, x, UniformSpeed(*vr), t)
    assert got == pytest.approx(expected, abs=1e-9)


def test_zero_speed_is_the_indicator():
    still = FixedSpeed(0.0)
    assert containment_cdf(25.0, 10.0, still, 3.0) == 1.0
    assert containment_cdf(25.0, 25.0, still, 3.0) == 1.0
    assert containment_cdf(25.0, 25.001, still, 3.0) == 0.0


def test_zero_gap_is_the_indicator():
    speed = UniformSpeed(5.0, 15.0)
    assert containment_cdf(25.0, 10.0, speed, 0.0) == 1.0
    assert containment_cdf(25.0, 26.0, speed, 0.0) == 0.0


def test_origin_start_uses_speed_cdf():
    speed = UniformSpeed(5.0, 15.0)
    # from the origin the displaced distance is exactly v*t
    assert containment_cdf(10.0, 0.0, speed, 1.0) == pytest.approx(speed.cdf(10.0))
    assert containment_cdf(5.0, 0.0, speed, 0.5)== pytest.approx(speed.cdf(10.0))


def test_fixed_speed_geometry_cases():
    v, t = 10.0, 1.0
    # fully contained: maximum displacement still inside
    assert containment_cdf(25.0, 15.0 - 1e-9, FixedSpeed(v), t) == 1.0
    assert containment_cdf(25.0, 15.0, FixedSpeed(v), t) == 1.0
    # unreachable: closest approach still outside
    assert containment_cdf(25.0, 35.0 + 1e-9, FixedSpeed(v), t) == 0.0
    # boundary x = r + vt: arc collapses to a point
    assert containment_cdf(25.0, 35.0, FixedSpeed(v), t) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(1.0, 40.0), st.floats(0.0, 50.0), st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_containment_monotone_in_radius(r, x, t):
    speed = UniformSpeed(2.0, 12.0)
    f1 = containment_cdf(r, x, speed, t)
    f2 = containment_cdf(r + 3.0, x, speed, t)
    assert 0.0 <= f1 <= 1.0
    assert f2 >= f1 - 1e-10


@given(st.floats(1.0, 40.0), st.floats(0.0, 50.0), st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
@example(r=1.0, x=1.0, t=5e-324)  # v*t underflows to 0 for v < 1
def test_containment_in_unit_interval_tabulated(r, x, t):
    speed = TabulatedSpeed([[0.0, 0.0], [4.0, 0.3], [9.0, 0.1]])
    value = containment_cdf(r, x, speed, t)
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("speed", [
    TabulatedSpeed([[0.0, 0.0], [4.0, 0.3], [9.0, 0.1]]),
    UniformSpeed(0.0, 10.0),
])
def test_containment_limit_when_displacement_underflows(speed):
    # 2*x*v*t underflows to 0 for the slow speeds; the arc fraction takes
    # its vt -> 0 limit: inside, on the boundary (half the directions), outside
    t = 5e-324
    assert containment_cdf(1.0, 0.5, speed, t) == 1.0
    assert containment_cdf(1.0, 1.0, speed, t) == pytest.approx(0.5, abs=1e-12)
    assert containment_cdf(1.0, 1.5, speed, t) == 0.0


@pytest.mark.parametrize("speed", [
    FixedSpeed(10.0),
    UniformSpeed(5.0, 15.0),
    TabulatedSpeed([[2.0, 0.1], [8.0, 0.2], [14.0, 0.05]]),
])
def test_containment_matches_direct_sampling(speed):
    rng = np.random.default_rng(1234)
    n = 200_000
    tol = 4.0 / math.sqrt(n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    vs = speed.sample(rng, n)
    for r, x, t in [(25.0, 20.0, 1.0), (25.0, 5.0, 1.0), (15.0, 20.0, 0.7), (25.0, 0.0, 1.5)]:
        d = displaced_distance(x, vs, theta, t)
        freq = float(np.mean(d <= r))
        assert containment_cdf(r, x, speed, t) == pytest.approx(freq, abs=tol)


def test_containment_validates_inputs():
    speed = FixedSpeed(10.0)
    with pytest.raises(ValueError):
        containment_cdf(-1.0, 10.0, speed, 1.0)
    with pytest.raises(ValueError):
        containment_cdf(25.0, -1.0, speed, 1.0)
    with pytest.raises(ValueError):
        containment_cdf(25.0, 10.0, speed, -1.0)


@pytest.mark.parametrize("r,x,t,name", [
    (25.0, math.nan, 1.0, "x"),
    (25.0, 10.0, math.nan, "t"),
    (25.0, 10.0, math.inf, "t"),
    (math.nan, 10.0, 1.0, "r"),
])
def test_containment_rejects_non_finite_inputs(r, x, t, name):
    for speed in (FixedSpeed(10.0), UniformSpeed(5.0, 15.0)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            containment_cdf(r, x, speed, t)


def test_displaced_distance_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        displaced_distance(np.array([1.0, math.nan]), 5.0, 0.0, 1.0)
