"""Jet arithmetic and adaptive quadrature unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavtc.numerics import (
    Jet2,
    QuadratureError,
    QuadratureSpec,
    SingularJetError,
    falling_factorial_log,
    integrate,
    integrate_detailed,
    integrate_jet,
    jet_add,
    jet_const,
    jet_exp,
    jet_mul,
    jet_powneg,
    jet_scale,
    jet_var1,
    jet_var2,
    log_binomial,
)

from helpers import richardson_mixed_partial


# ---------------------------------------------------------------------------
# jet seeds and basic algebra
# ---------------------------------------------------------------------------


def test_jet_seed_placement():
    c = jet_const(5.0, (1, 1))
    assert c.coeffs.tolist() == [[5.0, 0.0], [0.0, 0.0]]
    v1 = jet_var1((1, 1))
    assert v1.coeffs[0, 0] == -1.0 and v1.coeffs[1, 0] == 1.0
    v2 = jet_var2((1, 1))
    assert v2.coeffs[0, 0] == -1.0 and v2.coeffs[0, 1] == 1.0


def test_jet_product_of_shifted_vars():
    # (1 + s~1) * (1 + s~2) where s~ are the centered coordinates
    one = jet_const(1.0, (1, 1))
    a = Jet2(one.coeffs + np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = Jet2(one.coeffs + np.array([[0.0, 1.0], [0.0, 0.0]]))
    prod = jet_mul(a, b)
    assert prod.coeffs.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def _jets(orders=(2, 2), min_const=None):
    def build(draw_vals):
        c = np.array(draw_vals, dtype=float).reshape(orders[0] + 1, orders[1] + 1)
        return Jet2(c)

    n = (orders[0] + 1) * (orders[1] + 1)
    elems = st.floats(-3, 3, allow_nan=False)
    strat = st.lists(elems, min_size=n, max_size=n).map(build)
    if min_const is not None:
        strat = strat.filter(lambda j: abs(j.coeffs[0, 0]) >= min_const)
    return strat


@given(_jets(), _jets())
def test_jet_mul_commutes(a, b):
    ab, ba = jet_mul(a, b), jet_mul(b, a)
    np.testing.assert_allclose(ab.coeffs, ba.coeffs, rtol=0, atol=1e-12)


@given(_jets())
def test_jet_mul_identity(a):
    one = jet_const(1.0, a.orders)
    np.testing.assert_array_equal(jet_mul(a, one).coeffs, a.coeffs)


@given(_jets(min_const=0.1))
@settings(max_examples=200)
def test_jet_powneg_times_power_is_one(a):
    inv = jet_powneg(a, 1)
    prod = jet_mul(a, inv)
    expect = np.zeros_like(prod.coeffs)
    expect[0, 0] = 1.0
    np.testing.assert_allclose(prod.coeffs, expect, rtol=0, atol=1e-9)


@given(_jets(orders=(1, 2)))
@settings(max_examples=200)
def test_jet_exp_of_negation_inverts(a):
    prod = jet_mul(jet_exp(a), jet_exp(jet_scale(a, -1.0)))
    expect = np.zeros_like(prod.coeffs)
    expect[0, 0] = 1.0
    np.testing.assert_allclose(prod.coeffs, expect, rtol=0, atol=1e-8)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_jet_powneg_matches_binomial_series(k):
    # f(s1, s2) = (1 - q*s1)^(-k) expanded around s1 = a has coefficients
    # C(k-1+j, j) q^j (1 - q a)^(-(k+j)); the s2 direction stays constant.
    q, a = 0.37, -1.0
    orders = (4, 2)
    base = jet_add(jet_const(1.0, orders), jet_scale(jet_var1(orders), -q))
    jet = jet_powneg(base, k)
    for j in range(orders[0] + 1):
        expect = math.comb(k - 1 + j, j) * q**j * (1 - q * a) ** (-(k + j))
        assert jet.coeffs[j, 0] == pytest.approx(expect, rel=1e-12)
        assert np.all(jet.coeffs[j, 1:] == 0.0)


def test_jet_powneg_rejects_vanishing_constant():
    zero_const = jet_add(jet_var1((1, 1)), jet_const(1.0, (1, 1)))
    with pytest.raises(SingularJetError):
        jet_powneg(zero_const, 2)


def test_jet_order_mismatch_rejected():
    with pytest.raises(ValueError):
        jet_add(jet_const(1.0, (1, 1)), jet_const(1.0, (2, 2)))


def test_jet_eval_reconstructs_polynomial():
    jet = Jet2(np.array([[1.0, 2.0], [3.0, 4.0]]))
    s1, s2 = -0.3, 0.7
    d1, d2 = s1 + 1.0, s2 + 1.0
    assert jet.eval(s1, s2) == pytest.approx(1 + 2 * d2 + 3 * d1 + 4 * d1 * d2)


def test_jet_coefficients_match_finite_differences():
    # composed {+, *, ^(-k), exp} objective with known smooth scalar form
    orders = (2, 2)
    s1, s2 = jet_var1(orders), jet_var2(orders)
    one = jet_const(1.0, orders)

    jet = jet_mul(
        jet_exp(jet_add(jet_scale(s1, 0.3), jet_scale(s2, 0.2))),
        jet_mul(
            jet_powneg(jet_add(one, jet_scale(s1, -0.4)), 2),
            jet_powneg(jet_add(one, jet_scale(s2, -0.25)), 3),
        ),
    )

    def scalar(u, v):
        return math.exp(0.3 * u + 0.2 * v) * (1 - 0.4 * u) ** -2 * (1 - 0.25 * v) ** -3

    # low orders at a small step, where float64 differencing noise is
    # negligible; the full grid (including the 2+2 mixed partial, whose
    # noise floor is larger) at a coarser step
    for i in range(3):
        for j in range(3):
            coeff = jet.coeffs[i, j] * math.factorial(i) * math.factorial(j)
            if i + j <= 2:
                fd = richardson_mixed_partial(scalar, i, j, h=1e-4)
                assert coeff == pytest.approx(fd, rel=1e-6, abs=1e-10)
            fd = richardson_mixed_partial(scalar, i, j, h=1e-2)
            assert coeff == pytest.approx(fd, rel=1e-5, abs=1e-10)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

SMOOTH_BATTERY = [
    (lambda x: math.exp(x), 0.0, 1.0, math.e - 1.0, ()),
    (math.sin, 0.0, math.pi, 2.0, ()),
    (lambda x: math.exp(-x * x), -3.0, 3.0, math.sqrt(math.pi) * math.erf(3.0), ()),
    (lambda x: math.sin(20.0 * x), 0.0, 1.0, (1.0 - math.cos(20.0)) / 20.0, ()),
    (lambda x: abs(x - math.sqrt(2)), 0.0, 2.0, 4.0 - 2.0 * math.sqrt(2),
     (math.sqrt(2),)),
    (lambda x: x ** 1.5, 0.0, 1.0, 0.4, ()),
]


@pytest.mark.parametrize("f,a,b,truth,points", SMOOTH_BATTERY)
def test_quadrature_battery(f, a, b, truth, points):
    value, err = integrate_detailed(f, a, b, points=points)
    assert value == pytest.approx(truth, abs=1e-9, rel=1e-9)
    # reported bound is conservative
    assert abs(value - truth) <= max(err, 1e-13)


def test_quadrature_kink_without_hint_still_converges():
    value = integrate(lambda x: abs(x - 0.5), 0.0, 1.0)
    assert value == pytest.approx(0.25, abs=1e-9)


def test_quadrature_budget_exhaustion_raises():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(QuadratureError) as exc_info:
        integrate(lambda x: math.sin(50.0 * x) / (1e-3 + abs(x - 0.31)), 0.0, 1.0, spec=spec)
    assert exc_info.value.estimate == pytest.approx(
        integrate(lambda x: math.sin(50.0 * x) / (1e-3 + abs(x - 0.31)), 0.0, 1.0,
                  spec=QuadratureSpec(1e-10, 1e-10, 10000), points=(0.31,)),
        abs=1.0)


def test_quadrature_stops_at_non_finite_integrand():
    calls = []

    def half_nan(x):
        calls.append(x)
        return math.nan if x > 0.5 else 1.0

    with pytest.raises(QuadratureError, match="not finite at x=") as exc_info:
        integrate(half_nan, 0.0, 1.0)
    node = float(str(exc_info.value).rsplit("x=", 1)[1])
    assert node > 0.5
    assert len(calls) == 15  # one Kronrod pass, no bisection


def test_integrate_jet_matches_componentwise_scalars():
    def f(x):
        return Jet2(np.array([[math.sin(x), math.cos(x)],
                              [x * x, math.exp(-x)]]))

    jet = integrate_jet(f, 0.0, 2.0)
    comps = [
        (0, 0, lambda x: math.sin(x)),
        (0, 1, lambda x: math.cos(x)),
        (1, 0, lambda x: x * x),
        (1, 1, lambda x: math.exp(-x)),
    ]
    for i, j, g in comps:
        assert jet.coeffs[i, j] == pytest.approx(integrate(g, 0.0, 2.0), abs=2e-10)


def test_quadrature_validates_spec():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0, rel_tol=1e-8, max_subdivisions=10)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8, max_subdivisions=0)


# ---------------------------------------------------------------------------
# log-domain combinatorics
# ---------------------------------------------------------------------------


@given(st.integers(0, 60), st.integers(0, 60))
def test_log_binomial_matches_comb(n, i):
    if i > n:
        return
    assert math.exp(log_binomial(n, i)) == pytest.approx(math.comb(n, i), rel=1e-12)


@given(st.integers(0, 40), st.integers(0, 40))
def test_falling_factorial_log(m, i):
    if i > m:
        return
    exact = 1
    for step in range(i):
        exact *= m - step
    if exact > 0:
        assert math.exp(falling_factorial_log(m, i)) == pytest.approx(exact, rel=1e-12)


def test_combinatorics_range_validation():
    with pytest.raises(ValueError):
        log_binomial(-1, 0)
    with pytest.raises(ValueError):
        falling_factorial_log(3, 5)
