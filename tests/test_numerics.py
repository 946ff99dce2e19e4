"""Truncated Taylor series and adaptive quadrature unit tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavtc import numerics
from uavtc.numerics import (
    QuadratureError,
    QuadratureSpec,
    SingularJetError,
    integrate,
    integrate_array_detailed,
    integrate_detailed,
    integrate_jet,
    jet_exp,
    jet_powneg,
)

from helpers import (
    count_passes,
    linear_coeffs,
    richardson_mixed_partial,
    serial_heap_integrate,
)

_mul = numerics._mul_trunc


def _unit(shape):
    one = np.zeros(shape)
    one[0, 0] = 1.0
    return one


# ---------------------------------------------------------------------------
# truncated products, powers and exponentials of coefficient arrays
# ---------------------------------------------------------------------------


def test_jet_product_of_shifted_vars():
    # (1 + s~1) * (1 + s~2) where s~ are the centered coordinates
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert _mul(a, b).tolist() == [[1.0, 1.0], [1.0, 1.0]]


def _jets(orders=(2, 2), min_const=None):
    def build(draw_vals):
        return np.array(draw_vals, dtype=float).reshape(orders[0] + 1, orders[1] + 1)

    n = (orders[0] + 1) * (orders[1] + 1)
    elems = st.floats(-3, 3, allow_nan=False)
    strat = st.lists(elems, min_size=n, max_size=n).map(build)
    if min_const is not None:
        strat = strat.filter(lambda j: abs(j[0, 0]) >= min_const)
    return strat


@given(_jets(), _jets())
def test_jet_mul_commutes(a, b):
    ab, ba = _mul(a, b), _mul(b, a)
    np.testing.assert_allclose(ab, ba, rtol=0, atol=1e-12)


@given(_jets())
def test_jet_mul_identity(a):
    one = _unit(a.shape)
    np.testing.assert_array_equal(_mul(a, one), a)


@given(_jets(min_const=0.1))
@settings(max_examples=200)
def test_jet_powneg_times_power_is_one(a):
    inv = jet_powneg(a, 1)
    prod = _mul(a, inv)
    np.testing.assert_allclose(prod, _unit(prod.shape), rtol=0, atol=1e-9)


@given(_jets(orders=(1, 2)))
@settings(max_examples=200)
def test_jet_exp_of_negation_inverts(a):
    prod = _mul(jet_exp(a), jet_exp(-a))
    np.testing.assert_allclose(prod, _unit(prod.shape), rtol=0, atol=1e-8)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_jet_powneg_matches_binomial_series(k):
    # f(s1, s2) = (1 - q*s1)^(-k) expanded around s1 = a has coefficients
    # C(k-1+j, j) q^j (1 - q a)^(-(k+j)); the s2 direction stays constant.
    q, a = 0.37, -1.0
    orders = (4, 2)
    jet = jet_powneg(linear_coeffs(orders, 1.0, -q), k)
    for j in range(orders[0] + 1):
        expect = math.comb(k - 1 + j, j) * q**j * (1 - q * a) ** (-(k + j))
        assert jet[j, 0] == pytest.approx(expect, rel=1e-12)
        assert np.all(jet[j, 1:] == 0.0)


@pytest.mark.parametrize("op", [jet_exp, lambda a: jet_powneg(a, 3)])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 2)])
def test_jet_ops_take_lists_or_arrays_and_return_arrays(op, shape):
    a = linear_coeffs((shape[0] - 1, shape[1] - 1), 1.5, 0.3, -0.2)
    from_array, from_list = op(a), op(a.tolist())
    assert type(from_array) is np.ndarray and from_array.shape == shape
    assert type(from_list) is np.ndarray
    np.testing.assert_array_equal(from_list, from_array)


def test_jet_powneg_rejects_vanishing_constant():
    zero_const = linear_coeffs((1, 1), 1.0, 1.0)
    with pytest.raises(SingularJetError):
        jet_powneg(zero_const, 2)


def test_jet_coefficients_match_finite_differences():
    # composed {+, *, ^(-k), exp} objective with known smooth scalar form
    orders = (2, 2)
    jet = _mul(
        jet_exp(linear_coeffs(orders, 0.0, 0.3, 0.2)),
        _mul(
            jet_powneg(linear_coeffs(orders, 1.0, -0.4), 2),
            jet_powneg(linear_coeffs(orders, 1.0, 0.0, -0.25), 3),
        ),
    )

    def scalar(u, v):
        return math.exp(0.3 * u + 0.2 * v) * (1 - 0.4 * u) ** -2 * (1 - 0.25 * v) ** -3

    # low orders at a small step, where float64 differencing noise is
    # negligible; the full grid (including the 2+2 mixed partial, whose
    # noise floor is larger) at a coarser step
    for i in range(3):
        for j in range(3):
            coeff = jet[i, j] * math.factorial(i) * math.factorial(j)
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


def test_array_integrand_is_called_once_per_pass(monkeypatch):
    passes = count_passes(monkeypatch)
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return np.stack([np.sqrt(x), np.sin(x)], axis=1)

    value, err = integrate_array_detailed(f, 0.0, 2.0, points=(1.0,))
    assert value == pytest.approx([2.0 / 3.0 * 2.0**1.5, 1.0 - math.cos(2.0)], abs=1e-9)
    assert err < 1e-7
    assert len(passes) > 2  # sqrt at 0 forces bisection
    assert sizes == [(15 * len(segments),) for segments in passes]
    assert passes[0] == [(0.0, 1.0), (1.0, 2.0)]  # both initial segments at once


_ROUND_CASES = {
    "sqrt kink": (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, ()),
    "oscillatory": (lambda x: np.sin(50.0 * x) / (1e-3 + np.abs(x - 0.31)), 0.0, 1.0, (0.31,)),
    "array-valued": (lambda x: np.stack([np.sqrt(x), np.sin(x), np.exp(-x * x)], axis=1),
                     0.0, 2.0, (1.0,)),
}


@pytest.mark.parametrize("case", sorted(_ROUND_CASES))
def test_round_driver_matches_serial_heap_driver(monkeypatch, case):
    f, a, b, points = _ROUND_CASES[case]
    reference, reference_err, reference_segments = serial_heap_integrate(f, a, b, points=points)
    passes = count_passes(monkeypatch)
    value, err = integrate_array_detailed(f, a, b, points=points)
    assert np.max(np.abs(value - reference)) <= 1e-14
    assert err == pytest.approx(reference_err, rel=1e-6)
    assert sum(map(len, passes)) <= reference_segments
    assert len(passes) < reference_segments  # the serial driver calls once per segment


def test_one_round_bisects_several_segments(monkeypatch):
    passes = count_passes(monkeypatch)
    f, a, b, points = _ROUND_CASES["oscillatory"]
    integrate_array_detailed(f, a, b, points=points)
    assert max(map(len, passes[1:])) >= 8  # halves of four or more segments in one call


def test_round_budget_is_never_exceeded(monkeypatch):
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=5)
    passes = count_passes(monkeypatch)
    with pytest.raises(QuadratureError, match="did not converge after 5 subdivisions"):
        integrate_array_detailed(_ROUND_CASES["oscillatory"][0], 0.0, 1.0, spec)
    # one initial segment, then two halves per subdivision
    assert sum(map(len, passes)) == 1 + 2 * 5


def test_array_integrand_non_finite_names_first_bad_node():
    nodes = 0.5 + 0.5 * numerics._NODES
    first_bad = float(nodes[nodes > 0.7][0])
    with pytest.raises(QuadratureError, match=re.escape(f"x={first_bad!r}")):
        integrate_array_detailed(lambda x: np.where(x > 0.7, math.nan, x), 0.0, 1.0)


def test_multi_segment_round_names_first_bad_node(monkeypatch):
    # the first round covers [0, 1] and [1, 2]; only the second has bad nodes
    passes = count_passes(monkeypatch)
    nodes = 1.5 + 0.5 * numerics._NODES
    first_bad = float(nodes[nodes > 1.6][0])
    with pytest.raises(QuadratureError, match=re.escape(f"x={first_bad!r}")):
        integrate_array_detailed(lambda x: np.where(x > 1.6, math.nan, x), 0.0, 2.0,
                                 points=(1.0,))
    assert passes == [[(0.0, 1.0), (1.0, 2.0)]]


def test_gk15_takes_scalar_or_array_segments():
    def f(x):
        return np.stack([x * x, np.cos(x)], axis=1)

    one_value, one_err = numerics._gk15(f, 0.0, 1.0)
    values, errs = numerics._gk15(f, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    assert one_value.shape == (2,) and np.ndim(one_err) == 0
    assert values.shape == (2, 2) and errs.shape == (2,)
    assert values[0] == pytest.approx(one_value, abs=1e-15)
    assert values[1] == pytest.approx([26.0 / 3.0, math.sin(3.0) - math.sin(1.0)], abs=1e-12)


def test_array_integrand_on_degenerate_interval_keeps_shape():
    value, err = integrate_array_detailed(lambda x: np.ones((len(x), 2, 3)), 1.0, 1.0)
    assert value.shape == (2, 3) and not value.any() and err == 0.0


def test_integrate_jet_matches_componentwise_scalars():
    def f(x):
        return np.array([[math.sin(x), math.cos(x)],
                         [x * x, math.exp(-x)]])

    jet = integrate_jet(f, 0.0, 2.0)
    comps = [
        (0, 0, lambda x: math.sin(x)),
        (0, 1, lambda x: math.cos(x)),
        (1, 0, lambda x: x * x),
        (1, 1, lambda x: math.exp(-x)),
    ]
    for i, j, g in comps:
        assert jet[i, j] == pytest.approx(integrate(g, 0.0, 2.0), abs=2e-10)


def test_quadrature_validates_spec():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0, rel_tol=1e-8, max_subdivisions=10)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8, max_subdivisions=0)
