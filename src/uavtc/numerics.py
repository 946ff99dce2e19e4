"""Numerical substrate: adaptive Gauss-Kronrod quadrature, truncated bivariate
Taylor (jet) arithmetic, and log-domain combinatorics.

A jet stores the Taylor coefficients of a two-variable function around a fixed
expansion point, truncated at a per-variable degree.  Arithmetic on jets
(add, multiply, negative integer powers, exp) propagates derivatives exactly
up to the truncation order: coefficient c[i][j] equals the (i,j) mixed
partial divided by i!*j!.  The success-probability pipeline builds the
coefficients of its exponent directly and uses jets for the final
exponential.

The quadrature is a 15-point Kronrod rule with embedded 7-point Gauss rule,
refined by bisecting the segment with the largest error estimate.  Integrands
may return floats or jets; jet-valued integrals converge coefficient-wise.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Jet2",
    "QuadratureSpec",
    "QuadratureError",
    "SingularJetError",
    "jet_const",
    "jet_var1",
    "jet_var2",
    "jet_add",
    "jet_scale",
    "jet_mul",
    "jet_powneg",
    "jet_exp",
    "integrate",
    "integrate_detailed",
    "integrate_jet",
    "integrate_jet_detailed",
    "log_binomial",
    "falling_factorial_log",
]


class SingularJetError(ValueError):
    """Raised when a jet with zero constant term is inverted."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot produce a result.

    Either refinement exhausted its subdivision budget, or the integrand
    returned a non-finite value, which stops it at once.  Carries the best
    available estimate and its error bound so callers can decide whether to
    accept a degraded result; after a non-finite value they are None and inf.
    """

    def __init__(self, message: str, estimate, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# ---------------------------------------------------------------------------
# Bivariate truncated Taylor arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Taylor coefficients of a two-variable function around ``point``.

    ``coeffs[i, j]`` multiplies ``(s1 - a1)**i * (s2 - a2)**j``; the array
    shape fixes the truncation orders.  Instances are immutable.
    """

    coeffs: np.ndarray
    point: tuple[float, float] = (-1.0, -1.0)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("jet coefficients must be a 2-d array")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "point", (float(self.point[0]), float(self.point[1])))

    @property
    def orders(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def eval(self, s1: float, s2: float) -> float:
        """Evaluate the truncated polynomial at (s1, s2)."""
        d1 = s1 - self.point[0]
        d2 = s2 - self.point[1]
        n1, n2 = self.coeffs.shape
        pow1 = d1 ** np.arange(n1)
        pow2 = d2 ** np.arange(n2)
        return float(pow1 @ self.coeffs @ pow2)


def _check_compatible(a: Jet2, b: Jet2) -> None:
    if a.coeffs.shape != b.coeffs.shape:
        raise ValueError(
            f"jet order mismatch: {a.orders} vs {b.orders}"
        )
    if a.point != b.point:
        raise ValueError(
            f"jet expansion point mismatch: {a.point} vs {b.point}"
        )


def jet_const(value: float, orders: tuple[int, int], point: tuple[float, float] = (-1.0, -1.0)) -> Jet2:
    c = np.zeros((orders[0] + 1, orders[1] + 1))
    c[0, 0] = value
    return Jet2(c, point)


def jet_var1(orders: tuple[int, int], point: tuple[float, float] = (-1.0, -1.0)) -> Jet2:
    """Jet of the coordinate function (s1, s2) -> s1."""
    c = np.zeros((orders[0] + 1, orders[1] + 1))
    c[0, 0] = point[0]
    if orders[0] >= 1:
        c[1, 0] = 1.0
    return Jet2(c, point)


def jet_var2(orders: tuple[int, int], point: tuple[float, float] = (-1.0, -1.0)) -> Jet2:
    """Jet of the coordinate function (s1, s2) -> s2."""
    c = np.zeros((orders[0] + 1, orders[1] + 1))
    c[0, 0] = point[1]
    if orders[1] >= 1:
        c[0, 1] = 1.0
    return Jet2(c, point)


def jet_add(a: Jet2, b: Jet2) -> Jet2:
    _check_compatible(a, b)
    return Jet2(a.coeffs + b.coeffs, a.point)


def jet_scale(a: Jet2, factor: float) -> Jet2:
    return Jet2(a.coeffs * float(factor), a.point)


def _mul_trunc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Truncated 2-d polynomial product; shapes are tiny (<= 8x8).
    n1, n2 = a.shape
    out = np.zeros((n1, n2))
    for i in range(n1):
        for j in range(n2):
            aij = a[i, j]
            if aij != 0.0:
                out[i:, j:] += aij * b[: n1 - i, : n2 - j]
    return out


def jet_mul(a: Jet2, b: Jet2) -> Jet2:
    _check_compatible(a, b)
    return Jet2(_mul_trunc(a.coeffs, b.coeffs), a.point)


def _recip_trunc(a: np.ndarray) -> np.ndarray:
    # Solve a*b = 1 coefficient by coefficient in graded order.
    if a[0, 0] == 0.0:
        raise SingularJetError("cannot invert a jet with zero constant term")
    n1, n2 = a.shape
    b = np.zeros((n1, n2))
    inv0 = 1.0 / a[0, 0]
    b[0, 0] = inv0
    for total in range(1, n1 + n2 - 1):
        for i in range(min(total, n1 - 1), -1, -1):
            j = total - i
            if j > n2 - 1:
                continue
            acc = 0.0
            for p in range(i + 1):
                for q in range(j + 1):
                    if p == 0 and q == 0:
                        continue
                    apq = a[p, q]
                    if apq != 0.0:
                        acc += apq * b[i - p, j - q]
            b[i, j] = -acc * inv0
    return b


def jet_powneg(a: Jet2, k: int) -> Jet2:
    """Raise a jet to the power -k for a positive integer k.

    The reciprocal is obtained by the Leibniz recursion (solving a*b = 1
    order by order), then raised to k by exponentiation by squaring.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("exponent k must be a positive integer")
    recip = _recip_trunc(a.coeffs)
    result = None
    base = recip
    e = k
    while e > 0:
        if e & 1:
            result = base.copy() if result is None else _mul_trunc(result, base)
        e >>= 1
        if e:
            base = _mul_trunc(base, base)
    return Jet2(result, a.point)


def _exp_trunc(a: np.ndarray) -> np.ndarray:
    # d(exp a)/ds = exp(a) * da/ds, solved row 0 along s2 then rows along s1.
    n1, n2 = a.shape
    e = np.zeros((n1, n2))
    e[0, 0] = math.exp(a[0, 0])
    for j in range(1, n2):
        acc = 0.0
        for q in range(1, j + 1):
            if a[0, q] != 0.0:
                acc += q * a[0, q] * e[0, j - q]
        e[0, j] = acc / j
    for i in range(1, n1):
        for j in range(n2):
            acc = 0.0
            for p in range(1, i + 1):
                for q in range(j + 1):
                    apq = a[p, q]
                    if apq != 0.0:
                        acc += p * apq * e[i - p, j - q]
            e[i, j] = acc / i
    return e


def jet_exp(a: Jet2) -> Jet2:
    return Jet2(_exp_trunc(a.coeffs), a.point)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive refinement.

    Convergence requires the summed error estimate to fall below
    ``max(abs_tol, rel_tol * |value|)`` where |value| is the largest
    component magnitude of the running total.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 500

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()

# 15-point Kronrod abscissae/weights with embedded 7-point Gauss rule.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node set on [-1, 1], Gauss points at odd Kronrod indices
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KW = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GW = np.zeros_like(_KW)
_GW[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15(f, a: float, b: float):
    """One Kronrod pass over [a, b]; returns (value, error_estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = [np.asarray(f(mid + half * u), dtype=float) for u in _NODES]
    stacked = np.stack(vals)
    finite = np.isfinite(stacked).reshape(len(_NODES), -1).all(axis=1)
    if not finite.all():
        node = float(mid + half * _NODES[np.argmin(finite)])
        raise QuadratureError(f"integrand is not finite at x={node!r}",
                              estimate=None, error_bound=math.inf)
    kron = half * np.tensordot(_KW, stacked, axes=1)
    gauss = half * np.tensordot(_GW, stacked, axes=1)
    err = float(np.max(np.abs(kron - gauss)))
    return kron, err


def _adaptive(f, breakpoints: Sequence[float], spec: QuadratureSpec):
    """Adaptive bisection over the segments delimited by ``breakpoints``."""
    heap = []
    serial = 0
    total = None
    total_err = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi <= lo:
            continue
        val, err = _gk15(f, lo, hi)
        total = val if total is None else total + val
        total_err += err
        heapq.heappush(heap, (-err, serial, lo, hi, val, err))
        serial += 1
    if total is None:
        # degenerate interval: probe once to learn the value shape
        probe = np.asarray(f(breakpoints[0]), dtype=float)
        return np.zeros_like(probe), 0.0, 0

    splits = 0
    while heap:
        tol = max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(total))))
        if total_err <= tol:
            break
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge after {splits} subdivisions "
                f"(error bound {total_err:.3e}, tolerance {tol:.3e})",
                estimate=total,
                error_bound=total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left_val, left_err = _gk15(f, lo, mid)
        right_val, right_err = _gk15(f, mid, hi)
        total = total - val + left_val + right_val
        total_err = total_err - err + left_err + right_err
        heapq.heappush(heap, (-left_err, serial, lo, mid, left_val, left_err))
        serial += 1
        heapq.heappush(heap, (-right_err, serial, mid, hi, right_val, right_err))
        serial += 1
        splits += 1
    return total, total_err, splits


def _segment_list(a: float, b: float, points: Iterable[float]) -> list[float]:
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    interior = sorted({float(p) for p in points if a < p < b})
    return [float(a), *interior, float(b)]


def integrate_detailed(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate a scalar integrand; returns (value, error_bound).

    ``points`` lists known kinks; the initial segmentation splits there so the
    rule only ever sees smooth pieces.
    """
    segs = _segment_list(a, b, points)
    val, err, _ = _adaptive(lambda x: np.float64(f(x)), segs, spec)
    return float(val), err


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> float:
    return integrate_detailed(f, a, b, spec, points)[0]


def integrate_jet_detailed(
    f: Callable[[float], Jet2],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> tuple[Jet2, float]:
    """Integrate a jet-valued integrand coefficient-wise."""
    segs = _segment_list(a, b, points)
    template = f(0.5 * (segs[0] + segs[-1]))
    if not isinstance(template, Jet2):
        raise TypeError("integrand must return Jet2")

    def coeff_fn(x: float) -> np.ndarray:
        jet = f(x)
        if jet.coeffs.shape != template.coeffs.shape or jet.point != template.point:
            raise ValueError("integrand returned jets with inconsistent layout")
        return jet.coeffs

    val, err, _ = _adaptive(coeff_fn, segs, spec)
    return Jet2(val, template.point), err


def integrate_jet(
    f: Callable[[float], Jet2],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> Jet2:
    return integrate_jet_detailed(f, a, b, spec, points)[0]


# ---------------------------------------------------------------------------
# Log-domain combinatorics
# ---------------------------------------------------------------------------


def log_binomial(n: int, i: int) -> float:
    """log C(n, i); exact in the log domain via lgamma."""
    if i < 0 or n < 0 or i > n:
        raise ValueError(f"binomial index out of range: C({n}, {i})")
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def falling_factorial_log(m: int, i: int) -> float:
    """log of m * (m-1) * ... * (m-i+1), the falling factorial with i terms."""
    if i < 0 or m < 0 or i > m:
        raise ValueError(f"falling factorial out of range: ({m})_{i}")
    return math.lgamma(m + 1) - math.lgamma(m - i + 1)
