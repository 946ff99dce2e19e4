"""Numerical substrate: adaptive Gauss-Kronrod quadrature and the exponential
of a truncated bivariate Taylor series.

The success-probability pipeline builds the Taylor coefficients of its
exponent, around (-1, -1), as an array in closed form and only
exponentiates it: ``jet_exp`` maps the coefficient array of a function to
that of its exponential, truncated at the same per-variable degrees, so
c[i][j] stays the (i,j) mixed partial divided by i!*j!.  ``Jet2`` wraps
such an array immutably.  ``jet_powneg`` raises an array to a negative
integer power.

The quadrature is a 15-point Kronrod rule with embedded 7-point Gauss rule,
refined in rounds: each round bisects the segments with the largest error
estimates, as few as can bring the summed error within tolerance.  An
integrand of ``integrate_array_detailed`` is called once per round with the
15 nodes of every segment that round evaluates, concatenated, and returns
the values with the node axis first, so an array of any shape can be
integrated component-wise.  ``integrate``, ``integrate_detailed`` (float
integrands) and ``integrate_jet``, ``integrate_jet_detailed`` (``Jet2``
integrands) adapt a function of one node to that contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Jet2",
    "QuadratureSpec",
    "QuadratureError",
    "SingularJetError",
    "jet_powneg",
    "jet_exp",
    "integrate",
    "integrate_detailed",
    "integrate_array_detailed",
    "integrate_jet",
    "integrate_jet_detailed",
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
# Truncated bivariate Taylor series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Taylor coefficients of a two-variable function around (-1, -1).

    ``coeffs[i, j]`` multiplies ``(s1 + 1)**i * (s2 + 1)**j``; the array
    shape fixes the truncation orders.  Instances are immutable.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("jet coefficients must be a 2-d array")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


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
    return Jet2(result)


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
    return Jet2(_exp_trunc(a.coeffs))


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
_RULES = np.stack([_KW, _GW])


def _gk15(f, a, b):
    """Kronrod passes over the segments [a, b]; returns (values, error_estimates).

    ``a`` and ``b`` hold the segment ends (arrays, or scalars for one
    segment).  ``f`` is called once with the 15 nodes of every segment,
    concatenated segment by segment, and returns their values with the node
    axis first.  Values and error estimates carry the segment axes of ``a``.
    """
    mid = 0.5 * (np.asarray(a, dtype=float) + b)
    half = 0.5 * (np.asarray(b, dtype=float) - a)
    nodes = (mid[..., None] + half[..., None] * _NODES).ravel()
    stacked = np.asarray(f(nodes), dtype=float)
    if stacked.shape[:1] != nodes.shape:
        raise ValueError(
            f"integrand returned shape {stacked.shape} for {nodes.size} nodes")
    finite = np.isfinite(stacked).reshape(nodes.size, -1).all(axis=1)
    if not finite.all():
        node = float(nodes[np.argmin(finite)])
        raise QuadratureError(f"integrand is not finite at x={node!r}",
                              estimate=None, error_bound=math.inf)
    # one matmul applies both rules to every segment: (2, 15) @ (segments, 15, components)
    rules = _RULES @ stacked.reshape(half.size, len(_NODES), -1)
    kron, gauss = half.reshape(-1, 1) * rules[:, 0], half.reshape(-1, 1) * rules[:, 1]
    err = np.abs(kron - gauss).max(axis=1).reshape(half.shape)
    return kron.reshape(*half.shape, *stacked.shape[1:]), err


def _adaptive(f, breakpoints: Sequence[float], spec: QuadratureSpec):
    """Adaptive bisection, in rounds, of the segments between sorted ``breakpoints``.

    Each round bisects, worst first, the fewest segments whose summed error
    estimate covers the excess over the tolerance, and evaluates all the new
    halves in one ``_gk15`` call.
    """
    edges = np.asarray(breakpoints, dtype=float)
    if edges[-1] <= edges[0]:
        # degenerate interval: probe one node to learn the value shape
        probe = np.asarray(f(edges[:1]), dtype=float)
        return np.zeros_like(probe[0]), 0.0, 0
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk15(f, lo, hi)
    splits = 0
    while True:
        total = val.sum(axis=0)
        total_err = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(total))))
        if total_err <= tol:
            return total, total_err, splits
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge after {splits} subdivisions "
                f"(error bound {total_err:.3e}, tolerance {tol:.3e})",
                estimate=total,
                error_bound=total_err,
            )
        order = np.argsort(-err, kind="stable")
        need = np.searchsorted(np.cumsum(err[order]), total_err - tol) + 1
        split = order[:min(need, spec.max_subdivisions - splits)]
        mid = 0.5 * (lo[split] + hi[split])
        halves = (np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]))
        fresh = (*halves, *_gk15(f, *halves))
        # the bisected segments give way to their halves, appended at the end
        lo, hi, val, err = [np.concatenate([np.delete(old, split, axis=0), new])
                            for old, new in zip((lo, hi, val, err), fresh)]
        splits += split.size


def _segment_list(a: float, b: float, points: Iterable[float]) -> list[float]:
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    interior = sorted({float(p) for p in points if a < p < b})
    return [float(a), *interior, float(b)]


def integrate_array_detailed(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> tuple[np.ndarray, float]:
    """Integrate an array-valued integrand; returns (value, error_bound).

    ``f`` maps an array of n nodes to values of shape (n, ...), and is called
    once per refinement round with the 15 nodes of each segment the round
    evaluates.  ``points`` lists known kinks; the initial segmentation splits
    there so the rule only ever sees smooth pieces.  The error bound is the
    summed Kronrod-Gauss difference of the largest component.
    """
    val, err, _ = _adaptive(f, _segment_list(a, b, points), spec)
    return val, err


def integrate_detailed(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate a scalar integrand; returns (value, error_bound)."""
    val, err = integrate_array_detailed(lambda xs: [f(x) for x in xs], a, b, spec, points)
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
    template = f(0.5 * (a + b))
    if not isinstance(template, Jet2):
        raise TypeError("integrand must return Jet2")

    def coeff_fn(x: float) -> np.ndarray:
        jet = f(x)
        if jet.coeffs.shape != template.coeffs.shape:
            raise ValueError("integrand returned jets with inconsistent layout")
        return jet.coeffs

    val, err = integrate_array_detailed(
        lambda xs: [coeff_fn(x) for x in xs], a, b, spec, points)
    return Jet2(val), err


def integrate_jet(
    f: Callable[[float], Jet2],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> Jet2:
    return integrate_jet_detailed(f, a, b, spec, points)[0]

