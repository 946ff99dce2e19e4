"""Numerical substrate: adaptive Gauss-Kronrod quadrature and the exponential
of a truncated bivariate Taylor series.

A truncated bivariate series is the 2-d array of its Taylor coefficients
around (-1, -1): c[i, j] multiplies (s1 + 1)**i * (s2 + 1)**j and is the
(i, j) mixed partial divided by i! * j!.  The success-probability pipeline
builds the coefficients of its exponent in closed form and only
exponentiates them: ``jet_exp`` maps an array to that of its exponential,
and ``jet_powneg`` to that of a negative integer power, both truncated at
the input's shape.

The quadrature is a 15-point Kronrod rule with embedded 7-point Gauss rule,
refined in rounds: each round bisects the segments with the largest error
estimates, as few as can bring the summed error within tolerance.  An
integrand of ``integrate_array_detailed`` is called once per round with the
15 nodes of every segment that round evaluates, concatenated, and returns
the values with the node axis first, so an array of any shape can be
integrated component-wise.  ``integrate`` and ``integrate_detailed`` adapt
a float- or array-valued function of one node to that contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
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


def _coefficients(a) -> np.ndarray:
    c = np.asarray(a, dtype=float)
    if c.ndim != 2:
        raise ValueError("jet coefficients must be a 2-d array")
    return c


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


def jet_powneg(a, k: int) -> np.ndarray:
    """Coefficient array of a**-k for a positive integer k, truncated at a's shape.

    With N = a / a00 - 1, which has no constant term, a**-k is the binomial
    series a00**-k * sum_j C(-k, j) N**j, and N**j vanishes past the total
    degree, so the sum is finite.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("exponent k must be a positive integer")
    a = _coefficients(a)
    a00 = a[0, 0]
    if a00 == 0.0:
        raise SingularJetError("cannot invert a jet with zero constant term")
    n = a / a00
    n[0, 0] = 0.0
    power = np.zeros_like(n)
    power[0, 0] = 1.0
    total = power.copy()
    for j in range(1, sum(a.shape) - 1):
        power = _mul_trunc(power, n)
        total += (-1) ** j * math.comb(k + j - 1, j) * power
    return a00**-k * total


def jet_exp(a) -> np.ndarray:
    """Coefficient array of exp(a), truncated at a's shape."""
    a = _coefficients(a)
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
    f: Callable[[float], float | np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> tuple[float | np.ndarray, float]:
    """Integrate an integrand of one node; returns (value, error_bound).

    The value is a float for a float integrand and an array, integrated
    component-wise, for an array integrand.
    """
    val, err = integrate_array_detailed(lambda xs: [f(x) for x in xs], a, b, spec, points)
    return (float(val) if val.ndim == 0 else val), err


def integrate(
    f: Callable[[float], float | np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    points: Iterable[float] = (),
) -> float | np.ndarray:
    return integrate_detailed(f, a, b, spec, points)[0]


# Kept only because perfbench/spans.py patches these names; ROADMAP direction 1
# moves that instrumentation into the library.
integrate_jet_detailed = integrate_detailed
integrate_jet = integrate
