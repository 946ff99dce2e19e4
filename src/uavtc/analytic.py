"""Analytic results: interferer-count dynamics and correlated success.

Two families of results, both driven by the same geometry (nodes at a common
altitude, two-level sectorized gain over a circular footprint, a fraction of
nodes moving in a uniformly random direction between two observation
instants):

* Counting: the distribution of the number of in-footprint interferers at
  the second instant conditioned on the count at the first.  The survivors
  of the initial batch are binomially thinned by the per-node stay
  probability, while fresh arrivals from outside form an independent Poisson
  contribution.  A node uniform in the footprint of radius r that moves a
  distance d stays inside with probability equal to the lens overlap fraction

      L(d) = [2 r^2 acos(d / 2r) - (d / 2) sqrt(4 r^2 - d^2)] / (pi r^2),

  and L(d) = 0 for d >= 2r.  The stay probability is E_V[L(V t)] and, by the
  displacement theorem, the mean arrival count is
  lambda * p * pi * r^2 * (1 - E_V[L(V t)]).

* SINR: the probability that the serving link's SINR clears a threshold at
  both instants jointly, at each instant marginally, and at the second
  instant conditioned on a failure at the first.  With gamma fading of
  integer shape k the two-instant Laplace functional yields the joint
  probability as the sum of the first k x k Taylor coefficients, around
  (-1, -1), of

      exp(c*(s1+s2)*noise) * exp(E(s1, s2)),
      E(s1, s2) = -2*pi*lambda * int_0^inf [1 - A(x; s1) * B(x; s2)] x dx,

  where c = threshold * height^alpha / (omega * g_main), A is the
  gamma-fading factor of a static interferer at ground distance x and B
  averages the same factor over the interferer's random displacement.  A
  factor (1 - q s)^(-k) has the Taylor coefficients
  C(k+i-1, i) (1+q)^(-k) (q/(1+q))^i around s = -1, so the coefficients of
  the integrand form the rank-one array x (delta - a(x) b(x)^T).  Jet
  arithmetic from :mod:`uavtc.numerics` is needed only for the final
  exponential.

Every quantity is linear in the speed law.  Each is computed for one fixed
speed, as a closed form or as one radial integral whose direction average
is a fixed-node rule, and a speed density adds one outermost integral over
v, split at the density's breakpoints and at the speeds where a footprint
circle and its displaced copy become tangent.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import NetworkParams, SpeedDistribution
from .numerics import (
    Jet2,
    QuadratureSpec,
    falling_factorial_log,
    integrate_detailed,
    integrate_jet_detailed,
    jet_add,
    jet_const,
    jet_exp,
    jet_scale,
    jet_var1,
    jet_var2,
    log_binomial,
)

# Bound here only because perfbench/spans.py patches them by these names;
# ROADMAP direction 4 moves that instrumentation into the library.
from .mobility import containment_cdf  # noqa: F401
from .numerics import integrate_jet, jet_powneg  # noqa: F401

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
_TAIL_EPS = 1e-9

SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=1000)


@functools.cache
def _direction_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for the direction average on one arc.

    It is applied to each arc between gain crossings, where the integrand is
    analytic.  Built on first use, because numpy.polynomial is slow to import.
    """
    return np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# Interferer counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterfererPmf:
    """Distribution of the in-footprint interferer count at the second instant.

    ``probs[n]`` is the probability of exactly n interferers; ``tail_mass``
    is whatever lies beyond the last computed index.
    """

    m: int
    t: float
    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)


def _lens_fraction(d: float, r: float) -> float:
    """Share of a disc of radius r that its copy shifted by d still covers."""
    u = d / (2.0 * r)
    if u >= 1.0:
        return 0.0
    return (2.0 / math.pi) * (math.acos(u) - u * math.sqrt(1.0 - u * u))


def footprint_ingress_integral(params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Probability that a node uniform in the footprint is still inside after t.

    Equals E_V[L(V t)] for the lens overlap fraction L of the footprint.
    """
    r_out = params.antenna.r_out
    if t == 0 or speed.support_max * t == 0:
        return 1.0
    if speed.atom is not None:
        return _lens_fraction(speed.atom * t, r_out)
    value, _ = integrate_detailed(
        lambda v: speed.pdf(v) * _lens_fraction(v * t, r_out),
        speed.support_min,
        speed.support_max,
        SPEC,
        points=(*speed.pdf_breakpoints, 2.0 * r_out / t),  # L has a kink at d = 2r
    )
    return min(max(value, 0.0), 1.0)


def footprint_egress_integral(params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Mean number of outside nodes that move into the footprint by t.

    By stationarity this equals the mean number of mobile nodes of a
    full-intensity footprint that leave it.
    """
    r_out = params.antenna.r_out
    if params.lam == 0.0 or params.p_mobile == 0.0 or speed.support_max * t == 0.0:
        return 0.0
    stay = footprint_ingress_integral(params, speed, t)
    return params.lam * params.p_mobile * math.pi * r_out * r_out * (1.0 - stay)


def mean_departures(m: int, params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Mean number of the m initial in-footprint nodes that leave by t."""
    if m < 0:
        raise ValueError("m must be >= 0")
    stay = footprint_ingress_integral(params, speed, t)
    return m * params.p_mobile * (1.0 - stay)


def _pow_log(base: float, exponent: int) -> float | None:
    """exponent*log(base) with the 0**0 = 1 convention; None marks a zero term."""
    if exponent == 0:
        return 0.0
    if base <= 0.0:
        return None
    return exponent * math.log(base)


def conditional_interferer_pmf(
    m: int,
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    n_max: int | None = None,
) -> InterfererPmf:
    """Pmf of the interferer count at the second instant given m at the first.

    ``m`` is any integer type (numpy integers included).  Each term is
    assembled in the log domain and summed linearly; n_max defaults to the
    smallest index whose cumulative mass exceeds 1 - 1e-9, capped at
    m + ceil(A + 12*sqrt(A)) + 20 where A is the mean arrival count.
    """
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError(f"m must be a non-negative integer, got {m!r}") from None
    if m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m!r}")
    stay_in = footprint_ingress_integral(params, speed, t)
    arrivals = footprint_egress_integral(params, speed, t)
    p = params.p_mobile
    depart_prob = p * (1.0 - stay_in)  # per initial node
    survive_prob = p * stay_in + (1.0 - p)

    cap = m + math.ceil(arrivals + 12.0 * math.sqrt(arrivals)) + 20
    limit = cap if n_max is None else n_max

    probs = []
    cum = 0.0
    for n in range(limit + 1):
        total = 0.0
        for i in range(min(n, m) + 1):
            pieces = [
                log_binomial(n, i),
                falling_factorial_log(m, i),
                -math.lgamma(n + 1),
                _pow_log(depart_prob, m - i),
                _pow_log(survive_prob, i),
                _pow_log(arrivals, n - i),
                -arrivals,
            ]
            if any(piece is None for piece in pieces):
                continue
            total += math.exp(sum(pieces))
        probs.append(total)
        cum += total
        if n_max is None and cum > 1.0 - _TAIL_EPS:
            break
    tail = max(0.0, 1.0 - cum)
    return InterfererPmf(m=m, t=float(t), probs=np.array(probs), tail_mass=tail)


def unconditional_interferer_pmf(params: NetworkParams, n_max: int | None = None) -> InterfererPmf:
    """Stationary Poisson count of in-footprint interferers (any instant)."""
    r_out = params.antenna.r_out
    mu = params.lam * math.pi * r_out * r_out
    cap = math.ceil(mu + 12.0 * math.sqrt(mu)) + 20
    limit = cap if n_max is None else n_max
    probs = []
    cum = 0.0
    for n in range(limit + 1):
        log_p = _pow_log(mu, n)
        val = 0.0 if log_p is None else math.exp(log_p - mu - math.lgamma(n + 1))
        if mu == 0.0 and n == 0:
            val = 1.0
        probs.append(val)
        cum += val
        if n_max is None and cum > 1.0 - _TAIL_EPS:
            break
    return InterfererPmf(m=0, t=0.0, probs=np.array(probs), tail_mass=max(0.0, 1.0 - cum))


# ---------------------------------------------------------------------------
# Correlated success probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuccessReport:
    """Joint, marginal, and failure-conditioned success at one (t, threshold)."""

    p_joint: float
    p_marginal_0: float
    p_marginal_t: float
    p_retx_given_fail: float
    p_independent_joint: float
    quadrature_error_bound: float


def _integrate_mapped(f, a: float, b: float, points) -> tuple[np.ndarray, float]:
    """Integral of the array-valued f over [a, b] and its error bound.

    The segment between consecutive sorted ``points`` number i is reached
    from u in [i, i + 1] through x = lo + half * (1 - cos(pi * (u - i))).
    The map clusters nodes at both ends of every segment, where arc lengths
    and lens areas behave like square roots or 3/2 powers; in u they are
    smooth, so one or two Kronrod passes per segment suffice.
    """
    edges = sorted({a, b, *(p for p in points if a < p < b)})
    n = len(edges) - 1

    def mapped(u: float) -> Jet2:
        i = min(int(u), n - 1)
        half = 0.5 * (edges[i + 1] - edges[i])
        c = math.pi * (u - i)
        return Jet2(f(edges[i] + half * (1.0 - math.cos(c))) * (half * math.pi * math.sin(c)))

    total, err = integrate_jet_detailed(mapped, 0.0, float(n), SPEC, points=range(1, n))
    return total.coeffs, err


class _Exponent:
    """Taylor coefficients of the Laplace exponent E around (-1, -1).

    A fading factor contributes the coefficient vector ``series(d2)``; an
    inactive instant contributes the factor 1, whose vector is
    e0 = (1, 0, ..., 0).
    """

    def __init__(self, params, threshold, s1_active, s2_active):
        self.params = params
        k = params.fading.k
        self.k = k
        self.binom = np.array([math.comb(k + i - 1, i) for i in range(k)], dtype=float)
        self.powers = np.arange(k)
        self.e0 = np.eye(1, k)[0]
        self.s1_active = s1_active
        self.s2_active = s2_active
        self.scale = threshold / params.antenna.g_main
        self.h2 = params.height * params.height
        self.half_alpha = params.alpha / 2.0

    def series(self, d2: np.ndarray) -> np.ndarray:
        """Coefficients of (1 - q s)^(-k) for q at squared distances d2, shape (n, k)."""
        q = (self.scale * self.params.antenna.gain_at_sq(d2)
             * (self.h2 / (self.h2 + d2)) ** self.half_alpha)[:, None]
        return self.binom * (1.0 + q) ** -self.k * (q / (1.0 + q)) ** self.powers

    def at_distance(self, vt: float) -> tuple[np.ndarray, float]:
        """E when every mobile node moves the distance vt; (coefficients, error bound)."""
        ant = self.params.antenna
        p = self.params.p_mobile
        points = {ant.r_in, ant.r_out}
        for r in (ant.r_in, ant.r_out):
            points.update((abs(r - vt), r + vt))

        def bracket(x: float) -> np.ndarray:
            # direction angles in [0, pi], split where the moved node
            # crosses a gain boundary
            cuts = [0.0, math.pi]
            if x * vt > 0.0:
                for r in (ant.r_in, ant.r_out):
                    if abs(x - vt) < r < x + vt:
                        cuts.append(math.acos((x * x + vt * vt - r * r) / (2.0 * x * vt)))
                # the path loss is singular at phi = +-i*pole, close to the
                # real axis when nodes fly low; panels doubling in length
                # from phi = 0 each stay as far from it as they are long
                pole = math.acosh(1.0 + (self.h2 + (x - vt) ** 2) / (2.0 * x * vt))
                while pole < math.pi:
                    cuts.append(pole)
                    pole *= 2.0
            nodes, weights = _direction_rule()
            cuts = np.sort(cuts)
            half = 0.5 * np.diff(cuts)[:, None]
            phi = (cuts[:-1, None] + half * (1.0 + nodes)).ravel()
            weights = (half * weights).ravel() / math.pi
            d2 = np.concatenate(([x * x], x * x + vt * vt - 2.0 * x * vt * np.cos(phi)))
            terms = self.series(d2)
            a = terms[0] if self.s1_active else self.e0
            b = p * (weights @ terms[1:]) + (1.0 - p) * terms[0] if self.s2_active else self.e0
            out = -x * np.outer(a, b)
            out[0, 0] += x
            return out

        raw, err = _integrate_mapped(bracket, 0.0, ant.r_out + vt, points)
        scale = TWO_PI * self.params.lam
        return -scale * raw, scale * err


def _exponent_jet_detailed(params, speed, t, threshold, s1_active, s2_active):
    k = params.fading.k
    if params.lam == 0.0 or threshold == 0.0:
        return jet_const(0.0, (k - 1, k - 1)), 0.0
    ctx = _Exponent(params, threshold, s1_active, s2_active)
    mobile = s2_active and params.p_mobile > 0.0 and speed.support_max * t > 0.0
    if not mobile or speed.atom is not None:
        coeffs, err = ctx.at_distance(speed.atom * t if mobile else 0.0)
        return Jet2(coeffs), err

    # E is linear in the speed law: average the fixed-speed exponent over v
    worst_inner = 0.0

    def at_speed(v: float) -> np.ndarray:
        nonlocal worst_inner
        coeffs, inner = ctx.at_distance(v * t)
        worst_inner = max(worst_inner, inner)
        return speed.pdf(v) * coeffs

    # E is smooth in v except where a footprint circle and a displaced one
    # become tangent, and at the breakpoints of the density
    radii = (params.antenna.r_in, params.antenna.r_out)
    tangent = [abs(a + sign * b) / t for a in radii for b in radii for sign in (-1.0, 1.0)]
    coeffs, err = _integrate_mapped(
        at_speed, speed.support_min, speed.support_max, (*speed.pdf_breakpoints, *tangent))
    return Jet2(coeffs), err + worst_inner


def laplace_exponent_jet(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
) -> Jet2:
    """Log of the two-instant interference Laplace functional as a jet.

    Evaluating exp of this jet at (s1, s2) = (-1, -1) and collecting Taylor
    coefficients yields the interference part of the success probability.
    """
    return _exponent_jet_detailed(params, speed, t, threshold, True, True)[0]


def _success_detailed(params, speed, t, threshold, s1_active, s2_active):
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    exponent, err = _exponent_jet_detailed(params, speed, t, threshold, s1_active, s2_active)
    orders = exponent.orders
    zero = jet_const(0.0, orders)
    s1 = jet_var1(orders) if s1_active else zero
    s2 = jet_var2(orders) if s2_active else zero
    h = params.height
    c = threshold * h**params.alpha / (params.fading.omega * params.antenna.g_main)
    noise_jet = jet_scale(jet_add(s1, s2), c * params.noise)
    value = float(jet_exp(jet_add(noise_jet, exponent)).coeffs.sum())
    if value > 1.0 + _TAIL_EPS or value < -_TAIL_EPS:
        log.warning("success probability %.3e outside [0, 1]; clamping", value)
    return min(max(value, 0.0), 1.0), err


def joint_success(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
) -> float:
    """P{SINR over threshold at both instants}."""
    return _success_detailed(params, speed, t, threshold, True, True)[0]


def marginal_success(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
    which: str = "time0",
) -> float:
    """Single-instant success probability; ``which`` is "time0" or "timeT".

    By stationarity of the displaced point process the two marginals agree.
    "time0" needs no mobility and is the one ``retransmission_report`` uses;
    "timeT" averages over the displacement, so comparing the two checks the
    mobile part of the exponent.
    """
    if which == "time0":
        return _success_detailed(params, speed, t, threshold, True, False)[0]
    if which == "timeT":
        return _success_detailed(params, speed, t, threshold, False, True)[0]
    raise ValueError("which must be 'time0' or 'timeT'")


def retransmission_report(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
) -> SuccessReport:
    """Joint/marginal success and the failure-conditioned retry success.

    The time-t marginal equals the time-0 marginal by stationarity.  The
    conditional is (p_marginal_t - p_joint) / (1 - p_marginal_0); it is
    undefined when the first-instant failure event has vanishing probability.
    """
    p_m, err_m = _success_detailed(params, speed, t, threshold, True, False)
    if p_m >= 1.0 - 1e-12:
        raise ValueError("failure event has vanishing probability; conditional undefined")
    p_joint, err_j = _success_detailed(params, speed, t, threshold, True, True)
    if p_joint > p_m + _TAIL_EPS:
        log.warning("joint success %.12g exceeds the marginal %.12g", p_joint, p_m)
    p_joint = min(p_joint, p_m)
    retx = (p_m - p_joint) / (1.0 - p_m)
    return SuccessReport(
        p_joint=p_joint,
        p_marginal_0=p_m,
        p_marginal_t=p_m,
        p_retx_given_fail=min(max(retx, 0.0), 1.0),
        p_independent_joint=p_m * p_m,
        quadrature_error_bound=err_m + err_j,
    )
