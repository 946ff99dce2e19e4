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
  C(k+i-1, i) (1+q)^(-k) (q/(1+q))^i around s = -1.  With a(x) and b(x)
  the coefficient vectors of A and B, a1 = (1, a) and b1 = (1, b), one
  radial integral of the rank-one (k+1) x (k+1) array x (D - a1 b1^T), D
  one on its leading 2 x 2 block, holds every exponent at once: [1:, 1:]
  is the joint one, [1:, :1] that of the time-0 marginal (s2 = 0) and
  [:1, 1:] that of the time-t marginal (s1 = 0).  The final exponential of
  that coefficient array is :func:`uavtc.numerics.jet_exp`.

Every quantity is linear in the speed law.  Every speed density is
piecewise linear and L has elementary integrals against 1 and against v, so
the stay probability is an exact sum over the density's pieces.  A SINR
quantity is computed for one fixed speed as one radial integral whose
direction average is a fixed-node rule, and a speed density adds one
outermost integral over v, split at the density's breakpoints and at the
speeds where a footprint circle and its displaced copy become tangent.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    NetworkParams, SpeedDistribution, check_count, check_gap, check_n_max, check_threshold)
from .numerics import QuadratureSpec, integrate_array_detailed, jet_exp

# Bound here only because perfbench/spans.py patches them by these names;
# ROADMAP direction 1 moves that instrumentation into the library.
from .mobility import containment_cdf  # noqa: F401
from .numerics import (  # noqa: F401
    integrate_detailed, integrate_jet, integrate_jet_detailed, jet_powneg)

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


def _lens_fraction(d, r: float):
    """Share of a disc of radius r that its copy shifted by d still covers.

    ``d`` may be an array of shifts.
    """
    u = np.minimum(np.asarray(d) / (2.0 * r), 1.0)
    return (2.0 / math.pi) * (np.arccos(u) - u * np.sqrt(1.0 - u * u))


# c_n for n = 11 down to 1 in int_0^u w L(w) dw = u^2/2 - (4/pi)(u^3/3 + sum_n c_n u^(2n+3)),
# from L' = -(4/pi) sqrt(1 - u^2) and sqrt(1 - w) = 1 - sum_n C(2n, n) w^n / ((2n-1) 4^n)
_LENS_TAIL = tuple(-math.comb(2 * n, n) / ((2 * n - 1) * 4**n * (2 * n + 1) * (2 * n + 3))
                   for n in range(11, 0, -1))
_SERIES_BELOW = 0.25  # where the series replaces the closed first moment


def _lens_tail(u: float) -> float:
    """sum_n c_n u^(2n+3) over the ``_LENS_TAIL`` coefficients, for u <= 1/4."""
    w = u * u
    acc = 0.0
    for c in _LENS_TAIL:
        acc = acc * w + c
    return acc * w * u * u * u


def _lens_moments(a: float, du: float) -> tuple[float, float]:
    """Integrals of L(u) and of u L(u) over [a, a + du] within [0, 1]; L(u) = _lens_fraction(2ru, r).

    With s = sqrt(1 - u^2) their primitives are (2/pi)(u acos u - s + s^3/3)
    and (2/pi)(u^2 acos u / 2 + (asin u - u s)/8 - u^3 s / 4).  Each is
    differenced term by term from differences of u, s and acos u that carry
    the factor du, so a narrow piece far from u = 0 keeps its digits.
    Below u = 1/4 the terms of the second primitive cancel to O(u^3), so
    there it is u^2/2 minus a power series.
    """
    if a < _SERIES_BELOW < a + du:
        below = _SERIES_BELOW - a
        low, high = _lens_moments(a, below), _lens_moments(_SERIES_BELOW, du - below)
        return low[0] + high[0], low[1] + high[1]
    b = min(a + du, 1.0)
    sa = math.sqrt((1.0 - a) * (1.0 + a))
    sb = math.sqrt((1.0 - b) * (1.0 + b))
    ds = -du * (a + b) / (sa + sb)
    dacos = -math.asin(du * sa - a * ds)  # asin(b sa - a sb) = asin b - asin a
    acos_b = math.acos(b)
    zeroth = du * acos_b + a * dacos - ds * (1.0 - (sa * sa + sa * sb + sb * sb) / 3.0)
    cubes = du * (a * a + a * b + b * b)
    if b <= _SERIES_BELOW:
        first = 0.5 * du * (a + b) - (4.0 / math.pi) * (cubes / 3.0 + _lens_tail(b) - _lens_tail(a))
        return (2.0 / math.pi) * zeroth, first
    first = (0.5 * (du * (a + b) * acos_b + a * a * dacos) - (dacos + du * sb + a * ds) / 8.0
             - (cubes * sb + a * a * a * ds) / 4.0)
    return (2.0 / math.pi) * zeroth, (2.0 / math.pi) * first


_NARROW = 0.125  # the left moment of a piece narrower than this share of 1 - a uses its series
_NARROW_TERMS = 16


def _left_moment(a: float, du: float, zeroth: float, first: float) -> float:
    """int_a^{a+du} (u - a) L(u) du, from the two moments of ``_lens_moments``.

    ``first - a * zeroth`` cancels to about du^2 L / 2 on a narrow piece, so
    there it is L(a) du^2 / 2 - (4/pi) sum_k c_k du^(k+3) / ((k+1)(k+3)),
    from L' = -(4/pi) sqrt(1 - u^2), with c_k the Taylor coefficients of
    g = sqrt(1 - u^2) at a.  They follow from (1 - u^2) g' = -u g and grow
    like (1 - a)^-k, so the terms shrink at least like 8^-k.
    """
    if du >= _NARROW * (1.0 - a):
        return first - a * zeroth
    one_minus_a2 = (1.0 - a) * (1.0 + a)
    prev, coef = 0.0, math.sqrt(one_minus_a2)
    lens = (2.0 / math.pi) * (math.acos(a) - a * coef)
    power, acc = du * du * du, 0.0
    for k in range(_NARROW_TERMS):
        acc += coef * power / ((k + 1) * (k + 3))
        prev, coef = coef, ((2 * k - 1) * a * coef + (k - 2) * prev) / (one_minus_a2 * (k + 1))
        power *= du
    return 0.5 * lens * du * du - (4.0 / math.pi) * acc


def _arrival_mean(params: NetworkParams, stay: float) -> float:
    """Mean arrival count lambda * p * pi * r^2 * (1 - stay), by the displacement theorem."""
    r_out = params.antenna.r_out
    return params.lam * params.p_mobile * math.pi * r_out * r_out * (1.0 - stay)


def footprint_ingress_integral(params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Probability that a node uniform in the footprint is still inside after t.

    Equals E_V[L(V t)] for the lens overlap fraction L of the footprint.  In
    u = v t / 2r a piece of the speed density is f_a + slope * (u - a), so
    E_V[L(V t)] is the sum over pieces of (2r/t) times f_a int L du plus
    slope times int (u - a) L du, each over the piece clipped at u = 1,
    beyond which L = 0.
    """
    check_gap(t)
    r_out = params.antenna.r_out
    if t == 0 or speed.support_max * t == 0:
        return 1.0
    if speed.atom is not None:
        return float(_lens_fraction(speed.atom * t, r_out))
    scale = 2.0 * r_out / t
    if speed.support_max < scale * 2.0**-60:
        return 1.0  # 1 - L(v t) < 2**-59 rounds away for every speed
    speeds, densities = speed.density_knots()
    total = 0.0
    for va, vb, fa, fb in zip(speeds, speeds[1:], densities, densities[1:]):
        a = va / scale
        if a >= 1.0:
            break
        if fa == fb == 0.0:
            continue
        width = (vb - va) / scale  # not b - a, which would carry the rounding of a and b
        du = min(width, 1.0 - a)
        zeroth, first = _lens_moments(a, du)
        slope = 0.0 if fa == fb else (fb - fa) / width * _left_moment(a, du, zeroth, first)
        total += fa * zeroth + slope
    return min(max(scale * total, 0.0), 1.0)


def footprint_egress_integral(params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Mean number of outside nodes that move into the footprint by t.

    By stationarity this equals the mean number of mobile nodes of a
    full-intensity footprint that leave it.
    """
    return _arrival_mean(params, footprint_ingress_integral(params, speed, t))


def mean_departures(m: int, params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Mean number of the m initial in-footprint nodes that leave by t."""
    m = check_count(m)
    stay = footprint_ingress_integral(params, speed, t)
    return m * params.p_mobile * (1.0 - stay)


def _point_mass(index: int, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[index] = 1.0
    return out


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n; one lgamma each, as a running sum of logs drifts."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _poisson_pmf(mean: float, n: int) -> np.ndarray:
    """Poisson(mean) probabilities of 0..n."""
    if mean == 0.0:
        return _point_mass(0, n + 1)
    return np.exp(np.arange(n + 1) * math.log(mean) - mean - _log_factorials(n))


def _binomial_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) probabilities of 0..m."""
    if p == 0.0 or p == 1.0:
        return _point_mass(m if p == 1.0 else 0, m + 1)
    i = np.arange(m + 1)
    log_fact = _log_factorials(m)
    return np.exp(log_fact[m] - log_fact - log_fact[::-1]
                  + i * math.log(p) + (m - i) * math.log1p(-p))


def _limit(cap: int, n_max: int | None) -> int:
    return cap if n_max is None else check_n_max(n_max)


def _truncated(probs: np.ndarray, m: int, t: float, n_max: int | None) -> InterfererPmf:
    """The pmf cut after index n_max, by default the first whose cumulative mass exceeds 1 - 1e-9."""
    cum = np.cumsum(probs)
    if n_max is None:
        n_max = min(int(np.searchsorted(cum, 1.0 - _TAIL_EPS, side="right")), len(probs) - 1)
    return InterfererPmf(m=m, t=float(t), probs=probs[: n_max + 1],
                         tail_mass=max(0.0, 1.0 - float(cum[n_max])))


def conditional_interferer_pmf(
    m: int,
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    n_max: int | None = None,
) -> InterfererPmf:
    """Pmf of the interferer count at the second instant given m at the first.

    ``m`` is any integer type (numpy integers included).  The count is the
    Binomial(m, p * stay + 1 - p) survivors plus the Poisson arrivals, so the
    pmf is the convolution of the two.  n_max defaults to the smallest index
    whose cumulative mass exceeds 1 - 1e-9, capped at
    m + ceil(A + 12*sqrt(A)) + 20 where A is the mean arrival count.
    """
    m = check_count(m)
    stay_in = footprint_ingress_integral(params, speed, t)
    arrivals = _arrival_mean(params, stay_in)
    limit = _limit(m + math.ceil(arrivals + 12.0 * math.sqrt(arrivals)) + 20, n_max)
    survive_prob = params.p_mobile * stay_in + (1.0 - params.p_mobile)
    probs = np.convolve(_binomial_pmf(m, survive_prob), _poisson_pmf(arrivals, limit))
    return _truncated(probs[: limit + 1], m, t, n_max)


def unconditional_interferer_pmf(params: NetworkParams, n_max: int | None = None) -> InterfererPmf:
    """Stationary Poisson count of in-footprint interferers (any instant)."""
    r_out = params.antenna.r_out
    mu = params.lam * math.pi * r_out * r_out
    limit = _limit(math.ceil(mu + 12.0 * math.sqrt(mu)) + 20, n_max)
    return _truncated(_poisson_pmf(mu, limit), 0, 0.0, n_max)


# ---------------------------------------------------------------------------
# Correlated success probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SuccessReport:
    """Joint, marginal, and failure-conditioned success at one (t, threshold)."""

    p_joint: float
    p_marginal_0: float
    p_marginal_t: float
    p_retx_given_fail: float | None  # None where undefined
    p_independent_joint: float
    quadrature_error_bound: float


def _integrate_mapped(f, a: float, b: float, points) -> tuple[np.ndarray, float]:
    """Integral of the array-valued f over [a, b] and its error bound.

    The segment between consecutive sorted ``points`` number i is reached
    from u in [i, i + 1] through x = lo + half * (1 - cos(pi * (u - i))).
    The map clusters nodes at both ends of every segment, where arc lengths
    and lens areas behave like square roots or 3/2 powers; in u they are
    smooth, so one or two Kronrod passes per segment suffice.  ``f`` takes
    the x nodes of a whole refinement round and returns values node axis first.
    """
    edges = np.array(sorted({a, b, *(p for p in points if a < p < b)}), dtype=float)
    n = len(edges) - 1

    def mapped(u: np.ndarray) -> np.ndarray:
        i = np.minimum(u.astype(int), n - 1)
        half = 0.5 * (edges[i + 1] - edges[i])
        c = math.pi * (u - i)
        values = f(edges[i] + half * (1.0 - np.cos(c)))
        jacobian = half * math.pi * np.sin(c)
        return values * jacobian.reshape(-1, *(1,) * (values.ndim - 1))

    return integrate_array_detailed(mapped, 0.0, float(n), SPEC, points=range(1, n))


class _Exponent:
    """Taylor coefficients around (-1, -1) of the joint and both marginal exponents.

    A fading factor contributes the coefficient vector ``series(d2)``.  The
    radial integrand is x (D - a1 b1^T) with a1 = (1, a), b1 = (1, b) and D
    one on the leading 2 x 2 block (see the module docstring).
    """

    def __init__(self, params, threshold):
        self.params = params
        k = params.fading.k
        self.k = k
        self.binom = np.array([math.comb(k + i - 1, i) for i in range(k)], dtype=float)
        self.powers = np.arange(k)
        self.scale = threshold / params.antenna.g_main
        self.h2 = params.height * params.height
        self.half_alpha = params.alpha / 2.0

    def series(self, d2: np.ndarray) -> np.ndarray:
        """Coefficients of (1 - q s)^(-k) for q at squared distances d2, shape (n, k)."""
        q = (self.scale * self.params.antenna.gain_at_sq(d2)
             * (self.h2 / (self.h2 + d2)) ** self.half_alpha)[:, None]
        return self.binom * (1.0 + q) ** -self.k * (q / (1.0 + q)) ** self.powers

    def at_distance(self, vt: float) -> tuple[np.ndarray, float]:
        """The exponents when every mobile node moves the distance vt; (array, error bound)."""
        ant = self.params.antenna
        p = self.params.p_mobile
        points = {ant.r_in, ant.r_out}
        for r in (ant.r_in, ant.r_out):
            points.update((abs(r - vt), r + vt))

        def bracket(x: np.ndarray) -> np.ndarray:
            # direction angles in [0, pi], split where the moved node
            # crosses a gain boundary; one row of cuts per node, padded
            # with pi (zero-length, zero-weight panels)
            cuts = [np.zeros_like(x), np.full_like(x, math.pi)]
            if vt > 0.0:
                for r in (ant.r_in, ant.r_out):
                    crosses = (abs(x - vt) < r) & (r < x + vt)
                    cosine = np.clip((x * x + vt * vt - r * r) / (2.0 * x * vt), -1.0, 1.0)
                    cuts.append(np.where(crosses, np.arccos(cosine), math.pi))
                # the path loss is singular at phi = +-i*pole, close to the
                # real axis when nodes fly low; panels doubling in length
                # from phi = 0 each stay as far from it as they are long
                pole = np.arccosh(1.0 + (self.h2 + (x - vt) ** 2) / (2.0 * x * vt))
                while (pole < math.pi).any():
                    cuts.append(np.where(pole < math.pi, pole, math.pi))
                    pole = 2.0 * pole
            nodes, weights = _direction_rule()
            cuts = np.sort(np.stack(cuts, axis=1), axis=1)
            half = 0.5 * np.diff(cuts, axis=1)[:, :, None]
            phi = (cuts[:, :-1, None] + half * (1.0 + nodes)).reshape(len(x), -1)
            weights = (half * weights).reshape(len(x), -1) / math.pi
            x2 = (x * x)[:, None]
            d2 = np.concatenate((x2, x2 + vt * vt - 2.0 * x[:, None] * vt * np.cos(phi)), axis=1)
            terms = self.series(d2.ravel()).reshape(*d2.shape, self.k)
            b = p * np.einsum("nm,nmk->nk", weights, terms[:, 1:]) + (1.0 - p) * terms[:, 0]
            one = np.ones((len(x), 1))
            a1, b1 = np.hstack((one, terms[:, 0])), np.hstack((one, b))
            out = -x[:, None, None] * (a1[:, :, None] * b1[:, None, :])
            out[:, :2, :2] += x[:, None, None]
            return out

        raw, err = _integrate_mapped(bracket, 0.0, ant.r_out + vt, points)
        scale = TWO_PI * self.params.lam
        return -scale * raw, scale * err


def _exponent_detailed(params, speed, t, threshold):
    """The (k+1) x (k+1) exponent array of ``_Exponent`` at gap t and its error bound."""
    k = params.fading.k
    if params.lam == 0.0 or threshold == 0.0:
        return np.zeros((k + 1, k + 1)), 0.0
    ctx = _Exponent(params, threshold)
    mobile = params.p_mobile > 0.0 and speed.support_max * t > 0.0
    if not mobile or speed.atom is not None:
        return ctx.at_distance(speed.atom * t if mobile else 0.0)

    # E is linear in the speed law: average the fixed-speed exponent over v
    worst_inner = 0.0

    def at_speed(vs: np.ndarray) -> np.ndarray:
        nonlocal worst_inner
        out = []
        for v in vs:  # each node is one radial integral
            coeffs, inner = ctx.at_distance(v * t)
            worst_inner = max(worst_inner, inner)
            out.append(speed.pdf(v) * coeffs)
        return np.stack(out)

    # E is smooth in v except where a footprint circle and a displaced one
    # become tangent, and at the breakpoints of the density
    radii = (params.antenna.r_in, params.antenna.r_out)
    tangent = [abs(a + sign * b) / t for a in radii for b in radii for sign in (-1.0, 1.0)]
    coeffs, err = _integrate_mapped(
        at_speed, speed.support_min, speed.support_max, (*speed.pdf_breakpoints, *tangent))
    return coeffs, err + worst_inner


def laplace_exponent_jet(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
) -> np.ndarray:
    """Log of the two-instant interference Laplace functional, as a k x k coefficient array.

    Entry [i, j] is the Taylor coefficient of (s1 + 1)**i * (s2 + 1)**j
    around (-1, -1).  The sum of the entries of its ``numerics.jet_exp`` is
    the interference part of the joint success probability.
    """
    return _exponent_detailed(params, speed, t, threshold)[0][1:, 1:]


def _probability(exponent: np.ndarray, noise: float, instants: int) -> float:
    """Sum of the Taylor coefficients of exp(noise * (s1 + s2) + E) around (-1, -1).

    ``exponent`` holds those of E in the ``instants`` variables it has.
    """
    coeffs = np.array(exponent)
    coeffs[0, 0] -= instants * noise
    coeffs[1:2, 0] += noise
    coeffs[0, 1:2] += noise
    value = float(jet_exp(coeffs).sum())
    if value > 1.0 + _TAIL_EPS or value < -_TAIL_EPS:
        log.warning("success probability %.3e outside [0, 1]; clamping", value)
    return min(max(value, 0.0), 1.0)


def _success_detailed(params, speed, t, threshold):
    """Joint, time-0 and time-t success at gap t, and the quadrature error bound."""
    check_gap(t)
    check_threshold(threshold)
    exponent, err = _exponent_detailed(params, speed, t, threshold)
    c = threshold * params.height**params.alpha / (params.fading.omega * params.antenna.g_main)
    noise = c * params.noise
    return (_probability(exponent[1:, 1:], noise, 2), _probability(exponent[1:, :1], noise, 1),
            _probability(exponent[:1, 1:], noise, 1), err)


def joint_success(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
) -> float:
    """P{SINR over threshold at both instants}."""
    return _success_detailed(params, speed, t, threshold)[0]


def marginal_success(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
    which: str = "time0",
) -> float:
    """Single-instant success probability; ``which`` is "time0" or "timeT".

    Both are entries of the (k+1) x (k+1) exponent integral that also holds
    the joint.  "time0" reads it at gap 0, a single static integral;
    "timeT" reads it at gap t, where its time-t entries average over the
    displacement.  By stationarity of the displaced point process the two
    agree, so comparing them checks the mobile part of the exponent.
    """
    if which == "time0":
        check_gap(t)
        return _success_detailed(params, speed, 0.0, threshold)[1]
    if which == "timeT":
        return _success_detailed(params, speed, t, threshold)[2]
    raise ValueError("which must be 'time0' or 'timeT'")


def success_report(params: NetworkParams, speed: SpeedDistribution, t: float,
                   threshold: float) -> SuccessReport:
    """Joint, marginal and failure-conditioned retry success from one integral at gap t.

    Both marginals report the time-0 one, which the time-t one equals by
    stationarity, and the joint is clamped to it.  The retry success
    (p_marginal - p_joint) / (1 - p_marginal) is None where the first
    failure has vanishing probability.
    """
    p_joint, p_m, _, err = _success_detailed(params, speed, t, threshold)
    if p_joint > p_m + _TAIL_EPS:
        log.warning("joint success %.12g exceeds the marginal %.12g", p_joint, p_m)
    p_joint = min(p_joint, p_m)
    retx = min(max((p_m - p_joint) / (1.0 - p_m), 0.0), 1.0) if p_m < 1.0 - 1e-12 else None
    return SuccessReport(p_joint=p_joint, p_marginal_0=p_m, p_marginal_t=p_m,
                         p_retx_given_fail=retx, p_independent_joint=p_m * p_m,
                         quadrature_error_bound=err)


def retransmission_report(params: NetworkParams, speed: SpeedDistribution, t: float,
                          threshold: float) -> SuccessReport:
    """:func:`success_report`, raising ``ValueError`` where the retry success is undefined."""
    report = success_report(params, speed, t, threshold)
    if report.p_retx_given_fail is None:
        raise ValueError("failure event has vanishing probability; conditional undefined")
    return report
