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
piecewise linear, and in theta = acos(v t / 2r) each of its pieces times L
is entire, so the stay probability is a sum over the density's pieces of a
fixed 15-node rule in theta, exact to rounding.  A SINR
quantity is computed for one fixed speed as one radial integral whose
direction average applies the ``numerics`` 15-node Kronrod rule on each
panel between gain crossings, and a speed density adds one
outermost integral over v, split at the density's breakpoints and at the
speeds where a footprint circle and its displaced copy become tangent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    NetworkParams, SpeedDistribution, check_count, check_gap, check_n_max, check_threshold)
from .numerics import _KW, _NODES, QuadratureSpec, integrate_array_detailed, jet_exp

# Bound here only because perfbench/spans.py patches them by these names;
# ROADMAP direction 1 moves that instrumentation into the library.
from .mobility import containment_cdf  # noqa: F401
from .numerics import (  # noqa: F401
    integrate as integrate_jet, integrate_detailed,
    integrate_detailed as integrate_jet_detailed, jet_powneg)

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
_TAIL_EPS = 1e-9

SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=1000)


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


# the Kronrod nodes as shares of the way from acos a to acos b, and their weights
_LENS_RULE = tuple(zip((0.5 * (1.0 + _NODES)).tolist(), _KW.tolist()))


def _lens_integrals(a: float, du: float) -> tuple[float, float]:
    """Integrals of L(u) and of s L(u) over [a, a + du] within [0, 1], s = (u - a) / du.

    L(u) = _lens_fraction(2ru, r).  In theta = acos u, L = (2 theta -
    sin 2 theta) / pi and du = -sin theta d theta, so both integrands are
    entire in theta and the 15-node Kronrod rule of ``numerics`` gets any
    piece to rounding.  The theta-width is the angle whose sine,
    b sa - a sb with sa = sqrt(1 - a^2), is carried from du, and u - a at a
    node is a product of sines, so a narrow piece keeps its digits.
    """
    b = min(a + du, 1.0)
    sa = math.sqrt((1.0 - a) * (1.0 + a))
    sb = math.sqrt((1.0 - b) * (1.0 + b))
    ds = -du * (a + b) / (sa + sb)  # sb - sa
    half = 0.5 * math.atan2(du * sa - a * ds, a * b + sa * sb)  # half of acos a - acos b
    theta_a = math.acos(a)
    zeroth = first = 0.0
    for share, weight in _LENS_RULE:
        back = half * share  # (acos a - theta) / 2
        theta = theta_a - 2.0 * back
        lens = weight * (2.0 * theta - math.sin(2.0 * theta)) * math.sin(theta)
        zeroth += lens
        first += lens * math.sin(theta_a - back) * math.sin(back)  # times (u - a) / 2
    return half / math.pi * zeroth, 2.0 * half / math.pi * first / du


def _arrival_mean(params: NetworkParams, stay: float) -> float:
    """Mean arrival count lambda * p * pi * r^2 * (1 - stay), by the displacement theorem."""
    r_out = params.antenna.r_out
    return params.lam * params.p_mobile * math.pi * r_out * r_out * (1.0 - stay)


def footprint_ingress_integral(params: NetworkParams, speed: SpeedDistribution, t: float) -> float:
    """Probability that a node uniform in the footprint is still inside after t.

    Equals E_V[L(V t)] for the lens overlap fraction L of the footprint.  In
    u = v t / 2r a piece of the speed density, clipped at u = 1 where L
    reaches 0, runs from f_a to f_b, so E_V[L(V t)] is the sum over pieces
    of (2r/t) times f_a int L du plus (f_b - f_a) int s L du, with s the
    position in the piece from 0 to 1.  Each pair of integrals is summed by
    a fixed 15-node rule, exact to rounding in theta = acos u; a piece
    under 2**-60 wide in u adds its mass times L at its left end.
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
    total = narrow = 0.0
    for va, vb, fa, fb in zip(speeds, speeds[1:], densities, densities[1:]):
        a = va / scale
        if a >= 1.0:
            break
        width = (vb - va) / scale  # not b - a, which would carry the rounding of a and b
        if fa == fb == 0.0:
            continue
        if width < 2.0**-60:  # L moves by under 2**-59 across it: take its mass in v, not in u
            narrow += (0.5 * fa + 0.5 * fb) * (vb - va) * float(_lens_fraction(va * t, r_out))
            continue
        du = min(width, 1.0 - a)
        if du < width:
            fb = fa + (fb - fa) * (du / width)  # the density where u = 1 clips the piece
        lens, left = _lens_integrals(a, du)
        total += fa * lens + (fb - fa) * left
    return min(max(scale * total + narrow, 0.0), 1.0)


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


def _integrate_mapped(f, a: float, b: float, points, *,
                      panels: int = 1) -> tuple[np.ndarray, float]:
    """Integral of the array-valued f over [a, b] and its error bound.

    The segment between consecutive sorted ``points`` number i is reached
    from u in [i, i + 1] through x = lo + half * (1 - cos(pi * (u - i))).
    The map clusters nodes at both ends of every segment, where arc lengths
    and lens areas behave like square roots or 3/2 powers; in u they are
    smooth.  The first round evaluates ``panels`` equal pieces, in u, of
    every segment.  The radial integral starts from two, as a first round
    of one per segment is bisected whole; the speed integral, each of
    whose nodes is a radial integral, starts from one and mostly converges
    there.  ``f`` takes the x nodes of a whole refinement round and
    returns values node axis first.
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

    cuts = [i / panels for i in range(1, n * panels)]
    return integrate_array_detailed(mapped, 0.0, float(n), SPEC, points=cuts)


class _Exponent:
    """Taylor coefficients around (-1, -1) of the joint and both marginal exponents.

    One instance serves a grid of thresholds.  Of a fading factor
    (1 - q s)^(-k) only q depends on the threshold, as threshold / g_main
    times ``attenuation(d2)``, so the geometry of every node is computed
    once for the whole grid, and the coefficients one threshold at a time,
    which bounds the transient memory of a grid.  The radial integrand is
    x (D - a1 b1^T) per threshold, with a1 = (1, a), b1 = (1, b) and D one
    on the leading 2 x 2 block (see the module docstring).
    """

    def __init__(self, params, thresholds):
        self.params = params
        k = params.fading.k
        self.k = k
        self.binom = np.array([math.comb(k + i - 1, i) for i in range(k)], dtype=float)
        self.scale = np.asarray(thresholds, dtype=float) / params.antenna.g_main
        self.h2 = params.height * params.height
        self.half_alpha = params.alpha / 2.0
        self.radii_sq = np.array([params.antenna.r_in, params.antenna.r_out]) ** 2
        # the direction average applies the numerics 15-node Kronrod rule on
        # each panel between gain crossings; on a panel of half-width h:
        # angles start + h * offsets, and weights h * rule, which include the
        # mobile share p and the 1 / pi of the average over [0, pi]
        self.offsets = 1.0 + _NODES
        self.rule = (params.p_mobile / math.pi) * _KW

    def attenuation(self, d2: np.ndarray) -> np.ndarray:
        """Gain times path loss relative to the serving link's, at squared distances d2."""
        return self.params.antenna.gain_at_sq(d2) * (self.h2 / (self.h2 + d2)) ** self.half_alpha

    def _powers(self, q: np.ndarray):
        """Yield r^k (q r)^i for i = 0..k-1, r = 1/(1+q), at the q values ``q``.

        Times C(k+i-1, i) they are the coefficients of (1 - q s)^(-k); the
        bracket passes the 1-D q of one threshold at a time.  They come by
        repeated multiplication in place: pass a fresh ``q``, which is
        overwritten, and copy a yielded array to keep it past the next step.
        """
        r = np.reciprocal(q + 1.0)
        power = r
        for _ in range(1, self.k):
            power = power * r
        yield power
        if self.k > 1:
            q *= r
            for _ in range(1, self.k):
                power *= q
                yield power

    def _bracket(self, x: np.ndarray, vt: float) -> np.ndarray:
        """The radial integrand at the nodes x, shape (n, T, k+1, k+1)."""
        ant = self.params.antenna
        p = self.params.p_mobile
        k = self.k
        # direction angles in [0, pi], split where the moved node crosses a
        # gain boundary; a cut outside (0, pi) lands on an end and leaves a
        # zero-length panel, as every cut does where vt is tiny or 0 and the
        # quotients are +-inf, their limit
        base, xvt = x * x + vt * vt, 2.0 * x * vt
        with np.errstate(divide="ignore", over="ignore"):
            crossing = (base[:, None] - self.radii_sq) / xvt[:, None]
            # the path loss is singular at phi = +-i*pole, close to the
            # real axis when nodes fly low; panels doubling in length
            # from phi = 0 each stay as far from it as they are long
            pole = np.arccosh(1.0 + (self.h2 + (x - vt) ** 2) / xvt)
        doublings, smallest = 0, pole.min()
        while smallest < math.pi:
            doublings, smallest = doublings + 1, 2.0 * smallest
        cuts = np.concatenate([
            np.zeros((len(x), 1)), np.full((len(x), 1), math.pi),
            np.arccos(np.clip(crossing, -1.0, 1.0)),
            np.minimum(pole[:, None] * 2.0 ** np.arange(doublings), math.pi)], axis=1)
        cuts.sort(axis=1)
        half = 0.5 * np.diff(cuts, axis=1)
        # only the panels of positive length, grouped by node; every node
        # has one, as its panels cover [0, pi]
        row, col = np.nonzero(half > 0.0)
        start, half = cuts[row, col], half[row, col]
        # no panel straddles a gain boundary, so its midpoint gives its gain
        gain = ant.gain_at_sq(base[row] - xvt[row] * np.cos(start + half))
        # h^2 + d^2 at the direction nodes, grouped by radial node
        far = (self.h2 + base)[row, None] - xvt[row, None] * np.cos(
            start[:, None] + half[:, None] * self.offsets)
        around = (gain[:, None] * (self.h2 / far) ** self.half_alpha).ravel()
        weights = (half[:, None] * self.rule).ravel()
        at_x = self.attenuation(x * x)
        # each radial node's first direction node
        first = len(self.offsets) * np.searchsorted(row, np.arange(len(x)))
        a1 = np.ones((len(x), len(self.scale), k + 1))
        b1 = np.ones_like(a1)
        for j, scale in enumerate(self.scale.tolist()):
            pairs = zip(self._powers(at_x * scale), self._powers(around * scale))
            for i, (static, mobile) in enumerate(pairs, 1):
                a1[:, j, i] = static
                b1[:, j, i] = np.add.reduceat(weights * mobile, first)
        b1[:, :, 1:] += (1.0 - p) * a1[:, :, 1:]  # a static node stays at x
        a1[:, :, 1:] *= self.binom
        b1[:, :, 1:] *= self.binom
        out = a1[:, :, :, None] * b1[:, :, None, :]
        out *= -x[:, None, None, None]
        out[:, :, :2, :2] += x[:, None, None, None]
        return out

    def at_distance(self, vt: float) -> tuple[np.ndarray, float]:
        """The exponents when every mobile node moves the distance vt; ((T, k+1, k+1), bound)."""
        ant = self.params.antenna
        # from vt = 2 r_out on no node is in the footprint at both instants,
        # and the gain is 0 beyond r_out, so the exponents no longer depend on vt
        vt = min(vt, 2.0 * ant.r_out)
        points = {ant.r_in, ant.r_out}
        for r in (ant.r_in, ant.r_out):
            points.update((abs(r - vt), r + vt))
        raw, err = _integrate_mapped(
            lambda x: self._bracket(x, vt), 0.0, ant.r_out + vt, points, panels=2)
        scale = TWO_PI * self.params.lam
        return -scale * raw, scale * err


def _exponent_detailed(params, speed, t, thresholds):
    """The (T, k+1, k+1) exponent arrays of ``_Exponent`` at gap t and their shared error bound.

    A zero threshold, or no interferers, gives the exact zero exponent.
    """
    k = params.fading.k
    thresholds = np.asarray(thresholds, dtype=float)
    exponents = np.zeros((len(thresholds), k + 1, k + 1))
    live = thresholds > 0.0
    if params.lam == 0.0 or not live.any():
        return exponents, 0.0
    ctx = _Exponent(params, thresholds[live])
    mobile = params.p_mobile > 0.0 and speed.support_max * t > 0.0
    if not mobile or speed.atom is not None:
        exponents[live], err = ctx.at_distance(speed.atom * t if mobile else 0.0)
        return exponents, err

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
    exponents[live], err = _integrate_mapped(
        at_speed, speed.support_min, speed.support_max, (*speed.pdf_breakpoints, *tangent))
    return exponents, err + worst_inner


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


def _success_grid(params, speed, t, thresholds):
    """Joint, time-0 and time-t success at gap t per threshold, and the grid's error bound."""
    check_gap(t)
    thresholds = list(thresholds)
    for threshold in thresholds:
        check_threshold(threshold)
    exponents, err = _exponent_detailed(params, speed, t, thresholds)
    rows = []
    for threshold, exponent in zip(thresholds, exponents):
        c = threshold * params.height**params.alpha / (params.fading.omega * params.antenna.g_main)
        noise = c * params.noise
        rows.append((_probability(exponent[1:, 1:], noise, 2),
                     _probability(exponent[1:, :1], noise, 1),
                     _probability(exponent[:1, 1:], noise, 1)))
    return rows, err


def joint_success(
    params: NetworkParams,
    speed: SpeedDistribution,
    t: float,
    threshold: float,
) -> float:
    """P{SINR over threshold at both instants}."""
    ((joint, _, _),), _ = _success_grid(params, speed, t, (threshold,))
    return joint


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
        ((_, time0, _),), _ = _success_grid(params, speed, 0.0, (threshold,))
        return time0
    if which == "timeT":
        ((_, _, time_t),), _ = _success_grid(params, speed, t, (threshold,))
        return time_t
    raise ValueError("which must be 'time0' or 'timeT'")


def success_reports(params: NetworkParams, speed: SpeedDistribution, t: float,
                    thresholds) -> list[SuccessReport]:
    """:func:`success_report` for each of ``thresholds``, from one integral at gap t.

    The grid shares its radial integrals, which refine on the worst of its
    components, so every report carries the grid's one error bound.
    """
    rows, err = _success_grid(params, speed, t, thresholds)
    reports = []
    for p_joint, p_m, _ in rows:
        if p_joint > p_m + _TAIL_EPS:
            log.warning("joint success %.12g exceeds the marginal %.12g", p_joint, p_m)
        p_joint = min(p_joint, p_m)
        retx = min(max((p_m - p_joint) / (1.0 - p_m), 0.0), 1.0) if p_m < 1.0 - 1e-12 else None
        reports.append(SuccessReport(p_joint=p_joint, p_marginal_0=p_m, p_marginal_t=p_m,
                                     p_retx_given_fail=retx, p_independent_joint=p_m * p_m,
                                     quadrature_error_bound=err))
    return reports


def success_report(params: NetworkParams, speed: SpeedDistribution, t: float,
                   threshold: float) -> SuccessReport:
    """Joint, marginal and failure-conditioned retry success from one integral at gap t.

    Both marginals report the time-0 one, which the time-t one equals by
    stationarity, and the joint is clamped to it.  The retry success
    (p_marginal - p_joint) / (1 - p_marginal) is None where the first
    failure has vanishing probability.
    """
    return success_reports(params, speed, t, (threshold,))[0]


def retransmission_report(params: NetworkParams, speed: SpeedDistribution, t: float,
                          threshold: float) -> SuccessReport:
    """:func:`success_report`, raising ``ValueError`` where the retry success is undefined."""
    report = success_report(params, speed, t, threshold)
    if report.p_retx_given_fail is None:
        raise ValueError("failure event has vanishing probability; conditional undefined")
    return report
