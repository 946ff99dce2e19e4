"""Shared test fixtures: baseline scenario builders and independent oracles.

The oracles here deliberately avoid the package's own quadrature and jet
machinery: the joint-success and stay-probability oracles use fixed-node
Legendre-Gauss panels and plain scalar arithmetic, the small-gap stay
probability is a series in the speed moments, the pmf oracle builds the
distribution as an explicit binomial/Poisson convolution, the derivative
checks use Richardson-extrapolated central finite differences of the scalar
oracle, and the forward simulator moves planar points over a whole disk.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from uavtc import analytic, numerics
from uavtc.model import NetworkParams, ValidatedScenario, config_from_dict, validate

BASELINE_CONFIG = {
    "lambda": 0.005,
    "p_mobile": 0.8,
    "height": 50.0,
    "alpha": 4.0,
    "noise": 1e-10,
    "k": 2,
    "omega": 0.5,
    "g_main": 2.0,
    "g_side": 0.5,
    "r_in": 15.0,
    "r_out": 25.0,
    "speed": {"kind": "fixed", "v": 10.0},
    "t_gap": 1.0,
    "threshold_db": -10.0,
    "replications": 100_000,
    "seed": 7,
}

# Frozen independent-oracle values (midpoint rule with 2e6 panels over the
# fixed-speed closed form; flow-balance identity pins the t=5 arrivals).
INGRESS_T1 = 0.747060078081
ARRIVALS_T1 = 1.986585501251
INGRESS_T5 = 0.0
ARRIVALS_T5 = 2.5 * math.pi
DEPARTURES_T1_M5 = 1.011759687676
DEPARTURES_T5_M5 = 4.0

# containment_cdf reference points (closed form for fixed speed; 4e6-node
# trapezoid average of the closed form for uniform speed)
CONTAINMENT_FIXED = [
    # (r, x, v, t, value)
    (25.0, 20.0, 10.0, 1.0, 0.60116642702379453),
    (25.0, 30.0, 10.0, 1.0, 0.28509895859172535),
]
CONTAINMENT_UNIFORM = [
    # (r, x, (v_min, v_max), t, value)
    (25.0, 20.0, (5.0, 15.0), 1.0, 0.629067240503665),
    (25.0, 30.0, (5.0, 15.0), 1.0, 0.260301809182326),
    (25.0, 10.0, (5.0, 15.0), 2.0, 0.65201848144601),
]


def baseline_scenario(**overrides) -> ValidatedScenario:
    raw = dict(BASELINE_CONFIG)
    raw.update(overrides)
    return validate(config_from_dict(raw))


def assert_reports_match(got, want, tol: float) -> None:
    """Each report of ``got`` equals its twin in ``want`` within ``tol``.

    The retry success divides by 1 - p_marginal, so its tolerance does too.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("p_joint", "p_marginal_0", "p_marginal_t", "p_independent_joint"):
            assert getattr(g, name) == pytest.approx(getattr(w, name), abs=tol), name
        if w.p_retx_given_fail is None:
            assert g.p_retx_given_fail is None
        else:
            assert g.p_retx_given_fail == pytest.approx(
                w.p_retx_given_fail, abs=tol / (1.0 - w.p_marginal_0))


def count_passes(monkeypatch) -> list:
    """Record every Gauss-Kronrod call from now on.

    Each entry lists the (a, b) ends of the segments that one integrand call
    covered, so ``len(passes)`` counts calls and ``sum(map(len, passes))``
    counts segments.
    """
    passes = []
    gk15 = numerics._gk15

    def counting(f, a, b):
        passes.append(list(zip(np.ravel(a).tolist(), np.ravel(b).tolist())))
        return gk15(f, a, b)

    monkeypatch.setattr(numerics, "_gk15", counting)
    return passes


def count_radial_integrals(monkeypatch) -> list:
    """Record the (a, b) range of every ``analytic._integrate_mapped`` call from now on."""
    ranges = []
    integrate = analytic._integrate_mapped

    def counting(f, a, b, points, **options):
        ranges.append((a, b))
        return integrate(f, a, b, points, **options)

    monkeypatch.setattr(analytic, "_integrate_mapped", counting)
    return ranges


def serial_heap_integrate(f, a: float, b: float, spec=numerics.DEFAULT_SPEC,
                          points=()) -> tuple[np.ndarray, float, int]:
    """Reference driver: bisect the single worst segment, one pass at a time.

    The serial QUADPACK-style refinement that ``numerics._adaptive`` replaced
    (a heap keyed on the error estimate, ties broken oldest first).  Uses
    only the rule's node and weight tables.  Returns (value, error_bound,
    segments_evaluated).
    """
    import heapq

    def one_pass(lo, hi):
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * numerics._NODES
        values = np.asarray(f(nodes), dtype=float)
        kron = 0.5 * (hi - lo) * np.tensordot(numerics._KW, values, axes=1)
        gauss = 0.5 * (hi - lo) * np.tensordot(numerics._GW, values, axes=1)
        return kron, float(np.max(np.abs(kron - gauss)))

    edges = [float(a), *sorted({float(p) for p in points if a < p < b}), float(b)]
    heap, total, total_err = [], 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = one_pass(lo, hi)
        total, total_err = total + val, total_err + err
        heapq.heappush(heap, (-err, len(heap), lo, hi, val, err))
    serial = evaluated = len(heap)
    while total_err > max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(total)))):
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, right = one_pass(lo, mid), one_pass(mid, hi)
        total = total - val + left[0] + right[0]
        total_err = total_err - err + left[1] + right[1]
        for seg, (half_val, half_err) in (((lo, mid), left), ((mid, hi), right)):
            heapq.heappush(heap, (-half_err, serial, *seg, half_val, half_err))
            serial += 1
        evaluated += 2
    return total, total_err, evaluated


def _speed_pieces(speed) -> tuple[np.ndarray, np.ndarray]:
    """Knots and densities of a speed density, read through its pdf at its breakpoints."""
    knots = np.array(speed.pdf_breakpoints, dtype=float)
    return knots, np.array([speed.pdf(v) for v in knots])


def stay_probability_oracle(speed, r: float, t: float, n: int = 64) -> float:
    """E_V[L(V t)] for a speed density as a fixed-node Legendre sum.

    One n-node panel between consecutive density knots and v = 2r/t, where
    the lens fraction L reaches 0.  Each panel is mapped through
    v = lo + half * (1 - cos(theta)), so the 3/2-power zero of L at 2r/t and
    the kinks of the density become smooth in theta.
    """
    knots = speed.pdf_breakpoints
    kink = 2.0 * r / t
    edges = sorted({*knots, *([kink] if knots[0] < kink < knots[-1] else [])})
    nodes, weights = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * math.pi * (nodes + 1.0)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        v = lo + half * (1.0 - np.cos(theta))
        u = np.minimum(v * t / (2.0 * r), 1.0)
        lens = (2.0 / math.pi) * (np.arccos(u) - u * np.sqrt(1.0 - u * u))
        total += float(np.sum(0.5 * math.pi * weights * half * np.sin(theta)
                              * speed.pdf(v) * lens))
    return total


def stay_probability_series(speed, r: float, t: float) -> float:
    """1 - (2/(pi r)) E[V] t + E[V^3] t^3 / (12 pi r^3), the small-gap stay probability.

    From L(d) = 1 - 2d/(pi r) + d^3/(12 pi r^3) + O(d^5); the moments are
    exact for the piecewise-linear density.
    """
    knots, dens = _speed_pieces(speed)

    def moment(k: int) -> float:
        total = 0.0
        for va, vb, fa, fb in zip(knots, knots[1:], dens, dens[1:]):
            slope = (fb - fa) / (vb - va)
            total += ((fa - slope * va) * (vb ** (k + 1) - va ** (k + 1)) / (k + 1)
                      + slope * (vb ** (k + 2) - va ** (k + 2)) / (k + 2))
        return total

    return (1.0 - 2.0 * moment(1) * t / (math.pi * r)
            + moment(3) * t ** 3 / (12.0 * math.pi * r ** 3))


def pmf_convolution_oracle(m: int, stay_prob: float, poisson_mean: float,
                           n_max: int) -> np.ndarray:
    """Conditional count pmf as Binomial(m, stay) convolved with Poisson."""
    from scipy import stats

    n = np.arange(n_max + 1)
    binom = stats.binom.pmf(np.arange(m + 1), m, stay_prob)
    poisson = stats.poisson.pmf(n, poisson_mean) if poisson_mean > 0 else \
        (n == 0).astype(float)
    return np.convolve(binom, poisson)[: n_max + 1]


class ScalarJointOracle:
    """Joint-success objective evaluated with fixed-node scalar quadrature.

    Only supports a fixed speed (the baseline family).  All node placement
    is independent of (s1, s2), so the evaluation is a smooth function of
    the seeds and can be finite-differenced.
    """

    def __init__(self, params: NetworkParams, v: float, t: float,
                 threshold: float, n_leg: int = 80):
        self.params = params
        self.threshold = threshold
        ant = params.antenna
        h2 = params.height**2
        vt = v * t
        x_max = ant.r_out + vt
        nodes, weights = np.polynomial.legendre.leggauss(n_leg)

        def panels(a, b, splits):
            cuts = sorted({a, b, *[s for s in splits if a < s < b]})
            xs, ws = [], []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                xs.append(mid + half * nodes)
                ws.append(half * weights)
            return np.concatenate(xs), np.concatenate(ws)

        x_splits = [ant.r_in, ant.r_out]
        for r in (ant.r_in, ant.r_out):
            x_splits += [abs(r - vt), r + vt]
        self.x, self.wx = panels(0.0, x_max, x_splits)

        def q_of_d2(d2):
            gain = np.where(d2 <= ant.r_in**2, ant.g_main,
                            np.where(d2 <= ant.r_out**2, ant.g_side, 0.0))
            return (threshold / ant.g_main) * (h2 / (h2 + d2)) ** (
                params.alpha / 2.0) * gain

        self.q0 = q_of_d2(self.x**2)
        # per x node: phi nodes/weights over [0, pi] split at gain crossings;
        # rows are ragged, so store flat with reduceat offsets
        qd_flat, wphi_flat, offsets = [], [], [0]
        for x in self.x:
            splits = []
            if vt > 0 and x > 0:
                for r in (ant.r_in, ant.r_out):
                    if abs(x - vt) < r < x + vt:
                        splits.append(math.acos(
                            (x * x + vt * vt - r * r) / (2 * x * vt)))
            phi, wphi = panels(0.0, math.pi, splits)
            d2 = x * x + vt * vt - 2 * x * vt * np.cos(phi)
            qd_flat.append(q_of_d2(d2))
            wphi_flat.append(wphi / math.pi)
            offsets.append(offsets[-1] + phi.size)
        self.qd = np.concatenate(qd_flat)
        self.wphi = np.concatenate(wphi_flat)
        self.row_starts = np.array(offsets[:-1])
        self.noise_rate = threshold * params.height**params.alpha * \
            params.noise / (params.fading.omega * ant.g_main)

    def exponent(self, s1: float, s2: float) -> float:
        k = self.params.fading.k
        p = self.params.p_mobile
        a_fac = (1.0 - s1 * self.q0) ** (-k)
        static = (1.0 - s2 * self.q0) ** (-k)
        mobile = np.add.reduceat(self.wphi * (1.0 - s2 * self.qd) ** (-k),
                                 self.row_starts)
        b_fac = p * mobile + (1.0 - p) * static
        integrand = (1.0 - a_fac * b_fac) * self.x
        return -2.0 * math.pi * self.params.lam * float(np.dot(self.wx, integrand))

    def __call__(self, s1: float, s2: float) -> float:
        return math.exp(self.noise_rate * (s1 + s2)) * \
            math.exp(self.exponent(s1, s2))


_STENCILS = {
    0: ([0], [1.0]),
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
}


def _central_fd(fn, i, j, h, at=(-1.0, -1.0)):
    off1, c1 = _STENCILS[i]
    off2, c2 = _STENCILS[j]
    total = 0.0
    for o1, w1 in zip(off1, c1):
        for o2, w2 in zip(off2, c2):
            total += w1 * w2 * fn(at[0] + o1 * h, at[1] + o2 * h)
    return total / h ** (i + j)


def richardson_mixed_partial(fn, i: int, j: int, h: float = 1e-2,
                             at=(-1.0, -1.0)) -> float:
    """(i, j) mixed partial of fn at `at`, O(h^4) via Richardson."""
    if i == 0 and j == 0:
        return fn(*at)
    coarse = _central_fd(fn, i, j, h, at)
    fine = _central_fd(fn, i, j, h / 2.0, at)
    return (4.0 * fine - coarse) / 3.0


def linear_coeffs(orders: tuple[int, int], c0: float, c1: float = 0.0,
                  c2: float = 0.0) -> np.ndarray:
    """Taylor coefficients around (-1, -1) of c0 + c1*s1 + c2*s2, truncated at ``orders``."""
    c = np.zeros((orders[0] + 1, orders[1] + 1))
    c[0, 0] = c0 - c1 - c2
    if orders[0] >= 1:
        c[1, 0] = c1
    if orders[1] >= 1:
        c[0, 1] = c2
    return c


def forward_footprint_counts(lam: float, p_mobile: float, r_out: float, v_min: float,
                             v_max: float, t: float, n_reps: int, rng: np.random.Generator,
                             m: int | None = None) -> np.ndarray:
    """Brute-force (count in the footprint at 0, count at t, stayers) per replication.

    A forward simulation in the plane: a Poisson process of intensity lam on
    the whole disk of radius r_out + v_max t, which holds every point that
    can reach the footprint by t.  Each point is mobile with probability
    p_mobile and moves by v t along a uniform direction, with v uniform on
    [v_min, v_max] (a fixed speed when the two agree).  Given ``m``, the
    footprint holds exactly m uniform points at time 0 and the Poisson
    process covers only the annulus around it.  Returns an (n_reps, 3) array.
    """
    big = r_out + v_max * t
    inner_r2 = 0.0 if m is None else r_out * r_out
    out, chunk = [], 2000  # replications per pass, to bound memory
    for start in range(0, n_reps, chunk):
        size = min(chunk, n_reps - start)
        counts = rng.poisson(lam * math.pi * (big * big - inner_r2), size)
        rep = np.repeat(np.arange(size), counts)
        radius = np.sqrt(inner_r2 + (big * big - inner_r2) * rng.random(rep.size))
        if m is not None:
            rep = np.concatenate((np.repeat(np.arange(size), m), rep))
            radius = np.concatenate((r_out * np.sqrt(rng.random(m * size)), radius))
        bearing = rng.uniform(0.0, 2.0 * math.pi, rep.size)
        x, y = radius * np.cos(bearing), radius * np.sin(bearing)
        step = np.where(rng.random(rep.size) < p_mobile,
                        rng.uniform(v_min, v_max, rep.size) * t, 0.0)
        heading = rng.uniform(0.0, 2.0 * math.pi, rep.size)
        xt, yt = x + step * np.cos(heading), y + step * np.sin(heading)
        in0 = x * x + y * y <= r_out * r_out
        in_t = xt * xt + yt * yt <= r_out * r_out
        out.append(np.column_stack([
            np.bincount(rep[mask], minlength=size) for mask in (in0, in_t, in0 & in_t)]))
    return np.concatenate(out)
