"""Independent references for the benchmark's output checks.

Nothing here uses uavtc's adaptive quadrature or its jets.  Every integral is
a fixed-node Gauss-Legendre sum over panels split at the integrand's known
kinks, with each panel mapped through x = mid - half*cos(u).  The mapping
clusters nodes at the panel ends, which turns the square-root behaviour of
arc lengths near tangency (the kinks that cannot be split away) into a smooth
integrand, so a modest node count reaches about 1e-10.

* ``success_probability``: the two-instant Laplace functional evaluated as a
  plain scalar function of (s1, s2); the mixed partials that gamma fading
  needs come from Richardson-extrapolated central finite differences.
  Supports a fixed speed only.
* ``count_pmf``: Binomial(m, survive) convolved with Poisson(arrivals), where
  the stay probability and the arrival mean come from a nested fixed-node
  quadrature of the closed-form arc fraction.  Supports a uniform speed.
"""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
# u in [0, pi]: the Legendre nodes mapped from [-1, 1]
_U = 0.5 * math.pi * (_NODES + 1.0)
_WU = 0.5 * math.pi * _WEIGHTS


def panel_rule(a: float, b: float, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [a, b], one cosine-mapped panel between cuts."""
    edges = sorted({a, b, *(c for c in cuts if a < c < b)})
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid - half * np.cos(_U))
        ws.append(_WU * half * np.sin(_U))
    return np.concatenate(xs), np.concatenate(ws)


# ---------------------------------------------------------------------------
# Success probabilities (fixed speed)
# ---------------------------------------------------------------------------

# central-difference weights for derivative orders 0, 1, 2
_STENCIL = {0: ((0, 1.0),), 1: ((-1, -0.5), (1, 0.5)), 2: ((-1, 1.0), (0, -2.0), (1, 1.0))}


class LaplaceFunctional:
    """L(s1, s2) = E[exp(s1*c*(I0 + N) + s2*c*(It + N))] for a fixed speed v.

    ``s1_active``/``s2_active`` drop an instant, as for a marginal; the
    dropped variable's factor is identically 1.
    """

    def __init__(self, params, v: float, t: float, threshold: float,
                 s1_active: bool = True, s2_active: bool = True):
        ant = params.antenna
        self.k = params.fading.k
        self.p = params.p_mobile
        self.lam = params.lam
        self.s1_active, self.s2_active = s1_active, s2_active
        h2 = params.height ** 2
        vt = v * t

        def q_of_d2(d2):
            gain = np.where(d2 <= ant.r_in ** 2, ant.g_main,
                            np.where(d2 <= ant.r_out ** 2, ant.g_side, 0.0))
            return threshold / ant.g_main * (h2 / (h2 + d2)) ** (params.alpha / 2.0) * gain

        mobile = s2_active and self.p > 0.0 and vt > 0.0
        x_max = ant.r_out + vt if mobile else ant.r_out
        cuts = [ant.r_in, ant.r_out]
        if mobile:
            for r in (ant.r_in, ant.r_out):
                cuts += [abs(r - vt), r + vt]
        self.x, self.wx = panel_rule(0.0, x_max, cuts)
        self.q0 = q_of_d2(self.x ** 2)
        self.mobile = mobile
        if mobile:
            # direction angle phi in [0, pi] per x node, split where the
            # displaced node crosses a gain boundary
            rows, weights = [], []
            for x in self.x:
                splits = []
                for r in (ant.r_in, ant.r_out):
                    if abs(x - vt) < r < x + vt:
                        splits.append(math.acos((x * x + vt * vt - r * r) / (2.0 * x * vt)))
                phi, wphi = panel_rule(0.0, math.pi, splits)
                rows.append(q_of_d2(x * x + vt * vt - 2.0 * x * vt * np.cos(phi)))
                weights.append(wphi / math.pi)
            # every row has the same node count only when no splits differ,
            # so pad rows to a rectangle with zero weights
            width = max(len(r) for r in rows)
            self.qd = np.zeros((len(rows), width))
            self.wphi = np.zeros((len(rows), width))
            for i, (r, w) in enumerate(zip(rows, weights)):
                self.qd[i, : len(r)] = r
                self.wphi[i, : len(w)] = w
        self.noise_rate = threshold * params.height ** params.alpha * params.noise / (
            params.fading.omega * ant.g_main)

    def __call__(self, s1: float, s2: float) -> float:
        k = self.k
        s1 = s1 if self.s1_active else 0.0
        s2 = s2 if self.s2_active else 0.0
        a_fac = (1.0 - s1 * self.q0) ** (-k)
        b_fac = (1.0 - s2 * self.q0) ** (-k)
        if self.mobile:
            moved = np.sum(self.wphi * (1.0 - s2 * self.qd) ** (-k), axis=1)
            b_fac = self.p * moved + (1.0 - self.p) * b_fac
        exponent = -2.0 * math.pi * self.lam * float(np.dot(self.wx, (1.0 - a_fac * b_fac) * self.x))
        return math.exp(self.noise_rate * (s1 + s2) + exponent)

    def partial(self, i: int, j: int, h: float = 1e-2) -> float:
        """(i, j) mixed partial at (-1, -1), Richardson-extrapolated to O(h^4)."""

        def central(step):
            total = 0.0
            for o1, w1 in _STENCIL[i]:
                for o2, w2 in _STENCIL[j]:
                    total += w1 * w2 * self(-1.0 + o1 * step, -1.0 + o2 * step)
            return total / step ** (i + j)

        if i == 0 and j == 0:
            return self(-1.0, -1.0)
        return (4.0 * central(h / 2.0) - central(h)) / 3.0

    def success(self) -> float:
        """Sum of the Taylor coefficients c[i][j], i, j < k, around (-1, -1)."""
        n1 = self.k if self.s1_active else 1
        n2 = self.k if self.s2_active else 1
        return sum(
            self.partial(i, j) / (math.factorial(i) * math.factorial(j))
            for i in range(n1) for j in range(n2)
        )


def success_probabilities(params, v: float, t: float, threshold: float) -> dict[str, float]:
    """Joint and both marginal success probabilities for a fixed speed v."""
    return {
        "joint": LaplaceFunctional(params, v, t, threshold).success(),
        "marginal_0": LaplaceFunctional(params, v, t, threshold, s2_active=False).success(),
        "marginal_t": LaplaceFunctional(params, v, t, threshold, s1_active=False).success(),
    }


# ---------------------------------------------------------------------------
# Interferer counts (uniform speed)
# ---------------------------------------------------------------------------


def containment(r: float, x: np.ndarray, v_min: float, v_max: float, t: float) -> np.ndarray:
    """P{node starting at ground distance x ends within r}, speed ~ U[v_min, v_max].

    F(r | x) = F_V((r - x)/t) + (1/pi) * int arccos((x^2 + (vt)^2 - r^2)/(2 x v t)) f(v) dv
    over the speeds for which only an arc of directions stays inside.
    """
    x = np.asarray(x, dtype=float)
    width = v_max - v_min
    base = np.clip(((r - x) / t - v_min) / width, 0.0, 1.0)
    lo = np.maximum(np.abs(x - r) / t, v_min)
    hi = np.minimum((x + r) / t, v_max)
    arc = np.zeros_like(x)
    live = hi > lo
    if np.any(live):
        a, b, xl = lo[live], hi[live], x[live]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        v = mid[:, None] - half[:, None] * np.cos(_U)[None, :]
        w = _WU[None, :] * half[:, None] * np.sin(_U)[None, :]
        vt = v * t
        arg = (xl[:, None] ** 2 + vt * vt - r * r) / (2.0 * xl[:, None] * vt)
        arc[live] = np.sum(w * np.arccos(np.clip(arg, -1.0, 1.0)), axis=1) / (math.pi * width)
    return np.clip(base + arc, 0.0, 1.0)


def count_rates(params, v_min: float, v_max: float, t: float) -> tuple[float, float]:
    """(stay probability of a node uniform in the footprint, mean arrival count)."""
    r = params.antenna.r_out
    cuts = {r}
    for v in (v_min, v_max):
        cuts.update((abs(r - v * t), r + v * t, v * t - r))
    x_in, w_in = panel_rule(0.0, r, cuts)
    stay = float(np.dot(w_in, containment(r, x_in, v_min, v_max, t) * 2.0 * x_in / (r * r)))
    x_out, w_out = panel_rule(r, r + v_max * t, cuts)
    arrivals = 2.0 * math.pi * params.lam * params.p_mobile * float(
        np.dot(w_out, containment(r, x_out, v_min, v_max, t) * x_out))
    return stay, arrivals


def count_pmf(m: int, params, v_min: float, v_max: float, t: float, n_max: int) -> np.ndarray:
    """P{n interferers at t | m at 0} for n = 0..n_max, as a convolution."""
    stay, arrivals = count_rates(params, v_min, v_max, t)
    survive = params.p_mobile * stay + (1.0 - params.p_mobile)
    binom = np.array([math.comb(m, i) * survive ** i * (1.0 - survive) ** (m - i)
                      for i in range(m + 1)])
    n = np.arange(n_max + 1)
    poisson = np.exp(n * math.log(arrivals) - arrivals - np.array([math.lgamma(i + 1) for i in n]))
    return np.convolve(binom, poisson)[: n_max + 1]
