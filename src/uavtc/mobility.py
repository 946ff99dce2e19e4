"""Single-node mobility: displaced distance and footprint containment.

A node initially at ground distance ``x`` from the origin picks a direction
uniformly at random and travels for a duration ``t`` at speed ``v``.  With
the direction angle measured from the ray pointing back at the origin, the
law of cosines gives the new ground distance

    d(x, v, theta, t) = sqrt(x^2 + (v t)^2 - 2 x v t cos(theta)).

``containment_cdf`` is the probability that the displaced node ends up
within distance ``r`` of the origin, averaged over the uniform direction
and the speed distribution:

    F(r | x) = F_V((r - x)/t)
             + (1/pi) * integral of arccos((x^2 + (v t)^2 - r^2) / (2 x v t))
               over v in [|x - r|/t, (x + r)/t] weighted by the speed density.

The first term collects speeds slow enough that every direction stays inside;
the integral collects speeds for which only an angular arc stays inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SpeedDistribution
from .numerics import QuadratureSpec, integrate

_PI = np.pi

CONTAINMENT_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=2000)


@dataclass(frozen=True)
class Displacement:
    """One realized move: speed, direction angle, and duration."""

    speed: float
    angle: float  # radians; 0 points from the node toward the origin
    duration: float

    def applied_to(self, x):
        return displaced_distance(x, self.speed, self.angle, self.duration)


def displaced_distance(x, speed, angle, duration):
    """Ground distance from the origin after the move; accepts arrays.

    The radicand is clamped at zero when rounding drives it a hair negative
    (it is a perfect square at angle 0, where cancellation is worst).
    """
    x = np.asarray(x, dtype=float)
    vt = np.asarray(speed, dtype=float) * duration
    rad = x * x + vt * vt - 2.0 * x * vt * np.cos(angle)
    if np.isnan(rad).any():
        raise ValueError("displaced_distance needs finite x, speed, angle and duration")
    out = np.sqrt(np.maximum(rad, 0.0))
    return float(out) if out.ndim == 0 else out


def _arc_fraction(x: float, vt: float, r: float) -> float:
    """Fraction of directions keeping the node within r (partial-arc regime).

    When 2*x*vt underflows to 0 the arccos argument takes its vt -> 0 limit,
    the sign of x^2 - r^2.
    """
    denom = 2.0 * x * vt
    arg = (x * x + vt * vt - r * r) / denom if denom > 0.0 else np.sign(x * x - r * r)
    return float(np.arccos(np.clip(arg, -1.0, 1.0))) / _PI


def containment_cdf(
    r: float,
    x: float,
    speed: SpeedDistribution,
    t: float,
    spec: QuadratureSpec = CONTAINMENT_SPEC,
) -> float:
    """Probability that a node starting at distance x ends within distance r."""
    if not r > 0:
        raise ValueError(f"r must be > 0, got {r!r}")
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if t == 0:
        return 1.0 if x <= r else 0.0
    if x == 0:
        # the node ends exactly v*t away regardless of direction
        return speed.cdf(r / t)

    lo = abs(x - r) / t
    hi = (x + r) / t

    v_atom = speed.atom
    if v_atom is not None:
        if v_atom <= (r - x) / t:
            return 1.0
        if lo <= v_atom <= hi:
            return _arc_fraction(x, v_atom * t, r)
        return 0.0

    base = speed.cdf((r - x) / t)
    a = max(lo, speed.support_min)
    b = min(hi, speed.support_max)
    if b <= a:
        return min(max(base, 0.0), 1.0)

    def integrand(v: float) -> float:
        return _arc_fraction(x, v * t, r) * speed.pdf(v)

    arc = integrate(integrand, a, b, spec, points=speed.pdf_breakpoints)
    return min(max(base + arc, 0.0), 1.0)
