#!/usr/bin/env python3
"""Reference stay probabilities E_V[L(V t)] to 40 digits with mpmath.

For each case below the speed law is built with uavtc, so its knots are the
renormalized floats the library integrates, and the integral of the
piecewise-linear density times the lens overlap fraction

    L(u) = (2/pi) (acos u - u sqrt(1 - u^2)),  u = v t / 2r,

is taken with mpmath's tanh-sinh quadrature at 40 digits on every piece,
cut at v = 2r/t where L reaches 0.  r is the outer footprint radius of
configs/baseline.json.  The output is the table of decimal strings that
tests/test_analytic.py pins; mpmath is needed here only, not by the tests.

    PYTHONPATH=src python3 scripts/stay_reference.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

from uavtc.model import TabulatedSpeed, UniformSpeed, load_config

BASELINE = Path(__file__).resolve().parent.parent / "configs" / "baseline.json"

# (label, law, gap t)
CASES = [
    ("uniform [5, 15]", UniformSpeed(5.0, 15.0), 1.0),
    ("uniform [5, 15]", UniformSpeed(5.0, 15.0), 5.0),
    ("uniform [0, 40]", UniformSpeed(0.0, 40.0), 1e-6),
    ("narrow steep piece", TabulatedSpeed([[100.0, 0.0], [100.001, 1.0]]), 0.1),
    ("narrow steep piece at a tiny gap", TabulatedSpeed([[40.0, 0.0], [40.001, 1.0]]), 1e-9),
    ("piece across u = 1/4", TabulatedSpeed([[10.0, 1.0], [10.002, 0.0], [30.0, 0.5]]), 0.8),
    ("piece from u near 0 clipped at u = 1",
     TabulatedSpeed([[0.0, 0.28763462856463984], [0.0028413754782673478, 0.0],
                     [9.38269803636661, 0.15382832542525438]]), 6.867234857197809),
    ("steep table",
     TabulatedSpeed([[106.39812722617701, 0.0], [106.78438440687569, 0.6681452373581896],
                     [106.7887357997123, 0.0], [106.7959749714415, 0.0]]), 0.46279027120528743),
    *(("spike narrower than 2**-60 in u",
       TabulatedSpeed([[0.0, 0.0], [1e-307, 1e307], [2e-307, 0.0], [1.0, 0.0]]), t)
      for t in (5e-17, 5e-15, 1e-12, 1e-5)),
]


def stay_probability(law, r: float, t: float) -> mp.mpf:
    """E_V[L(V t)] for a piecewise-linear speed density, at the working precision."""
    r, t = mp.mpf(r), mp.mpf(t)
    reach = 2 * r / t  # the speed beyond which L = 0
    speeds, densities = (list(map(mp.mpf, column)) for column in law.density_knots())
    total = mp.mpf(0)
    for va, vb, fa, fb in zip(speeds, speeds[1:], densities, densities[1:]):
        hi = min(vb, reach)
        if va >= hi:
            break

        def integrand(v, va=va, vb=vb, fa=fa, fb=fb):
            u = v / reach
            lens = 2 / mp.pi * (mp.acos(u) - u * mp.sqrt(1 - u * u))
            return (fa + (fb - fa) * (v - va) / (vb - va)) * lens

        total += mp.quad(integrand, [va, hi])
    return total


def main() -> None:
    mp.mp.dps = 40
    r = load_config(BASELINE)["r_out"]
    for label, law, t in CASES:
        print(f"{label:40s} t={t!r:<22} {mp.nstr(stay_probability(law, r, t), 40)}")


if __name__ == "__main__":
    main()
