"""Reference figures for single uavtc calls on the baseline scenario.

    python3 perfbench/figures.py            # the figures quoted in README.md
    python3 perfbench/figures.py --uniform  # adds the uniform-speed joint point (minutes)

Prints one line per figure: wall seconds and, for the analytic calls, the
number of 15-point Gauss-Kronrod passes.  Run from the root of a source
checkout.  These are single measurements, not benchmark metrics.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import uavtc  # noqa: E402
from uavtc import analytic, numerics, simulate  # noqa: E402


class PassCounter:
    """Stands in for ``numerics._gk15`` and counts the Gauss-Kronrod passes."""

    def __init__(self, gk15):
        self.gk15 = gk15
        self.passes = 0

    def __call__(self, f, a, b):
        self.passes += 1
        return self.gk15(f, a, b)


def figure(label: str, counter: PassCounter, fn) -> None:
    counter.passes = 0
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    print(f"{label}: {seconds:.3f} s, {counter.passes} GK15 passes", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--uniform", action="store_true",
                        help="also time joint_success with speed uniform on [5, 15]")
    args = parser.parse_args()

    counter = numerics._gk15 = PassCounter(numerics._gk15)
    sc = uavtc.model.validate(uavtc.model.load_config(ROOT / "configs" / "baseline.json"))
    p, v, thr = sc.params, sc.speed, sc.threshold  # k=2, fixed speed 10, -10 dB
    figure("joint_success, fixed speed, k=2, t=1", counter,
           lambda: analytic.joint_success(p, v, 1.0, thr))
    figure("retransmission_report, fixed speed, k=2, t=1", counter,
           lambda: analytic.retransmission_report(p, v, 1.0, thr))
    figure("  of which the time-0 marginal", counter,
           lambda: analytic.marginal_success(p, v, 1.0, thr, "time0"))

    reps = 20000
    t0 = time.perf_counter()
    simulate.estimate_joint_success(replace(sc, replications=reps), workers=1)
    print(f"estimate_joint_success, one worker, t=1: "
          f"{reps / (time.perf_counter() - t0):.0f} replications/s", flush=True)

    if args.uniform:
        figure("joint_success, speed uniform on [5, 15], k=2, t=1", counter,
               lambda: analytic.joint_success(p, uavtc.model.UniformSpeed(5.0, 15.0), 1.0, thr))


if __name__ == "__main__":
    main()
