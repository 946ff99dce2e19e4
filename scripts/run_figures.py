#!/usr/bin/env python3
"""Run the three headline experiments at desk scale.

Produces one output directory per experiment, each containing results.csv,
plotdata.csv, and summary.json:

  fig_count_pmf/        conditional interferer-count pmf, m in {5, 15},
                        time gaps 1 and 5: analytic vs Monte Carlo vs the
                        stationary Poisson reference
  fig_conditional/      Monte Carlo success probability at the second
                        instant vs threshold, conditioned on the initial
                        count m in {5, 15} (the crossover experiment)
  fig_retransmission/   failure-conditioned retry success vs time gap
                        1..10: analytic vs Monte Carlo, with the
                        independent-marginal baseline

All runs share the scenario of configs/baseline.json: density 0.005, mobile
fraction 0.8, height 50, path-loss exponent 4, Nakagami shape 2 with scale
0.5 (mean power 1.0), main/side gains 2.0/0.5, footprint radii 15/25, fixed
speed 10, threshold -10 dB.  Replications default to 100000 per grid point;
pass a smaller --replications for a faster pass.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from uavtc.cli import ExperimentSpec, run
from uavtc.model import DEFAULT_TDB_GRID, load_config, validate

BASELINE = Path(__file__).resolve().parent.parent / "configs" / "baseline.json"


def baseline_scenario(replications: int, seed: int):
    return validate({**load_config(BASELINE), "replications": replications, "seed": seed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=100_000,
                        help="Monte Carlo replications per grid point (default 100000)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the Monte Carlo runs (default 1)")
    parser.add_argument("--seed", type=int, default=7, help="base seed (default 7)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="parent directory for the three experiment folders")
    args = parser.parse_args(argv)

    scenario = baseline_scenario(args.replications, args.seed)
    experiments = [
        ExperimentSpec(
            kind="interferer-pmf",
            scenario=scenario,
            sweep_t=(1.0, 5.0),
            sweep_tdb=(-10.0,),
            m_list=(5, 15),
            out_dir=args.out / "fig_count_pmf",
            workers=args.workers,
        ),
        ExperimentSpec(
            kind="conditional-success",
            scenario=scenario,
            sweep_t=(1.0,),
            sweep_tdb=DEFAULT_TDB_GRID,
            m_list=(5, 15),
            out_dir=args.out / "fig_conditional",
            workers=args.workers,
        ),
        ExperimentSpec(
            kind="retransmission",
            scenario=scenario,
            sweep_t=tuple(float(t) for t in range(1, 11)),
            sweep_tdb=(-10.0,),
            m_list=(),
            out_dir=args.out / "fig_retransmission",
            workers=args.workers,
        ),
    ]

    started = time.time()
    for spec in experiments:
        t0 = time.time()
        summary = run(spec)
        print(f"{spec.kind}: {summary['rows']} rows -> {spec.out_dir} "
              f"({time.time() - t0:.1f}s)")
    print(f"total {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
