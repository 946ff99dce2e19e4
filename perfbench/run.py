"""uavtc benchmark: one workload, one seed, every metric by name with its unit.

    python3 perfbench/run.py --workload sinr-analytic --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's grid is run in whole rounds for about ``--seconds``
seconds: a further round starts only while the median round still fits.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same rounds run, then one more
round under the span recorder, and the object holds the per-layer metrics.
Output checks run after all timing; problems go to standard error and set
``correct`` to false.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

# Wall seconds of setup in a fresh interpreter: import uavtc, load and
# validate the scenario, build the grid.  The interpreter's own start is not
# counted.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{workload!r}].setup(workloads.Path({root!r}), {seed})
print(time.perf_counter() - t0)
"""


def _setup_seconds(workload: str, seed: int) -> float:
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload,
                               root=str(ROOT), seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; children are pool workers that have exited
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _point_seconds(rounds) -> float:
    """Geometric mean over the grid's points of each point's median over rounds."""
    per_point = {}
    for r in rounds:
        for i, seconds in enumerate(r.point_s):
            if seconds is not None:
                per_point.setdefault(i, []).append(seconds)
    medians = [statistics.median(v) for v in per_point.values()]
    return math.exp(statistics.fmean(math.log(m) for m in medians)) if medians else math.nan


def _run_rounds(wl, state, scratch: Path, seconds: float):
    """Whole rounds while the median round still fits in ``seconds``."""
    rounds, walls = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(wl.round(state, scratch))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return rounds, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uavtc" / "__init__.py").is_file():
        print(f"error: no uavtc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import uavtc
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as scratch:
        scratch = Path(scratch)
        state = wl.setup(ROOT, args.seed)
        rounds, walls = _run_rounds(wl, state, scratch, args.seconds)
        peak_rss = _peak_rss_mib()
        if args.trace:
            rec = spans.Recorder()
            undo = spans.install(rec, uavtc)
            try:
                traced_state = wl.setup(ROOT, args.seed)
                t0 = time.perf_counter()
                rounds.append(wl.round(traced_state, scratch, rec))
                traced_wall = time.perf_counter() - t0
            finally:
                undo()
        problems = wl.check(state, rounds)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = spans.layer_metrics(rec)
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    else:
        metrics = {
            "setup_s": (_setup_seconds(args.workload, args.seed), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "point_s": (_point_seconds(rounds), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    print(f"{args.workload}: {len(walls)} untraced rounds, wall seconds "
          f"{[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
