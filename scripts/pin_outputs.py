#!/usr/bin/env python3
"""Pin the outputs of the CI console commands under tests/data/pinned/.

Runs each command of ``COMMANDS`` in-process through ``uavtc.cli`` at
2,000 replications and one worker, as the CI workflow runs it, and writes
its results.csv, plotdata.csv and summary.json to
tests/data/pinned/<name>/.  ``manifest.json`` records the numpy version
that drew the Monte Carlo columns: numpy keeps its Philox streams stable,
but not every ``Generator`` method across releases.

tests/test_pinned.py reruns the same commands and compares.  Only this
script writes the files: a change whose outputs move declares it and reruns

    PYTHONPATH=src python3 scripts/pin_outputs.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from uavtc import cli

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "configs" / "baseline.json"
PINNED = ROOT / "tests" / "data" / "pinned"
REPLICATIONS = 2000

# the speed law of each config; the rest of it is configs/baseline.json
SPEEDS = {
    "baseline": None,
    "uniform": {"kind": "uniform", "v_min": 5.0, "v_max": 15.0},
    "tabulated": {"kind": "tabulated",
                  "table": [[2, 0], [8, 0.1], [15, 0.06], [25, 0.03], [40, 0]]},
    # a vanishing knot gap, and all mass in a spike far narrower than 2**-60 of the footprint
    "tiny-gap": {"kind": "tabulated", "table": [[0, 0], [1e-306, 1], [1, 1]]},
    "spike": {"kind": "tabulated", "table": [[0, 0], [1e-307, 1e307], [2e-307, 0], [1, 0]]},
}

# name: (config, command line after the config and the common flags)
COMMANDS = {
    "joint-success": ("baseline", ["joint-success", "--sweep-t", "1,5", "--sweep-tdb", "-80,-10"]),
    "retransmission": ("baseline", ["retransmission", "--sweep-t", "1,5"]),
    "retransmission-long-gap": ("baseline", ["retransmission", "--sweep-t", "5,1e4,1e12"]),
    "compare": ("baseline", ["compare", "--m", "5", "--sweep-t", "1,5", "--sweep-tdb", "-10,0"]),
    **{f"{law}-{command}": (law, [command, "--m", "5,15", "--sweep-t", "1,5"])
       for law in ("uniform", "tabulated")
       for command in ("interferer-pmf", "conditional-success")},
    "tiny-gap": ("tiny-gap", ["interferer-pmf", "--m", "5", "--sweep-t", "1e-16,1e-12,1"]),
    "spike": ("spike", ["interferer-pmf", "--m", "5", "--sweep-t", "5e-17,1e-12"]),
    "uniform-joint-success": (
        "uniform", ["joint-success", "--sweep-t", "1,5", "--sweep-tdb", "-10,0"]),
}


def run_command(name: str, config_dir: Path, out_dir: Path) -> None:
    """Run the command ``name`` with its config written under config_dir; artifacts to out_dir."""
    law, args = COMMANDS[name]
    config = json.loads(BASELINE.read_text())
    if SPEEDS[law] is not None:
        config["speed"] = SPEEDS[law]
    config_path = config_dir / f"{law}.json"
    config_path.write_text(json.dumps(config))
    cli.main.main(
        [*args, "--config", str(config_path), "--replications", str(REPLICATIONS),
         "--workers", "1", "--out", str(out_dir)],
        prog_name="uavtc", standalone_mode=False)


def main() -> int:
    shutil.rmtree(PINNED, ignore_errors=True)
    PINNED.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in COMMANDS:
            run_command(name, Path(scratch), PINNED / name)
    manifest = {"numpy": np.__version__, "replications": REPLICATIONS,
                "commands": {name: {"config": law, "args": args}
                             for name, (law, args) in COMMANDS.items()}}
    (PINNED / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"pinned {len(COMMANDS)} commands under {PINNED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
