"""The CI console commands against the outputs pinned by scripts/pin_outputs.py.

Each command reruns in-process at 2,000 replications and one worker.
Grid keys and Monte Carlo columns of results.csv must match byte for byte.
Analytic columns may move within 1e-13 absolute, as a different numpy or
BLAS can move their last digits; a z-score, (mc - analytic) / se, within
1e-13 / se.  plotdata.csv is results.csv reshaped, so the pinned one must be
the reshape of the pinned results and the rerun's that of its own.
summary.json must match without its time and version fields.
"""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from uavtc.cli import emit_plotdata

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pin_outputs.py"
_spec = importlib.util.spec_from_file_location("pin_outputs", SCRIPT)
pin_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_outputs)

ANALYTIC_TOL = 1e-13
# results.csv columns of analytic values; every other column is exact
ANALYTIC = {"p_analytic", "p_poisson_independent", "p_retx_analytic", "p_marginal_independent",
            "p_joint_analytic", "p_marginal_0", "p_marginal_t", "p_independent_joint",
            "analytic"}
UNPINNED_SUMMARY = ("started_unix", "wall_seconds", "version")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cell_matches(column, pinned, rerun, row):
    if pinned == rerun:
        return True
    if not (pinned and rerun):
        return False
    if column in ANALYTIC:
        return abs(float(pinned) - float(rerun)) <= ANALYTIC_TOL
    if column == "z":
        return abs(float(pinned) - float(rerun)) * float(row["se"]) <= ANALYTIC_TOL
    return False


def _summary(path):
    summary = json.loads(path.read_text())
    for key in UNPINNED_SUMMARY:
        summary.pop(key)
    return summary


def test_the_pinned_files_cover_every_command():
    manifest = json.loads((pin_outputs.PINNED / "manifest.json").read_text())
    assert set(manifest["commands"]) == set(pin_outputs.COMMANDS)
    assert manifest["replications"] == pin_outputs.REPLICATIONS


@pytest.mark.parametrize("name", list(pin_outputs.COMMANDS))
def test_command_outputs_match_the_pinned_files(name, tmp_path):
    pinned, out = pin_outputs.PINNED / name, tmp_path / "out"
    pin_outputs.run_command(name, tmp_path, out)
    numpy_pinned = json.loads((pin_outputs.PINNED / "manifest.json").read_text())["numpy"]
    where = f"{name} (pinned with numpy {numpy_pinned}, rerun with {np.__version__})"

    expected, got = _rows(pinned / "results.csv"), _rows(out / "results.csv")
    header = expected[0]
    assert got[0] == header and len(got) == len(expected), where
    for line, (old, new) in enumerate(zip(expected[1:], got[1:]), 2):
        row = dict(zip(header, new))
        for column, a, b in zip(header, old, new):
            assert _cell_matches(column, a, b, row), f"{where}: line {line} {column}: {a} -> {b}"

    for results, plot in ((pinned / "results.csv", pinned / "plotdata.csv"),
                          (out / "results.csv", out / "plotdata.csv")):
        reshaped = emit_plotdata(results, tmp_path / "reshaped.csv")
        assert reshaped.read_bytes() == plot.read_bytes(), f"{where}: {plot}"

    assert _summary(out / "summary.json") == _summary(pinned / "summary.json"), where
