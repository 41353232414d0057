"""The scripts under ``scripts/`` still run against the package's API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import carbonledger

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(carbonledger.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script, args, line", [
    ("run_figure1.py", [], "total emissions: 100,089.6 kgCO2e"),
    (
        "convergence_experiment.py",
        ["--seeds", "1"],
        "sankey-small           r1=15.120MWh, r2=11.664MWh, r3=0.000MWh, r4=0.000MWh  round3/round1=0.00e+00",
    ),
])
def test_script_runs_and_prints_its_line(script, args, line):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
