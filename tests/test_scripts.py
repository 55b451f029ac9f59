"""The trend-study script runs end to end on a coarse grid."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_sweeps_prints_three_tables():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_sweeps.py"), "--grid", "12"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for title in (
        "pickup: box mass [kg] vs minimum time [s]",
        "pivoting: edge friction vs minimum time [s]",
        "waiter: tray tilt [deg] vs minimum time [s]",
    ):
        assert title in done.stdout
    assert "NumericalFailure" not in done.stdout
    assert "MaxIterations" not in done.stdout
