"""The scripts run end to end on a coarse grid."""

import json
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


def test_fingerprint_is_one_stable_json_line():
    def run():
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "fingerprint.py"), "--grid", "6"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    first = run()
    expected = {"grid"} | {
        f"{kind}/{name}" for kind in ("samples", "fd_suite", "audit") for name in ("pivoting", "pickup", "arm_7dof")
    }
    assert set(first) == expected | {"phase_plane/arm_7dof"}
    assert first["grid"] == 6
    assert all(len(v) == 64 and int(v, 16) >= 0 for k, v in first.items() if k != "grid")
    assert run() == first
