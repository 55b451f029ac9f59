"""The scripts run end to end on a coarse grid."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from contact_topp.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
SHIPPED = (
    "arm_7dof", "double_integrator", "pickup", "pivoting", "planar_2dof",
    *(f"waiter/tilt_{t}" for t in ("0", "10", "15", "17_5", "20")),
)


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
    # every point row ends with the solver's iteration count
    statuses = ("Optimal", "PrimalInfeasible")
    rows = [line.split() for line in done.stdout.splitlines() if any(s in line.split() for s in statuses)]
    assert len(rows) == 6 + 4 + 5
    assert all(len(row) == 4 and int(row[3]) > 0 for row in rows)
    assert done.stdout.count("iterations") == 3


def test_fingerprint_is_one_stable_json_line(tmp_path):
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
    profiled = ("pivoting", "pickup", "arm_7dof")
    hashes = (
        {f"{kind}/{name}" for kind in ("samples", "stack", "fd_suite") for name in SHIPPED}
        | {f"audit/{name}" for name in profiled}
        | {f"phase_plane/{name}" for name in ("arm_7dof", "double_integrator", "planar_2dof")}
    )
    forms = {f"{kind}/{name}" for kind in ("dump", "form") for name in SHIPPED}
    solves = {f"solve/{name}/{field}" for name in SHIPPED for field in ("status", "iterations", "T", "x", "history")}
    fill = {f"kkt/{name}/lu_nnz" for name in SHIPPED}
    assert set(first) == {"grid", "blas_threads"} | hashes | forms | solves | fill
    assert all(isinstance(first[k], int) and first[k] > 0 for k in fill)
    assert first["grid"] == 6
    assert all(len(first[k]) == 64 and int(first[k], 16) >= 0 for k in hashes | forms)
    assert run() == first
    # a dump key is the hash of the file `topp solve --dump-program` writes
    assert main(["solve", str(ROOT / "scenarios" / "pickup.json"), "--grid", "6", "--out", str(tmp_path), "--dump-program"]) == 0
    assert hashlib.sha256((tmp_path / "pickup.program.json").read_bytes()).hexdigest() == first["dump/pickup"]


def test_fingerprint_check_names_each_changed_key(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "fingerprint.py"), "--grid", "6", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    line = json.loads(run().stdout)
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps(line))
    same = run("--check", str(saved))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "differs" not in same.stdout

    line["samples/pickup"] = "0" * 64
    saved.write_text(json.dumps(line))
    tampered = run("--check", str(saved))
    assert tampered.returncode == 1
    assert [ln.split(":")[1].strip() for ln in tampered.stdout.splitlines() if ln.startswith("differs")] == ["samples/pickup"]


def test_fingerprint_solve_keys_name_their_blas_setting(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "fingerprint.py"), "--grid", "6", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )

    line = json.loads(run().stdout)
    assert line["blas_threads"] == "1"
    for name in SHIPPED:
        status, T = line[f"solve/{name}/status"], line[f"solve/{name}/T"]
        assert status in ("Optimal", "PrimalInfeasible")
        assert line[f"solve/{name}/iterations"] > 0
        assert (T is None) == (status != "Optimal")
        assert T is None or float.fromhex(T) > 0.0
        assert len(line[f"solve/{name}/x"]) == 64
        assert len(line[f"solve/{name}/history"]) == 64

    # a line taken under another BLAS setting is flagged, not just diffed
    line["blas_threads"] = "2"
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps(line))
    other = run("--check", str(saved))
    assert other.returncode == 1
    assert "settings differ: OPENBLAS_NUM_THREADS saved 2, now 1" in other.stdout
    assert [ln.split(":")[1].strip() for ln in other.stdout.splitlines() if ln.startswith("differs")] == ["blas_threads"]


def test_make_scenarios_reproduces_the_shipped_files(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_scenarios.py"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    shipped = ROOT / "scenarios"
    files = sorted(p.relative_to(shipped) for p in shipped.rglob("*") if p.is_file())
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()) == files
    for name in files:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
