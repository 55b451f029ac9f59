"""`JointPath` against scipy's `CubicSpline`, its slopes against `solve_banded`, and what the package imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from contact_topp.paths import JointPath, _slopes
from contact_topp.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("waiter/*.json"))


def assert_matches_cubic_spline(path, s):
    """q, q' and q'' within 1e-13 of CubicSpline's, relative to each one's scale; a float s gives the array's row bit for bit."""
    W = path.waypoints
    zero = np.zeros(path.dof)
    bc = "natural" if path.boundary == "natural" else ((1, zero), (1, zero))
    spline = CubicSpline(path.breakpoints, W, axis=0, bc_type=bc)
    steps = len(W) - 1
    for order, f in enumerate((path.position, path.derivative, path.second_derivative)):
        want, got = spline(s, order), f(s)
        assert got.shape == want.shape == (len(s), path.dof)
        # q'' of a straight path is 0, so the waypoints set the scale too
        scale = max(np.abs(want).max(), steps**order * np.abs(W).max())
        assert np.abs(got - want).max() <= 1e-13 * scale, order
        for k, sk in enumerate(s):
            assert f(float(sk)).tobytes() == got[k].tobytes()


def assert_waypoints_at_breakpoints(path):
    assert path.position(path.breakpoints).tobytes() == path.waypoints.tobytes()
    for s, q in zip(path.breakpoints, path.waypoints):
        assert path.position(float(s)).tobytes() == q.tobytes()


@settings(max_examples=60)
@given(
    waypoints=st.integers(2, 12),
    dof=st.integers(1, 7),
    boundary=st.sampled_from(["clamped", "natural"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_path_matches_cubic_spline(waypoints, dof, boundary, seed):
    rng = np.random.default_rng(seed)
    path = JointPath(rng.uniform(-np.pi, np.pi, size=(waypoints, dof)), boundary)
    assert_matches_cubic_spline(path, np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=20), path.breakpoints]))
    assert_waypoints_at_breakpoints(path)


@pytest.mark.parametrize("file", SHIPPED, ids=lambda p: str(p.relative_to(SCENARIOS)))
def test_shipped_path_matches_cubic_spline(file):
    for robot in load_scenario(file).scene.robots:
        grid = np.linspace(0.0, 1.0, 251)
        assert_matches_cubic_spline(robot.path, np.concatenate([grid, (grid[:-1] + grid[1:]) / 2]))
        assert_waypoints_at_breakpoints(robot.path)


def banded_slopes(W, clamped):
    """The slopes as `_slopes` computed them through scipy's LAPACK dgtsv, the reference it must match."""
    m = W.shape[0]
    band = np.ones((3, m))
    band[1] = 4.0
    rhs = np.empty_like(W)
    rhs[1:-1] = 3.0 * (W[2:] - W[:-2])
    if clamped:
        band[1, [0, -1]] = 1.0
        band[0, 1] = band[2, -2] = 0.0
        rhs[[0, -1]] = 0.0
    else:
        band[1, [0, -1]] = 2.0
        rhs[0] = 3.0 * (W[1] - W[0])
        rhs[-1] = 3.0 * (W[-1] - W[-2])
    return solve_banded((1, 1), band, rhs)


def hexes(a):
    """Each entry as float.hex, so a -0.0 differs from a +0.0."""
    return [float(x).hex() for x in a.ravel()]


@settings(max_examples=300)
@given(
    waypoints=st.integers(2, 30),
    dof=st.integers(1, 8),
    clamped=st.booleans(),
    exponent=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_slopes_match_solve_banded_bit_for_bit(waypoints, dof, clamped, exponent, seed):
    W = 10.0**exponent * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(waypoints, dof))
    assert hexes(_slopes(W, clamped)) == hexes(banded_slopes(W, clamped))


@pytest.mark.parametrize(
    "waypoints, clamped, slopes",
    [
        # symmetric about the middle waypoint, whose slope is exactly zero
        ([1.0, 2.0, 1.0], True, [0.0, 0.0, 0.0]),
        ([1.0, 2.0, 1.0], False, [1.5, 0.0, -1.5]),
        # dgtsv's back substitution subtracts 0 * x[i + 2], which turns the -0.0
        # the middle slope has without that term into +0.0
        ([-2.0, 0.0, -1.0, -0.0, -2.0], False, [3.0, 0.0, 0.0, 0.0, -3.0]),
        ([-2.0, 0.0, -1.0, 0.0, -2.0], False, [3.0, 0.0, 0.0, 0.0, -3.0]),
        # a joint that does not move
        ([0.5] * 6, True, [0.0] * 6),
        ([0.5] * 6, False, [0.0] * 6),
        ([-0.0] * 4, False, [0.0] * 4),
    ],
)
def test_exactly_zero_slopes_match_solve_banded(waypoints, clamped, slopes):
    # the second joint moves, as a path's other joints do
    W = np.column_stack([waypoints, np.linspace(-1.0, 2.0, len(waypoints))])
    got = _slopes(W, clamped)
    assert hexes(got) == hexes(banded_slopes(W, clamped))
    assert hexes(got[:, 0]) == hexes(np.array(slopes))


# Loads every shipped scenario, reads a stored K=500 profile and audits it,
# runs the finite-difference suite and rejects a trajectory with a misspelt
# key, then lists the scipy modules loaded; then solves at K=16 and says
# whether scipy's sparse LU was loaded.
VERIFY_THEN_SOLVE = """
import json, sys
from pathlib import Path
import contact_topp
from contact_topp import cli, scenario, verification

root, spoiled = Path(sys.argv[1]), sys.argv[2]
shipped = sorted(root.glob("scenarios/*.json")) + sorted(root.glob("scenarios/waiter/*.json"))
assert len([scenario.load_scenario(p) for p in shipped]) == 10
pickup = scenario.load_scenario(root / "scenarios" / "pickup.json")
dump = scenario.read_json(root / "perfbench" / "profiles" / "pickup.k500.json", "trajectory")
profile, intervals, _ = scenario.profile_from_json_dict(dump)
scenario.check_profile(profile, intervals, pickup)
assert verification.audit(profile, pickup).passed
assert verification.fd_suite(pickup)["passed"]
assert cli.main(["verify", str(root / "scenarios" / "pickup.json"), spoiled]) == 4
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
print(json.dumps("numpy.random" in sys.modules))
scenario.run(scenario.load_scenario(root / "scenarios" / "double_integrator.json"), scenario.RunSettings(grid_override=16))
print(json.dumps("scipy.sparse.linalg" in sys.modules))
"""


def test_import_leaves_out_interpolate_optimize_special(tmp_path):
    # scipy builds and factors the solver's sparse matrices and is imported
    # when a solve first needs it: loading, verifying and rejecting input run
    # on numpy alone, the spline solve included
    dump = json.loads((ROOT / "perfbench" / "profiles" / "pickup.k500.json").read_text())
    dump["grid_intervalz"] = dump["grid_intervals"]
    spoiled = tmp_path / "spoiled.json"
    spoiled.write_text(json.dumps(dump))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", VERIFY_THEN_SOLVE, str(ROOT), str(spoiled)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    loaded_by_verify, verify_loaded_random, solve_loaded_splu = map(json.loads, done.stdout.splitlines())
    assert loaded_by_verify == []
    # nor numpy.random: fd_suite draws its points from the standard library
    assert verify_loaded_random is False
    assert solve_loaded_splu is True
