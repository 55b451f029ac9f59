"""`JointPath` against scipy's `CubicSpline`, and what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from contact_topp.paths import JointPath
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


def test_import_leaves_out_interpolate_optimize_special():
    # csgraph: the KKT system imports it when a solve starts, so `topp verify`,
    # which never solves, does not load it
    heavy = ("scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.sparse.csgraph")
    code = f"import sys, contact_topp; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
