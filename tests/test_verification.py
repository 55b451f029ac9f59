"""Verification layer: phase-plane oracle, resubstitution audit, fd cross-checks.

The oracle is exercised against closed-form 1-DOF optima (bang-bang and the
velocity-capped trapezoid) and against the conic solve on a shipped arm
scenario.  Audit tests corrupt a known-good profile one family at a time and
expect the matching flag, which checks the auditor's independence as much as
its arithmetic.
"""

import copy
import math
from pathlib import Path

import numpy as np
import pytest

import contact_topp.verification as verification
from conftest import make_limits, planar_arm
from contact_topp.dynamics import RobotInstance, Scene
from contact_topp.paths import JointPath
from contact_topp.scenario import (
    RunSettings,
    Scenario,
    load_scenario,
    scenario_from_dict,
    solve_scenario,
)
from contact_topp.transcription import ScalingVariables
from contact_topp.verification import (
    audit,
    fd_suite,
    topp_phase_plane,
    verification_ledger,
)
from test_scenario import slider_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_of(model, waypoints, boundary=(0.0, 0.0), grid_points=40):
    path = JointPath(np.asarray(waypoints, dtype=float), boundary="natural")
    scene = Scene(robots=(RobotInstance(model, path),), objects=(), gravity=np.array([0.0, 0.0, -9.81]))
    return Scenario(
        name="inline",
        scene=scene,
        grid_points=grid_points,
        boundary_sdot=boundary,
        source={},
    )


# phase-plane oracle against closed forms


def test_oracle_bang_bang():
    sc = scenario_from_dict(slider_scenario(accel=4.0))
    prof = topp_phase_plane(sc, resolution=800)
    assert prof.total == pytest.approx(1.0, rel=1e-4)
    assert prof.forward[0] == 0.0
    assert prof.profile[-1] == 0.0


def test_oracle_velocity_trapezoid():
    # caps |a| <= 2, |v| <= 0.8 over unit length: T = 1/v + v/a
    sc = scenario_from_dict(slider_scenario(accel=2.0, velocity=0.8))
    prof = topp_phase_plane(sc, resolution=800)
    assert prof.total == pytest.approx(1.0 / 0.8 + 0.8 / 2.0, rel=1e-4)
    # cruise at the cap: limit curve equals v^2 away from the ends
    mid = prof.limit_curve[prof.s.size // 2]
    assert mid == pytest.approx(0.64, rel=1e-9)


def test_oracle_profile_under_limit_curve():
    sc = scenario_from_dict(slider_scenario(accel=1.0, velocity=0.7))
    prof = topp_phase_plane(sc, resolution=300)
    assert np.all(prof.profile <= prof.limit_curve + 1e-9)
    assert np.all(prof.profile >= -1e-12)
    assert prof.total > 0.0


def test_oracle_matches_conic_solve():
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    _, rep, _ = solve_scenario(sc, RunSettings(grid_override=60))
    prof = topp_phase_plane(sc, resolution=600)
    assert rep.status == "Optimal"
    assert abs(rep.objective - prof.total) / prof.total < 0.02


def test_oracle_rejects_contact_scenarios():
    sc = load_scenario(str(SCENARIOS / "pickup.json"))
    with pytest.raises(ValueError, match="contact-free"):
        topp_phase_plane(sc)


def test_oracle_reports_zero_speed_infeasibility():
    # one link, gravity torque at the reversal pose exceeds the actuator cap,
    # and the reversal sample constrains b alone: nothing is feasible at rest
    model = planar_arm((1.0,), (1.0,), limits=make_limits(1, torque=4.0, velocity=1e6, accel=1e6))
    sc = scenario_of(model, [[-0.3], [0.3], [-0.3]])
    with pytest.raises(ValueError, match="zero speed"):
        topp_phase_plane(sc, resolution=200)


def test_oracle_boundary_speed_errors():
    data = slider_scenario(accel=1.0)
    data["boundary_sdot"] = [3.0, 0.0]
    with pytest.raises(ValueError, match="initial speed"):
        topp_phase_plane(scenario_from_dict(data), resolution=200)
    data["boundary_sdot"] = [0.0, 3.0]
    with pytest.raises(ValueError, match="terminal speed"):
        topp_phase_plane(scenario_from_dict(data), resolution=200)


# resubstitution audit


@pytest.fixture(scope="module")
def solved_slider():
    sc = scenario_from_dict(slider_scenario(grid_points=16, accel=1.0))
    _, rep, sol = solve_scenario(sc, RunSettings())
    assert rep.status == "Optimal"
    return sc, sol


def test_audit_clean_on_solved_profile(solved_slider):
    sc, sol = solved_slider
    rep = audit(sol, sc)
    assert rep.passed()
    assert rep.flagged == {}
    assert rep.worst < 1e-8
    assert set(rep.families) >= {
        "torque_dynamics",
        "torque_limits",
        "acceleration_limits",
        "speed_coupling",
        "time_epigraph",
        "speed_nonneg",
        "boundary_speed",
    }


def test_audit_flags_torque_tampering(solved_slider):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    bad.torque[5, 0] += 1e-3
    rep = audit(bad, sc)
    assert not rep.passed()
    assert 5 in rep.flagged["torque_dynamics"]


def test_audit_flags_negative_speed(solved_slider):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    bad.speed_sq[3] = -1e-4
    rep = audit(bad, sc)
    assert "speed_nonneg" in rep.flagged


def test_audit_flags_boundary_mismatch(solved_slider):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    bad.speed_sq[0] = 0.05
    rep = audit(bad, sc)
    assert "boundary_speed" in rep.flagged


def test_audit_is_deterministic(solved_slider):
    sc, sol = solved_slider
    a = audit(sol, sc).to_json_dict()
    b = audit(sol, sc).to_json_dict()
    assert a == b


def test_audit_json_is_plain(solved_slider):
    import json

    sc, sol = solved_slider
    blob = json.dumps(audit(sol, sc).to_json_dict())
    assert "torque_dynamics" in blob


# finite-difference suite


def test_fd_suite_passes_and_is_deterministic():
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    a = fd_suite(sc, samples=20, seed=3)
    b = fd_suite(sc, samples=20, seed=3)
    assert a == b
    assert a["passed"]
    assert a["checks"]["rnea_substitution"]["max_error"] <= 1e-9


def test_fd_suite_catches_corrupted_dynamics(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    true_id = verification.inverse_dynamics

    def crooked(model, q, qd, qdd, gravity):
        # velocity-linear corruption: survives none of the substitution algebra
        return true_id(model, q, qd, qdd, gravity) + 1e-3 * np.sum(np.abs(qd))

    monkeypatch.setattr(verification, "inverse_dynamics", crooked)
    led = fd_suite(sc, samples=10, seed=0)
    assert not led["checks"]["rnea_substitution"]["passed"]


def test_ledger_shape(solved_slider):
    sc, sol = solved_slider
    led = verification_ledger(sc, sol)
    assert led["scenario"] == "slider_case"
    assert led["passed"] is True
    assert led["fd_suite"]["checks"]["body_jacobian_fd"]["passed"]
    assert led["audit"]["worst"] <= 1e-6


def test_ledger_without_profile():
    sc = scenario_from_dict(slider_scenario())
    led = verification_ledger(sc)
    assert "audit" not in led
    assert led["passed"] is True


# a NaN compares false with every tolerance, and max(0.0, nan) is 0.0: the
# audit and the fd suite must count it as a failure, not drop it


@pytest.mark.parametrize(
    "field, index",
    [("torque", (5, 0)), ("accel", (3,)), ("speed_sq", (4,)), ("inverse_avg", (2,))],
)
def test_audit_fails_a_nan_profile(solved_slider, field, index):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    getattr(bad, field)[index] = math.nan
    rep = audit(bad, sc)
    assert not rep.passed()
    assert rep.worst == math.inf and rep.flagged


def test_audit_fails_a_nan_wrench():
    sc = load_scenario(str(SCENARIOS / "pickup.json"))
    _, rep, sol = solve_scenario(sc, RunSettings(grid_override=8))
    assert rep.status == "Optimal" and audit(sol, sc).passed()
    sol.wrenches["box/finger_left"][3, 0] = math.nan
    assert not audit(sol, sc).passed()


def test_fd_suite_fails_a_nan_error(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    monkeypatch.setattr(verification, "_fd_body_jacobian", lambda model, q: np.full((6, q.size), math.nan))
    check = fd_suite(sc, samples=10, seed=0)["checks"]["body_jacobian_fd"]
    assert math.isnan(check["max_error"]) and not check["passed"]
