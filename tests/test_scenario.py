"""Scenario layer: JSON loading, parameter paths, runs, writers, sweeps, CLI.

Most checks ride on a one-joint slider written out as a JSON dict: unit mass,
symmetric force bound, straight unit path.  Its optimum is the bang-bang
double integrator with T = 2/sqrt(accel cap), which makes every end-to-end
assertion closed-form.
"""

import copy
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from contact_topp import scenario as scenario_module
from contact_topp.cli import main
from contact_topp.liegroup import Pose, Twist
from contact_topp.robot import (
    JointDef,
    JointLimits,
    Link,
    LinkInertia,
    RobotModel,
    robot_to_json,
)
from contact_topp.scenario import (
    SWEEP_INPUT_ERROR,
    InfeasibleScenarioError,
    RunSettings,
    ScenarioError,
    Scenario,
    assemble_scenario,
    load_scenario,
    profile_from_json_dict,
    run,
    scenario_from_dict,
    set_by_path,
    solve_scenario,
    sweep,
)
from contact_topp.transcription import build_grid

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def slider_json(accel=1.0, torque=10.0, torque_min=None, velocity=None):
    model = RobotModel(
        name="slider",
        joints=(JointDef("prismatic", Twist.prismatic([1.0, 0.0, 0.0])),),
        links=(
            Link(
                home_pose=Pose.identity(),
                inertia=LinkInertia(1.0, np.zeros(3), np.eye(3) * 1e-6),
            ),
        ),
        x_ref=Pose.identity(),
        tool_offset=Pose.identity(),
        limits=JointLimits(
            torque_lower=[-torque if torque_min is None else torque_min],
            torque_upper=[torque],
            velocity_max=[np.inf if velocity is None else velocity],
            accel_lower=[-accel],
            accel_upper=[accel],
        ),
    )
    return robot_to_json(model)


def slider_scenario(grid_points=12, **kwargs):
    return {
        "format": "contact-topp/scenario-v1",
        "name": "slider_case",
        "gravity": [0.0, 0.0, -9.81],
        "grid_points": grid_points,
        "boundary_sdot": [0.0, 0.0],
        "path_boundary": "natural",
        "robots": [{"model": slider_json(**kwargs), "waypoints": [[0.0], [1.0]]}],
        "objects": [],
    }


def contact_census(sc):
    """(number of point contacts u, number of soft-finger contacts v)."""
    models = [c.model for obj in sc.scene.objects for c in obj.model.contacts]
    return models.count("pcwf"), len(models) - models.count("pcwf")


# loader


def test_loads_minimal_scenario():
    sc = scenario_from_dict(slider_scenario())
    assert sc.name == "slider_case"
    assert sc.grid_points == 12
    assert sc.boundary_sdot == (0.0, 0.0)
    assert contact_census(sc) == (0, 0)


def test_missing_field_is_named():
    data = slider_scenario()
    del data["grid_points"]
    with pytest.raises(ScenarioError, match="missing field 'grid_points'"):
        scenario_from_dict(data)


def test_bad_format_rejected():
    data = slider_scenario()
    data["format"] = "contact-topp/scenario-v9"
    with pytest.raises(ScenarioError, match="format"):
        scenario_from_dict(data)


def test_robot_field_errors_carry_location():
    data = slider_scenario()
    del data["robots"][0]["model"]["joints"][0]["torque_max"]
    with pytest.raises(ScenarioError, match=r"robots\[0\]"):
        scenario_from_dict(data)


def test_boundary_sdot_null_is_free():
    data = slider_scenario()
    data["boundary_sdot"] = [0.0, None]
    sc = scenario_from_dict(data)
    assert sc.boundary_sdot == (0.0, None)


def test_boundary_sdot_wrong_length():
    data = slider_scenario()
    data["boundary_sdot"] = [0.0]
    with pytest.raises(ScenarioError, match="two entries"):
        scenario_from_dict(data)


def test_limit_scale_applied():
    data = slider_scenario()
    data["limit_scale"] = {"acceleration": 4.0}
    sc = scenario_from_dict(data)
    assert sc.scene.robots[0].model.limits.accel_upper[0] == pytest.approx(4.0)


def test_limit_scale_unknown_key():
    data = slider_scenario()
    data["limit_scale"] = {"speed": 2.0}
    with pytest.raises(ScenarioError, match="unknown keys"):
        scenario_from_dict(data)


def test_bad_parent_string():
    data = slider_scenario()
    data["objects"] = [
        {
            "name": "box",
            "mass": 1.0,
            "inertia": [1e-3] * 3 + [0.0] * 3,
            "parent": "gripper:0",
            "contacts": [],
        }
    ]
    with pytest.raises(ScenarioError, match="parent"):
        scenario_from_dict(data)


def test_jacobian_derivative_only_analytic():
    data = slider_scenario()
    data["jacobian_derivative"] = "analytic"
    scenario_from_dict(data)
    data["jacobian_derivative"] = "finite_difference"
    with pytest.raises(ScenarioError, match="jacobian_derivative: only 'analytic' is supported"):
        scenario_from_dict(data)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="does not exist"):
        load_scenario(str(tmp_path / "nope.json"))


def test_load_scenario_truncated_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"format": "contact-topp/scenario-v1", ')
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(p))


def test_source_dict_is_isolated():
    data = slider_scenario()
    sc = scenario_from_dict(data)
    data["grid_points"] = 99
    assert sc.source["grid_points"] == 12


# parameter paths


def test_set_by_path_dict_key():
    data = slider_scenario()
    set_by_path(data, "grid_points", 40)
    assert data["grid_points"] == 40


def test_set_by_path_list_index():
    data = slider_scenario()
    set_by_path(data, "robots.0.model.joints.0.accel_max", 9.0)
    assert data["robots"][0]["model"]["joints"][0]["accel_max"] == 9.0


def test_set_by_path_named_entry():
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    set_by_path(data, "objects.box.mass", 0.75)
    assert data["objects"][0]["mass"] == 0.75
    set_by_path(data, "objects.box.contacts.finger_left.friction.mu", 0.4)
    assert data["objects"][0]["contacts"][0]["friction"]["mu"] == 0.4


def test_set_by_path_unknown_name():
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    with pytest.raises(ScenarioError, match="no entry named 'crate'"):
        set_by_path(data, "objects.crate.mass", 1.0)


def test_set_by_path_missing_leaf():
    data = slider_scenario()
    with pytest.raises(ScenarioError, match="no field"):
        set_by_path(data, "robots.0.paint", 1.0)


# waiter and other object stacks


def waiter_dict():
    return json.loads((SCENARIOS / "waiter" / "tilt_0.json").read_text())


def test_waiter_assembles():
    sc = scenario_from_dict(waiter_dict())
    prog = assemble_scenario(sc)
    assert contact_census(sc) == (3, 2)
    K, (u, v), n = sc.grid_points, contact_census(sc), sc.scene.dof
    assert prog.free_scalar_count() == K * (4 + 3 * u + 4 * v + n) - 2


def without_grasp(data):
    # nothing holds the tray
    data["objects"][0]["contacts"] = []


def on_two_feet(data):
    data["objects"][1]["contacts"] = data["objects"][1]["contacts"][:2]


@pytest.mark.parametrize("variant", [without_grasp, on_two_feet], ids=lambda f: f.__name__)
def test_waiter_variant_certified_infeasible(variant):
    data = waiter_dict()
    variant(data)
    program, report, _ = solve_scenario(scenario_from_dict(data), RunSettings(grid_override=40))
    assert report.status == "PrimalInfeasible"
    assert report.certificate["kind"] == "primal"


def test_three_object_stack_assembles():
    data = waiter_dict()
    cube = data["objects"][1]
    top = copy.deepcopy(cube)
    top["name"] = "cube2"
    top["parent"] = "object:cube"
    top["offset"]["translation"] = [0.0, 0.0, 0.05]
    for c in top["contacts"]:
        c["against"] = "cube"
        c["pose_in_other"]["translation"][2] = 0.025
    data["objects"].append(top)
    sc = scenario_from_dict(data)
    prog = assemble_scenario(sc, build_grid(4))
    (u, v), n = contact_census(sc), sc.scene.dof
    assert (u, v) == (6, 2)
    assert prog.free_scalar_count() == 4 * (4 + 3 * u + 4 * v + n) - 2


def test_stationary_path_rejected():
    data = json.loads((SCENARIOS / "planar_2dof.json").read_text())
    for robot in data["robots"]:
        robot["waypoints"] = [robot["waypoints"][0]] * len(robot["waypoints"])
    with pytest.raises(ScenarioError, match="stationary path"):
        scenario_from_dict(data)


def test_one_moving_robot_is_not_stationary():
    data = slider_scenario()
    still = copy.deepcopy(data["robots"][0])
    still["waypoints"] = [[0.5], [0.5]]
    data["robots"].append(still)
    assert len(scenario_from_dict(data).scene.robots) == 2
    data["robots"][0]["waypoints"] = [[0.5], [0.5]]
    with pytest.raises(ScenarioError, match="stationary path"):
        scenario_from_dict(data)


# end-to-end runs


def test_run_double_integrator_closed_form():
    sc = scenario_from_dict(slider_scenario(grid_points=60, accel=4.0))
    out = run(sc, RunSettings(output_points=201))
    assert out.status == "Optimal"
    # bang-bang: T = 2 / sqrt(accel cap)
    assert out.total_time == pytest.approx(1.0, rel=1e-6)
    assert out.t[0] == 0.0
    assert np.all(np.diff(out.t) > 0.0)
    assert out.t[-1] == pytest.approx(out.total_time, rel=1e-9)
    assert out.s[0] == 0.0 and out.s[-1] == 1.0
    assert np.all(out.sdot >= -1e-12)
    # the path is the identity map, so q tracks s and qd tracks sdot
    assert np.allclose(out.q[:, 0], out.s, atol=1e-9)
    assert np.allclose(out.qd[:, 0], out.sdot, atol=1e-9)
    # piecewise-constant acceleration switches sign once at the midpoint
    assert abs(out.qdd[5, 0] - 4.0) < 1e-6
    assert abs(out.qdd[-5, 0] + 4.0) < 1e-6
    mid = np.searchsorted(out.s, 0.5)
    assert np.all(out.qdd[: mid - 2, 0] > 0.0)
    assert np.all(out.qdd[mid + 2 :, 0] < 0.0)


def test_run_derivative_consistency():
    data = slider_scenario(grid_points=40, accel=2.0, velocity=1.2)
    sc = scenario_from_dict(data)
    out = run(sc, RunSettings(output_points=801))
    dq = np.gradient(out.q[:, 0], out.t)
    # loose interior check: numerical differentiation vs reported velocity
    inner = slice(10, -10)
    assert np.max(np.abs(dq[inner] - out.qd[inner, 0])) < 2e-2
    # the cap binds at interval midpoints; node values may overshoot by O(h)
    assert np.max(out.qd[:, 0]) > 1.19
    assert np.max(out.qd[:, 0]) < 1.2 * (1.0 + 2.0 / 40.0)


def test_run_infeasible_raises_with_certificate():
    sc = scenario_from_dict(slider_scenario(grid_points=8, torque=10.0, torque_min=5.0))
    with pytest.raises(InfeasibleScenarioError, match="cannot be executed") as exc:
        run(sc)
    assert exc.value.report.certificate is not None


def test_trajectory_csv(tmp_path):
    sc = scenario_from_dict(slider_scenario(grid_points=16, accel=1.0))
    out = run(sc, RunSettings(output_points=101))
    path = tmp_path / "traj.csv"
    out.write_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:5] == ["t", "s", "sdot", "q_1", "qd_1"]
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (101, 7)  # t, s, sdot, q, qd, qdd, tau
    assert np.allclose(data[:, 0], out.t)


def test_trajectory_json_roundtrip(tmp_path):
    sc = scenario_from_dict(slider_scenario(grid_points=16, accel=1.0))
    out = run(sc, RunSettings(output_points=11))
    blob = json.loads(json.dumps(out.to_json_dict()))
    assert blob["format"] == "contact-topp/trajectory-v1"
    prof, K, boundary = profile_from_json_dict(blob)
    assert K == 16
    assert boundary == (0.0, 0.0)
    _, _, sol = solve_scenario(sc, RunSettings())
    assert np.allclose(prof.accel, sol.accel, atol=1e-12)
    assert np.allclose(prof.speed_sq, sol.speed_sq, atol=1e-12)


# sweeps


def test_sweep_serial_matches_threaded():
    sc = scenario_from_dict(slider_scenario(grid_points=12))
    values = [0.25, 1.0, 4.0]
    serial = sweep(sc, "robots.0.model.joints.0.accel_max", values, threads=1)
    threaded = sweep(sc, "robots.0.model.joints.0.accel_max", values, threads=2)
    for a, b, v in zip(serial, threaded, values):
        assert a.status == b.status == "Optimal"
        # accelerate at the swept cap, brake at the fixed one: T = sqrt(2(1+v)/v)
        assert a.total_time == pytest.approx(math.sqrt(2.0 * (1.0 + v) / v), rel=5e-3)
        assert b.total_time == pytest.approx(a.total_time, rel=1e-9)


def test_tol_reaches_the_solver(tmp_path, capsys):
    sc = scenario_from_dict(slider_scenario(grid_points=16))
    _, loose, _ = solve_scenario(sc, RunSettings(tol=1e-4))
    _, tight, _ = solve_scenario(sc, RunSettings())
    assert loose.status == tight.status == "Optimal"
    assert loose.iterations < tight.iterations
    assert max(loose.residuals[k] for k in ("primal_eq", "primal_in", "dual", "gap")) <= 1e-4
    (point,) = sweep(sc, "robots.0.model.joints.0.accel_max", [1.0], tol=1e-4, threads=1)
    assert point.objective == loose.objective != tight.objective
    path = write_scenario(tmp_path, slider_scenario(grid_points=16))
    assert main(["solve", path, "--tol", "1e-4", "--out", str(tmp_path)]) == 0
    assert f"{loose.iterations} iterations" in capsys.readouterr().out


def test_sweep_reports_infeasible_points():
    sc = scenario_from_dict(slider_scenario(grid_points=10, velocity=0.9))
    pts = sweep(sc, "robots.0.model.joints.0.velocity_max", [0.9, 1e-9], threads=1)
    assert pts[0].status == "Optimal"
    assert pts[1].total_time is None
    # both points report the solver's iteration count
    assert pts[0].iterations > 0 and pts[1].iterations > 0


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_bad_points_get_their_own_status(threads):
    # -1 is not a valid velocity limit (rejected by the scenario loader); at
    # K = 1 both speed nodes are fixed, so a boundary speed of 3 breaks the
    # velocity limit during assembly.  The points around them still solve.
    sc = scenario_from_dict(slider_scenario(grid_points=8, velocity=1.0))
    pts = sweep(sc, "robots.0.model.joints.0.velocity_max", [2.0, -1.0, 1.0], threads=threads)
    assert [p.status for p in pts] == ["Optimal", SWEEP_INPUT_ERROR, "Optimal"]
    assert "velocity_max must be positive" in pts[1].message
    assert pts[1].total_time is None and pts[1].objective is None and pts[1].iterations is None
    assert pts[0].message is None and pts[0].total_time > 0.0 and pts[0].iterations > 0
    pts = sweep(sc, "boundary_sdot.0", [0.5, 3.0], grid=1, threads=threads)
    assert [p.status for p in pts] == ["Optimal", SWEEP_INPUT_ERROR]
    assert "velocity limit of joint 0 violated by fixed boundary speed" in pts[1].message


def test_sweep_bad_points_same_serial_and_pool():
    sc = scenario_from_dict(slider_scenario(grid_points=8, velocity=1.0))
    values = [2.0, -1.0, 0.0, 1.0]
    serial = sweep(sc, "robots.0.model.joints.0.velocity_max", values, threads=1)
    pooled = sweep(sc, "robots.0.model.joints.0.velocity_max", values, threads=2)
    assert serial == pooled


def test_sweep_bad_parameter_path_aborts():
    sc = scenario_from_dict(slider_scenario(grid_points=8))
    with pytest.raises(ScenarioError, match="no field 'velocity_cap'"):
        sweep(sc, "robots.0.model.joints.0.velocity_cap", [1.0, 2.0], threads=1)


def test_sweep_parallelism_env(monkeypatch):
    # neither a many-core machine nor the environment changes the default:
    # a sweep without `threads` runs serially in the calling process
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep without threads started a process pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("TOPP_THREADS", "5")
    monkeypatch.setattr(scenario_module, "ProcessPoolExecutor", no_pool)
    sc = scenario_from_dict(slider_scenario(grid_points=8))
    for threads in (None, 1):
        pts = sweep(sc, "robots.0.model.joints.0.accel_max", [0.5, 2.0], threads=threads)
        assert [p.status for p in pts] == ["Optimal", "Optimal"]


# command line


def write_scenario(tmp_path, data, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_solve_writes_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path, slider_scenario(grid_points=12, accel=1.0))
    code = main(["solve", path, "--out", str(tmp_path), "--dump-program"])
    assert code == 0
    msg = capsys.readouterr().out
    assert "T = 2.000000" in msg
    assert (tmp_path / "slider_case.trajectory.csv").exists()
    assert (tmp_path / "slider_case.trajectory.json").exists()
    assert (tmp_path / "slider_case.program.json").exists()


def test_cli_solve_grid_override(tmp_path, capsys):
    path = write_scenario(tmp_path, slider_scenario(grid_points=12, accel=4.0))
    assert main(["solve", path, "--grid", "20", "--out", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "slider_case.trajectory.json").read_text())
    assert blob["grid_intervals"] == 20


def test_cli_solve_infeasible_exit(tmp_path, capsys):
    path = write_scenario(tmp_path, slider_scenario(grid_points=8, torque=10.0, torque_min=5.0))
    assert main(["solve", path, "--out", str(tmp_path)]) == 2
    assert "infeasible" in capsys.readouterr().err.lower()


def test_cli_missing_file_exit(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.json")]) == 4
    assert "input error" in capsys.readouterr().err


def test_cli_stationary_path_exit(tmp_path, capsys):
    data = slider_scenario(grid_points=8)
    data["robots"][0]["waypoints"] = [[0.0], [0.0]]
    assert main(["solve", write_scenario(tmp_path, data), "--out", str(tmp_path)]) == 4
    assert "stationary path" in capsys.readouterr().err


@pytest.mark.parametrize("field, index", [("quaternion_wxyz", 0), ("translation", 2)])
def test_cli_non_finite_link_pose_exit(tmp_path, capsys, field, index):
    # json reads the NaN literal; the pose check must stop it at load
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    data["robots"][0]["model"]["links"][1]["home_pose"][field][index] = float("nan")
    path = write_scenario(tmp_path, data)
    assert "NaN" in Path(path).read_text()
    assert main(["solve", path, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "input error: scenario.robots[0].model" in err and "finite" in err


def test_cli_unsupported_jacobian_derivative_exit(tmp_path, capsys):
    data = slider_scenario(grid_points=8)
    data["jacobian_derivative"] = "finite_difference"
    assert main(["solve", write_scenario(tmp_path, data), "--out", str(tmp_path)]) == 4
    assert "jacobian_derivative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_cli_bad_tol_exit(tmp_path, capsys, command, tol):
    argv = [command, write_scenario(tmp_path, slider_scenario(grid_points=8)), "--tol", tol]
    if command == "sweep":
        argv += ["--param", "robots.0.model.joints.0.accel_max", "--values", "1.0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert "--tol must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_table(tmp_path, capsys):
    path = write_scenario(tmp_path, slider_scenario(grid_points=12))
    code = main(
        [
            "sweep",
            path,
            "--param",
            "robots.0.model.joints.0.accel_max",
            "--values",
            "1,4",
            "--threads",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("Optimal") == 2
    assert "T [s]" in out


def test_cli_sweep_bad_point_exit(tmp_path, capsys):
    path = write_scenario(tmp_path, slider_scenario(grid_points=8, velocity=1.0))
    out_json = tmp_path / "sweep.json"
    argv = ["sweep", path, "--param", "robots.0.model.joints.0.velocity_max", "--values", "2,-1", "--out", str(out_json)]
    assert main(argv + ["--threads", "1"]) == 4
    out = capsys.readouterr().out
    assert "Optimal" in out
    assert f"{SWEEP_INPUT_ERROR}" in out and "velocity_max must be positive" in out
    points = json.loads(out_json.read_text())["points"]
    assert [p["status"] for p in points] == ["Optimal", SWEEP_INPUT_ERROR]
    assert points[0]["message"] is None
    assert points[0]["iterations"] > 0 and points[1]["iterations"] is None
    assert "velocity_max must be positive" in points[1]["message"]


def test_cli_verify_roundtrip(tmp_path, capsys):
    path = write_scenario(tmp_path, slider_scenario(grid_points=12, accel=1.0))
    assert main(["solve", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["verify", path, str(tmp_path / "slider_case.trajectory.json")])
    assert code == 0
    ledger = json.loads(capsys.readouterr().out)
    assert ledger["passed"] is True
    assert ledger["audit"]["worst"] <= 1e-6


PROFILES = Path(__file__).resolve().parents[1] / "perfbench" / "profiles"


@pytest.mark.parametrize(
    "scenario, profile, message",
    [
        ("pickup", "pivoting", "profile torque has shape (500, 3); scenario 'pickup' at K = 500 needs (500, 7)"),
        ("arm_7dof", "pivoting", "profile torque has shape (500, 3); scenario 'arm_7dof' at K = 500 needs (500, 7)"),
        ("arm_7dof", "pickup", "wrenches for 'box/finger_left', which is not a contact of scenario 'arm_7dof'"),
        ("pickup", "arm_7dof", "no wrenches for contact 'box/finger_left' of scenario 'pickup'"),
    ],
)
def test_cli_verify_profile_of_another_scenario_exit(capsys, scenario, profile, message):
    argv = ["verify", str(SCENARIOS / f"{scenario}.json"), str(PROFILES / f"{profile}.k500.json")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error: trajectory") and message in err


def short_speed_sq(dump):
    dump["profile"]["speed_sq"].pop()
    return dump


def short_wrench(dump):
    dump["profile"]["wrenches"]["box/finger_right"].pop()
    return dump


def empty_grid(dump):
    dump["grid_intervals"] = 0
    return dump


def without_profile(dump):
    del dump["profile"]
    return dump


def ragged_torque(dump):
    dump["profile"]["torque"][3].pop()
    return dump


@pytest.mark.parametrize(
    "spoil, message",
    [
        (short_speed_sq, "profile speed_sq has shape (500,); scenario 'pickup' at K = 500 needs (501,)"),
        (short_wrench, "profile wrenches['box/finger_right'] has shape (499, 6); scenario 'pickup' at K = 500 needs (500, 6)"),
        (empty_grid, "trajectory grid_intervals must be at least 1, got 0"),
        (without_profile, "trajectory has no field 'profile'"),
        (ragged_torque, "trajectory has a malformed field: setting an array element"),
        (lambda dump: [dump], "trajectory: expected an object, got list"),
    ],
)
def test_cli_verify_spoiled_trajectory_exit(tmp_path, capsys, spoil, message):
    dump = spoil(json.loads((PROFILES / "pickup.k500.json").read_text()))
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(dump))
    assert main(["verify", str(SCENARIOS / "pickup.json"), str(path)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
def test_cli_verify_bad_tolerance_exit(tmp_path, capsys, tolerance):
    # rejected before the scenario or the trajectory is read
    argv = ["verify", str(tmp_path / "absent.json"), str(tmp_path / "absent.trajectory.json"), "--tolerance", tolerance]
    assert main(argv + ["--out", str(tmp_path / "ledger.json")]) == 4
    assert "--tolerance must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "ledger.json").exists()
