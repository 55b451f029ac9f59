"""Scenario layer: JSON loading, parameter paths, runs, writers, sweeps, CLI.

Most checks ride on a one-joint slider written out as a JSON dict: unit mass,
symmetric force bound, straight unit path.  Its optimum is the bang-bang
double integrator with T = 2/sqrt(accel cap), which makes every end-to-end
assertion closed-form.
"""

import concurrent.futures
import copy
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from contact_topp import cli as cli_module
from contact_topp import scenario as scenario_module
from contact_topp import solver as solver_module
from contact_topp.cli import main
from contact_topp.dynamics import sample_path_dynamics
from contact_topp.liegroup import Pose
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
    SweepPoint,
    assemble_scenario,
    load_scenario,
    profile_from_json_dict,
    run,
    scenario_from_dict,
    set_by_path,
    solve_scenario,
    sweep,
)
from contact_topp.transcription import build_grid, recover_time

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def slider_json(accel=1.0, torque=10.0, torque_min=None, velocity=None):
    model = RobotModel(
        name="slider",
        joints=(JointDef.prismatic([1.0, 0.0, 0.0]),),
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


@pytest.mark.parametrize("scale", [{"acceleration": 4.0}, {"speed": 2.0}, {}], ids=["acceleration", "unknown", "empty"])
def test_limit_scale_is_bad_input(scale):
    # the key used to scale the model's limits; reading past it would change the answer
    data = slider_scenario()
    data["limit_scale"] = scale
    with pytest.raises(ScenarioError, match=r"^scenario\.limit_scale: "):
        scenario_from_dict(data)


def test_object_contact_against_its_own_object():
    data = json.loads((SCENARIOS / "waiter" / "tilt_10.json").read_text())
    for foot in data["objects"][1]["contacts"]:
        foot["against"] = "cube"
    with pytest.raises(ScenarioError, match="^scenario: object contact 'foot_0' presses against its own object 'cube'"):
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


@pytest.mark.parametrize(
    "leaf,inner,prefix,problem",
    [
        ("robots.3", "robots.3.model", "robots", "index 3 out of range"),
        ("objects.crate", "objects.crate.mass", "objects", "no entry named 'crate'"),
        ("robots.0.paint", "robots.0.paint.red", "robots.0", "no field 'paint'"),
        ("grid_points.x", "grid_points.x.y", "grid_points", "cannot index into int"),
        ("colour", "colour.red", "root", "no field 'colour'"),
    ],
)
def test_set_by_path_error_names_path_and_prefix(leaf, inner, prefix, problem):
    """A bad segment is reported the same way whether it is the last one or not."""
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    for path in (leaf, inner):
        with pytest.raises(ScenarioError) as info:
            set_by_path(data, path, 1.0)
        assert str(info.value) == f"parameter path {path!r} at {prefix}: {problem}"


# time reversal: the continuous problem is the same on the reversed path, and
# the grid's midpoints mirror, so each grid's program has the same optimum

SHIPPED = sorted(SCENARIOS.rglob("*.json"))


def minimum_time(data, K):
    program, report, solution = solve_scenario(scenario_from_dict(data), RunSettings(grid_override=K))
    return report.status, None if solution is None else recover_time(solution.speed_sq, program.grid).total


@pytest.mark.parametrize("K", [40, 41])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(SCENARIOS).with_suffix("")))
def test_time_reversal(path, K):
    data = json.loads(path.read_text())
    mirrored = copy.deepcopy(data)
    for robot in mirrored["robots"]:
        robot["waypoints"] = robot["waypoints"][::-1]
    mirrored["boundary_sdot"] = mirrored.get("boundary_sdot", [0.0, 0.0])[::-1]
    status, T = minimum_time(data, K)
    status_r, T_r = minimum_time(mirrored, K)
    assert status_r == status
    if T is not None:
        assert abs(T_r - T) <= 1e-10 * T


# mass homogeneity: scaling every mass, inertia, torque bound, external
# wrench and normal-force cap by alpha scales every force in the program by
# alpha and leaves the optimum alone


def mass_scaled(data, alpha):
    """The scenario dict with its mass-carrying entries times alpha."""
    scaled = copy.deepcopy(data)

    def times(entry, *keys):
        for key in keys:
            if entry.get(key) is not None:
                entry[key] = (alpha * np.asarray(entry[key], dtype=float)).tolist()

    for robot in scaled["robots"]:
        for link in robot["model"]["links"]:
            times(link, "mass", "inertia")
        for joint in robot["model"]["joints"]:
            times(joint, "torque_min", "torque_max")
    for obj in scaled.get("objects", []):
        times(obj, "mass", "inertia", "external_wrench")
        for contact in obj.get("contacts", []):
            times(contact, "fz_max")
    return scaled


@pytest.mark.parametrize(
    "alpha",
    [
        pytest.param(2.0**-10, id="2^-10"),
        pytest.param(4.0, id="4"),
        pytest.param(2.0**10, id="2^10"),
    ],
)
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(SCENARIOS).with_suffix("")))
def test_mass_homogeneity(path, alpha):
    data = json.loads(path.read_text())
    status, T = minimum_time(data, 40)
    status_a, T_a = minimum_time(mass_scaled(data, alpha), 40)
    assert status_a == status
    if T is not None and alpha >= 1.0:
        assert abs(T_a - T) <= 1e-8 * T


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="lightened waiter tilt_15 stops 9.2e-7 short of T (ROADMAP direction 1)")
def test_mass_homogeneity_lightened_waiter():
    data = json.loads((SCENARIOS / "waiter" / "tilt_15.json").read_text())
    _, T = minimum_time(data, 40)
    _, T_a = minimum_time(mass_scaled(data, 2.0**-10), 40)
    assert abs(T_a - T) <= 1e-8 * T


# time scaling: dividing every speed limit and fixed end speed by lam and
# every acceleration, torque, force and gravity by lam^2 is the same problem
# with time measured in units lam times as long, so T scales by lam


def time_scaled(data, lam):
    """The scenario dict with its limits and loads rescaled for time t -> lam t."""
    scaled = copy.deepcopy(data)

    def over(entry, power, *keys):
        for key in keys:
            if entry.get(key) is not None:
                entry[key] = (np.asarray(entry[key], dtype=float) / lam**power).tolist()

    over(scaled, 2, "gravity")
    scaled["boundary_sdot"] = [None if v is None else v / lam for v in scaled.get("boundary_sdot", [0.0, 0.0])]
    for robot in scaled["robots"]:
        for joint in robot["model"]["joints"]:
            over(joint, 1, "velocity_max")
            over(joint, 2, "torque_min", "torque_max", "accel_min", "accel_max")
    for obj in scaled.get("objects", []):
        over(obj, 2, "external_wrench")
        for contact in obj.get("contacts", []):
            over(contact, 2, "fz_max")
    return scaled


def test_lightened_slowed_waiter_fails_without_a_warning():
    # masses / 8 and time x 16 drive the scaled iterate onto a cone boundary
    # at K=16; the corrector's Jordan solve used to divide by a zero
    # determinant there (a RuntimeWarning, an error under tier-1's filter).
    # Which way the iteration then ends hangs on the last bits of its path:
    # a failure to converge, or the optimum 16 T(1).  Never a certificate,
    # and never an Optimal off by more than 1e-8, the wrong Optimal of
    # ROADMAP direction 1
    data = json.loads((SCENARIOS / "waiter" / "tilt_15.json").read_text())
    status, T = minimum_time(time_scaled(mass_scaled(data, 1 / 8), 16), 16)
    if status == "Optimal":
        _, T1 = minimum_time(data, 16)
        assert abs(T - 16 * T1) <= 1e-8 * 16 * T1
    else:
        assert status in ("NumericalFailure", "MaxIterations") and T is None


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="T moves under a change of time units (ROADMAP direction 1)")
@pytest.mark.parametrize("name", ["pickup", "planar_2dof", "arm_7dof"])
def test_time_scaling(name):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    lam = 2.0**-10
    status, T = minimum_time(data, 40)
    status_l, T_l = minimum_time(time_scaled(data, lam), 40)
    assert status_l == status
    assert abs(T_l / (lam * T) - 1.0) <= 1e-8


# rigid motion of the world: turning gravity, every robot base and every
# world-fixed direction by one rotation turns every body with them and
# leaves every constraint, written in body frames, as it was


def quaternion_product(a, b):
    """Hamilton product a b of two wxyz quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


def world_rotated(data, q_wxyz):
    """The scenario dict in a world turned by the rotation of a wxyz quaternion.

    Turned: gravity, both halves of every joint twist, every link's
    `home_pose` and each model's `x_ref` (the base-frame poses at q = 0),
    and every `world_axis`.  Left alone, as given in a body's own frame:
    tool offsets, object offsets, contact poses, `pose_in_other`,
    external wrenches; and the waypoints, which are joint values.
    """
    Q = Pose.from_quaternion(q_wxyz, np.zeros(3)).rotation
    turned = copy.deepcopy(data)

    def turn(vector):
        return (Q @ np.asarray(vector, dtype=float)).tolist()

    def turn_pose(pose):
        pose["quaternion_wxyz"] = quaternion_product(q_wxyz, pose["quaternion_wxyz"])
        pose["translation"] = turn(pose["translation"])

    turned["gravity"] = turn(data.get("gravity", [0.0, 0.0, -9.81]))
    for robot in turned["robots"]:
        model = robot["model"]
        for joint in model["joints"]:
            joint["twist"] = turn(joint["twist"][:3]) + turn(joint["twist"][3:])
        for link in model["links"]:
            turn_pose(link["home_pose"])
        turn_pose(model["x_ref"])
    for obj in turned.get("objects", []):
        for contact in obj.get("contacts", []):
            if contact.get("frame_mode") == "world_normal":
                contact["world_axis"] = turn(contact.get("world_axis", [0.0, 0.0, 1.0]))
    return turned


WORLD_TURNS = {"turn_a": [0.8, 0.2, -0.5, 0.26], "turn_b": [-0.3, 0.7, 0.6, -0.1]}


@pytest.mark.parametrize("turn", WORLD_TURNS, ids=str)
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(SCENARIOS).with_suffix("")))
def test_rigid_motion_of_the_world(path, turn):
    data = json.loads(path.read_text())
    status, T = minimum_time(data, 40)
    status_r, T_r = minimum_time(world_rotated(data, np.array(WORLD_TURNS[turn]) / np.linalg.norm(WORLD_TURNS[turn])), 40)
    assert status_r == status
    if T is not None:
        assert abs(T_r - T) <= 1e-10 * T


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(SCENARIOS).with_suffix("")))
def test_rigid_motion_of_the_world_in_the_oracle(path):
    # the joint torques do not see the turn; the scalar oracle's agree to rounding
    data = json.loads(path.read_text())
    q = np.array(WORLD_TURNS["turn_a"]) / np.linalg.norm(WORLD_TURNS["turn_a"])
    scene, turned = (scenario_from_dict(d).scene for d in (data, world_rotated(data, q)))
    for s in (0.0, 0.37, 1.0):
        a, b = sample_path_dynamics(scene, s), sample_path_dynamics(turned, s)
        got = np.stack([b.torque_accel_coeff, b.torque_velsq_coeff, b.torque_gravity])
        want = np.stack([a.torque_accel_coeff, a.torque_velsq_coeff, a.torque_gravity])
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), np.max(np.abs(got)))


# waiter and other object stacks


def waiter_dict():
    return json.loads((SCENARIOS / "waiter" / "tilt_0.json").read_text())


def test_waiter_assembles():
    sc = scenario_from_dict(waiter_dict())
    prog = assemble_scenario(sc)
    assert contact_census(sc) == (3, 2)
    K, (u, v), n = sc.grid_points, contact_census(sc), sc.scene.dof
    assert prog.num_vars == K * (4 + 3 * u + 4 * v + n) - 2


def without_grasp(data):
    # nothing holds the tray
    data["objects"][0]["contacts"] = []


def on_two_feet(data):
    data["objects"][1]["contacts"] = data["objects"][1]["contacts"][:2]


def relabelled_rcm(seed):
    """`solver.reverse_cuthill_mckee` run on the pattern relabelled by a
    fixed random permutation, its order mapped back: another RCM order of
    the same pattern, and so other pivots."""
    rcm = solver_module.reverse_cuthill_mckee

    def order(pattern):
        relabel = np.random.default_rng(seed).permutation(pattern.shape[0])
        return relabel[rcm(pattern[relabel][:, relabel])]

    return order


def waiter_variant_case(variant, K, seed=None, **kwargs):
    # the K=40 cells in the shipped order keep the variant's name alone
    tags = [variant.__name__] + ([] if K == 40 else [f"K{K}"]) + ([] if seed is None else [f"rcm_seed{seed}"])
    return pytest.param(variant, K, seed, id="-".join(tags), **kwargs)


# a certificate is a property of the scene, not of the pivot order: before
# short steps were refined to the floor, without_grasp ended NumericalFailure
# under the RCM orders relabelled by seeds 2 (K=80), 4 (K=16, 40 and 80) and
# 5 (K=40 and 80)
@pytest.mark.parametrize(
    "variant, K, seed",
    [
        *(waiter_variant_case(without_grasp, K, seed) for K in (16, 40, 80) for seed in (None, 2, 4, 5)),
        waiter_variant_case(on_two_feet, 16),
        waiter_variant_case(on_two_feet, 40),
        waiter_variant_case(
            on_two_feet, 80,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ends NumericalFailure after 3 steps of 1e-8 to 8e-8 from the start (ROADMAP standing defects)",
            ),
        ),
    ],
)
def test_waiter_variant_certified_infeasible(variant, K, seed, monkeypatch):
    if seed is not None:
        monkeypatch.setattr(solver_module, "reverse_cuthill_mckee", relabelled_rcm(seed))
    data = waiter_dict()
    variant(data)
    program, report, _ = solve_scenario(scenario_from_dict(data), RunSettings(grid_override=K))
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
    assert prog.num_vars == 4 * (4 + 3 * u + 4 * v + n) - 2


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


@pytest.mark.parametrize("name", ["pivoting", "pickup", "waiter/tilt_10"])
def test_run_pinned_wrench_components_are_exact_zeros(name):
    # a pinned component has no column, so it comes out as an exact zero,
    # and `run` checks its margins at the default pin tolerance
    sc = load_scenario(SCENARIOS / f"{name}.json")
    out = run(sc, RunSettings(grid_override=16, output_points=11))
    assert out.status == "Optimal" and sc.scene.contacts
    for contact in sc.scene.contacts:
        pinned = list(contact.cone.pinned)
        assert np.all(out.profile.wrenches[contact.cid][:, pinned] == 0.0)
        assert np.all(out.wrench[contact.cid][:, pinned] == 0.0)


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
    pts = sweep(sc, "boundary_sdot.0", [0.5, 3.0, 0.0], grid=1, threads=threads)
    assert [p.status for p in pts] == ["Optimal", SWEEP_INPUT_ERROR, SWEEP_INPUT_ERROR]
    assert "velocity limit of joint 0 violated by fixed boundary speed" in pts[1].message
    # with both end speeds fixed at zero, the one interval is never traversed
    assert "degenerate stall" in pts[2].message


def test_sweep_malformed_value_is_input_error():
    # a value of the wrong shape for its field is the point's bad input, and
    # so is one that `float()` cannot take: values are converted point by point
    sc = scenario_from_dict(slider_scenario(grid_points=8))
    pts = sweep(sc, "grid_points", [8, 2.5, 2**63, 10**400, "eight"], threads=1)
    assert [p.status for p in pts] == ["Optimal"] + [SWEEP_INPUT_ERROR] * 4
    assert "scenario.grid_points: must be a positive whole interval count, got 2.5" in pts[1].message
    assert pts[2].message == f"scenario.grid_points: must be at most {2**63 - 2}, got {2**63}"
    assert pts[3].value == 10**400 and pts[3].message.startswith(f"sweep value {10**400}: ")
    assert pts[4].message.startswith("sweep value 'eight': ")
    (pt,) = sweep(sc, "boundary_sdot", [5.0], threads=1)
    assert pt.status == SWEEP_INPUT_ERROR and pt.message.startswith("scenario.boundary_sdot: ")


def test_too_large_count_message_gives_its_digit_count():
    # 19 digits are written out (above), a count of 401 only by its length
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(slider_scenario(grid_points=10**400))
    assert str(info.value) == f"scenario.grid_points: must be at most {2**63 - 2}, got a number of 401 digits"


def test_sweep_bad_points_same_serial_and_pool():
    sc = scenario_from_dict(slider_scenario(grid_points=8, velocity=1.0))
    values = [2.0, -1.0, 0.0, 1.0]
    serial = sweep(sc, "robots.0.model.joints.0.velocity_max", values, threads=1)
    pooled = sweep(sc, "robots.0.model.joints.0.velocity_max", values, threads=2)
    assert serial == pooled


def test_sweep_leaves_the_source_as_it_was():
    # each point copies only the containers on its parameter paths, here two
    # that share the path down to the object's contacts
    sc = load_scenario(SCENARIOS / "pivoting.json")
    before = copy.deepcopy(sc.source)
    params = ["objects.box.contacts.edge_front.friction.mu", "objects.box.contacts.edge_back.friction.mu"]
    pts = sweep(sc, params, [0.3, "x", 0.5], grid=8, threads=1)
    assert [p.status for p in pts] == ["Optimal", SWEEP_INPUT_ERROR, "Optimal"]
    assert sc.source == before
    # the point solved is the scenario with both values written in
    data = copy.deepcopy(before)
    for p in params:
        set_by_path(data, p, 0.5)
    _, report, _ = solve_scenario(scenario_from_dict(data), RunSettings(grid_override=8))
    assert pts[2].objective == float(report.objective)


def test_sweep_bad_parameter_path_aborts():
    sc = scenario_from_dict(slider_scenario(grid_points=8))
    with pytest.raises(ScenarioError, match="no field 'velocity_cap'"):
        sweep(sc, "robots.0.model.joints.0.velocity_cap", [1.0, 2.0], threads=1)


@pytest.mark.parametrize("threads", [0, -2])
def test_sweep_rejects_threads_below_one(threads, monkeypatch):
    def no_solve(payload):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(scenario_module, "_sweep_worker", no_solve)
    sc = scenario_from_dict(slider_scenario(grid_points=8))
    with pytest.raises(ScenarioError, match=f"threads must be at least 1, got {threads}"):
        sweep(sc, "robots.0.model.joints.0.accel_max", [0.5, 2.0], threads=threads)


def test_sweep_parallelism_env(monkeypatch):
    # neither a many-core machine nor the environment changes the default:
    # a sweep without `threads` runs serially in the calling process
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep without threads started a process pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("TOPP_THREADS", "5")
    # `sweep` imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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


@pytest.mark.parametrize("dump", [False, True], ids=["solve", "dump_program"])
def test_cli_assembly_rejection_exit(tmp_path, capsys, dump):
    # on one interval both speeds are fixed, and 0.5 breaks a joint's speed
    # cap: assembly rejects the scenario, which is bad input, not a crash
    data = json.loads((SCENARIOS / "pivoting.json").read_text())
    data["boundary_sdot"] = [0.3, 0.5]
    argv = ["solve", write_scenario(tmp_path, data), "--grid", "1", "--out", str(tmp_path)]
    assert main(argv + ["--dump-program"] * dump) == 4
    err = capsys.readouterr().err
    assert "input error: velocity limit of joint 1 violated by fixed boundary speed" in err


def test_cli_rest_to_rest_single_interval_exit(tmp_path, capsys):
    shipped = sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("waiter/*.json"))
    assert len(shipped) == 10
    for path in shipped:
        assert main(["solve", str(path), "--grid", "1", "--out", str(tmp_path)]) == 4, path.stem
        assert "input error: degenerate stall" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--grid", "0"], "--grid must be at least 1, got 0"),
        (["solve", "--grid", "-3"], "--grid must be at least 1, got -3"),
        (["solve", "--dump-program", "--grid", "0"], "--grid must be at least 1, got 0"),
        (["sweep", "--grid", "0"], "--grid must be at least 1, got 0"),
        (["sweep", "--threads", "-2"], "--threads must be at least 1, got -2"),
        (["sweep", "--threads", "0"], "--threads must be at least 1, got 0"),
    ],
    ids=["solve-grid-0", "solve-grid-neg", "dump-program-grid-0", "sweep-grid-0", "sweep-threads-neg", "sweep-threads-0"],
)
def test_cli_count_below_one_exit(tmp_path, capsys, argv, message):
    command, *options = argv
    argv = [command, write_scenario(tmp_path, slider_scenario(grid_points=8)), *options]
    if command == "sweep":
        argv += ["--param", "robots.0.model.joints.0.accel_max", "--values", "1.0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert f"input error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("count", [10**400, 2**63], ids=["1e400", "2e63"])
def test_cli_grid_too_large_to_size_exit(tmp_path, capsys, command, count):
    # np.linspace cannot size count + 1 points; neither count allocates
    argv = [command, write_scenario(tmp_path, slider_scenario(grid_points=8)), "--grid", str(count)]
    if command == "sweep":
        argv += ["--param", "robots.0.model.joints.0.accel_max", "--values", "1.0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert f"input error: --grid must be at most {2**63 - 2}, got {count}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_grid_override_zero_is_not_the_scenario_grid():
    sc = scenario_from_dict(slider_scenario(grid_points=8))
    with pytest.raises(ValueError, match="at least one interval"):
        solve_scenario(sc, RunSettings(grid_override=0))


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
    assert all(list(p) == [f.name for f in dataclasses.fields(SweepPoint)] for p in points)
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


def test_cli_verify_fail_exit(tmp_path, capsys):
    # the slider's acceleration binds, so a limit 1e-3 tighter fails the audit there alone
    path = write_scenario(tmp_path, slider_scenario(grid_points=12, accel=1.0))
    assert main(["solve", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    tight = write_scenario(tmp_path, slider_scenario(grid_points=12, accel=1.0 - 1e-3), name="tight.json")
    assert main(["verify", tight, str(tmp_path / "slider_case.trajectory.json")]) == 1
    ledger = json.loads(capsys.readouterr().out)
    assert ledger["passed"] is False and ledger["fd_suite"]["passed"] is True
    assert list(ledger["audit"]["flagged"]) == ["acceleration_limits"]


@pytest.mark.parametrize("status", [solver_module.MAX_ITERATIONS, solver_module.NUMERICAL_FAILURE])
def test_cli_solver_failure_exit(tmp_path, capsys, monkeypatch, status):
    # every shipped scene solves, so the solver's report is given the failing status
    solve = scenario_module.solve_conic_program

    def failing(program, tol):
        report, _ = solve(program, tol)
        return dataclasses.replace(report, status=status), None

    monkeypatch.setattr(scenario_module, "solve_conic_program", failing)
    path = write_scenario(tmp_path, slider_scenario(grid_points=8))
    assert main(["solve", path, "--out", str(tmp_path)]) == 3
    assert f"solver failure: solver ended with {status}" in capsys.readouterr().err
    assert not (tmp_path / "slider_case.trajectory.json").exists()
    out_json = tmp_path / "sweep.json"
    argv = ["sweep", path, "--param", "robots.0.model.joints.0.accel_max", "--values", "1", "--out", str(out_json)]
    assert main(argv) == 3
    assert status in capsys.readouterr().out
    assert [p["status"] for p in json.loads(out_json.read_text())["points"]] == [status]


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


def true_in(field, *index):
    """A JSON true at `index` of the profile array `field`, among its numbers."""
    def spoil(dump):
        *outer, last = index
        row = dump["profile"][field]
        for i in outer:
            row = row[i]
        row[last] = True
        return dump

    return spoil


def grid_intervals_of(value):
    def spoil(dump):
        dump["grid_intervals"] = value
        return dump

    return spoil


def wrenches_list(dump):
    dump["profile"]["wrenches"] = []
    return dump


def misspelt(key):
    """A key that `topp solve` does not write, at the top level or under "profile"."""
    def spoil(dump):
        where, _, field = key.rpartition(".")
        (dump[where] if where else dump)[field] = 3
        return dump

    return spoil


@pytest.mark.parametrize(
    "spoil, message",
    [
        (short_speed_sq, "profile speed_sq has shape (500,); scenario 'pickup' at K = 500 needs (501,)"),
        (short_wrench, "profile wrenches['box/finger_right'] has shape (499, 6); scenario 'pickup' at K = 500 needs (500, 6)"),
        # each id below is the case's name from before its message named the field by its path
        pytest.param(empty_grid, "trajectory.grid_intervals: must be a positive whole interval count, got 0",
                     id="empty_grid-trajectory grid_intervals must be at least 1, got 0"),
        pytest.param(without_profile, "trajectory: missing field 'profile'",
                     id="without_profile-trajectory has no field 'profile'"),
        pytest.param(ragged_torque, "trajectory.profile.torque: setting an array element",
                     id="ragged_torque-trajectory has a malformed field: setting an array element"),
        (lambda dump: [dump], "trajectory: expected an object, got list"),
        # grid_intervals is read by the grid_points rule
        pytest.param(grid_intervals_of(500.7), "trajectory.grid_intervals: must be a positive whole interval count, got 500.7",
                     id="spoil-malformed field: grid_intervals: must be a whole number, got 500.7"),
        pytest.param(grid_intervals_of("500"), "trajectory.grid_intervals: must be a positive whole interval count, got '500'",
                     id="spoil-malformed field: grid_intervals: must be a whole number, got '500'"),
        # as 1e400 reads
        pytest.param(grid_intervals_of(math.inf), "trajectory.grid_intervals: must be a positive whole interval count, got inf",
                     id="spoil-malformed field: grid_intervals: must be a whole number, got inf"),
        pytest.param(grid_intervals_of(True), "trajectory.grid_intervals: must be a positive whole interval count, got True",
                     id="spoil-malformed field: grid_intervals: must be a whole number, got True"),
        pytest.param(grid_intervals_of(10**400), "trajectory.grid_intervals: must be at most ",
                     id="spoil-profile accel has shape (500,); scenario 'pickup' at K = 1000"),
        pytest.param(wrenches_list, "trajectory.profile.wrenches: expected an object, got list",
                     id="wrenches_list-malformed field: profile.wrenches: expected an object, got list"),
        # np.array would read each true as 1.0
        (true_in("accel", 2), "trajectory.profile.accel: expected numbers or nested lists of numbers"),
        (true_in("torque", 3, 1), "trajectory.profile.torque: expected numbers or nested lists of numbers"),
        # each once verified with exit 0: the reader looked only at the keys it read
        (misspelt("grid_intervalz"), "trajectory.grid_intervalz: unknown field"),
        (misspelt("profile.acel"), "trajectory.profile.acel: unknown field"),
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


@pytest.mark.parametrize(
    "key, value, field",
    [
        pytest.param("grid_points", "ten", "grid_points", id="grid_points_text"),
        pytest.param("grid_points", 2.5, "grid_points", id="grid_points_fraction"),
        pytest.param("grid_points", True, "grid_points", id="grid_points_bool"),
        # counts whose intervals + 1 points numpy cannot size; neither allocates
        pytest.param("grid_points", 10**400, "grid_points", id="grid_points_1e400"),
        pytest.param("grid_points", 2**63, "grid_points", id="grid_points_2e63"),
        pytest.param("boundary_sdot", ["a", 0], "boundary_sdot", id="boundary_sdot_text"),
        pytest.param("boundary_sdot", 5, "boundary_sdot", id="boundary_sdot_number"),
        pytest.param("limit_scale", 3, "limit_scale", id="limit_scale_number"),
        # no longer read, so even a well-formed factor is bad input
        pytest.param("limit_scale", {"torque": 2.0}, "limit_scale", id="limit_scale_torque"),
        pytest.param("robots", 3, "robots", id="robots_number"),
        pytest.param("waypoints", [["a"]], "robots[0].waypoints", id="waypoints_text"),
        pytest.param("objects", 3, "objects", id="objects_number"),
        pytest.param("gravity", ["x", 0, 0], "gravity", id="gravity_text"),
    ],
)
def test_cli_malformed_field_exit(tmp_path, capsys, key, value, field):
    # a field of the wrong type is bad input named by its path, not a crash
    data = json.loads((SCENARIOS / "double_integrator.json").read_text())
    (data["robots"][0] if key == "waypoints" else data)[key] = value
    assert main(["solve", write_scenario(tmp_path, data), "--grid", "4", "--out", str(tmp_path)]) == 4
    assert f"input error: scenario.{field}: " in capsys.readouterr().err


def test_cli_self_contact_exit(tmp_path, capsys):
    # a cube standing on itself has no meaning, and solved it ends PrimalInfeasible
    data = json.loads((SCENARIOS / "waiter" / "tilt_10.json").read_text())
    for foot in data["objects"][1]["contacts"]:
        foot["against"] = "cube"
    assert main(["solve", write_scenario(tmp_path, data), "--grid", "16", "--out", str(tmp_path / "out")]) == 4
    assert "input error: scenario: object contact 'foot_0' presses against its own object 'cube'" in capsys.readouterr().err


CONTACT_ROBOT = "objects.0.contacts.0.robot"


@pytest.mark.parametrize("value", [0.7, True], ids=["fraction", "bool"])
def test_cli_non_whole_contact_robot_exit(tmp_path, capsys, value):
    # a robot index of 0.7 is not robot 0
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    set_by_path(data, CONTACT_ROBOT, value)
    assert main(["solve", write_scenario(tmp_path, data), "--grid", "4", "--out", str(tmp_path)]) == 4
    message = f"input error: scenario.objects[0].contacts[0].robot: must be a whole number, got {value!r}"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("robot, grid_points", [(0, 12), (0.0, 12.0)])
def test_whole_number_fields_load(robot, grid_points):
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    set_by_path(data, CONTACT_ROBOT, robot)
    set_by_path(data, "grid_points", grid_points)
    sc = scenario_from_dict(data)
    assert type(sc.grid_points) is int and sc.grid_points == 12
    robot = sc.scene.contacts[0].spec.robot
    assert type(robot) is int and robot == 0


def test_sweep_non_whole_robot_is_input_error():
    sc = load_scenario(SCENARIOS / "pickup.json")
    pts = sweep(sc, CONTACT_ROBOT, [0.0, 0.7], grid=8, threads=1)
    assert [p.status for p in pts] == ["Optimal", SWEEP_INPUT_ERROR]
    assert "scenario.objects[0].contacts[0].robot: must be a whole number, got 0.7" in pts[1].message


def pickup_with_every_field():
    """pickup.json with its optional fields written out at their defaults."""
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    box = data["objects"][0]
    box["external_wrench"] = [0.0] * 6
    box["contacts"][0]["friction"].update(ex=1.0, ey=1.0)
    box["contacts"][0]["world_axis"] = [0.0, 0.0, 1.0]
    return data


NAN = float("nan")


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("robots.0.model", [1, 2], "scenario.robots[0].model: expected an object, got list"),
        ("robots.0.model.joints", 3, "scenario.robots[0].model.joints: expected a list, got int"),
        ("robots.0.model.joints.0", "x", "scenario.robots[0].model.joints[0]: expected an object, got str"),
        ("robots.0.model.x_ref", 5, "scenario.robots[0].model.x_ref: expected an object, got int"),
        ("objects.0.name", ["a"], "scenario.objects[0].name: must be a non-empty string"),
        ("objects.0.contacts.1.name", "a/b", "scenario.objects[0].contacts[1].name: must be a non-empty string"),
        ("name", "../escaped", "scenario.name: must be a non-empty string without '/'"),
        ("name", "", "scenario.name: must be a non-empty string"),
        ("name", "a/b", "scenario.name: must be a non-empty string"),
        ("name", "a\\b", "scenario.name: must be a non-empty string"),
        ("name", ["a"], "scenario.name: must be a non-empty string"),
        # a NaN passes a test written `x <= 0`; each range test here fails it
        ("robots.0.model.joints.0.torque_max", NAN, "scenario.robots[0].model: torque bounds"),
        ("robots.0.model.joints.0.torque_min", NAN, "scenario.robots[0].model: torque bounds"),
        ("robots.0.model.joints.0.velocity_max", NAN, "scenario.robots[0].model: velocity_max must be positive"),
        ("robots.0.model.joints.0.accel_max", NAN, "scenario.robots[0].model: acceleration bounds"),
        ("objects.0.contacts.0.fz_max", NAN, "scenario.objects[0].contacts[0]: fz_max must be positive"),
        ("gravity.2", NAN, "scenario: gravity must be finite"),
        ("objects.0.mass", NAN, "scenario.objects[0]: object mass must be positive and finite"),
        ("objects.0.mass", math.inf, "scenario.objects[0]: object mass must be positive and finite"),
        ("objects.0.inertia.0", NAN, "scenario.objects[0]: object inertia must be finite"),
        ("objects.0.external_wrench.0", NAN, "scenario.objects[0]: external_wrench must be finite"),
        ("objects.0.contacts.0.friction.mu", NAN, "scenario.objects[0].contacts[0].friction: mu must be positive and finite"),
        ("objects.0.contacts.0.friction.mu", math.inf, "scenario.objects[0].contacts[0].friction: mu must be positive and finite"),
        ("objects.0.contacts.0.friction.ex", NAN, "scenario.objects[0].contacts[0].friction: ex must be positive and finite"),
        ("objects.0.contacts.0.world_axis.0", NAN, "scenario.objects[0].contacts[0]: world_axis must be finite and nonzero"),
        ("robots.0.model.links.0.mass", NAN, "scenario.robots[0].model.links[0]: link mass must be positive and finite"),
        ("robots.0.model.links.0.com.0", NAN, "scenario.robots[0].model.links[0]: link com and inertia must be finite"),
        ("robots.0.model.joints.0.twist.5", NAN, "scenario.robots[0].model: joint twist must be finite"),
        ("robots.0.waypoints.1.0", NAN, "scenario: waypoints must be finite"),
        ("boundary_sdot.0", NAN, "scenario.boundary_sdot: each entry must be null or a number >= 0"),
        ("boundary_sdot.1", 1e308, "scenario.boundary_sdot: each entry must be null or a number >= 0"),
        ("boundary_sdot.0", -1.0, "scenario.boundary_sdot: each entry must be null or a number >= 0"),
    ],
)
def test_cli_bad_field_exit(tmp_path, capsys, path, value, message):
    # a field that breaks its rule is bad input named by its path, never a
    # traceback, a numerical failure or an Optimal that drops the field
    data = pickup_with_every_field()
    set_by_path(data, path, value)
    out = tmp_path / "out"
    assert main(["solve", write_scenario(tmp_path, data), "--grid", "4", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"input error: {message}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json"]


# text of Python or numpy errors that a bad value once leaked into the message
LEAKED = ("reshape", "unpack", "object is not", "indices must be")


def node_at(data, path):
    """The value at a dotted path of keys and list indices ("" for `data` itself)."""
    for part in filter(None, path.split(".")):
        data = data[int(part) if part.isdigit() else part]
    return data


def solve_bad_input(tmp_path, capsys, data):
    """The stderr of `topp solve` on `data`, which must exit 4 without a traceback."""
    assert main(["solve", write_scenario(tmp_path, data), "--grid", "4", "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and not any(text in err for text in LEAKED)
    return err


@pytest.mark.parametrize(
    "where, key, value, path",
    [
        ("", "gravty", [0, 0, 0], "scenario.gravty"),
        ("robots.0.model.joints.0", "torque_mx", 5.0, "scenario.robots[0].model.joints[0].torque_mx"),
        ("robots.0.model.joints.2", "velocity_maxx", 1.0, "scenario.robots[0].model.joints[2].velocity_maxx"),
        ("robots.0.model.links.3", "mas", 2.0, "scenario.robots[0].model.links[3].mas"),
        ("objects.0", "mas", 2.0, "scenario.objects[0].mas"),
        ("objects.0.contacts.1", "fz_mx", 5.0, "scenario.objects[0].contacts[1].fz_mx"),
        ("objects.0.contacts.0.friction", "muu", 0.1, "scenario.objects[0].contacts[0].friction.muu"),
        ("robots.0", "waypoint", [[0.0] * 7] * 2, "scenario.robots[0].waypoint"),
    ],
)
def test_cli_unknown_key_exit(tmp_path, capsys, where, key, value, path):
    # a misspelt key would otherwise drop the field it means without a word
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    node_at(data, where)[key] = value
    assert f"input error: {path}: unknown field" in solve_bad_input(tmp_path, capsys, data)


def drop_last(values):
    return values[:-1]


@pytest.mark.parametrize(
    "path, value, field",
    [
        ("objects.0.inertia", drop_last, "scenario.objects[0].inertia"),
        ("robots.0.model.links.0.com", [0.0, 0.0], "scenario.robots[0].model.links[0].com"),
        ("objects.0.contacts.0.pose.quaternion_wxyz", drop_last, "scenario.objects[0].contacts[0].pose.quaternion_wxyz"),
        ("robots.0.waypoints", lambda rows: [rows[0], rows[1][:-1], *rows[2:]], "scenario.robots[0].waypoints"),
        ("robots.0.model.name", 5, "scenario.robots[0].model.name"),
        ("gravity", drop_last, "scenario.gravity"),
        ("objects.0.external_wrench", lambda w: w + [0.0], "scenario.objects[0].external_wrench"),
        ("robots.0.model.joints.0.twist", drop_last, "scenario.robots[0].model.joints[0].twist"),
        ("objects.0.contacts.0.world_axis", drop_last, "scenario.objects[0].contacts[0].world_axis"),
        ("robots.0.model.x_ref.translation", lambda t: t + [0.0], "scenario.robots[0].model.x_ref.translation"),
        ("robots.0.model.links.1.home_pose.translation", "origin", "scenario.robots[0].model.links[1].home_pose.translation"),
    ],
)
def test_cli_bad_shape_exit(tmp_path, capsys, path, value, field):
    # a vector of the wrong length or kind is named by its own key
    data = pickup_with_every_field()
    if callable(value):
        value = value(node_at(data, path))
    set_by_path(data, path, value)
    assert f"input error: {field}: " in solve_bad_input(tmp_path, capsys, data)


def test_infinite_and_null_limits_are_unbounded():
    data = json.loads((SCENARIOS / "pickup.json").read_text())
    joint = data["robots"][0]["model"]["joints"][0]
    joint.update(torque_min=-math.inf, torque_max=None, velocity_max=math.inf, accel_max=None)
    set_by_path(data, "objects.0.contacts.0.fz_max", math.inf)
    sc = scenario_from_dict(data)
    limits = sc.scene.robots[0].model.limits
    assert (limits.torque_lower[0], limits.torque_upper[0]) == (-math.inf, math.inf)
    assert limits.velocity_max[0] == math.inf and limits.accel_upper[0] == math.inf
    assert sc.scene.contacts[0].spec.fz_max == math.inf


def test_sweep_nan_value_is_input_error():
    sc = load_scenario(SCENARIOS / "pickup.json")
    pts = sweep(sc, "objects.box.mass", [NAN], grid=4, threads=1)
    assert [p.status for p in pts] == [SWEEP_INPUT_ERROR]
    assert "object mass must be positive and finite" in pts[0].message


def test_cli_out_is_a_file_exit(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["solve", str(SCENARIOS / "double_integrator.json"), "--grid", "4", "--out", str(out)]) == 4
    assert f"input error: --out {str(out)!r} cannot be made a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("kind", ["directory", "missing_parent"])
def test_cli_unwritable_out_file_exit(tmp_path, capsys, monkeypatch, command, kind):
    # an --out file that cannot be written is bad input found before any work
    def no_work(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(cli_module, "sweep", no_work)
    monkeypatch.setattr(cli_module, "verification_ledger", no_work)
    out = tmp_path if kind == "directory" else tmp_path / "absent" / "out.json"
    if command == "sweep":
        argv = ["sweep", str(SCENARIOS / "double_integrator.json"), "--param", "grid_points", "--values", "4"]
    else:
        argv = ["verify", str(SCENARIOS / "pivoting.json"), str(PROFILES / "pivoting.k500.json")]
    assert main(argv + ["--out", str(out)]) == 4
    assert f"input error: --out {str(out)!r}" in capsys.readouterr().err
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_cli_unreadable_file_exit(tmp_path, capsys, command, kind):
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe\x00\x01")
    argv = ["solve", str(bad)] if command == "solve" else ["verify", str(SCENARIOS / "pickup.json"), str(bad)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    what = "scenario" if command == "solve" else "trajectory"
    assert f"input error: {what} file {str(bad)!r} is not readable: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "case.json", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
        (["solve"], "the following arguments are required: scenario"),
        (["sweep", "case.json", "--values", "1"], "the following arguments are required: --param"),
        (["pack", "case.json"], "argument command: invalid choice: 'pack'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["grid-text", "no-scenario", "sweep-no-param", "unknown-command", "no-command"],
)
def test_cli_usage_error_exit(capsys, argv, message):
    # argparse's own code is 2, which here means certified infeasible
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: topp") and f"input error: {message}" in err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: topp")


@pytest.mark.parametrize("field", ["accel", "speed_sq", "speed_aux", "inverse_avg", "torque", "wrenches"])
def test_cli_verify_nan_profile_exit(tmp_path, capsys, field):
    # a NaN compares false with every tolerance; verify must not pass it
    dump = json.loads((PROFILES / "pickup.k500.json").read_text())
    profile = dump["profile"]
    if field == "torque":
        profile["torque"][7][2] = NAN
    elif field == "wrenches":
        profile["wrenches"]["box/finger_left"][7][2] = NAN
    else:
        profile[field][7] = NAN
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dump))
    assert main(["verify", str(SCENARIOS / "pickup.json"), str(path)]) == 4
    name = "wrenches['box/finger_left']" if field == "wrenches" else field
    assert f"input error: trajectory.profile.{name}: has a non-finite entry" in capsys.readouterr().err
