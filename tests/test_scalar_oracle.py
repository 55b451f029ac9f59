"""The scalar kinematics and dynamics stay an independent, strict oracle.

* They round exactly like plain `Pose` products: each function is held, bit
  for bit, to a reference here that composes `Pose` objects joint by joint
  with `np.cross` in the exponential.
* `sample_path_dynamics` builds each robot's chain once and shares it, and
  still matches, bit for bit, a reference that rebuilds the chain for every
  torque term, object term and contact Jacobian.  It reads the constants of
  body-fixed contacts from the scene, read-only.
* `fd_suite` builds each robot's chain once per point and step, and its
  ledger still matches, float for float, the suite it replaced, which
  called the public functions and rebuilt the chain for every check.
* They check every rotation they build, as the `Pose` constructor does.
* `verification.py` and the scalar sampler share no code with the batched
  sampler, so comparing the two compares two implementations.
"""
import ast
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contact_topp
from contact_topp import dynamics, liegroup
from contact_topp.contacts import ContactSpec, FrictionParams
from contact_topp.dynamics import (
    ObjectInstance,
    ObjectModel,
    RobotInstance,
    Scene,
    contact_pose_at,
    inverse_dynamics,
    object_net_wrench_coefficients,
    sample_path_dynamics,
    stack_dynamics_in_s,
)
from contact_topp.liegroup import (
    Pose,
    body_jacobian,
    forward_kinematics,
    jacobian_path_derivative,
    object_path_kinematics,
    rotation_exp,
    skew,
)
from contact_topp.paths import JointPath
from contact_topp.robot import JointDef, Link, LinkInertia, RobotModel
from contact_topp.scenario import load_scenario
from contact_topp.verification import FD_SAMPLES, FD_STEP, _fd_body_jacobian, fd_suite

from conftest import make_limits

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = sorted(p.relative_to(SCENARIOS).with_suffix("").as_posix() for p in SCENARIOS.rglob("*.json"))

# ---------------------------------------------------------------------------
# reference: the same formulas on `Pose` objects


def ref_rotation_exp(axis, angle):
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def ref_pose_exp(twist, angle):
    v, w = twist[:3], twist[3:]
    wn = np.linalg.norm(w)
    if wn * abs(angle) < 1e-12 and wn < 1e-9:
        return Pose(np.eye(3), v * angle)
    axis = w / wn
    vn = v / wn
    phi = wn * angle
    R = ref_rotation_exp(axis, phi)
    p = (np.eye(3) - R) @ np.cross(axis, vn) + axis * (axis @ vn) * phi
    return Pose(R, p)


def ref_forward_kinematics(model, q):
    T = Pose.identity()
    for joint, qi in zip(model.joints, q):
        T = T.compose(ref_pose_exp(joint.twist, qi))
    return T.compose(model.x_ref)


def ref_body_jacobian(model, q, offset=None):
    offset = model.tool_offset if offset is None else offset
    cols = np.zeros((6, model.dof))
    T = Pose.identity()
    for i, (joint, qi) in enumerate(zip(model.joints, q)):
        cols[:, i] = T.adjoint() @ joint.twist
        T = T.compose(ref_pose_exp(joint.twist, qi))
    return T.compose(model.x_ref).compose(offset).inverse().adjoint() @ cols


def ref_ad(V):
    v, w = V[:3], V[3:]
    out = np.zeros((6, 6))
    out[:3, :3] = skew(w)
    out[:3, 3:] = skew(v)
    out[3:, 3:] = skew(w)
    return out


def ref_inverse_dynamics(model, q, qd, qdd, gravity):
    chain = []
    prev_home = Pose.identity()
    for joint, link in zip(model.joints, model.links):
        inv_home = link.home_pose.inverse()
        A = inv_home.adjoint() @ joint.twist
        chain.append((A, inv_home.compose(prev_home), link.inertia.spatial_inertia()))
        prev_home = link.home_pose
    n = model.dof
    V = np.zeros(6)
    Vd = np.concatenate([-gravity, np.zeros(3)])
    vel, acc, ads_down = [], [], []
    for i, (A, B, _) in enumerate(chain):
        Ad = ref_pose_exp(A, -q[i]).compose(B).adjoint()
        V = Ad @ V + A * qd[i]
        Vd = Ad @ Vd + (ref_ad(V) @ A) * qd[i] + A * qdd[i]
        vel.append(V)
        acc.append(Vd)
        ads_down.append(Ad)
    tau = np.zeros(n)
    F = np.zeros(6)
    for i in range(n - 1, -1, -1):
        A, _, G = chain[i]
        F = ads_down[i + 1].T @ F if i + 1 < n else np.zeros(6)
        F = F + G @ acc[i] - ref_ad(vel[i]).T @ (G @ vel[i])
        tau[i] = A @ F
    return tau


def ref_jacobian_rate(J, dq):
    n = J.shape[1]
    D = np.zeros((n, 6, n))
    for i in range(n):
        for j in range(i, n):
            a, b = J[:, i], J[:, j]
            D[j, :, i] = np.concatenate([np.cross(a[3:], b[:3]) + np.cross(a[:3], b[3:]), np.cross(a[3:], b[3:])])
    return np.einsum("jci,j->ci", D, dq)


def ref_sample_path_dynamics(scene, s):
    """(torque terms, contact Jacobians, object samples) of one sample, each
    robot's chain rebuilt for every term, objects carried by robots only."""
    n, slices = scene.dof, scene.slices
    q, dq, ddq, acc, velsq, grav = (np.zeros(n) for _ in range(6))
    for r, sl in zip(scene.robots, slices):
        qi, dqi, ddqi = r.path.position(s), r.path.derivative(s), r.path.second_derivative(s)
        q[sl], dq[sl], ddq[sl] = qi, dqi, ddqi
        zeros = np.zeros(r.model.dof)
        acc[sl] = ref_inverse_dynamics(r.model, qi, zeros, dqi, np.zeros(3))
        velsq[sl] = ref_inverse_dynamics(r.model, qi, dqi, ddqi, np.zeros(3))
        grav[sl] = ref_inverse_dynamics(r.model, qi, zeros, zeros, scene.gravity)
    jacs, objects = {}, []
    for obj in scene.objects:
        grasp = obj.parent_robot
        holder = scene.robots[grasp]
        offset = holder.model.tool_offset if obj.offset is None else obj.offset
        R_obj = ref_forward_kinematics(holder.model, q[slices[grasp]]).compose(offset).rotation
        J = ref_body_jacobian(holder.model, holder.path.position(s), offset)
        dqg, ddqg = holder.path.derivative(s), holder.path.second_derivative(s)
        A, B = object_net_wrench_coefficients(obj.model, J @ dqg, ref_jacobian_rate(J, dqg) @ dqg + J @ ddqg)
        external = np.concatenate([R_obj.T @ (obj.model.mass * scene.gravity), np.zeros(3)]) + obj.external_wrench
        terms = []
        for c in obj.model.contacts:
            cid = f"{obj.model.name}/{c.name}"
            pose_c = contact_pose_at(c, R_obj)
            terms.append((cid, 1.0, pose_c.wrench_map()))
            if c.kind == "manipulator":
                base = offset if c.robot == grasp else scene.robots[c.robot].model.tool_offset
                full = np.zeros((6, n))
                full[:, slices[c.robot]] = ref_body_jacobian(scene.robots[c.robot].model, q[slices[c.robot]], base.compose(pose_c))
                jacs[cid] = full
        objects.append((obj.model.name, A, B, external, terms))
    return (s, q, dq, ddq, acc, velsq, grav), jacs, objects


# ---------------------------------------------------------------------------
# random chains in the style of conftest.planar_arm and spatial_arm


def random_pose(rng):
    return Pose.from_quaternion(rng.normal(size=4), rng.uniform(-0.5, 0.5, size=3))


def random_arm(rng, kinds):
    joints, links = [], []
    for i, kind in enumerate(kinds):
        axis = rng.normal(size=3)
        if kind == "revolute":
            joint = JointDef.revolute(axis, rng.uniform(-0.3, 0.3, size=3) + [0.0, 0.0, 0.2 * i])
        else:
            joint = JointDef.prismatic(axis)
        joints.append(joint)
        links.append(
            Link(
                home_pose=random_pose(rng),
                inertia=LinkInertia(rng.uniform(0.2, 3.0), rng.uniform(-0.05, 0.05, size=3), np.diag(rng.uniform(0.01, 0.05, size=3))),
            )
        )
    return RobotModel(
        name="random",
        joints=tuple(joints),
        links=tuple(links),
        x_ref=random_pose(rng),
        tool_offset=random_pose(rng),
        limits=make_limits(len(kinds)),
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def contact(name, kind, pose, robot=0, frame_mode="body_fixed"):
    return ContactSpec(name, kind, "pcwf", pose, FrictionParams(0.6), robot=robot, frame_mode=frame_mode)


class ConstantPath:
    """q(s) = q at rest for every s; unlike a spline it may hold non-finite values."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.dof = self.q.size

    def position(self, s):
        return self.q.copy()

    def derivative(self, s):
        return np.zeros(self.dof)

    def second_derivative(self, s):
        return np.zeros(self.dof)


def held_box_scene(arm, path):
    grip = contact("grip", "manipulator", Pose(np.eye(3), [0.0, 0.02, 0.0]))
    box = ObjectModel("box", 0.8, np.diag([0.002, 0.003, 0.004]), contacts=(grip,))
    return Scene(robots=(RobotInstance(arm, path),), objects=(ObjectInstance(model=box, parent_robot=0),))


@settings(max_examples=60)
@given(
    kinds=st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=7),
    zero_joints=st.integers(0, 2**7 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_functions_round_like_pose_products(kinds, zero_joints, seed):
    rng = np.random.default_rng(seed)
    arm = random_arm(rng, kinds)
    n = len(kinds)
    q = rng.uniform(-np.pi, np.pi, size=n)
    q[[bool(zero_joints >> i & 1) for i in range(n)]] = 0.0  # exact zeros take the degenerate paths
    qd, qdd = rng.normal(size=n), rng.normal(size=n)
    gravity = rng.normal(scale=5.0, size=3)
    offset = random_pose(rng)

    fk, ref_fk = forward_kinematics(arm, q), ref_forward_kinematics(arm, q)
    assert same_bits(fk.rotation, ref_fk.rotation) and same_bits(fk.translation, ref_fk.translation)
    assert same_bits(body_jacobian(arm, q), ref_body_jacobian(arm, q))
    assert same_bits(body_jacobian(arm, q, offset), ref_body_jacobian(arm, q, offset))
    J = body_jacobian(arm, q, offset)
    assert same_bits(liegroup._jacobian_rate(J, qd), ref_jacobian_rate(J, qd))
    assert same_bits(inverse_dynamics(arm, q, qd, qdd, gravity), ref_inverse_dynamics(arm, q, qd, qdd, gravity))
    # a second call reads the cached chain data and rounds the same
    assert same_bits(inverse_dynamics(arm, q, qd, qdd, gravity), ref_inverse_dynamics(arm, q, qd, qdd, gravity))


@settings(max_examples=40)
@given(
    kinds=st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=7),
    zero_joints=st.integers(0, 2**7 - 1),
    qdd_zero=st.booleans(),
    gravity_zero=st.booleans(),
    negative_zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_dynamics_at_rest_round_like_pose_products(kinds, zero_joints, qdd_zero, gravity_zero, negative_zeros, seed):
    # qd = 0 skips the velocity products; what is left must keep every bit,
    # the sign bits of exact zero torques included (qd = qdd = g = 0)
    rng = np.random.default_rng(seed)
    arm = random_arm(rng, kinds)
    n = len(kinds)
    q = rng.uniform(-np.pi, np.pi, size=n)
    q[[bool(zero_joints >> i & 1) for i in range(n)]] = 0.0
    zero = -0.0 if negative_zeros else 0.0
    qd = np.full(n, zero)
    qdd = np.full(n, zero) if qdd_zero else rng.normal(size=n)
    gravity = np.full(3, zero) if gravity_zero else rng.normal(scale=5.0, size=3)
    tau = inverse_dynamics(arm, q, qd, qdd, gravity)
    assert same_bits(tau, ref_inverse_dynamics(arm, q, qd, qdd, gravity))
    if qdd_zero and gravity_zero:
        assert not tau.any()


def two_robot_box_scene(rng, kinds, grasp, tool_offset, gravity_zero=False):
    """One robot carries a box by one contact, the other robot holds a second
    contact on it through its own tool, and a world-normal contact turns with it."""
    robots = tuple(
        RobotInstance(random_arm(rng, k), JointPath(rng.normal(scale=0.8, size=(3, len(k))))) for k in kinds
    )
    contacts = (
        contact("grip", "manipulator", random_pose(rng), robot=grasp),
        contact("press", "manipulator", random_pose(rng), robot=1 - grasp),
        contact("ground", "environment", random_pose(rng), frame_mode="world_normal"),
    )
    box = ObjectModel("box", rng.uniform(0.1, 2.0), np.diag(rng.uniform(0.001, 0.01, size=3)), contacts=contacts)
    carried = ObjectInstance(
        model=box,
        parent_robot=grasp,
        offset=None if tool_offset else random_pose(rng),
        external_wrench=rng.normal(size=6),
    )
    gravity = np.zeros(3) if gravity_zero else rng.normal(scale=5.0, size=3)
    return Scene(robots=robots, objects=(carried,), gravity=gravity)


def assert_sample_matches_reference(scene, s):
    smp = sample_path_dynamics(scene, s)
    fields, jacs, objects = ref_sample_path_dynamics(scene, s)
    got = (smp.s, smp.q, smp.dq, smp.ddq, smp.torque_accel_coeff, smp.torque_velsq_coeff, smp.torque_gravity)
    assert all(same_bits(a, b) for a, b in zip(got, fields))
    assert list(smp.contact_jacobians) == list(jacs) == ["box/grip", "box/press"]
    assert all(same_bits(smp.contact_jacobians[cid], jacs[cid]) for cid in jacs)
    (name, A, B, external, terms), = objects
    (osmp,) = smp.objects
    assert osmp.name == name
    assert same_bits(osmp.accel_coeff, A) and same_bits(osmp.velsq_coeff, B) and same_bits(osmp.external, external)
    assert [(cid, sign) for cid, sign, _ in osmp.contact_terms] == [(cid, sign) for cid, sign, _ in terms]
    assert all(same_bits(G, G_ref) for (_, _, G), (_, _, G_ref) in zip(osmp.contact_terms, terms))
    return smp


@settings(max_examples=40)
@given(
    kinds=st.lists(st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=5), min_size=2, max_size=2),
    grasp=st.integers(0, 1),
    tool_offset=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_shares_chains_bit_for_bit(kinds, grasp, tool_offset, seed):
    rng = np.random.default_rng(seed)
    scene = two_robot_box_scene(rng, kinds, grasp, tool_offset)
    assert_sample_matches_reference(scene, float(rng.uniform(0.0, 1.0)))


@settings(max_examples=30)
@given(
    kinds=st.lists(st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=5), min_size=2, max_size=2),
    grasp=st.integers(0, 1),
    gravity_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_at_path_ends_bit_for_bit(kinds, grasp, gravity_zero, seed):
    # a clamped path has q'(0) = q'(1) = 0 exactly, so at either end the
    # acceleration pass (qd, qdd) = (0, q') runs at rest and gives exact zero
    # torques, whose sign bits count
    rng = np.random.default_rng(seed)
    scene = two_robot_box_scene(rng, kinds, grasp, False, gravity_zero)
    for s in (0.0, 1.0):
        end = assert_sample_matches_reference(scene, s)
        assert not end.dq.any() and not end.torque_accel_coeff.any()
        if gravity_zero:
            assert not end.torque_gravity.any()


@settings(max_examples=10)
@given(
    kinds=st.lists(st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=5), min_size=2, max_size=2),
    grasp=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_scene_stacks_robot_paths_in_joint_order(kinds, grasp, seed):
    # the scene's joint layout is the one both samplers read
    rng = np.random.default_rng(seed)
    scene = two_robot_box_scene(rng, kinds, grasp, False)
    columns = [list(range(scene.dof))[sl] for sl in scene.slices]
    assert [len(cols) for cols in columns] == [len(k) for k in kinds]
    assert sum(columns, []) == list(range(scene.dof))

    s_values = np.sort(rng.uniform(0.0, 1.0, size=4))
    fields = ("position", "derivative", "second_derivative")
    for s in (float(s_values[0]), s_values):
        want = [np.hstack([getattr(r.path, f)(s) for r in scene.robots]) for f in fields]
        got = scene.path(s)
        assert len(got) == 3 and all(same_bits(g, w) for g, w in zip(got, want))

    stk = stack_dynamics_in_s(scene, s_values)
    assert all(same_bits(g, w) for g, w in zip((stk.q, stk.dq, stk.ddq), scene.path(s_values)))
    for s in s_values.tolist():
        smp = sample_path_dynamics(scene, s)
        assert all(same_bits(g, w) for g, w in zip((smp.q, smp.dq, smp.ddq), scene.path(s)))


@pytest.mark.parametrize("name,count", [("pivoting", 6), ("pickup", 14), ("arm_7dof", 7)])
def test_one_chain_per_robot_per_sample(monkeypatch, name, count):
    # per sample, one joint exponential per joint for the Newton-Euler
    # recursion, and one more per joint of a robot that carries an object or
    # holds a contact (pivoting: 3 joints, pickup and arm_7dof: 7, one robot)
    scene = load_scenario(SCENARIOS / f"{name}.json").scene
    calls = []
    exp_rp = liegroup._exp_rp

    def counted(*args):
        calls.append(args)
        return exp_rp(*args)

    monkeypatch.setattr(liegroup, "_exp_rp", counted)
    monkeypatch.setattr(dynamics, "_exp_rp", counted)
    sample_path_dynamics(scene, 0.37)
    assert len(calls) == count


@pytest.mark.parametrize("name,dof", [("pivoting", 3), ("pickup", 7), ("arm_7dof", 7)])
def test_velocity_products_only_in_the_moving_pass(monkeypatch, name, dof):
    # of the three Newton-Euler passes per sample only the velocity-squared
    # one has a nonzero joint rate; it builds one commutator per joint, which
    # its velocity and force recursions share
    scene = load_scenario(SCENARIOS / f"{name}.json").scene
    calls = []
    ad = dynamics._ad

    def counted(V):
        calls.append(V)
        return ad(V)

    monkeypatch.setattr(dynamics, "_ad", counted)
    sample_path_dynamics(scene, 0.37)
    assert len(calls) == dof


def test_fd_suite_adjoint_count(monkeypatch):
    # arm_7dof, 50 points and no object: per point 3 chains (at s and s -/+ the
    # step) of 7 column adjoints and one tool reporting frame each, which the
    # body-Jacobian check at every fourth point reuses (its finite difference
    # runs forward kinematics, which builds none), and 7 down adjoints shared
    # by the 4 inverse-dynamics passes
    #   50 * 3 * 8 (both Jacobian checks) + 50 * 7 (rnea_substitution)
    # (the chain data, 7 more once per model, is built before counting)
    sc = load_scenario(SCENARIOS / "arm_7dof.json")
    sc.scene.robots[0].model.chain_data
    calls = []
    adjoint = liegroup._adjoint

    def counted(R, p):
        calls.append(R)
        return adjoint(R, p)

    monkeypatch.setattr(liegroup, "_adjoint", counted)
    monkeypatch.setattr(dynamics, "_adjoint", counted)
    assert fd_suite(sc, seed=0)["passed"]
    assert len(calls) == 50 * 3 * 8 + 50 * 7 == 1550


def ref_fd_suite(scenario, seed=0):
    """`fd_suite` as it was when every check called the public scalar functions,
    each building its own chain, and the four inverse-dynamics passes each
    built their own down adjoints."""
    scene = scenario.scene
    rng = random.Random(seed)
    s_vals = [rng.uniform(0.02, 0.98) for _ in range(FD_SAMPLES)]
    checks = {}

    def record(name, err, tol):
        checks[name] = {"max_error": float(err), "tolerance": tol, "passed": bool(err <= tol)}

    def fd_jacobian_path_derivative(model, path, s):
        lo, hi = max(0.0, s - FD_STEP), min(1.0, s + FD_STEP)
        return (body_jacobian(model, path.position(hi)) - body_jacobian(model, path.position(lo))) / (hi - lo)

    jac_err = 0.0
    path_err = 0.0
    for r in scene.robots:
        for s in s_vals[:: FD_SAMPLES // 12]:
            q = r.path.position(float(s))
            jac_err = np.maximum(jac_err, np.max(np.abs(body_jacobian(r.model, q) - _fd_body_jacobian(r.model, q))))
        for s in s_vals:
            dJ_an = jacobian_path_derivative(r.model, r.path, float(s))
            dJ_fd = fd_jacobian_path_derivative(r.model, r.path, float(s))
            path_err = np.maximum(path_err, np.max(np.abs(dJ_an - dJ_fd)))
    record("body_jacobian_fd", jac_err, 1e-5)
    record("jacobian_path_derivative_fd", path_err, 1e-5)

    if scene.objects:
        dir_err = 0.0
        h = FD_STEP
        for robot, offset in scene.grasp.values():
            holder = scene.robots[robot]
            for s in s_vals:
                s = float(np.clip(s, h, 1.0 - h))
                _, rate = object_path_kinematics(holder.model, holder.path, s, offset)
                d_hi, _ = object_path_kinematics(holder.model, holder.path, s + h, offset)
                d_lo, _ = object_path_kinematics(holder.model, holder.path, s - h, offset)
                dir_err = np.maximum(dir_err, np.max(np.abs((d_hi - d_lo) / (2 * h) - rate)))
        record("object_direction_rate_fd", dir_err, 1e-5)

    sub_err = 0.0
    for r in scene.robots:
        zeros = np.zeros(r.model.dof)
        for s in s_vals:
            q = r.path.position(float(s))
            dq = r.path.derivative(float(s))
            ddq = r.path.second_derivative(float(s))
            sd, sdd = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
            direct = inverse_dynamics(r.model, q, dq * sd, ddq * sd * sd + dq * sdd, scene.gravity)
            acc = inverse_dynamics(r.model, q, zeros, dq, np.zeros(3))
            velsq = inverse_dynamics(r.model, q, dq, ddq, np.zeros(3))
            grav = inverse_dynamics(r.model, q, zeros, zeros, scene.gravity)
            stitched = acc * sdd + velsq * sd * sd + grav
            sub_err = np.maximum(sub_err, np.max(np.abs(direct - stitched)))
    record("rnea_substitution", sub_err, 1e-9)

    return {"seed": seed, "samples": FD_SAMPLES, "checks": checks, "passed": all(c["passed"] for c in checks.values())}


def assert_same_ledger(got, ref):
    # the same checks in the same order, each error the same float
    assert list(got["checks"]) == list(ref["checks"])
    assert {k: float.hex(c["max_error"]) for k, c in got["checks"].items()} == {
        k: float.hex(c["max_error"]) for k, c in ref["checks"].items()
    }
    assert got == ref


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", SHIPPED)
def test_fd_suite_matches_the_suite_it_replaced(name, seed):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    assert_same_ledger(fd_suite(sc, seed), ref_fd_suite(sc, seed))


def ref_fd_body_jacobian(model, q):
    """`_fd_body_jacobian` as it was when each tool pose was a whole
    `forward_kinematics`, all n joint exponentials at every pose."""

    def tool(qv):
        return forward_kinematics(model, qv).compose(model.tool_offset).as_matrix()

    J = np.zeros((6, q.size))
    Xinv = np.linalg.inv(tool(q))
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += FD_STEP
        qm[i] -= FD_STEP
        E = Xinv @ (tool(qp) - tool(qm)) / (2 * FD_STEP)
        W = 0.5 * (E[:3, :3] - E[:3, :3].T)
        J[:3, i] = E[:3, 3]
        J[3:, i] = (W[2, 1], W[0, 2], W[1, 0])
    return J


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_fd_body_jacobian_matches_whole_chains(kinds, seed):
    # the joints before the moved one keep their product from q, bit for bit
    rng = np.random.default_rng(seed)
    arm = random_arm(rng, kinds)
    q = rng.uniform(-3.0, 3.0, size=len(kinds))
    assert same_bits(_fd_body_jacobian(arm, q), ref_fd_body_jacobian(arm, q))


@settings(max_examples=15, deadline=None)
@given(
    kinds=st.lists(st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=5), min_size=2, max_size=2),
    grasp=st.integers(0, 1),
    tool_offset=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fd_suite_matches_the_suite_it_replaced_on_random_scenes(kinds, grasp, tool_offset, seed):
    # two robots, one of them carrying the box: the direction-rate check runs
    # on one robot's chains only
    scenario = SimpleNamespace(scene=two_robot_box_scene(np.random.default_rng(seed), kinds, grasp, tool_offset))
    assert_same_ledger(fd_suite(scenario, seed % 7), ref_fd_suite(scenario, seed % 7))


@pytest.mark.parametrize("name", ["pivoting", "pickup", "waiter/tilt_10"])
def test_fixed_contact_maps_come_from_the_scene_read_only(monkeypatch, name):
    scene = load_scenario(SCENARIOS / f"{name}.json").scene
    sample_path_dynamics(scene, 0.37)  # builds the models' chain data first
    poses = []
    post_init = Pose.__post_init__

    def counted(self):
        poses.append(self)
        post_init(self)

    monkeypatch.setattr(Pose, "__post_init__", counted)
    smp = sample_path_dynamics(scene, 0.37)
    world_normal = [sc for sc in scene.contacts if sc.spec.frame_mode == "world_normal"]
    # a sample builds a pose for each world-normal contact, and one more for
    # its end-effector frame when a robot holds it
    assert len(poses) == sum(1 + (sc.spec.kind == "manipulator") for sc in world_normal)
    records = {sc.cid: sc for sc in scene.contacts}
    reacting = [sc for sc in scene.contacts if sc.reaction_map is not None]
    # every fixed map either sampler returns is read-only and shares the
    # record's memory; the scalar sample's own maps are the record's arrays
    for dyn in (smp, stack_dynamics_in_s(scene, [0.1, 0.37, 0.9])):
        fixed = 0
        for terms in dyn.objects:
            for cid, sign, G in terms.contact_terms:
                shared = records[cid].wrench_map if sign > 0 else records[cid].reaction_map
                if shared is None:
                    assert G.flags.writeable
                    continue
                fixed += 1
                assert np.shares_memory(G, shared) and not G.flags.writeable
                if dyn is smp and sign > 0:
                    assert G is shared
                with pytest.raises(ValueError, match="read-only"):
                    G[..., 0, 0] = 1.0
        assert fixed == len(scene.contacts) - len(world_normal) + len(reacting)


def test_chain_data_built_once_per_model():
    arm = random_arm(np.random.default_rng(3), ["revolute", "prismatic", "revolute"])
    assert arm.chain_data is arm.chain_data
    assert len(arm.chain_data) == arm.dof
    for screws in (arm.space_screws, arm.link_screws):
        assert len(screws) == arm.dof
        assert all(not x.flags.writeable for c in screws for x in c if isinstance(x, np.ndarray))
    assert arm.space_screws is arm.space_screws and arm.link_screws is arm.link_screws
    # the prismatic joint keeps only its translation
    assert arm.space_screws[1].wn == 0.0 and arm.space_screws[1].K is None


def old_exp_rp(twist, angle):
    """`liegroup._exp_rp` as it was when it derived everything from the twist on every call."""
    v, w = twist[:3], twist[3:]
    wn = liegroup._norm(w)
    if wn * abs(angle) < 1e-12 and wn < 1e-9:
        return np.eye(3), v * angle
    axis = w / wn
    vn = v / wn
    phi = wn * angle
    R = ref_rotation_exp(axis, phi)
    p = (np.eye(3) - R) @ liegroup._cross3(axis, vn) + axis * (axis @ vn) * phi
    return R, p


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["revolute", "prismatic", "zero", "tiny", "general"]),
    angle=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-2 * np.pi, 2 * np.pi),
        st.floats(1e3, 1e8).map(lambda a: a if a > 5e5 else -a),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_exponential_from_constants_keeps_every_bit(kind, angle, seed):
    # 0 < |w| < 1e-9 turns only at a large angle; a zero twist never does
    rng = np.random.default_rng(seed)
    axis, point = rng.normal(size=3), rng.uniform(-1.0, 1.0, size=3)
    twist = {
        "revolute": lambda: JointDef.revolute(axis, point).twist,
        "prismatic": lambda: JointDef.prismatic(axis).twist,
        "zero": lambda: np.zeros(6),
        "tiny": lambda: np.concatenate([rng.normal(size=3), axis / np.linalg.norm(axis) * 10 ** rng.uniform(-15, -9.1)]),
        "general": lambda: rng.normal(size=6),
    }[kind]()
    screw = liegroup.exp_constants(twist)
    R, p = liegroup._exp_rp(screw, angle)
    R_old, p_old = old_exp_rp(twist, angle)
    assert same_bits(R, R_old) and same_bits(p, p_old)
    assert same_bits(liegroup.pose_exp(twist, angle).translation, p_old)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["revolute", "prismatic", "zero", "tiny"])
def test_non_finite_angle_raises(kind, bad):
    twist = {
        "revolute": JointDef.revolute([0.3, -0.2, 0.9], [0.1, 0.0, 0.2]).twist,
        "prismatic": JointDef.prismatic([0.3, -0.2, 0.9]).twist,
        "zero": np.zeros(6),
        "tiny": np.array([0.1, 0.2, 0.3, 1e-12, 0.0, 0.0]),
    }[kind]
    with pytest.raises(ValueError, match="finite"):
        liegroup._checked(*liegroup._exp_rp(liegroup.exp_constants(twist), bad))
    with pytest.raises(ValueError, match="finite"):
        liegroup.pose_exp(twist, bad)


@pytest.mark.parametrize("name", ["pivoting", "pickup", "arm_7dof"])
def test_joint_exponentials_build_no_skew_matrix(monkeypatch, name):
    # the skew matrices of a joint's exponential are built once per model;
    # per sample, skew builds only the adjoints and wrench maps
    scene = load_scenario(SCENARIOS / f"{name}.json").scene
    sample_path_dynamics(scene, 0.37)
    callers = []
    skew_ = liegroup.skew

    def counted(v):
        callers.append(sys._getframe(1).f_code.co_name)
        return skew_(v)

    monkeypatch.setattr(liegroup, "skew", counted)
    sample_path_dynamics(scene, 0.37)
    assert "_adjoint" in callers and set(callers) <= {"_adjoint", "wrench_map"}


def test_every_joint_rotation_is_checked(monkeypatch):
    arm = random_arm(np.random.default_rng(7), ["revolute", "prismatic", "revolute"])
    q = np.array([0.4, 0.1, -0.7])
    arm.chain_data  # built from valid home poses before the patch
    monkeypatch.setattr(liegroup, "rotation_exp", lambda K, K2, angle: 1.001 * rotation_exp(K, K2, angle))
    with pytest.raises(ValueError, match="finite proper rotation"):
        forward_kinematics(arm, q)
    with pytest.raises(ValueError, match="finite proper rotation"):
        body_jacobian(arm, q)
    with pytest.raises(ValueError, match="finite proper rotation"):
        inverse_dynamics(arm, q, np.zeros(3), np.zeros(3), np.zeros(3))
    path = JointPath([q, q + 0.3])
    with pytest.raises(ValueError, match="finite proper rotation"):
        sample_path_dynamics(held_box_scene(arm, path), 0.4)
    with pytest.raises(ValueError, match="finite proper rotation"):
        object_path_kinematics(arm, path, 0.4, arm.tool_offset)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_non_finite_joint_value_is_rejected():
    arm = random_arm(np.random.default_rng(11), ["revolute", "prismatic"])
    for q in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            forward_kinematics(arm, q)
        with pytest.raises(ValueError, match="finite"):
            body_jacobian(arm, q)
        with pytest.raises(ValueError, match="finite"):
            inverse_dynamics(arm, q, np.zeros(2), np.zeros(2), np.zeros(3))
        path = ConstantPath(q)
        with pytest.raises(ValueError, match="finite"):
            sample_path_dynamics(held_box_scene(arm, path), 0.4)
        with pytest.raises(ValueError, match="finite"):
            object_path_kinematics(arm, path, 0.4, arm.tool_offset)


# ---------------------------------------------------------------------------
# independence: a static call graph of the package

PKG = Path(contact_topp.__file__).resolve().parent
BATCHED = re.compile(r"_many$|^stack_dynamics_in_s$|^_path_torque_terms$")
SCALAR_PATH = (
    "dynamics.sample_path_dynamics",
    "dynamics.inverse_dynamics",
    "liegroup.forward_kinematics",
    "liegroup.body_jacobian",
    "liegroup.jacobian_path_derivative",
    "liegroup.object_path_kinematics",
)


def package_graph():
    """(defs, refs): every function and method of the package, and what each names.

    Functions are keyed `module.name`, methods `module.Class.name`.  A bare
    name resolves in its module, to a local definition or a relative
    import; a class stands for all its methods.  An attribute `x.name`
    resolves to every method called `name` in the package, whatever `x`
    is, so the graph over-approximates the calls.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in PKG.glob("*.py")}
    defs, methods, scopes = {}, {}, {}
    for mod, tree in trees.items():
        scope = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{mod}.{node.name}"] = node
                scope[node.name] = [f"{mod}.{node.name}"]
            elif isinstance(node, ast.ClassDef):
                keys = []
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = f"{mod}.{node.name}.{item.name}"
                        defs[key] = item
                        methods.setdefault(item.name, []).append(key)
                        keys.append(key)
                scope[node.name] = keys
        scopes[mod] = scope
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = scopes.get(node.module, {}).get(alias.name, [])
                    scopes[mod][alias.asname or alias.name] = target or [f"{node.module}.{alias.name}"]
    refs = {}
    for key, fn in defs.items():
        mod = key.split(".")[0]
        names, targets = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                names.add(node.id)
                targets.update(scopes[mod].get(node.id, []))
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                targets.update(methods.get(node.attr, []))
        refs[key] = (names, targets)
    return defs, refs


def reach(roots):
    """(functions reached from `roots`, every identifier they name)."""
    defs, refs = package_graph()
    seen, names, todo = set(), set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        if key in refs:
            names |= refs[key][0]
            todo.extend(refs[key][1])
        else:
            names.add(key.rsplit(".", 1)[-1])
    return seen, names


def test_call_graph_follows_calls():
    # the graph sees the batched sampler's own calls, so a clean result below means something
    seen, names = reach(["dynamics.stack_dynamics_in_s"])
    assert {"dynamics._path_torque_terms", "liegroup.pose_exp_many", "liegroup.twist_bracket_many"} <= seen
    seen, _ = reach(["dynamics.inverse_dynamics"])
    assert {"robot.RobotModel.chain_data", "liegroup.check_pose", "liegroup.rotation_exp"} <= seen


def test_oracles_reach_no_batched_code():
    verification = ast.parse((PKG / "verification.py").read_text())
    imported = {a.name for node in ast.walk(verification) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not {name for name in imported if BATCHED.search(name)}
    defs, _ = package_graph()
    roots = [key for key in defs if key.startswith("verification.")] + list(SCALAR_PATH)
    assert set(SCALAR_PATH) <= set(defs)
    seen, names = reach(roots)
    assert {"dynamics.sample_path_dynamics", "liegroup.body_jacobian", "verification.audit"} <= seen
    assert sorted(name for name in names | {k.rsplit(".", 1)[-1] for k in seen} if BATCHED.search(name)) == []
