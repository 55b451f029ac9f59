#!/usr/bin/env python3
"""Generate the shipped scenario files.

Everything here is deterministic: robot models are written out long-hand,
paths come from closed-form geometry or damped-least-squares IK on the
package's own kinematics.  Regenerating overwrites scenarios/ in place;
`--out DIR` writes the same files under DIR instead:

    python scripts/make_scenarios.py [--out DIR]
"""
import argparse
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from contact_topp.liegroup import Pose, forward_kinematics, rotation_exp, skew
from contact_topp.robot import (
    JointDef,
    JointLimits,
    Link,
    LinkInertia,
    RobotModel,
    _pose_to_json,
    robot_to_json,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def pose_json(R=None, t=(0.0, 0.0, 0.0)):
    return _pose_to_json(Pose(np.eye(3) if R is None else np.asarray(R, float), np.asarray(t, float)))


def rot_y(angle):
    K = skew(np.array([0.0, 1.0, 0.0]))
    return rotation_exp(K, K @ K, angle)


def limits(n, torque=None, velocity=None, accel=None):
    def arr(v, default):
        if v is None:
            return default * np.ones(n)
        return np.asarray(v, dtype=float)

    return JointLimits(
        torque_lower=-arr(torque, np.inf),
        torque_upper=arr(torque, np.inf),
        velocity_max=arr(velocity, np.inf),
        accel_lower=-arr(accel, np.inf),
        accel_upper=arr(accel, np.inf),
    )


def slider_model():
    return RobotModel(
        name="slider",
        joints=(JointDef.prismatic([1.0, 0.0, 0.0]),),
        links=(
            Link(
                home_pose=Pose(np.eye(3), [0.0, 0.0, 0.0]),
                inertia=LinkInertia(1.0, np.zeros(3), np.eye(3) * 1e-6),
            ),
        ),
        x_ref=Pose.identity(),
        tool_offset=Pose.identity(),
        limits=limits(1, torque=[10.0], accel=[1.0]),
    )


def rod_inertia(mass, length):
    i = mass * length**2 / 12.0
    return np.diag([1e-4, i, i])


def planar_model(name, lengths, masses, torque, velocity=None, accel=None):
    """Serial arm in the x-z plane, revolute joints about +y, links along +x."""
    joints, links = [], []
    at = 0.0
    for l, m in zip(lengths, masses):
        joints.append(JointDef.revolute([0.0, 1.0, 0.0], [at, 0.0, 0.0]))
        links.append(
            Link(
                home_pose=Pose(np.eye(3), [at + l / 2.0, 0.0, 0.0]),
                inertia=LinkInertia(m, np.zeros(3), rod_inertia(m, l)),
            )
        )
        at += l
    return RobotModel(
        name=name,
        joints=tuple(joints),
        links=tuple(links),
        x_ref=Pose(np.eye(3), [at, 0.0, 0.0]),
        tool_offset=Pose.identity(),
        limits=limits(len(lengths), torque=torque, velocity=velocity, accel=accel),
    )


def arm7_model(velocity=2.0):
    """Synthetic 7-DOF arm: z/y axis pairs up the chain plus a wrist roll."""
    axes_points = [
        ([0, 0, 1], [0.0, 0.0, 0.16]),
        ([0, 1, 0], [0.0, 0.0, 0.16]),
        ([0, 0, 1], [0.03, 0.0, 0.40]),
        ([0, 1, 0], [0.03, 0.0, 0.40]),
        ([0, 0, 1], [0.06, 0.0, 0.62]),
        ([0, 1, 0], [0.06, 0.0, 0.62]),
        ([1, 0, 0], [0.06, 0.0, 0.62]),
    ]
    link_data = [
        ([0.00, 0.0, 0.08], 3.2, [0.00, 0.0, 0.05], [0.030, 0.030, 0.012]),
        ([0.00, 0.0, 0.26], 3.2, [0.01, 0.0, 0.10], [0.030, 0.030, 0.012]),
        ([0.03, 0.0, 0.50], 2.2, [0.00, 0.0, 0.06], [0.016, 0.016, 0.007]),
        ([0.03, 0.0, 0.56], 2.2, [0.01, 0.0, 0.04], [0.016, 0.016, 0.007]),
        ([0.06, 0.0, 0.60], 1.4, [0.00, 0.0, 0.02], [0.008, 0.008, 0.004]),
        ([0.08, 0.0, 0.62], 1.4, [0.02, 0.0, 0.00], [0.008, 0.008, 0.004]),
        ([0.12, 0.0, 0.62], 0.6, [0.03, 0.0, 0.00], [0.002, 0.002, 0.002]),
    ]
    joints = tuple(JointDef.revolute(a, p) for a, p in axes_points)
    links = tuple(
        Link(home_pose=Pose(np.eye(3), t), inertia=LinkInertia(m, c, np.diag(i)))
        for t, m, c, i in link_data
    )
    return RobotModel(
        name="arm7",
        joints=joints,
        links=links,
        x_ref=Pose(np.eye(3), [0.18, 0.0, 0.62]),
        tool_offset=Pose(np.eye(3), [0.06, 0.0, 0.0]),
        limits=limits(
            7,
            torque=[90.0, 90.0, 56.0, 56.0, 22.0, 22.0, 12.0],
            velocity=None if velocity is None else [velocity] * 7,
        ),
    )


# damped-least-squares IK for the planar arms: target (x, z, pitch about +y)


def _planar_pose(model, q):
    X = forward_kinematics(model, q)
    return np.array([X.translation[0], X.translation[2], math.atan2(X.rotation[0, 2], X.rotation[0, 0])])


def _ik_error(model, q, target):
    err = target - _planar_pose(model, q)
    err[2] = (err[2] + math.pi) % (2.0 * math.pi) - math.pi
    return err


def planar_ik(model, x, z, pitch, seed):
    q = np.asarray(seed, dtype=float).copy()
    target = np.array([x, z, pitch])
    h = 1e-6
    lam = 1e-3
    err = _ik_error(model, q, target)
    for _ in range(400):
        if np.max(np.abs(err)) < 1e-12:
            return q
        J = np.zeros((3, q.size))
        for i in range(q.size):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            J[:, i] = (_planar_pose(model, qp) - _planar_pose(model, qm)) / (2.0 * h)
        step = np.linalg.solve(J.T @ J + lam**2 * np.eye(q.size), J.T @ err)
        trial = _ik_error(model, q + step, target)
        if np.linalg.norm(trial) < np.linalg.norm(err):
            q, err = q + step, trial
            lam = max(lam / 2.0, 1e-8)
        else:
            lam *= 4.0
            if lam > 1e6:
                break
    raise RuntimeError(f"IK did not converge for target ({x:.3f}, {z:.3f}, {pitch:.3f}), error {err}")


def scenario(name, robot_model, waypoints, grid_points=250, objects=(), path_boundary="natural", gravity=(0.0, 0.0, -9.81)):
    return {
        "format": "contact-topp/scenario-v1",
        "name": name,
        "gravity": list(gravity),
        "grid_points": grid_points,
        "boundary_sdot": [0.0, 0.0],
        "path_boundary": path_boundary,
        "jacobian_derivative": "analytic",
        "robots": [{"model": robot_to_json(robot_model), "waypoints": np.asarray(waypoints, float).tolist()}],
        "objects": list(objects),
    }


def double_integrator():
    return scenario("double_integrator", slider_model(), [[0.0], [1.0]])


def planar_2dof():
    model = planar_model("planar2", (0.4, 0.3), (3.0, 1.8), torque=(40.0, 12.0))
    waypoints = [[-0.6, 0.8], [0.3, 1.4], [1.1, 0.5]]
    return scenario("planar_2dof", model, waypoints)


def arm_7dof():
    waypoints = [
        [0.00, 0.45, 0.00, -1.10, 0.00, 0.90, 0.00],
        [0.70, 0.10, 0.40, -1.60, 0.30, 1.30, 0.50],
        [1.30, 0.65, 0.80, -0.90, 0.70, 0.70, 1.00],
    ]
    return scenario("arm_7dof", arm7_model(), waypoints)


def pickup(mass=1.0, fz_max=12.0):
    """Side-gripped box carried along a lift arc; grip saturates as mass grows."""
    side = 0.06
    box = {
        "name": "box",
        "mass": mass,
        "inertia": [mass * side**2 / 6.0] * 3 + [0.0, 0.0, 0.0],
        "parent": "robot:0",
        "offset": pose_json(t=(0.05, 0.0, 0.0)),
        "contacts": [
            {
                "name": "finger_left",
                "kind": "manipulator",
                "model": "sfce",
                # z into the box: +y face normal
                "pose": pose_json(
                    R=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]).T,
                    t=(0.0, -side / 2.0, 0.0),
                ),
                "friction": {"mu": 0.6, "ez": 0.25},
                "fz_max": fz_max,
                "robot": 0,
            },
            {
                "name": "finger_right",
                "kind": "manipulator",
                "model": "sfce",
                "pose": pose_json(
                    R=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]).T,
                    t=(0.0, side / 2.0, 0.0),
                ),
                "friction": {"mu": 0.6, "ez": 0.25},
                "fz_max": fz_max,
                "robot": 0,
            },
        ],
    }
    waypoints = [
        [0.00, 0.75, 0.00, -1.30, 0.00, 1.15, 0.00],
        [0.45, 0.45, 0.25, -1.45, 0.15, 1.00, 0.30],
        [0.90, 0.15, 0.50, -1.00, 0.30, 0.75, 0.60],
    ]
    return scenario("pickup", arm7_model(velocity=None), waypoints, objects=[box])


def pivoting(mu_env=0.3):
    """Grasped box pivoting about a table edge; path follows the pivot arc."""
    model = planar_model(
        "planar3", (0.30, 0.25, 0.15), (2.4, 1.6, 0.8),
        torque=(60.0, 35.0, 18.0), velocity=(0.25, 0.25, 0.25), accel=(3.0, 3.0, 3.0),
    )
    half = 0.04
    edge = np.array([0.50, 0.10])  # x, z of the pivot edge
    com0 = np.array([0.46, 0.14])
    grasp0 = np.array([0.46, 0.18])  # box top center
    psi_max = math.radians(40.0)

    waypoints = []
    seed = np.array([-0.2, 0.8, -0.6])
    for psi in np.linspace(0.0, psi_max, 9):
        R = rot_y(psi)
        g = edge + (R[np.ix_((0, 2), (0, 2))] @ (grasp0 - edge))
        seed = planar_ik(model, g[0], g[1], psi, seed)
        waypoints.append(seed.copy())

    def face_pose(side):
        # hand pads on the +-x faces, z into the box
        if side > 0:
            R = np.column_stack([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
            return pose_json(R=R, t=(-half, 0.0, 0.02))
        R = np.column_stack([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
        return pose_json(R=R, t=(half, 0.0, 0.02))

    box = {
        "name": "box",
        "mass": 0.4,
        "inertia": [0.4 * (2 * half) ** 2 / 6.0] * 3 + [0.0, 0.0, 0.0],
        "parent": "robot:0",
        "offset": pose_json(t=(0.0, 0.0, -0.04)),  # com below the grasp point
        "contacts": [
            {
                "name": "pad_left",
                "kind": "manipulator",
                "model": "sfce",
                "pose": face_pose(+1),
                "friction": {"mu": 0.5, "ez": 0.03},
                "fz_max": 30.0,
                "robot": 0,
            },
            {
                "name": "pad_right",
                "kind": "manipulator",
                "model": "sfce",
                "pose": face_pose(-1),
                "friction": {"mu": 0.5, "ez": 0.03},
                "fz_max": 30.0,
                "robot": 0,
            },
            {
                "name": "edge_front",
                "kind": "environment",
                "model": "pcwf",
                "pose": pose_json(t=(half, 0.03, -half)),
                "friction": {"mu": mu_env},
                "frame_mode": "world_normal",
                "world_axis": [0.0, 0.0, 1.0],
            },
            {
                "name": "edge_back",
                "kind": "environment",
                "model": "pcwf",
                "pose": pose_json(t=(half, -0.03, -half)),
                "friction": {"mu": mu_env},
                "frame_mode": "world_normal",
                "world_axis": [0.0, 0.0, 1.0],
            },
        ],
    }
    return scenario("pivoting", model, waypoints, objects=[box])


def waiter(tilt_deg):
    """Tray carried sideways at a fixed tilt, a cube riding on three points."""
    model = planar_model(
        "planar3", (0.30, 0.25, 0.15), (2.4, 1.6, 0.8), torque=(60.0, 35.0, 18.0)
    )
    psi = math.radians(tilt_deg)
    waypoints = []
    seed = np.array([-0.4, 0.9, -0.5])
    for x in np.linspace(0.35, 0.55, 7):
        seed = planar_ik(model, x, 0.25, psi, seed)
        waypoints.append(seed.copy())

    cube_side = 0.05
    cube_feet = [(0.018, 0.015), (-0.018, 0.015), (0.0, -0.021)]
    cube_contacts = [
        {
            "name": f"foot_{i}",
            "kind": "object",
            "model": "pcwf",
            "pose": pose_json(t=(px, py, -cube_side / 2.0)),
            "friction": {"mu": 0.275},
            "against": "tray",
            "pose_in_other": pose_json(t=(px, py, 0.005)),
        }
        for i, (px, py) in enumerate(cube_feet)
    ]
    # two support pads: the pad couple absorbs pitch moments a lone point
    # contact with pinned moments cannot close
    tray = {
        "name": "tray",
        "mass": 0.125,
        "inertia": [3e-4, 6e-4, 9e-4, 0.0, 0.0, 0.0],
        "parent": "robot:0",
        "offset": pose_json(t=(0.0, 0.0, 0.005)),
        "contacts": [
            {
                "name": f"pad_{tag}",
                "kind": "manipulator",
                "model": "sfce",
                "pose": pose_json(t=(px, 0.0, -0.005)),
                "friction": {"mu": 1.0, "ez": 0.05},
                "robot": 0,
            }
            for tag, px in (("rear", -0.06), ("front", 0.06))
        ],
    }
    cube = {
        "name": "cube",
        "mass": 1.0,
        "inertia": [1.0 * cube_side**2 / 6.0] * 3 + [0.0, 0.0, 0.0],
        "parent": "object:tray",
        "offset": pose_json(t=(0.0, 0.0, 0.03)),
        "contacts": cube_contacts,
    }
    label = f"{tilt_deg:g}".replace(".", "_")
    out = scenario(f"waiter_tilt_{label}", model, waypoints, grid_points=80, objects=[tray, cube])
    return out


def write(data, out, *parts):
    path = os.path.join(out, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=SCENARIOS, help="directory to write into (default: the shipped scenarios/)")
    out = parser.parse_args(argv).out
    write(double_integrator(), out, "double_integrator.json")
    write(planar_2dof(), out, "planar_2dof.json")
    write(arm_7dof(), out, "arm_7dof.json")
    write(pickup(), out, "pickup.json")
    write(pivoting(), out, "pivoting.json")
    for tilt in (0.0, 10.0, 15.0, 17.5, 20.0):
        label = f"{tilt:g}".replace(".", "_")
        write(waiter(tilt), out, "waiter", f"tilt_{label}.json")


if __name__ == "__main__":
    main()
