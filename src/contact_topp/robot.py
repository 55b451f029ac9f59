"""Serial-chain robot model: joint screws, link inertias, actuation limits.  `robot_to_json` writes a
model as a scenario file's "model" object, which `scenario.SCHEMA` declares and `robot_from_json` reads."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liegroup import ExpConstants, Pose, exp_constants, skew

JOINT_TYPES = ("revolute", "prismatic")


@dataclass(frozen=True)
class JointDef:
    """One joint: its kind and its screw, a read-only 6-vector [linear; angular] in the base frame at q = 0."""

    kind: str
    twist: np.ndarray

    def __post_init__(self):
        if self.kind not in JOINT_TYPES:
            raise ValueError(f"unknown joint type {self.kind!r}")
        twist = np.array(self.twist, dtype=float).reshape(6)
        if not np.isfinite(twist).all():
            raise ValueError(f"joint twist must be finite, got {twist}")
        twist.setflags(write=False)
        object.__setattr__(self, "twist", twist)

    @classmethod
    def revolute(cls, axis, point) -> "JointDef":
        """Revolute joint: unit screw about `axis` through `point`."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        return cls("revolute", np.concatenate([-np.cross(axis, np.asarray(point, dtype=float)), axis]))

    @classmethod
    def prismatic(cls, axis) -> "JointDef":
        """Prismatic joint: unit translation along `axis`."""
        axis = np.asarray(axis, dtype=float)
        return cls("prismatic", np.concatenate([axis / np.linalg.norm(axis), np.zeros(3)]))


@dataclass(frozen=True)
class JointLimits:
    """Per-joint actuation envelope; arrays of length dof."""

    torque_lower: np.ndarray
    torque_upper: np.ndarray
    velocity_max: np.ndarray
    accel_lower: np.ndarray
    accel_upper: np.ndarray

    def __post_init__(self):
        for name in ("torque_lower", "torque_upper", "velocity_max", "accel_lower", "accel_upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(-1))
        # each test fails on NaN; an infinite bound leaves that side open
        if not np.all(self.torque_lower <= self.torque_upper):
            raise ValueError("torque bounds must be numbers with torque_min <= torque_max")
        if not np.all(self.velocity_max > 0.0):
            raise ValueError("velocity_max must be positive")
        if not np.all(self.accel_lower <= self.accel_upper):
            raise ValueError("acceleration bounds must be numbers with accel_min <= accel_max")


@dataclass(frozen=True)
class LinkInertia:
    """Mass properties of one link, expressed in that link's frame."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray  # 3x3 about the com, link-frame axes

    def __post_init__(self):
        object.__setattr__(self, "com", np.asarray(self.com, dtype=float).reshape(3))
        I = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"link mass must be positive and finite, got {self.mass}")
        if not (np.isfinite(self.com).all() and np.isfinite(I).all()):
            raise ValueError("link com and inertia must be finite")
        if np.linalg.norm(I - I.T) > 1e-9:
            raise ValueError("inertia tensor must be symmetric")
        if np.any(np.linalg.eigvalsh(I) < -1e-12):
            raise ValueError("inertia tensor must be positive semidefinite")
        object.__setattr__(self, "inertia", I)

    def spatial_inertia(self) -> np.ndarray:
        """6x6 spatial inertia at the link-frame origin, [linear; angular]."""
        m, c = self.mass, self.com
        Sc = skew(c)
        G = np.zeros((6, 6))
        G[:3, :3] = m * np.eye(3)
        G[:3, 3:] = -m * Sc
        G[3:, :3] = m * Sc
        G[3:, 3:] = self.inertia - m * (Sc @ Sc)
        return G


@dataclass(frozen=True)
class Link:
    home_pose: Pose  # link frame in the base frame at q = 0
    inertia: LinkInertia


@dataclass(frozen=True)
class RobotModel:
    name: str
    joints: tuple[JointDef, ...]
    links: tuple[Link, ...]
    x_ref: Pose
    tool_offset: Pose
    limits: JointLimits

    def __post_init__(self):
        n = len(self.joints)
        if len(self.links) != n:
            raise ValueError(f"expected {n} links for {n} joints, got {len(self.links)}")
        if self.limits.velocity_max.shape[0] != n:
            raise ValueError("limit arrays must match the joint count")

    @property
    def dof(self) -> int:
        return len(self.joints)

    @cached_property
    def chain_data(self) -> tuple[tuple[np.ndarray, Pose, np.ndarray], ...]:
        """`build_chain_data` of this model, built on first use and kept.

        The scalar Newton-Euler recursion reads it three times per path point.
        """
        return build_chain_data(self)

    @cached_property
    def space_screws(self) -> tuple[ExpConstants, ...]:
        """Per joint, the `ExpConstants` of its twist, for the scalar forward kinematics."""
        return tuple(exp_constants(joint.twist) for joint in self.joints)

    @cached_property
    def link_screws(self) -> tuple[ExpConstants, ...]:
        """Per link, the `ExpConstants` of its joint screw in the link frame (the
        first entry of `chain_data`), for the scalar Newton-Euler recursion."""
        return tuple(exp_constants(A) for A, _, _ in self.chain_data)


def build_chain_data(model: RobotModel) -> tuple[tuple[np.ndarray, Pose, np.ndarray], ...]:
    """Per link: the joint screw in the link frame, the home transform to the
    parent link, and the spatial inertia, as the Newton-Euler recursions use them."""
    data = []
    prev_home = Pose.identity()
    for joint, link in zip(model.joints, model.links):
        inv_home = link.home_pose.inverse()
        A = inv_home.adjoint() @ joint.twist
        data.append((A, inv_home.compose(prev_home), link.inertia.spatial_inertia()))
        prev_home = link.home_pose
    return tuple(data)


def _pose_to_json(pose: Pose) -> dict:
    R = pose.rotation
    # Shepperd's method, stable for all rotation matrices.
    t = np.trace(R)
    if t > 0:
        w = 0.5 * np.sqrt(1.0 + t)
        x = (R[2, 1] - R[1, 2]) / (4 * w)
        y = (R[0, 2] - R[2, 0]) / (4 * w)
        z = (R[1, 0] - R[0, 1]) / (4 * w)
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[k, k], 0.0))
        q = np.zeros(4)
        q[1 + i] = 0.5 * s
        q[0] = (R[k, j] - R[j, k]) / (2 * s)
        q[1 + j] = (R[j, i] + R[i, j]) / (2 * s)
        q[1 + k] = (R[k, i] + R[i, k]) / (2 * s)
        w, x, y, z = q
    return {
        "quaternion_wxyz": [float(w), float(x), float(y), float(z)],
        "translation": [float(v) for v in pose.translation],
    }


def _inertia_to_six(I: np.ndarray) -> list[float]:
    return [float(I[0, 0]), float(I[1, 1]), float(I[2, 2]), float(I[0, 1]), float(I[0, 2]), float(I[1, 2])]


def robot_to_json(model: RobotModel) -> dict:
    def lim(v):
        return float(v) if np.isfinite(v) else None

    return {
        "name": model.name,
        "joints": [
            {
                "type": j.kind,
                "twist": j.twist.tolist(),
                "torque_min": lim(model.limits.torque_lower[i]),
                "torque_max": lim(model.limits.torque_upper[i]),
                "velocity_max": lim(model.limits.velocity_max[i]),
                "accel_min": lim(model.limits.accel_lower[i]),
                "accel_max": lim(model.limits.accel_upper[i]),
            }
            for i, j in enumerate(model.joints)
        ],
        "links": [
            {
                "home_pose": _pose_to_json(l.home_pose),
                "mass": float(l.inertia.mass),
                "com": [float(v) for v in l.inertia.com],
                "inertia": _inertia_to_six(l.inertia.inertia),
            }
            for l in model.links
        ],
        "x_ref": _pose_to_json(model.x_ref),
        "tool_offset": _pose_to_json(model.tool_offset),
    }
