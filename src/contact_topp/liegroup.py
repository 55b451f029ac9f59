"""SE(3) primitives and product-of-exponentials kinematics.

Spatial vectors are ordered [linear; angular] everywhere: twists are
(v, w) stacked as a 6-vector, wrenches are (force, moment).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-12
_ORTHO_TOL = 1e-10


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 matrix S(v) with S(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_exp(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def quaternion_to_rotation(q_wxyz) -> np.ndarray:
    """Rotation matrix from a wxyz quaternion (normalized here)."""
    q = np.asarray(q_wxyz, dtype=float)
    nrm = np.linalg.norm(q)
    if nrm < _EPS:
        raise ValueError("zero quaternion")
    w, x, y, z = q / nrm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass(frozen=True)
class Twist:
    """Joint or velocity screw, [linear; angular] ordering."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float).reshape(3))
        object.__setattr__(self, "angular", np.asarray(self.angular, dtype=float).reshape(3))

    @classmethod
    def from_array(cls, xi) -> "Twist":
        xi = np.asarray(xi, dtype=float).reshape(6)
        return cls(linear=xi[:3], angular=xi[3:])

    @classmethod
    def revolute(cls, axis, point) -> "Twist":
        """Unit revolute screw about `axis` through `point`."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        point = np.asarray(point, dtype=float)
        return cls(linear=-np.cross(axis, point), angular=axis)

    @classmethod
    def prismatic(cls, axis) -> "Twist":
        axis = np.asarray(axis, dtype=float)
        return cls(linear=axis / np.linalg.norm(axis), angular=np.zeros(3))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.linear, self.angular])


def twist_bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lie bracket [a, b] of two twists given as 6-arrays."""
    va, wa = a[:3], a[3:]
    vb, wb = b[:3], b[3:]
    return np.concatenate([np.cross(wa, vb) + np.cross(va, wb), np.cross(wa, wb)])


@dataclass(frozen=True)
class Pose:
    """Element of SE(3): rotation matrix plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        p = np.asarray(self.translation, dtype=float).reshape(3)
        err = np.linalg.norm(R.T @ R - np.eye(3))
        if err > _ORTHO_TOL or np.linalg.det(R) < 0.0:
            raise ValueError(f"rotation is not orthonormal (|R^T R - I|_F = {err:.3e})")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", p)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_quaternion(cls, q_wxyz, translation) -> "Pose":
        return cls(quaternion_to_rotation(q_wxyz), np.asarray(translation, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def transform_point(self, point) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.translation

    def adjoint(self) -> np.ndarray:
        """6x6 twist transform: V_here = Ad(T_here_other) V_other."""
        R, p = self.rotation, self.translation
        out = np.zeros((6, 6))
        out[:3, :3] = R
        out[:3, 3:] = skew(p) @ R
        out[3:, 3:] = R
        return out

    def wrench_map(self) -> np.ndarray:
        """6x6 wrench transform [[R, 0], [S(p)R, R]] (contact-to-body map)."""
        R, p = self.rotation, self.translation
        out = np.zeros((6, 6))
        out[:3, :3] = R
        out[3:, :3] = skew(p) @ R
        out[3:, 3:] = R
        return out

    def as_matrix(self) -> np.ndarray:
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out


def pose_exp(twist: Twist, angle: float) -> Pose:
    """Exponential of a twist scaled by `angle`.

    Accepts any finite twist; a (near) zero angular part degenerates to a
    pure translation.
    """
    w = twist.angular
    v = twist.linear
    wn = np.linalg.norm(w)
    if wn * abs(angle) < _EPS and wn < 1e-9:
        return Pose(np.eye(3), v * angle)
    axis = w / wn
    vn = v / wn
    phi = wn * angle
    R = rotation_exp(axis, phi)
    p = (np.eye(3) - R) @ np.cross(axis, vn) + axis * (axis @ vn) * phi
    return Pose(R, p)


def forward_kinematics(model, q) -> Pose:
    """End-effector pose: product of per-joint exponentials times the reference pose."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != model.dof:
        raise ValueError(f"expected {model.dof} joint values, got {q.shape[0]}")
    T = Pose.identity()
    for joint, qi in zip(model.joints, q):
        T = T.compose(pose_exp(joint.twist, qi))
    return T.compose(model.x_ref)


def body_jacobian(model, q, offset: Pose | None = None) -> np.ndarray:
    """Body Jacobian at the tool frame (end effector composed with `offset`).

    `offset` defaults to the model's tool offset; columns map joint rates to
    the [linear; angular] body velocity of the reporting frame.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != model.dof:
        raise ValueError(f"expected {model.dof} joint values, got {q.shape[0]}")
    if offset is None:
        offset = model.tool_offset
    # Space Jacobian columns, then map into the reporting frame.
    cols = np.zeros((6, model.dof))
    T = Pose.identity()
    for i, (joint, qi) in enumerate(zip(model.joints, q)):
        cols[:, i] = T.adjoint() @ joint.twist.as_array()
        T = T.compose(pose_exp(joint.twist, qi))
    T_report = T.compose(model.x_ref).compose(offset)
    return T_report.inverse().adjoint() @ cols


FD_JACOBIAN_STEP = 1e-6
JACOBIAN_DERIVATIVE_METHODS = ("analytic", "finite_difference")


def _body_jacobian_q_derivative(J: np.ndarray) -> np.ndarray:
    """All partials dJ[:, i]/dq_j for a body Jacobian, via column brackets.

    Returns an (n, 6, n) array D with D[j, :, i] = dJ[:, i]/dq_j; the partial
    vanishes for j < i and equals the bracket [J_i, J_j] otherwise.
    """
    n = J.shape[1]
    D = np.zeros((n, 6, n))
    for i in range(n):
        for j in range(i, n):
            D[j, :, i] = twist_bracket(J[:, i], J[:, j])
    return D


def jacobian_path_derivative(
    model,
    path,
    s: float,
    offset: Pose | None = None,
    method: str = "analytic",
) -> np.ndarray:
    """d/ds of the body Jacobian along a joint path.

    `method` selects between the analytic column-bracket formula and a
    central finite difference with step FD_JACOBIAN_STEP.
    """
    if method not in JACOBIAN_DERIVATIVE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "finite_difference":
        h = FD_JACOBIAN_STEP
        lo, hi = max(0.0, s - h), min(1.0, s + h)
        J_hi = body_jacobian(model, path.position(hi), offset)
        J_lo = body_jacobian(model, path.position(lo), offset)
        return (J_hi - J_lo) / (hi - lo)
    q = path.position(s)
    dq = path.derivative(s)
    J = body_jacobian(model, q, offset)
    D = _body_jacobian_q_derivative(J)
    return np.einsum("jci,j->ci", D, dq)


def object_path_kinematics(
    model,
    path,
    s: float,
    offset: Pose | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Direction and direction-rate of a grasped frame along the path.

    Returns (J_dir, J_dir_rate): the body velocity of the frame is
    J_dir * sdot and its body acceleration contribution splits as
    J_dir * sddot + J_dir_rate * sdot^2.
    """
    q = path.position(s)
    dq = path.derivative(s)
    ddq = path.second_derivative(s)
    J = body_jacobian(model, q, offset)
    dJ = jacobian_path_derivative(model, path, s, offset)
    return J @ dq, dJ @ dq + J @ ddq


# ---------------------------------------------------------------------------
# batched forms: raw (..., 3, 3) rotations and (..., 3) translations over a
# leading batch of path points, no `Pose` per point.  Each mirrors the scalar
# function above operation for operation, so the two round alike.


def skew_many(v: np.ndarray) -> np.ndarray:
    """(..., 3, 3) skew matrices of (..., 3) vectors."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def adjoint_many(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(..., 6, 6) twist transforms, as `Pose.adjoint`."""
    out = np.zeros(np.broadcast_shapes(R.shape[:-2], p.shape[:-1]) + (6, 6))
    out[..., :3, :3] = R
    out[..., :3, 3:] = skew_many(p) @ R
    out[..., 3:, 3:] = R
    return out


def wrench_map_many(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(..., 6, 6) contact-to-body wrench maps, as `Pose.wrench_map`."""
    out = np.zeros(np.broadcast_shapes(R.shape[:-2], p.shape[:-1]) + (6, 6))
    out[..., :3, :3] = R
    out[..., 3:, :3] = skew_many(p) @ R
    out[..., 3:, 3:] = R
    return out


def compose_many(R1, p1, R2, p2) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of the composition T1 T2, as `Pose.compose`."""
    return R1 @ R2, (R1 @ p2[..., None])[..., 0] + p1


def inverse_many(R, p) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of the inverse, as `Pose.inverse`."""
    Rt = np.swapaxes(R, -1, -2)
    return Rt, (-Rt @ p[..., None])[..., 0]


def pose_exp_many(twist: Twist, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of `pose_exp(twist, angle)` for every angle in a 1-D array."""
    angles = np.asarray(angles, dtype=float)
    w, v = twist.angular, twist.linear
    wn = np.linalg.norm(w)
    R = np.broadcast_to(np.eye(3), angles.shape + (3, 3)).copy()
    p = v * angles[:, None]
    turning = ~((wn * np.abs(angles) < _EPS) & (wn < 1e-9))
    if turning.any():
        axis = w / wn
        vn = v / wn
        phi = wn * angles[turning]
        K = skew(axis)
        R[turning] = np.eye(3) + np.sin(phi)[:, None, None] * K + (1.0 - np.cos(phi))[:, None, None] * (K @ K)
        p[turning] = (np.eye(3) - R[turning]) @ np.cross(axis, vn) + axis * (axis @ vn) * phi[:, None]
    return R, p


def twist_bracket_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lie brackets [a, b] of (..., 6) twists, as `twist_bracket`."""
    va, wa = a[..., :3], a[..., 3:]
    vb, wb = b[..., :3], b[..., 3:]
    return np.concatenate([np.cross(wa, vb) + np.cross(va, wb), np.cross(wa, wb)], axis=-1)


def space_jacobian_many(model, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward kinematics and space Jacobian at K joint configurations.

    `q` is (K, dof).  Returns (R, p, cols): the end-effector pose of
    `forward_kinematics` as (K, 3, 3) and (K, 3) arrays, and the (K, 6, dof)
    space Jacobian columns that `body_jacobian` maps into a reporting frame.
    """
    q = np.asarray(q, dtype=float)
    K = q.shape[0]
    R = np.broadcast_to(np.eye(3), (K, 3, 3))
    p = np.zeros((K, 3))
    cols = np.zeros((K, 6, model.dof))
    for i, joint in enumerate(model.joints):
        cols[:, :, i] = adjoint_many(R, p) @ joint.twist.as_array()
        R, p = compose_many(R, p, *pose_exp_many(joint.twist, q[:, i]))
    R, p = compose_many(R, p, model.x_ref.rotation, model.x_ref.translation)
    return R, p, cols


def body_jacobian_many(R_ee, p_ee, cols, R_off, p_off) -> np.ndarray:
    """(K, 6, dof) body Jacobians at the end effector composed with an offset.

    Takes the output of `space_jacobian_many` and an offset given as raw
    arrays (constant, or one per point); matches `body_jacobian`.
    """
    R, p = compose_many(R_ee, p_ee, R_off, p_off)
    return adjoint_many(*inverse_many(R, p)) @ cols
