"""SE(3) primitives and product-of-exponentials kinematics.

Spatial vectors are ordered [linear; angular] everywhere: twists are
(v, w) stacked as a 6-vector, wrenches are (force, moment).

The scalar kinematics (`forward_kinematics`, `body_jacobian` and the
Newton-Euler recursion in `dynamics`) run their per-joint loops on raw
rotation/translation pairs rather than `Pose` objects, with the same
arithmetic as `Pose.compose`, `Pose.inverse`, `Pose.adjoint` and
`pose_exp`, so they round alike.  Every rotation such a loop produces still
passes `check_pose`, the orthonormality, determinant and finiteness test
of every `Pose`, which runs on Python floats from one `tolist()` of the
rotation and one of the translation.

What a joint's exponential needs besides the joint value, its
`ExpConstants` (|w|, the skew matrix K of the unit axis and K @ K, and
the two translation terms), depends on the twist alone: each `RobotModel`
builds them once per joint, for its space twists (`space_screws`) and its
link-frame screws (`link_screws`), and `_exp_rp` evaluates only the sine,
cosine and products that depend on the angle, as does its batched form
`pose_exp_many`.  `pose_exp` builds them on the fly.

One pass over the joints, `_space_chain`, gives the end-effector pose and
the space Jacobian columns at q; `_reporting_frame` maps those columns
into any tool frame.  `forward_kinematics`, `body_jacobian` and
`object_path_kinematics` each run the chain once.
`dynamics.sample_path_dynamics` builds and checks it once per robot per
sample, and `verification.fd_suite` once per robot, point and
finite-difference step, and each hands it to every frame it needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_EPS = 1e-12
_ORTHO_TOL = 1e-10


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


_I3 = _read_only(np.eye(3))
def skew(v: np.ndarray) -> np.ndarray:
    """3x3 matrix S(v) with S(v) @ u == cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, with the multiplies and subtracts of `np.cross`."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _norm(x: np.ndarray) -> float:
    """Euclidean (Frobenius) norm, the sum and order of `np.linalg.norm` without its dispatch."""
    x = x.ravel()
    return math.sqrt(x @ x)


def check_pose(R: np.ndarray, p: np.ndarray) -> None:
    """Raise ValueError unless R is a proper rotation and R and p are finite.

    The test of every `Pose`, on Python floats: |R^T R - I|_F within 1e-10
    (false for a NaN or infinite R) and det R >= 0.  Past the first test
    det R is +-1 to within about 1e-10, so the cofactor sum along the first
    row has the sign of any rounding of it.
    """
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    # R^T R - I, its diagonal and (twice counted) upper triangle
    d0, d1, d2 = a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0, c * c + f * f + i * i - 1.0
    u0, u1, u2 = a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i
    err = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (u0 * u0 + u1 * u1 + u2 * u2))
    if not err <= _ORTHO_TOL or a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
        raise ValueError(f"rotation is not a finite proper rotation (|R^T R - I|_F = {err:.3e})")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"translation is not finite: {p}")


def rotation_exp(K: np.ndarray, K2: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues' formula I + sin(angle) K + (1 - cos(angle)) K2, the rotation by
    `angle` about a unit axis a, for K = skew(a) and K2 = K @ K."""
    return _I3 + np.sin(angle) * K + (1.0 - np.cos(angle)) * K2


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


def _twist_bracket(a, b) -> list[float]:
    """Lie bracket [a, b] of two twists, each given as six Python floats, as a list."""
    va0, va1, va2, wa0, wa1, wa2 = a
    vb0, vb1, vb2, wb0, wb1, wb2 = b
    return [
        (wa1 * vb2 - wa2 * vb1) + (va1 * wb2 - va2 * wb1),
        (wa2 * vb0 - wa0 * vb2) + (va2 * wb0 - va0 * wb2),
        (wa0 * vb1 - wa1 * vb0) + (va0 * wb1 - va1 * wb0),
        wa1 * wb2 - wa2 * wb1,
        wa2 * wb0 - wa0 * wb2,
        wa0 * wb1 - wa1 * wb0,
    ]


@dataclass(frozen=True)
class Pose:
    """Element of SE(3): rotation matrix plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        # read-only copies: the caller's arrays cannot change a checked pose
        R = np.array(self.rotation, dtype=float).reshape(3, 3)
        p = np.array(self.translation, dtype=float).reshape(3)
        check_pose(R, p)
        object.__setattr__(self, "rotation", _read_only(R))
        object.__setattr__(self, "translation", _read_only(p))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_quaternion(cls, quaternion_wxyz, translation) -> "Pose":
        return cls(quaternion_to_rotation(quaternion_wxyz), np.asarray(translation, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(*_compose(self.rotation, self.translation, other.rotation, other.translation))

    def inverse(self) -> "Pose":
        return Pose(*_inverse(self.rotation, self.translation))

    def adjoint(self) -> np.ndarray:
        """6x6 twist transform: V_here = Ad(T_here_other) V_other."""
        return _adjoint(self.rotation, self.translation)

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


# ---------------------------------------------------------------------------
# raw (R, p) forms of the `Pose` operations for the scalar per-joint loops.
# They do not check what they return; the loops pass every pose that the
# `Pose` form would have constructed through `_checked`.


def _compose(R1, p1, R2, p2) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of T1 T2, as `Pose.compose`."""
    return R1 @ R2, R1 @ p2 + p1


def _inverse(R, p) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of the inverse, as `Pose.inverse`."""
    return R.T, -R.T @ p


def _adjoint(R, p) -> np.ndarray:
    """6x6 twist transform of (R, p), as `Pose.adjoint`."""
    out = np.zeros((6, 6))
    out[:3, :3] = R
    out[:3, 3:] = skew(p) @ R
    out[3:, 3:] = R
    return out


def _checked(R, p) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) unchanged, after the test of the `Pose` constructor."""
    check_pose(R, p)
    return R, p


class ExpConstants(NamedTuple):
    """What the exponential of one twist (v, w) needs besides the angle.

    With wn = |w| > 0 and axis a = w / wn: K = skew(a), K2 = K @ K,
    `cross` = a x (v / wn) and `along` = a (a . v / wn).  With wn == 0 only
    the pure translation is possible, and those four are None.  Every
    array is read-only.
    """

    v: np.ndarray
    wn: float
    K: np.ndarray | None
    K2: np.ndarray | None
    cross: np.ndarray | None
    along: np.ndarray | None


def exp_constants(twist: np.ndarray) -> ExpConstants:
    """The `ExpConstants` of a twist given as a 6-vector [linear; angular]."""
    v, w = np.array(twist[:3]), twist[3:]
    wn = _norm(w)
    if wn == 0.0:
        return ExpConstants(_read_only(v), wn, None, None, None, None)
    axis = w / wn
    vn = v / wn
    K = skew(axis)
    K2, cross, along = K @ K, _cross3(axis, vn), axis * (axis @ vn)
    return ExpConstants(_read_only(v), wn, *map(_read_only, (K, K2, cross, along)))


def _exp_rp(screw: ExpConstants, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of `pose_exp`, from the twist's `ExpConstants`."""
    v, wn, K, K2, cross, along = screw
    if wn * abs(angle) < _EPS and wn < 1e-9:
        return np.eye(3), v * angle
    if K is None:
        # wn == 0, so only a NaN or infinite angle gets here
        raise ValueError(f"exponential angle must be finite, got {angle}")
    phi = wn * angle
    R = rotation_exp(K, K2, phi)
    return R, (_I3 - R) @ cross + along * phi


def pose_exp(twist: np.ndarray, angle: float) -> Pose:
    """Exponential of a twist (a 6-vector [linear; angular]) scaled by `angle`.

    Accepts any finite twist; a (near) zero angular part degenerates to a
    pure translation.
    """
    return Pose(*_exp_rp(exp_constants(twist), angle))


def _joint_values(model, q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != model.dof:
        raise ValueError(f"expected {model.dof} joint values, got {q.shape[0]}")
    return q


def _times_exp(R, p, screw: ExpConstants, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of T exp(twist * angle) for T = (R, p) and the twist's constants; both new poses checked."""
    return _checked(*_compose(R, p, *_checked(*_exp_rp(screw, angle))))


def _space_chain(model, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, p, cols): the checked end-effector pose after `x_ref` and the space Jacobian columns at q."""
    cols = np.zeros((6, model.dof))
    R, p = np.eye(3), np.zeros(3)
    for i, (joint, screw, qi) in enumerate(zip(model.joints, model.space_screws, q)):
        cols[:, i] = _adjoint(R, p) @ joint.twist
        R, p = _times_exp(R, p, screw, qi)
    R, p = _checked(*_compose(R, p, model.x_ref.rotation, model.x_ref.translation))
    return R, p, cols


def _reporting_frame(R, p, cols, offset: Pose) -> np.ndarray:
    """Body Jacobian from a `_space_chain`: compose `offset`, invert, apply the adjoint to the columns."""
    R, p = _checked(*_compose(R, p, offset.rotation, offset.translation))
    return _adjoint(*_checked(*_inverse(R, p))) @ cols


def forward_kinematics(model, q) -> Pose:
    """End-effector pose: product of per-joint exponentials times the reference pose."""
    R, p, _ = _space_chain(model, _joint_values(model, q))
    return Pose(R, p)


def body_jacobian(model, q, offset: Pose | None = None) -> np.ndarray:
    """Body Jacobian at the tool frame (end effector composed with `offset`).

    `offset` defaults to the model's tool offset; columns map joint rates to
    the [linear; angular] body velocity of the reporting frame.
    """
    chain = _space_chain(model, _joint_values(model, q))
    return _reporting_frame(*chain, model.tool_offset if offset is None else offset)


def _body_jacobian_q_derivative(J: np.ndarray) -> np.ndarray:
    """All partials dJ[:, i]/dq_j for a body Jacobian, via column brackets.

    Returns an (n, 6, n) array D with D[j, :, i] = dJ[:, i]/dq_j; the partial
    vanishes for j < i and equals the bracket [J_i, J_j] otherwise.  The
    brackets run on Python floats from one `tolist()` of J and become one
    array, laid out C-contiguous as D.
    """
    n = J.shape[1]
    cols = J.T.tolist()
    zero = [0.0] * 6
    brackets = []  # entry j * n + i is D[j, :, i]
    for j, col_j in enumerate(cols):
        brackets += [_twist_bracket(col_i, col_j) for col_i in cols[: j + 1]]
        brackets += [zero] * (n - j - 1)
    return np.ascontiguousarray(np.array(brackets).reshape(n, n, 6).transpose(0, 2, 1))


def _jacobian_rate(J: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """d/ds of a body Jacobian J along a path with joint direction dq = q'(s)."""
    return np.einsum("jci,j->ci", _body_jacobian_q_derivative(J), dq)


def jacobian_path_derivative(model, path, s: float) -> np.ndarray:
    """d/ds of the tool-frame body Jacobian along a joint path, by the column-bracket formula."""
    return _jacobian_rate(body_jacobian(model, path.position(s)), path.derivative(s))


def object_path_kinematics(model, path, s: float, offset: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Direction and direction-rate of a grasped frame along the path.

    Returns (J_dir, J_dir_rate): the body velocity of the frame is
    J_dir * sdot and its body acceleration contribution splits as
    J_dir * sddot + J_dir_rate * sdot^2.
    """
    J = body_jacobian(model, path.position(s), offset)
    return _direction_terms(J, path.derivative(s), path.second_derivative(s))


def _direction_terms(J: np.ndarray, dq: np.ndarray, ddq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_dir, J_dir_rate) of `object_path_kinematics` from the frame's body Jacobian J."""
    return J @ dq, _jacobian_rate(J, dq) @ dq + J @ ddq


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


def pose_exp_many(screw: ExpConstants, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, p) of `_exp_rp(screw, angle)` for every angle in a 1-D array."""
    v, wn, K, K2, cross, along = screw
    angles = np.asarray(angles, dtype=float)
    R = np.broadcast_to(_I3, angles.shape + (3, 3)).copy()
    p = v * angles[:, None]
    turning = ~((wn * np.abs(angles) < _EPS) & (wn < 1e-9))
    if turning.any():
        phi = wn * angles[turning]
        R[turning] = rotation_exp(K, K2, phi[:, None, None])
        p[turning] = (_I3 - R[turning]) @ cross + along * phi[:, None]
    return R, p


def twist_bracket_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lie brackets [a, b] of (..., 6) twists, as `_twist_bracket`."""
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
    for i, (joint, screw) in enumerate(zip(model.joints, model.space_screws)):
        cols[:, :, i] = adjoint_many(R, p) @ joint.twist
        R, p = compose_many(R, p, *pose_exp_many(screw, q[:, i]))
    R, p = compose_many(R, p, model.x_ref.rotation, model.x_ref.translation)
    return R, p, cols


def body_jacobian_many(R_ee, p_ee, cols, R_off, p_off) -> np.ndarray:
    """(K, 6, dof) body Jacobians at the end effector composed with an offset.

    Takes the output of `space_jacobian_many` and an offset given as raw
    arrays (constant, or one per point); matches `body_jacobian`.
    """
    R, p = compose_many(R_ee, p_ee, R_off, p_off)
    return adjoint_many(*inverse_many(R, p)) @ cols
