import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from contact_topp.liegroup import (
    Pose,
    _norm,
    body_jacobian,
    check_pose,
    forward_kinematics,
    jacobian_path_derivative,
    object_path_kinematics,
    pose_exp,
    skew,
    twist_bracket,
)
from contact_topp.paths import JointPath
from contact_topp.robot import JointDef, Link, LinkInertia, RobotModel
from contact_topp.verification import _fd_jacobian_path_derivative

from conftest import make_limits, planar_arm, spatial_arm


def hat(xi):
    out = np.zeros((4, 4))
    out[:3, :3] = skew(xi[3:])
    out[:3, 3] = xi[:3]
    return out


def expm_oracle(twist, angle):
    return expm(hat(twist) * angle)


class TestPoseExp:
    def test_revolute_about_axis_through_point(self):
        # Quarter and half turns about z through (1, 0, 0), checked against a
        # dense matrix exponential, with the half-turn values frozen.
        tw = JointDef.revolute([0, 0, 1], [1.0, 0.0, 0.0]).twist
        for angle in (0.3, np.pi / 2, np.pi, -1.2):
            P = pose_exp(tw, angle)
            M = expm_oracle(tw, angle)
            assert np.allclose(P.as_matrix(), M, atol=1e-12)
        half = pose_exp(tw, np.pi)
        assert np.allclose(half.translation, [2.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(np.diag(half.rotation), [-1.0, -1.0, 1.0], atol=1e-12)

    def test_pure_translation(self):
        tw = JointDef.prismatic([0, 0, 1]).twist
        P = pose_exp(tw, 0.7)
        assert np.allclose(P.rotation, np.eye(3))
        assert np.allclose(P.translation, [0, 0, 0.7])

    def test_zero_angle_identity(self):
        tw = JointDef.revolute([0, 1, 0], [0.3, 0.2, -0.5]).twist
        P = pose_exp(tw, 0.0)
        assert np.allclose(P.as_matrix(), np.eye(4), atol=1e-15)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_one_parameter_subgroup(self, t1, t2):
        tw = np.array([0.2, -0.1, 0.4, 0.36, 0.48, 0.8])
        left = pose_exp(tw, t1).compose(pose_exp(tw, t2))
        right = pose_exp(tw, t1 + t2)
        assert np.allclose(left.as_matrix(), right.as_matrix(), atol=1e-9)

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_general_screw_matches_expm(self, angle):
        tw = np.array([0.3, 0.1, -0.2, 0.5, -0.4, 0.7])
        assert np.allclose(pose_exp(tw, angle).as_matrix(), expm_oracle(tw, angle), atol=1e-9)


class TestPose:
    def test_rejects_non_orthonormal(self):
        R = np.eye(3)
        R[0, 0] = 1.001
        with pytest.raises(ValueError):
            Pose(R, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="proper rotation"):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rotation(self, bad):
        with pytest.raises(ValueError, match="finite proper rotation"):
            Pose(np.full((3, 3), bad), np.zeros(3))
        R = np.eye(3)
        R[1, 2] = bad
        with pytest.raises(ValueError, match="finite proper rotation"):
            Pose(R, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(ValueError, match="translation is not finite"):
            Pose(np.eye(3), [0.0, bad, 0.0])

    def test_rejects_non_finite_quaternion(self):
        with pytest.raises(ValueError, match="finite proper rotation"):
            Pose.from_quaternion([np.nan, 0.0, 0.0, 1.0], np.zeros(3))

    def test_compose_inverse(self):
        a = pose_exp(JointDef.revolute([0, 0, 1], [0.5, 0.2, 0]).twist, 0.8)
        b = pose_exp(np.array([0.1, 0, 0.2, 0, 0.6, 0.8]), -0.4)
        ab = a.compose(b)
        assert np.allclose(ab.as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12)
        assert np.allclose(a.compose(a.inverse()).as_matrix(), np.eye(4), atol=1e-12)

    def test_adjoint_and_wrench_map_are_dual(self):
        T = pose_exp(np.array([0.2, -0.3, 0.1, 0.1, 0.7, -0.4]), 1.0)
        # Power invariance: F_a . V_a == F_b . V_b with V_a = Ad V_b, F_b arbitrary.
        Ad = T.adjoint()
        Wm = T.wrench_map()
        rng = np.random.default_rng(0)
        for _ in range(5):
            Vb = rng.normal(size=6)
            Fb = rng.normal(size=6)
            assert np.isclose((Wm @ Fb) @ (Ad @ Vb), Fb @ Vb, atol=1e-10)


def numpy_check_pose(R, p):
    """`check_pose` in its numpy form, before it moved to Python floats."""
    err = _norm(R.T @ R - np.eye(3))
    r0, r1, r2 = R.tolist()
    det = (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )
    if not err <= 1e-10 or det < 0.0:
        raise ValueError(f"rotation is not a finite proper rotation (|R^T R - I|_F = {err:.3e})")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"translation is not finite: {p}")


def verdict(check, R, p):
    """None if `check` accepts (R, p), else the part of its message before any number."""
    try:
        with np.errstate(all="ignore"):
            check(R, p)
    except ValueError as exc:
        return str(exc).split(" (")[0].split(":")[0]
    return None


ROTATION = "rotation is not a finite proper rotation"


@settings(max_examples=400)
@given(
    case=st.sampled_from(["inside", "outside", "reflection", "bad_rotation", "bad_translation", "negative_zeros"]),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_check_pose_decides_as_numpy(case, bad, seed):
    rng = np.random.default_rng(seed)
    R = Pose.from_quaternion(rng.normal(size=4), np.zeros(3)).rotation.copy()
    p = rng.normal(size=3)
    expected = ROTATION
    if case in ("inside", "outside"):
        # R (I + E/2) with E symmetric, |E|_F = t: |R^T R - I|_F = t + O(t^2),
        # t a factor 1.001 to 2 to either side of the 1e-10 bound
        E = rng.normal(size=(3, 3))
        E = E + E.T
        factor = rng.uniform(1.001, 2.0)
        t = 1e-10 * (1.0 / factor if case == "inside" else factor)
        R = R @ (np.eye(3) + 0.5 * t * E / np.linalg.norm(E))
        expected = None if case == "inside" else ROTATION
    elif case == "reflection":
        R = R @ np.diag(rng.permutation([1.0, 1.0, -1.0]))
    elif case == "bad_rotation":
        R[divmod(int(rng.integers(9)), 3)] = bad
    elif case == "bad_translation":
        p[rng.integers(3)] = bad
        expected = "translation is not finite"
    else:
        # a signed permutation with det +1, every zero of R and some of p negative
        R = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
        if np.linalg.det(R) < 0.0:
            R[0] = -R[0]
        R[R == 0.0] = -0.0
        p[rng.random(3) < 0.5] = -0.0
        expected = None
    assert verdict(check_pose, R, p) == verdict(numpy_check_pose, R, p) == expected


def test_checked_pose_cannot_change():
    R, p = np.eye(3), np.zeros(3)
    P = Pose(R, p)
    R[0, 0] = 5.0
    p[1] = np.nan
    assert P.rotation[0, 0] == 1.0 and not np.isnan(P.translation).any()
    for x in (P.rotation, P.translation):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 2.0


class TestForwardKinematics:
    def test_two_link_planar_closed_form(self):
        # Elbow arm in the x-z plane, joints about +y; closed-form positions.
        arm = planar_arm([0.5, 0.4], [1.0, 1.0])
        for q1, q2 in [(0.0, 0.0), (0.3, -0.7), (1.1, 0.4)]:
            P = forward_kinematics(arm, [q1, q2])
            x = 0.5 * np.cos(q1) + 0.4 * np.cos(q1 + q2)
            z = -0.5 * np.sin(q1) - 0.4 * np.sin(q1 + q2)
            assert np.allclose(P.translation, [x, 0.0, z], atol=1e-12)

    def test_reference_pose_at_zero(self):
        arm = planar_arm([0.5, 0.4], [1.0, 1.0])
        P = forward_kinematics(arm, [0.0, 0.0])
        assert np.allclose(P.as_matrix(), arm.x_ref.as_matrix(), atol=1e-15)

    def test_dimension_mismatch(self):
        arm = planar_arm([0.5, 0.4], [1.0, 1.0])
        with pytest.raises(ValueError):
            forward_kinematics(arm, [0.1, 0.2, 0.3])


class TestBodyJacobian:
    def test_finite_difference(self):
        arm = spatial_arm()
        q = np.array([0.4, -0.6, 0.15, 1.2])
        J = body_jacobian(arm, q)
        h = 1e-7
        T0 = forward_kinematics(arm, q).compose(arm.tool_offset)
        for i in range(4):
            qp = q.copy()
            qp[i] += h
            Tp = forward_kinematics(arm, qp).compose(arm.tool_offset)
            D = np.linalg.inv(T0.as_matrix()) @ (Tp.as_matrix() - T0.as_matrix()) / h
            v = D[:3, 3]
            w = np.array([D[2, 1], D[0, 2], D[1, 0]])
            assert np.allclose(J[:3, i], v, atol=1e-5)
            assert np.allclose(J[3:, i], w, atol=1e-5)

    def test_revolute_reporting_on_axis_has_zero_linear_part(self):
        joints = (JointDef.revolute([0, 0, 1], [0, 0, 0]),)
        links = (
            Link(
                home_pose=Pose(np.eye(3), [0.2, 0, 0]),
                inertia=LinkInertia(1.0, np.zeros(3), np.diag([0.01, 0.01, 0.01])),
            ),
        )
        arm = RobotModel(
            "one",
            joints,
            links,
            x_ref=Pose(np.eye(3), [0.4, 0.0, 0.0]),
            tool_offset=Pose(np.eye(3), [-0.4, 0.0, 0.0]),  # back onto the axis
            limits=make_limits(1),
        )
        J = body_jacobian(arm, [0.7])
        assert np.allclose(J[:3, 0], 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(J[3:, 0]), 1.0, atol=1e-12)

    def test_prismatic_aligned_with_tool(self):
        joints = (JointDef.prismatic([0, 0, 1]),)
        links = (
            Link(
                home_pose=Pose.identity(),
                inertia=LinkInertia(1.0, np.zeros(3), np.diag([0.01, 0.01, 0.01])),
            ),
        )
        arm = RobotModel(
            "slider", joints, links, Pose.identity(), Pose.identity(), make_limits(1)
        )
        J = body_jacobian(arm, [0.3])
        assert np.allclose(J[:, 0], [0, 0, 1, 0, 0, 0], atol=1e-14)


class TestJacobianPathDerivative:
    def path_for(self, arm):
        rng = np.random.default_rng(3)
        W = rng.normal(scale=0.6, size=(4, arm.dof))
        return JointPath(W, boundary="natural")

    def test_analytic_matches_finite_difference(self):
        arm = spatial_arm()
        path = self.path_for(arm)
        for s in (0.12, 0.5, 0.83):
            dJ_a = jacobian_path_derivative(arm, path, s)
            dJ_fd = _fd_jacobian_path_derivative(arm, path, s)
            assert np.max(np.abs(dJ_a - dJ_fd)) < 1e-5

    def test_one_dof_derivative_is_zero(self):
        joints = (JointDef.revolute([0, 1, 0], [0, 0, 0]),)
        links = (
            Link(
                home_pose=Pose(np.eye(3), [0.2, 0, 0]),
                inertia=LinkInertia(1.5, np.zeros(3), np.diag([0.01, 0.02, 0.02])),
            ),
        )
        arm = RobotModel(
            "one", joints, links, Pose(np.eye(3), [0.4, 0, 0]), Pose.identity(), make_limits(1)
        )
        path = JointPath(np.array([[0.0], [1.2]]), boundary="natural")
        dJ = jacobian_path_derivative(arm, path, 0.4)
        assert np.allclose(dJ, 0.0, atol=1e-14)

    def test_bracket_antisymmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.allclose(twist_bracket(a, b), -twist_bracket(b, a), atol=1e-12)


class TestObjectPathKinematics:
    def test_direction_rate_by_finite_difference(self):
        arm = spatial_arm()
        rng = np.random.default_rng(11)
        path = JointPath(rng.normal(scale=0.5, size=(5, 4)), boundary="clamped")
        offset = Pose(np.eye(3), [0.02, -0.01, 0.08])
        h = 1e-6
        for s in (0.3, 0.62):
            J_dir, J_rate = object_path_kinematics(arm, path, s, offset)
            Jp, _ = object_path_kinematics(arm, path, s + h, offset)
            Jm, _ = object_path_kinematics(arm, path, s - h, offset)
            assert np.max(np.abs((Jp - Jm) / (2 * h) - J_rate)) < 1e-4
            J = body_jacobian(arm, path.position(s), offset)
            assert np.allclose(J_dir, J @ path.derivative(s), atol=1e-12)


class TestJointPathRange:
    """A float s is checked on the float itself, an array entry by entry; both say the same."""

    path = JointPath(np.array([[0.0, 1.0], [1.0, 0.5], [0.2, 0.3]]))

    @pytest.mark.parametrize("bad", [float("nan"), np.float64("nan"), float("inf"), -1e-9, 1.0 + 1e-9])
    def test_float_and_array_reject_alike(self, bad):
        for f in (self.path.position, self.path.derivative, self.path.second_derivative):
            with pytest.raises(ValueError) as scalar:
                f(bad)
            with pytest.raises(ValueError) as array:
                f(np.array([0.5, bad, 0.7]))
            assert str(scalar.value) == str(array.value) == f"path parameter {bad} outside [0, 1]"

    @pytest.mark.parametrize("s", [0.0, -0.0, -1e-13, 0.37, 1.0, 1.0 + 1e-13])
    def test_float_path_keeps_the_bits(self, s):
        for f in (self.path.position, self.path.derivative, self.path.second_derivative):
            got, want = f(s), f(np.asarray(s))
            assert got.shape == want.shape == (2,) and got.tobytes() == want.tobytes()


@settings(max_examples=50)
@given(
    waypoints=st.integers(2, 7),
    dof=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_clamped_path_end_rates(waypoints, dof, seed):
    # both ends are breakpoints, evaluated at a zero offset into a piece
    # whose linear coefficient is the end condition itself
    path = JointPath(np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(waypoints, dof)), boundary="clamped")
    for s in (0.0, np.array([0.0]), 1.0, np.array([1.0])):
        assert not path.derivative(s).any()
