from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from contact_topp.contacts import ContactSpec, FrictionParams
from contact_topp.dynamics import (
    ObjectInstance,
    ObjectModel,
    ObjectPathTerms,
    PathDynamics,
    RobotInstance,
    Scene,
    inverse_dynamics,
    object_net_wrench_coefficients,
    sample_path_dynamics,
    stack_dynamics_in_s,
)
from contact_topp.liegroup import Pose, Twist, body_jacobian, forward_kinematics, pose_exp
from contact_topp.paths import JointPath
from contact_topp.robot import JointDef, Link, LinkInertia, RobotModel
from contact_topp.scenario import load_scenario
from contact_topp.transcription import build_grid

from conftest import make_limits, planar_arm, spatial_arm

GRAV = np.array([0.0, 0.0, -9.81])


# M(q), C(q, qd) qd and g(q) of the equation of motion, each one RNEA call
# (or one per column) with the other terms zeroed


def mass_matrix(model, q):
    n = model.dof
    return np.column_stack([inverse_dynamics(model, q, np.zeros(n), e, np.zeros(3)) for e in np.eye(n)])


def coriolis_vector(model, q, qd):
    return inverse_dynamics(model, q, qd, np.zeros(model.dof), np.zeros(3))


def gravity_vector(model, q, gravity):
    return inverse_dynamics(model, q, np.zeros(model.dof), np.zeros(model.dof), gravity)


def link_frame_pose(model, q, i):
    T = Pose.identity()
    for joint, qj in zip(model.joints[: i + 1], q[: i + 1]):
        T = T.compose(pose_exp(joint.twist, qj))
    return T.compose(model.links[i].home_pose)


def total_energy(model, q, qd, gravity):
    M = mass_matrix(model, q)
    kinetic = 0.5 * qd @ M @ qd
    potential = 0.0
    for i, link in enumerate(model.links):
        frame = link_frame_pose(model, q, i)
        com_world = frame.rotation @ link.inertia.com + frame.translation
        potential -= link.inertia.mass * (gravity @ com_world)
    return kinetic + potential


class TestInverseDynamics:
    def test_pendulum_gravity_closed_form(self):
        arm = planar_arm([0.8], [2.0])
        for q in (0.0, 0.4, -1.1):
            tau = gravity_vector(arm, [q], GRAV)
            # Rotation about +y swings the tip downward for positive q, so the
            # holding torque is negative at q = 0.
            assert np.isclose(tau[0], -2.0 * 9.81 * 0.4 * np.cos(q), atol=1e-10)

    def test_pendulum_inertia_closed_form(self):
        arm = planar_arm([0.8], [2.0])
        M = mass_matrix(arm, [0.3])
        expected = 2.0 * 0.8**2 / 12.0 + 2.0 * 0.4**2  # rod about its end
        assert np.isclose(M[0, 0], expected, atol=1e-12)

    def test_mass_matrix_symmetric_positive_definite(self):
        arm = spatial_arm()
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = rng.normal(scale=0.8, size=4)
            M = mass_matrix(arm, q)
            assert np.allclose(M, M.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(M)) > 0.0

    def test_decomposition_reassembles_rnea(self):
        arm = spatial_arm()
        rng = np.random.default_rng(7)
        for _ in range(5):
            q, qd, qdd = rng.normal(scale=0.7, size=(3, 4))
            tau = inverse_dynamics(arm, q, qd, qdd, GRAV)
            rebuilt = (
                mass_matrix(arm, q) @ qdd
                + coriolis_vector(arm, q, qd)
                + gravity_vector(arm, q, GRAV)
            )
            assert np.allclose(tau, rebuilt, atol=1e-9)

    def test_coriolis_scales_quadratically(self):
        arm = spatial_arm()
        rng = np.random.default_rng(9)
        q, qd = rng.normal(scale=0.6, size=(2, 4))
        c1 = coriolis_vector(arm, q, qd)
        c2 = coriolis_vector(arm, q, 2.0 * qd)
        assert np.allclose(c2, 4.0 * c1, atol=1e-10)

    def test_energy_conservation_free_swing(self):
        # Unforced swing under gravity conserves total energy.
        arm = planar_arm([0.6, 0.4], [1.5, 0.9])

        def rhs(_, y):
            q, qd = y[:2], y[2:]
            M = mass_matrix(arm, q)
            bias = coriolis_vector(arm, q, qd) + gravity_vector(arm, q, GRAV)
            return np.concatenate([qd, np.linalg.solve(M, -bias)])

        y0 = np.array([0.4, -0.2, 0.0, 0.0])
        sol = solve_ivp(rhs, (0.0, 1.2), y0, rtol=1e-10, atol=1e-12, dense_output=True)
        e0 = total_energy(arm, y0[:2], y0[2:], GRAV)
        for t in (0.3, 0.8, 1.2):
            y = sol.sol(t)
            assert np.isclose(total_energy(arm, y[:2], y[2:], GRAV), e0, atol=1e-6)

    def test_power_balance_with_actuation(self):
        arm = spatial_arm()
        tau_const = np.array([1.0, -2.0, 3.0, 0.5])

        def rhs(_, y):
            q, qd = y[:4], y[4:]
            M = mass_matrix(arm, q)
            bias = coriolis_vector(arm, q, qd) + gravity_vector(arm, q, GRAV)
            return np.concatenate([qd, np.linalg.solve(M, tau_const - bias)])

        y0 = np.concatenate([np.array([0.2, -0.3, 0.1, 0.6]), np.zeros(4)])
        sol = solve_ivp(rhs, (0.0, 0.8), y0, rtol=1e-10, atol=1e-12, dense_output=True)
        ts = np.linspace(0.0, 0.8, 400)
        qd_t = np.array([sol.sol(t)[4:] for t in ts])
        work = np.trapezoid(qd_t @ tau_const, ts)
        e0 = total_energy(arm, y0[:4], y0[4:], GRAV)
        e1 = total_energy(arm, sol.sol(0.8)[:4], sol.sol(0.8)[4:], GRAV)
        assert np.isclose(e1 - e0, work, atol=1e-5)


class TestGraspMap:
    def test_block_structure(self):
        pose = pose_exp(Twist(linear=[0.1, 0.2, -0.1], angular=[0.3, -0.2, 0.5]), 1.0)
        G = pose.wrench_map()
        R = pose.rotation
        assert np.allclose(G[:3, :3], R)
        assert np.allclose(G[3:, 3:], R)
        assert np.allclose(G[:3, 3:], 0.0)

    def test_round_trip_with_inverse(self):
        pose = pose_exp(Twist(linear=[0.1, 0.2, -0.1], angular=[0.3, -0.2, 0.5]), 0.7)
        G = pose.wrench_map()
        G_inv = pose.inverse().wrench_map()
        assert np.allclose(G @ G_inv, np.eye(6), atol=1e-12)

    def test_identity_pose(self):
        assert np.allclose(Pose.identity().wrench_map(), np.eye(6))

    def test_pure_force_moment_arm(self):
        pose = Pose(np.eye(3), [0.0, 0.2, 0.0])
        F = pose.wrench_map() @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        # force z at offset +y produces +x moment
        assert np.allclose(F, [0.0, 0.0, 1.0, 0.2, 0.0, 0.0], atol=1e-12)


def grasped_box_scene(mass=1.2, contacts=(), arm=None, waypoints=None, boundary="natural"):
    arm = arm if arm is not None else spatial_arm()
    rng = np.random.default_rng(21)
    W = waypoints if waypoints is not None else rng.normal(scale=0.5, size=(4, arm.dof))
    box = ObjectModel(
        name="box",
        mass=mass,
        inertia=np.diag([0.002, 0.003, 0.004]),
        contacts=tuple(contacts),
    )
    scene = Scene(
        robots=(RobotInstance(arm, JointPath(W, boundary=boundary)),),
        objects=(ObjectInstance(model=box, parent_robot=0),),
        gravity=GRAV,
    )
    return scene


class TestObjectCoefficients:
    def test_against_world_momentum_differentiation(self):
        # Independent oracle: differentiate world-frame linear and angular
        # momentum of the rigidly held object along s(t), map back to the body
        # frame, compare with A*sddot + B*sdot^2.
        scene = grasped_box_scene()
        arm = scene.robots[0].model
        path = scene.robots[0].path
        obj = scene.objects[0]
        _, offset = scene.grasp["box"]

        def s_of_t(t):
            return 0.45 + 0.25 * np.sin(t)

        def sdot_of_t(t):
            return 0.25 * np.cos(t)

        def sddot_of_t(t):
            return -0.25 * np.sin(t)

        def world_momenta(t):
            s = s_of_t(t)
            q = path.position(s)
            X = forward_kinematics(arm, q).compose(offset)
            J = body_jacobian(arm, q, offset)
            V = J @ path.derivative(s) * sdot_of_t(t)
            v, w = V[:3], V[3:]
            P = obj.model.mass * (X.rotation @ v)
            L = X.rotation @ (obj.model.inertia @ w)
            return X.rotation, P, L

        t0, h = 0.7, 1e-6
        s0 = s_of_t(t0)
        sample = sample_path_dynamics(scene, s0)
        A = sample.objects[0].accel_coeff
        B = sample.objects[0].velsq_coeff
        predicted = A * sddot_of_t(t0) + B * sdot_of_t(t0) ** 2

        R0, _, _ = world_momenta(t0)
        _, Pp, Lp = world_momenta(t0 + h)
        _, Pm, Lm = world_momenta(t0 - h)
        force_body = R0.T @ (Pp - Pm) / (2 * h)
        moment_body = R0.T @ (Lp - Lm) / (2 * h)
        assert np.max(np.abs(predicted[:3] - force_body)) < 1e-4
        assert np.max(np.abs(predicted[3:] - moment_body)) < 1e-4

    def test_pure_rotation_gyroscopic_term(self):
        obj = ObjectModel("gyro", 2.0, np.diag([0.01, 0.02, 0.04]))
        j_dir = np.array([0.0, 0.0, 0.0, 0.3, -0.2, 0.5])
        A, B = object_net_wrench_coefficients(obj, j_dir, np.zeros(6))
        w = j_dir[3:]
        assert np.allclose(A[3:], obj.inertia @ w)
        assert np.allclose(B[3:], np.cross(w, obj.inertia @ w))
        assert np.allclose(B[:3], 0.0)


def two_finger_contacts(fz_max=40.0):
    mk = lambda name, y, R: ContactSpec(
        name=name,
        kind="manipulator",
        model="sfce",
        pose=Pose(R, [0.0, y, 0.0]),
        params=FrictionParams(mu=0.6, ex=1.0, ey=1.0, ez=0.25),
        fz_max=fz_max,
        robot=0,
    )
    R_left = np.column_stack([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    R_right = np.column_stack([[0, 0, 1], [-1, 0, 0], [0, -1, 0]])
    return (mk("finger_l", -0.04, R_left), mk("finger_r", 0.04, R_right))


class TestPathDynamicsSampling:
    def test_rnea_substitution_identity(self):
        # tau(s) rebuilt from the path coefficients must equal a direct
        # inverse-dynamics call at matching joint state.
        scene = grasped_box_scene(contacts=two_finger_contacts())
        arm = scene.robots[0].model
        path = scene.robots[0].path
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = rng.uniform(0.05, 0.95)
            sdot = rng.uniform(0.0, 2.0)
            sddot = rng.normal(scale=3.0)
            sample = sample_path_dynamics(scene, s)
            lhs = (
                sample.torque_accel_coeff * sddot
                + sample.torque_velsq_coeff * sdot**2
                + sample.torque_gravity
            )
            q = path.position(s)
            qd = path.derivative(s) * sdot
            qdd = path.second_derivative(s) * sdot**2 + path.derivative(s) * sddot
            assert np.max(np.abs(lhs - inverse_dynamics(arm, q, qd, qdd, GRAV))) < 1e-9

    def test_contact_jacobian_consistency(self):
        # J at the contact frame equals the object-frame Jacobian pushed
        # through the rigid contact offset.
        scene = grasped_box_scene(contacts=two_finger_contacts())
        arm = scene.robots[0].model
        sample = sample_path_dynamics(scene, 0.37)
        q = scene.robots[0].path.position(0.37)
        _, offset = scene.grasp["box"]
        J_obj = body_jacobian(arm, q, offset)
        for c in scene.objects[0].model.contacts:
            Jc = sample.contact_jacobians[f"box/{c.name}"]
            assert np.allclose(Jc, c.pose.inverse().adjoint() @ J_obj, atol=1e-10)

    def test_torque_coupling_collapses_to_object_frame(self):
        # For contacts on one rigid body held by one chain, sum J_c^T F_c
        # equals J_obj^T sum G_c F_c: internal squeeze costs no torque.
        scene = grasped_box_scene(contacts=two_finger_contacts())
        sample = sample_path_dynamics(scene, 0.52)
        q = scene.robots[0].path.position(0.52)
        J_obj = body_jacobian(scene.robots[0].model, q, scene.grasp["box"][1])
        rng = np.random.default_rng(8)
        F = {cid: rng.normal(size=6) for cid in sample.contact_jacobians}
        torque = sum(sample.contact_jacobians[cid].T @ F[cid] for cid in F)
        wrench = sum(
            sign * G @ F[cid]
            for cid, sign, G in sample.objects[0].contact_terms
        )
        assert np.allclose(torque, J_obj.T @ wrench, atol=1e-10)

    def test_static_external_wrench_is_weight(self):
        scene = grasped_box_scene()
        sample = sample_path_dynamics(scene, 0.4)
        ext = sample.objects[0].external
        assert np.isclose(np.linalg.norm(ext[:3]), scene.objects[0].model.mass * 9.81, atol=1e-10)
        assert np.allclose(ext[3:], 0.0, atol=1e-12)

    def test_stack_returns_one_sample_per_point(self):
        scene = grasped_box_scene()
        samples = stack_dynamics_in_s(scene, [0.1, 0.5, 0.9])
        assert len(samples) == 3
        assert [pytest.approx(x) for x in samples.s] == [0.1, 0.5, 0.9]


class TestSceneValidation:
    def test_missing_parent_rejected(self):
        box = ObjectModel("box", 1.0, np.eye(3) * 0.01)
        with pytest.raises(ValueError):
            Scene(
                robots=(RobotInstance(spatial_arm(), JointPath(np.zeros((2, 4)))),),
                objects=(ObjectInstance(model=box, parent_robot=3),),
            )

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            ObjectModel("bad", 0.0, np.eye(3) * 0.01)

    def test_object_contact_needs_other_pose(self):
        box = ObjectModel(
            "box",
            1.0,
            np.eye(3) * 0.01,
            contacts=(
                ContactSpec(
                    name="c",
                    kind="object",
                    model="pcwf",
                    pose=Pose.identity(),
                    params=FrictionParams(mu=0.3),
                    against="box",
                ),
            ),
        )
        with pytest.raises(ValueError, match="pose_in_other"):
            Scene(
                robots=(RobotInstance(spatial_arm(), JointPath(np.zeros((2, 4)))),),
                objects=(ObjectInstance(model=box, parent_robot=0),),
            )

    @pytest.mark.parametrize(
        "parents,contact_robot,message",
        [
            ({"a": ("object", "b", True), "b": ("object", "a", True)}, 0, "attachment cycle in object parents"),
            ({"a": ("object", "ghost", True)}, 0, "object 'a' references missing parent object"),
            ({"a": ("robot", 0, True), "b": ("object", "a", False)}, 0, "object 'b' with object parent needs an explicit offset"),
            ({"a": ("robot", 1, True)}, 0, "object 'a' references missing robot"),
            ({"a": ("robot", 0, True)}, 1, "contact 'grip' references missing robot"),
        ],
    )
    def test_topology_errors(self, parents, contact_robot, message):
        objects = []
        for name, (kind, parent, has_offset) in parents.items():
            grip = ContactSpec("grip", "manipulator", "pcwf", Pose.identity(), FrictionParams(mu=0.5), robot=contact_robot)
            model = ObjectModel(name, 1.0, np.eye(3) * 0.01, contacts=(grip,))
            objects.append(
                ObjectInstance(
                    model=model,
                    parent_robot=parent if kind == "robot" else None,
                    parent_object=parent if kind == "object" else None,
                    offset=Pose(np.eye(3), [0.0, 0.0, 0.1]) if has_offset else None,
                )
            )
        with pytest.raises(ValueError) as err:
            Scene(robots=(RobotInstance(spatial_arm(), JointPath(np.zeros((2, 4)))),), objects=tuple(objects))
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# the grid-batched sampler against the scalar one, field by field

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = sorted(p.relative_to(SCENARIOS).as_posix() for p in SCENARIOS.rglob("*.json"))
BATCH_RTOL = 1e-12


def assert_close(got, want, what, atol=0.0):
    """max |got - want| within BATCH_RTOL of the field's largest entry, plus `atol`."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    scale = np.max(np.abs(want), initial=0.0)
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= BATCH_RTOL * scale + atol, f"{what}: error {err:.3e} against magnitude {scale:.3e}"


def assert_matches_scalar(scene, s_values):
    """Every field of the batched record within BATCH_RTOL of the scalar records, point by point."""
    batch = stack_dynamics_in_s(scene, s_values)
    ref = [sample_path_dynamics(scene, float(s)) for s in s_values]
    assert all(isinstance(r, PathDynamics) for r in ref)
    assert len(batch) == len(ref)
    # the velocity-product pass works on terms of size |M q'| |q'|; where its
    # sum vanishes (one joint on a straight path: q'' = 0 and no Coriolis
    # term) both samplers hold only rounding of that size
    accel = np.max(np.abs([r.torque_accel_coeff for r in ref]), initial=0.0)
    speed = np.max(np.abs([r.dq for r in ref]), initial=0.0)
    velsq_atol = 16 * np.finfo(float).eps * accel * speed
    for f in fields(PathDynamics):
        got, want = getattr(batch, f.name), [getattr(r, f.name) for r in ref]
        if f.name == "s":
            np.testing.assert_array_equal(got, want)
        elif f.name == "contact_jacobians":
            assert list(got) == list(want[0])
            for cid, J in got.items():
                assert_close(J, [w[cid] for w in want], f"jacobian {cid}")
        elif f.name == "objects":
            assert [o.name for o in got] == [o.name for o in want[0]]
            for i, obj in enumerate(got):
                assert_object_matches_scalar(obj, [w[i] for w in want])
        else:
            assert_close(got, want, f.name, velsq_atol if f.name == "torque_velsq_coeff" else 0.0)
    return batch


def assert_object_matches_scalar(obj, ref):
    for f in fields(ObjectPathTerms):
        got, want = getattr(obj, f.name), [getattr(r, f.name) for r in ref]
        if f.name == "name":
            assert want == [got] * len(ref)
        elif f.name == "contact_terms":
            assert [(cid, sign) for cid, sign, _ in got] == [(cid, sign) for cid, sign, _ in want[0]]
            for t, (cid, _, G) in enumerate(got):
                assert_close(G, [w[t][2] for w in want], f"{obj.name} map {cid}")
        else:
            assert_close(got, want, f"{obj.name} {f.name}")


def random_pose(rng):
    return Pose.from_quaternion(rng.normal(size=4), rng.uniform(-0.4, 0.4, size=3))


def random_chain(rng, kinds):
    joints, links = [], []
    for i, kind in enumerate(kinds):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        if kind == "revolute":
            twist = Twist.revolute(axis, rng.uniform(-0.5, 0.5, size=3))
        else:
            twist = Twist.prismatic(axis)
        joints.append(JointDef(kind, twist))
        L = rng.normal(size=(3, 3))
        links.append(
            Link(
                home_pose=random_pose(rng),
                inertia=LinkInertia(rng.uniform(0.2, 3.0), rng.uniform(-0.1, 0.1, size=3), 0.01 * (L @ L.T + np.eye(3))),
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


def contact(name, kind, pose, **extra):
    return ContactSpec(name=name, kind=kind, model="pcwf", pose=pose, params=FrictionParams(mu=0.5), **extra)


def slider_box_scene(hint):
    """A prismatic slider carrying a box that never turns, with one world-normal contact."""
    slider = RobotModel(
        name="slider",
        joints=(JointDef("prismatic", Twist.prismatic([1.0, 0.0, 0.0])),),
        links=(Link(Pose.identity(), LinkInertia(1.0, np.zeros(3), np.eye(3) * 1e-3)),),
        x_ref=Pose.identity(),
        tool_offset=Pose.identity(),
        limits=make_limits(1),
    )
    z = np.cross(hint, [0.3, 0.5, 0.7])
    R = np.column_stack([hint, np.cross(z / np.linalg.norm(z), hint), z / np.linalg.norm(z)])
    edge = contact("edge", "environment", Pose(R, [0.0, 0.0, -0.05]), frame_mode="world_normal")
    box = ObjectModel("box", 1.0, np.eye(3) * 0.01, contacts=(edge,))
    return Scene(
        robots=(RobotInstance(slider, JointPath([[0.0], [0.3], [0.5]])),),
        objects=(ObjectInstance(model=box, parent_robot=0),),
    )


class TestBatchedSampler:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenarios_match_scalar(self, name):
        sc = load_scenario(SCENARIOS / name)
        assert_matches_scalar(sc.scene, build_grid(sc.grid_points).midpoints)

    @pytest.mark.parametrize("name", ["pivoting.json", "pickup.json"])
    def test_fine_grid_matches_scalar(self, name):
        sc = load_scenario(SCENARIOS / name)
        assert_matches_scalar(sc.scene, build_grid(500).midpoints)

    @settings(max_examples=40)
    @given(
        kinds=st.lists(st.sampled_from(["revolute", "prismatic"]), min_size=1, max_size=7),
        boundary=st.sampled_from(["clamped", "natural"]),
        waypoints=st.integers(2, 4),
        points=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_chains_match_scalar(self, kinds, boundary, waypoints, points, seed):
        # a random serial chain holding a box through a body-fixed finger,
        # with a world-normal environment contact on the box
        rng = np.random.default_rng(seed)
        arm = random_chain(rng, kinds)
        finger = contact("finger", "manipulator", random_pose(rng), robot=0)
        ground = contact("ground", "environment", random_pose(rng), frame_mode="world_normal")
        box = ObjectModel("box", rng.uniform(0.1, 2.0), np.diag(rng.uniform(0.001, 0.01, size=3)), contacts=(finger, ground))
        scene = Scene(
            robots=(RobotInstance(arm, JointPath(rng.normal(scale=0.8, size=(waypoints, len(kinds))), boundary)),),
            objects=(ObjectInstance(model=box, parent_robot=0, offset=random_pose(rng), external_wrench=rng.normal(size=6)),),
            gravity=rng.normal(scale=5.0, size=3),
        )
        s = np.sort(rng.uniform(0.0, 1.0, size=points))
        assert_matches_scalar(scene, np.concatenate([[0.0], s, [1.0]]))

    def test_world_normal_contact_frames(self):
        sc = load_scenario(SCENARIOS / "pivoting.json")
        batch = assert_matches_scalar(sc.scene, build_grid(40).midpoints)
        terms = {cid: G for cid, _, G in batch.objects[0].contact_terms}
        # a world-normal frame turns with the box, a body-fixed one does not
        assert np.ptp(terms["box/edge_front"], axis=0).max() > 1e-3
        assert np.ptp(terms["box/pad_left"], axis=0).max() == 0.0

    def test_object_on_object_on_robot(self):
        # a cup rides a plate that rides a tray the arm holds: the grasp
        # offset of each is the nested composition, and each object contact
        # enters the body under it as a reaction
        rng = np.random.default_rng(17)
        arm = random_chain(rng, ["revolute", "prismatic", "revolute", "revolute"])
        offsets = [random_pose(rng) for _ in range(3)]
        grip = contact("grip", "manipulator", random_pose(rng), robot=0)
        on_tray = contact("foot", "object", random_pose(rng), against="tray", pose_in_other=random_pose(rng))
        on_plate = contact("foot", "object", random_pose(rng), against="plate", pose_in_other=random_pose(rng))
        wall = contact("wall", "environment", random_pose(rng), frame_mode="world_normal")
        models = [
            ObjectModel(name, rng.uniform(0.1, 2.0), np.diag(rng.uniform(0.001, 0.01, size=3)), contacts=cs)
            for name, cs in (("tray", (grip,)), ("plate", (on_tray,)), ("cup", (on_plate, wall)))
        ]
        scene = Scene(
            robots=(RobotInstance(arm, JointPath(rng.normal(scale=0.8, size=(4, 4)))),),
            # listed top down, so a parent may come after the object on it
            objects=(
                ObjectInstance(model=models[2], parent_object="plate", offset=offsets[2]),
                ObjectInstance(model=models[1], parent_object="tray", offset=offsets[1]),
                ObjectInstance(model=models[0], parent_robot=0, offset=offsets[0]),
            ),
            gravity=rng.normal(scale=5.0, size=3),
        )
        nested = {
            "tray": offsets[0],
            "plate": offsets[0].compose(offsets[1]),
            "cup": offsets[0].compose(offsets[1]).compose(offsets[2]),
        }
        assert list(scene.grasp) == ["cup", "plate", "tray"]
        for name, want in nested.items():
            robot, got = scene.grasp[name]
            assert robot == 0
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()
        assert [(c.cid, c.owner) for c in scene.contacts] == [
            ("cup/foot", "cup"), ("cup/wall", "cup"), ("plate/foot", "plate"), ("tray/grip", "tray")
        ]
        batch = assert_matches_scalar(scene, np.concatenate([[0.0], build_grid(12).midpoints, [1.0]]))
        reactions = {o.name: [(cid, sign) for cid, sign, _ in o.contact_terms if sign < 0] for o in batch.objects}
        assert reactions == {"cup": [], "plate": [("cup/foot", -1.0)], "tray": [("plate/foot", -1.0)]}

    def test_object_stack_reaction_terms(self):
        sc = load_scenario(SCENARIOS / "waiter" / "tilt_10.json")
        batch = assert_matches_scalar(sc.scene, build_grid(20).midpoints)
        tray = {o.name: o for o in batch.objects}["tray"]
        reactions = [(cid, sign) for cid, sign, _ in tray.contact_terms if sign < 0]
        assert reactions == [(f"cube/foot_{i}", -1.0) for i in range(3)]

    def test_two_robot_scene(self):
        # robot 0 grasps the box; robot 1 presses on it through its own tool
        arm, planar = spatial_arm(), planar_arm([0.5, 0.4], [1.0, 0.7], tool=Pose(np.eye(3), [0.0, 0.0, 0.05]))
        rng = np.random.default_rng(5)
        press = contact("press", "manipulator", Pose(np.eye(3), [0.0, 0.02, 0.0]), robot=1)
        grip = contact("grip", "manipulator", Pose.identity(), robot=0)
        box = ObjectModel("box", 0.8, np.diag([0.002, 0.003, 0.004]), contacts=(grip, press))
        scene = Scene(
            robots=(
                RobotInstance(arm, JointPath(rng.normal(scale=0.5, size=(3, 4)))),
                RobotInstance(planar, JointPath(rng.normal(scale=0.5, size=(4, 2)), boundary="natural")),
            ),
            objects=(ObjectInstance(model=box, parent_robot=0),),
            gravity=GRAV,
        )
        batch = assert_matches_scalar(scene, build_grid(30).midpoints)
        J = batch.contact_jacobians["box/press"]
        assert np.all(J[:, :, :4] == 0.0) and np.abs(J[:, :, 4:]).max() > 0.1

    @pytest.mark.parametrize("sampler", ["scalar", "batched"])
    def test_object_follows_grasping_robot(self, sampler):
        # the spatial arm grips the box and the planar arm presses on it; the
        # box's balance terms must not depend on which robot is listed first
        arm, planar = spatial_arm(), planar_arm([0.5, 0.4], [1.0, 0.7], tool=Pose(np.eye(3), [0.0, 0.0, 0.05]))
        rng = np.random.default_rng(5)
        arm_path = JointPath(rng.normal(scale=0.5, size=(3, 4)))
        planar_path = JointPath(rng.normal(scale=0.5, size=(4, 2)), boundary="natural")
        s = build_grid(30).midpoints

        def sample(arm_at):
            planar_at = 1 - arm_at
            grip = contact("grip", "manipulator", Pose.identity(), robot=arm_at)
            press = contact("press", "manipulator", Pose(np.eye(3), [0.0, 0.02, 0.0]), robot=planar_at)
            box = ObjectModel("box", 0.8, np.diag([0.002, 0.003, 0.004]), contacts=(grip, press))
            robots = [None, None]
            robots[arm_at], robots[planar_at] = RobotInstance(arm, arm_path), RobotInstance(planar, planar_path)
            scene = Scene(robots=tuple(robots), objects=(ObjectInstance(model=box, parent_robot=arm_at),), gravity=GRAV)
            if sampler == "batched":
                batch = stack_dynamics_in_s(scene, s)
                return {f: getattr(batch.objects[0], f) for f in balance_fields}, batch.contact_jacobians
            ref = [sample_path_dynamics(scene, float(si)) for si in s]
            box_terms = {f: np.array([getattr(r.objects[0], f) for r in ref]) for f in balance_fields}
            return box_terms, {cid: np.array([r.contact_jacobians[cid] for r in ref]) for cid in ref[0].contact_jacobians}

        balance_fields = ("accel_coeff", "velsq_coeff", "external")
        (box_first, jac_first), (box_second, jac_second) = sample(0), sample(1)
        for name in balance_fields:
            assert_close(box_second[name], box_first[name], f"box {name}")
        # joint columns: spatial arm then planar arm in the first scene, the
        # other way round in the second
        order = np.r_[2:6, 0:2]
        for cid in ("box/grip", "box/press"):
            assert_close(jac_second[cid][:, :, order], jac_first[cid], f"jacobian {cid}")

    def test_parallel_tangent_hint_error_matches(self):
        scene = slider_box_scene(hint=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError) as scalar:
            sample_path_dynamics(scene, 0.3)
        with pytest.raises(ValueError) as batched:
            stack_dynamics_in_s(scene, [0.1, 0.3])
        assert str(batched.value) == str(scalar.value) == "contact tangent hint parallel to the world normal"
        assert_matches_scalar(slider_box_scene(hint=np.array([1.0, 0.0, 0.0])), [0.1, 0.3])

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_out_of_range_s_error_matches(self, bad):
        scene = grasped_box_scene(contacts=two_finger_contacts())
        with pytest.raises(ValueError) as scalar:
            sample_path_dynamics(scene, bad)
        with pytest.raises(ValueError) as batched:
            stack_dynamics_in_s(scene, [0.5, bad, 0.7])
        assert str(batched.value) == str(scalar.value) == f"path parameter {bad} outside [0, 1]"
