"""Rigid-body dynamics: recursive Newton-Euler, the scene's contact table, path-domain sampling.

The torque-side identity used throughout: along a geometric path q(s) with
speed sdot = ds/dt,

    tau = accel_coeff(s) * sddot + velsq_coeff(s) * sdot^2 + gravity_term(s)
          - sum_contacts J_c(s)^T F_c

and each rigidly-held body satisfies, in its own frame,

    sum_contacts sign * G_c F_c + f_ext = A(s) * sddot + B(s) * sdot^2.

Two samplers return these coefficients in one record, `PathDynamics`:
`stack_dynamics_in_s` at K values of s for the transcription, and
`sample_path_dynamics` at one s, the scalar oracle of the verification
module, which builds each chain once: per robot, the checked joint-to-link
adjoints (`_down_adjoints`) feed the acceleration, velocity-squared and
gravity Newton-Euler passes, and one space chain (`liegroup._space_chain`)
per carrier robot feeds the object's pose, direction and rate and every
contact Jacobian.  The acceleration (qd, qdd) = (0, q') and gravity (0, 0)
passes run at rest, where `_newton_euler` leaves out the velocity products,
exact zeros that change no bit of the torques.

The contact topology is resolved once, when a `Scene` is built:
`Scene.grasp` gives each object the robot that carries it and its constant
pose in that robot's end-effector frame, `Scene.contacts` gives each
contact its "<object>/<contact>" id, its owner and its friction cone,
`Scene.carriers` names the robots whose end-effector chain a sample needs
and `Scene.ee_offsets` the end-effector frame of each manipulator contact.
Both samplers, the transcription, the trajectory output and the audit read
that table; the scalar and the batched numerics stay two implementations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contacts import ConeDescriptor, ContactSpec
from .liegroup import (
    Pose,
    _adjoint,
    _checked,
    _compose,
    _cross3,
    _direction_terms,
    _exp_rp,
    _reporting_frame,
    _space_chain,
    adjoint_many,
    body_jacobian_many,
    compose_many,
    pose_exp_many,
    skew_many,
    space_jacobian_many,
    twist_bracket_many,
    wrench_map_many,
)
from .paths import JointPath
from .robot import RobotModel, build_chain_data


def _ad(V: np.ndarray) -> np.ndarray:
    """Commutator matrix [[S(w), S(v)], [0, S(w)]] of a twist V = (v, w): ad(V) W = [V, W]."""
    v0, v1, v2, w0, w1, w2 = V.tolist()
    return np.array(
        [
            [0.0, -w2, w1, 0.0, -v2, v1],
            [w2, 0.0, -w0, v2, 0.0, -v0],
            [-w1, w0, 0.0, -v1, v0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -w2, w1],
            [0.0, 0.0, 0.0, w2, 0.0, -w0],
            [0.0, 0.0, 0.0, -w1, w0, 0.0],
        ]
    )


def inverse_dynamics(model: RobotModel, q, qd, qdd, gravity) -> np.ndarray:
    """Joint torques for a free chain (no tip wrench) via Newton-Euler recursion."""
    q = np.asarray(q, dtype=float).reshape(-1)
    qd = np.asarray(qd, dtype=float).reshape(-1)
    qdd = np.asarray(qdd, dtype=float).reshape(-1)
    if not (q.shape[0] == qd.shape[0] == qdd.shape[0] == model.dof):
        raise ValueError("q, qd, qdd must all have length dof")
    return _newton_euler(model.chain_data, _down_adjoints(model, q), qd, qdd, gravity)


def _down_adjoints(model: RobotModel, q) -> list[np.ndarray]:
    """Per joint, the checked adjoint taking twists from the parent link into the link frame at q."""
    ads = []
    for (_, B, _), screw, qi in zip(model.chain_data, model.link_screws, q):
        R, p = _checked(*_exp_rp(screw, -qi))
        ads.append(_adjoint(*_checked(*_compose(R, p, B.rotation, B.translation))))
    return ads


def _newton_euler(chain, ads_down, qd, qdd, gravity) -> np.ndarray:
    """Velocity, acceleration and force recursion of `inverse_dynamics` on given down adjoints.

    With no nonzero joint rate every link twist V stays exactly zero, and so
    do the velocity products (ad(V) A) qd_i and ad(V)^T G V.  Neither can
    change a bit of the sum it enters: the first is added to a
    matrix-vector product, which numpy and BLAS sum from +0 and so never
    give -0, and the second is such a product, a +0 that is subtracted.
    The recursion then leaves both out.
    """
    n = len(chain)
    g = np.asarray(gravity, dtype=float).reshape(3)
    moving = bool(qd.any())
    V = np.zeros(6)
    Vd = np.concatenate([-g, np.zeros(3)])
    vel = []
    acc = []
    for (A, _, _), Ad, qdi, qddi in zip(chain, ads_down, qd, qdd):
        if moving:
            V = Ad @ V + A * qdi
            Vd = Ad @ Vd + (_ad(V) @ A) * qdi + A * qddi
        else:
            Vd = Ad @ Vd + A * qddi
        vel.append(V)
        acc.append(Vd)

    tau = np.zeros(n)
    F = np.zeros(6)
    for i in range(n - 1, -1, -1):
        A, _, G = chain[i]
        if i + 1 < n:
            F = ads_down[i + 1].T @ F
        else:
            F = np.zeros(6)
        F = F + G @ acc[i]
        if moving:
            F = F - _ad(vel[i]).T @ (G @ vel[i])
        tau[i] = A @ F
    return tau


@dataclass(frozen=True)
class ObjectModel:
    """Rigid body manipulated through contacts; frame at the center of mass."""

    name: str
    mass: float
    inertia: np.ndarray  # 3x3 rotational inertia about the com
    contacts: tuple[ContactSpec, ...] = ()

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"object mass must be positive and finite, got {self.mass}")
        I = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if not np.isfinite(I).all():
            raise ValueError("object inertia must be finite")
        if np.linalg.norm(I - I.T) > 1e-9:
            raise ValueError("object inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(I) < -1e-12):
            raise ValueError("object inertia must be positive semidefinite")
        object.__setattr__(self, "inertia", I)
        names = [c.name for c in self.contacts]
        if len(set(names)) != len(names):
            raise ValueError("contact names must be unique per object")

    def spatial_mass(self) -> np.ndarray:
        M = np.zeros((6, 6))
        M[:3, :3] = self.mass * np.eye(3)
        M[3:, 3:] = self.inertia
        return M


def object_net_wrench_coefficients(
    obj: ObjectModel, j_dir: np.ndarray, j_dir_rate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (A, B) of the body net wrench M_O Vdot + velocity products.

    The net wrench on the body is A * sddot + B * sdot^2 with the quadratic
    term carrying both the direction rate and the gyroscopic cross products.
    """
    M = obj.spatial_mass()
    v, w = j_dir[:3], j_dir[3:]
    gyro = np.concatenate([_cross3(w, obj.mass * v), _cross3(w, obj.inertia @ w)])
    return M @ j_dir, M @ j_dir_rate + gyro


@dataclass(frozen=True)
class RobotInstance:
    model: RobotModel
    path: JointPath

    def __post_init__(self):
        if self.path.dof != self.model.dof:
            raise ValueError("path and robot dof mismatch")


@dataclass(frozen=True)
class ObjectInstance:
    """An object placed in the scene, rigidly attached through the grasp chain.

    `parent_robot`/`parent_object` name the body this object rides on;
    `offset` is the pose of the object frame in the parent frame (None for a
    robot parent means the robot's tool offset).
    """

    model: ObjectModel
    parent_robot: int | None = None
    parent_object: str | None = None
    offset: Pose | None = None
    external_wrench: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        object.__setattr__(
            self, "external_wrench", np.asarray(self.external_wrench, dtype=float).reshape(6)
        )
        if not np.isfinite(self.external_wrench).all():
            raise ValueError(f"external_wrench must be finite, got {self.external_wrench}")
        if (self.parent_robot is None) == (self.parent_object is None):
            raise ValueError("object needs exactly one parent (robot or object)")


@dataclass(frozen=True)
class SceneContact:
    """One contact of a scene: its id, the object that owns it, its spec and friction cone."""

    cid: str  # "<object>/<contact>", the key of its wrench in programs and trajectories
    owner: str  # name of the object the contact belongs to
    spec: ContactSpec
    cone: ConeDescriptor


@dataclass(frozen=True)
class Scene:
    """Everything the transcription needs: robots, objects, gravity.

    Construction checks the contact topology and resolves it once, into four
    derived fields:

      grasp       object name -> (index of the robot that carries the object,
                  through any chain of object parents; constant pose of the
                  object frame in that robot's end-effector frame)
      contacts    every contact of every object, in file order
      carriers    the robots whose end-effector chain a sample needs, each
                  object's carrier and each manipulator contact's robot
      ee_offsets  manipulator contact id -> the frame its pose is given in,
                  in its robot's end-effector frame: the owner's grasp offset
                  when that robot carries the owner, else its tool offset
    """

    robots: tuple[RobotInstance, ...]
    objects: tuple[ObjectInstance, ...] = ()
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    grasp: dict[str, tuple[int, Pose]] = field(init=False, compare=False)
    contacts: tuple[SceneContact, ...] = field(init=False, compare=False)
    carriers: tuple[int, ...] = field(init=False, compare=False)
    ee_offsets: dict[str, Pose] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float).reshape(3))
        if not np.isfinite(self.gravity).all():
            raise ValueError(f"gravity must be finite, got {self.gravity}")
        if not self.robots:
            raise ValueError("scene needs at least one robot")
        by_name = {}
        for obj in self.objects:
            if obj.model.name in by_name:
                raise ValueError(f"duplicate object name {obj.model.name!r}")
            by_name[obj.model.name] = obj
        for obj in self.objects:
            if obj.parent_robot is not None and not (0 <= obj.parent_robot < len(self.robots)):
                raise ValueError(f"object {obj.model.name!r} references missing robot")
            if obj.parent_object is not None and obj.parent_object not in by_name:
                raise ValueError(f"object {obj.model.name!r} references missing parent object")

        grasp = {}
        for obj in self.objects:
            chain = [obj]
            while chain[-1].parent_robot is None:
                if chain[-1].offset is None:
                    raise ValueError(f"object {chain[-1].model.name!r} with object parent needs an explicit offset")
                if len(chain) > len(self.objects):
                    raise ValueError("attachment cycle in object parents")
                chain.append(by_name[chain[-1].parent_object])
            root = chain.pop()
            offset = root.offset if root.offset is not None else self.robots[root.parent_robot].model.tool_offset
            for rider in reversed(chain):
                offset = offset.compose(rider.offset)
            grasp[obj.model.name] = (root.parent_robot, offset)

        contacts, ee_offsets = [], {}
        carriers = {robot for robot, _ in grasp.values()}
        for obj in self.objects:
            for c in obj.model.contacts:
                cid = f"{obj.model.name}/{c.name}"
                if c.kind == "manipulator":
                    if not (0 <= c.robot < len(self.robots)):
                        raise ValueError(f"contact {c.name!r} references missing robot")
                    carrier, offset = grasp[obj.model.name]
                    carriers.add(c.robot)
                    ee_offsets[cid] = offset if c.robot == carrier else self.robots[c.robot].model.tool_offset
                if c.kind == "object":
                    if c.against not in by_name:
                        raise ValueError(f"contact {c.name!r} references missing object {c.against!r}")
                    if c.pose_in_other is None:
                        raise ValueError(f"object contact {c.name!r} needs pose_in_other")
                contacts.append(SceneContact(cid, obj.model.name, c, c.descriptor()))
        object.__setattr__(self, "grasp", grasp)
        object.__setattr__(self, "contacts", tuple(contacts))
        object.__setattr__(self, "carriers", tuple(sorted(carriers)))
        object.__setattr__(self, "ee_offsets", ee_offsets)

    @property
    def dof(self) -> int:
        return sum(r.model.dof for r in self.robots)

    def limit_arrays(self) -> tuple:
        """(torque_lower, torque_upper, velocity_max, accel_lower, accel_upper),
        each stacked over the robots in scene joint order."""
        limits = [r.model.limits for r in self.robots]
        names = ("torque_lower", "torque_upper", "velocity_max", "accel_lower", "accel_upper")
        return tuple(np.concatenate([getattr(lim, name) for lim in limits]) for name in names)

    def robot_slices(self) -> list[slice]:
        out = []
        at = 0
        for r in self.robots:
            out.append(slice(at, at + r.model.dof))
            at += r.model.dof
        return out


@dataclass(frozen=True, eq=False)
class ObjectPathTerms:
    """One object's balance-row data at one path point, or at K points on a leading axis."""

    name: str
    accel_coeff: np.ndarray  # 6 or (K, 6), multiplies sddot
    velsq_coeff: np.ndarray  # 6 or (K, 6), multiplies sdot^2
    external: np.ndarray  # 6 or (K, 6), in the object frame
    contact_terms: tuple[tuple[str, float, np.ndarray], ...]  # (contact id, sign, 6x6 or (K, 6, 6) map)


@dataclass(frozen=True, eq=False)
class PathDynamics:
    """All path-dependent dynamics data at one value of s, or at K values stacked on axis 0.

    `sample_path_dynamics` returns the one-point form: s a float, (n,)
    joint and torque terms, a (6, n) body Jacobian at the contact frame per
    manipulator contact id and one `ObjectPathTerms` per object.
    `stack_dynamics_in_s` returns the same fields with a leading K axis,
    where constant contact maps may be read-only broadcast views, and
    `len()` counts its points.
    """

    s: float | np.ndarray
    q: np.ndarray
    dq: np.ndarray
    ddq: np.ndarray
    torque_accel_coeff: np.ndarray  # multiplies sddot
    torque_velsq_coeff: np.ndarray  # multiplies sdot^2
    torque_gravity: np.ndarray
    contact_jacobians: dict
    objects: tuple[ObjectPathTerms, ...]

    def __len__(self) -> int:
        return self.s.shape[0]


def _world_normal_rotation(R_obj: np.ndarray, world_axis: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Contact orientation in the object frame with z pinned to a world axis."""
    z = R_obj.T @ (world_axis / np.linalg.norm(world_axis))
    x = hint - (hint @ z) * z
    nx = np.linalg.norm(x)
    if nx < 1e-9:
        raise ValueError("contact tangent hint parallel to the world normal")
    x = x / nx
    return np.column_stack([x, _cross3(z, x), z])


def contact_pose_at(contact: ContactSpec, R_obj_world: np.ndarray) -> Pose:
    """Pose of a contact frame in its owning object's frame, the object turned by R_obj_world."""
    if contact.frame_mode == "body_fixed":
        return contact.pose
    R = _world_normal_rotation(R_obj_world, contact.world_axis, contact.pose.rotation[:, 0])
    return Pose(R, contact.pose.translation)


def sample_path_dynamics(scene: Scene, s: float) -> PathDynamics:
    """Evaluate every path-dependent coefficient of the dynamics at one s."""
    n = scene.dof
    slices = scene.robot_slices()
    q = np.zeros(n)
    dq = np.zeros(n)
    ddq = np.zeros(n)
    acc = np.zeros(n)
    velsq = np.zeros(n)
    grav = np.zeros(n)
    rates = []
    for r, sl in zip(scene.robots, slices):
        qi = r.path.position(s)
        dqi = r.path.derivative(s)
        ddqi = r.path.second_derivative(s)
        q[sl], dq[sl], ddq[sl] = qi, dqi, ddqi
        rates.append((dqi, ddqi))
        zeros = np.zeros(r.model.dof)
        chain = r.model.chain_data
        ads = _down_adjoints(r.model, qi)
        acc[sl] = _newton_euler(chain, ads, zeros, dqi, np.zeros(3))
        velsq[sl] = _newton_euler(chain, ads, dqi, ddqi, np.zeros(3))
        grav[sl] = _newton_euler(chain, ads, zeros, zeros, scene.gravity)

    space = {i: _space_chain(scene.robots[i].model, q[slices[i]]) for i in scene.carriers}

    frames, balance = {}, {}
    for obj in scene.objects:
        name = obj.model.name
        grasp, offset = scene.grasp[name]
        R_ee, p_ee, cols = space[grasp]
        J_dir, J_rate = _direction_terms(_reporting_frame(R_ee, p_ee, cols, offset), *rates[grasp])
        # the object pose, checked as the reporting frame of the Jacobian above
        frames[name], _ = _compose(R_ee, p_ee, offset.rotation, offset.translation)
        A, B = object_net_wrench_coefficients(obj.model, J_dir, J_rate)
        weight = np.concatenate([frames[name].T @ (obj.model.mass * scene.gravity), np.zeros(3)])
        balance[name] = (A, B, weight + obj.external_wrench)

    # an object contact also enters, negated, the body it presses against,
    # through that body's own frame
    contact_terms = {name: [] for name in balance}
    reactions = {name: [] for name in balance}
    contact_jacs: dict[str, np.ndarray] = {}
    for sc in scene.contacts:
        c = sc.spec
        pose_c = contact_pose_at(c, frames[sc.owner])
        contact_terms[sc.owner].append((sc.cid, 1.0, pose_c.wrench_map()))
        if c.kind == "object":
            reactions[c.against].append((sc.cid, -1.0, c.pose_in_other.wrench_map()))
        if c.kind == "manipulator":
            full = np.zeros((6, n))
            full[:, slices[c.robot]] = _reporting_frame(*space[c.robot], scene.ee_offsets[sc.cid].compose(pose_c))
            contact_jacs[sc.cid] = full

    return PathDynamics(
        s=s,
        q=q,
        dq=dq,
        ddq=ddq,
        torque_accel_coeff=acc,
        torque_velsq_coeff=velsq,
        torque_gravity=grav,
        contact_jacobians=contact_jacs,
        objects=tuple(
            ObjectPathTerms(name, A, B, external, tuple(contact_terms[name] + reactions[name]))
            for name, (A, B, external) in balance.items()
        ),
    )


# ---------------------------------------------------------------------------
# grid-batched sampling: every coefficient of `sample_path_dynamics` at K
# path points at once.  The scalar functions above stay the independent
# oracle that the verification module uses.


def _ad_many(V: np.ndarray) -> np.ndarray:
    """(..., 6, 6) commutator matrices of (..., 6) twists, as `_ad`."""
    Sv, Sw = skew_many(V[..., :3]), skew_many(V[..., 3:])
    out = np.zeros(V.shape + (6,))
    out[..., :3, :3] = Sw
    out[..., :3, 3:] = Sv
    out[..., 3:, 3:] = Sw
    return out


def _apply(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products M @ V over the leading axes."""
    return (M @ V[..., None])[..., 0]


def _path_torque_terms(model: RobotModel, q, dq, ddq, gravity) -> np.ndarray:
    """(accel, velsq, gravity) torque coefficients at K path points, (3, K, dof).

    The three inverse-dynamics passes of `sample_path_dynamics`, with
    (qd, qdd, gravity) = (0, q', 0), (q', q'', 0) and (0, 0, g), run as one
    Newton-Euler recursion over a (3, K, 6) batch; the K joint adjoints of
    each link are shared by the three passes.
    """
    K, n = q.shape
    zeros = np.zeros((K, n))
    qd = np.stack([zeros, dq, zeros])[..., None]  # (3, K, n, 1)
    qdd = np.stack([dq, ddq, zeros])[..., None]
    # built per call, not read from `RobotModel.chain_data`: one build per
    # robot per solve costs nothing, and every solve still checks its link
    # poses (the benchmark's layer trace counts on a solve building a `Pose`)
    chain = build_chain_data(model)
    V = np.zeros((3, K, 6))
    Vd = np.zeros((3, K, 6))
    Vd[2, :, :3] = -np.asarray(gravity, dtype=float)
    vel, acc, ads_down = [], [], []
    for i, (A, B, _) in enumerate(chain):
        R, p = compose_many(*pose_exp_many(A, -q[:, i]), B.rotation, B.translation)
        Ad = adjoint_many(R, p)
        V = _apply(Ad, V) + A * qd[:, :, i]
        Vd = _apply(Ad, Vd) + _apply(_ad_many(V), A) * qd[:, :, i] + A * qdd[:, :, i]
        vel.append(V)
        acc.append(Vd)
        ads_down.append(Ad)

    tau = np.zeros((3, K, n))
    F = np.zeros((3, K, 6))
    for i in range(n - 1, -1, -1):
        A, _, G = chain[i]
        if i + 1 < n:
            F = _apply(np.swapaxes(ads_down[i + 1], -1, -2), F)
        F = F + _apply(G, acc[i]) - _apply(np.swapaxes(_ad_many(vel[i]), -1, -2), _apply(G, vel[i]))
        tau[:, :, i] = F @ A
    return tau


def _world_normal_rotation_many(R_obj: np.ndarray, world_axis: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """`_world_normal_rotation` at K object orientations, (K, 3, 3)."""
    z = np.swapaxes(R_obj, -1, -2) @ (world_axis / np.linalg.norm(world_axis))
    x = hint - (z @ hint)[:, None] * z
    nx = np.linalg.norm(x, axis=1)
    if np.any(nx < 1e-9):
        raise ValueError("contact tangent hint parallel to the world normal")
    x = x / nx[:, None]
    return np.stack([x, np.cross(z, x), z], axis=-1)


def _direction_terms_many(dq, ddq, fk, offset: Pose):
    """Direction and direction-rate of an object frame at K points (`object_path_kinematics`).

    `dq`, `ddq` and `fk` (the output of `space_jacobian_many`) are the
    grasping chain's at the K points.
    """
    J = body_jacobian_many(*fk, offset.rotation, offset.translation)
    # column brackets D[k, j, i] = [J_i, J_j] for j >= i, zero below
    Jc = np.swapaxes(J, 1, 2)  # (K, n, 6)
    D = twist_bracket_many(Jc[:, None, :, :], Jc[:, :, None, :])
    n = J.shape[2]
    D = D * (np.arange(n)[:, None] >= np.arange(n))[None, :, :, None]
    dJ = np.einsum("kjic,kj->kci", D, dq)
    return _apply(J, dq), _apply(dJ, dq) + _apply(J, ddq)


def stack_dynamics_in_s(scene: Scene, s_values) -> PathDynamics:
    """Sample the path-domain dynamics at every s at once (typically interval midpoints).

    Matches `sample_path_dynamics` at each s, computed as arrays over all
    points: one spline call per robot path, one batched Newton-Euler
    recursion per robot, and one batched forward-kinematics and Jacobian
    pass per robot that carries an object or holds a contact, shared by
    every object and contact that needs it.
    """
    s = np.asarray(s_values, dtype=float).reshape(-1)
    K = s.size
    n = scene.dof
    slices = scene.robot_slices()
    q, dq, ddq = np.zeros((K, n)), np.zeros((K, n)), np.zeros((K, n))
    terms = np.zeros((3, K, n))
    for r, sl in zip(scene.robots, slices):
        q[:, sl] = r.path.position(s)
        dq[:, sl] = r.path.derivative(s)
        ddq[:, sl] = r.path.second_derivative(s)
        terms[:, :, sl] = _path_torque_terms(r.model, q[:, sl], dq[:, sl], ddq[:, sl], scene.gravity)

    # (R_ee, p_ee, space Jacobian columns) of each carrier robot at every point
    fk = {i: space_jacobian_many(scene.robots[i].model, q[:, slices[i]]) for i in scene.carriers}
    frames, balance = {}, {}
    for obj in scene.objects:
        name = obj.model.name
        grasp, offset = scene.grasp[name]
        R_ee, p_ee, _ = fk[grasp]
        frames[name], _ = compose_many(R_ee, p_ee, offset.rotation, offset.translation)

        J_dir, J_rate = _direction_terms_many(dq[:, slices[grasp]], ddq[:, slices[grasp]], fk[grasp], offset)
        M = obj.model.spatial_mass()
        v, w = J_dir[:, :3], J_dir[:, 3:]
        gyro = np.concatenate([np.cross(w, obj.model.mass * v), np.cross(w, _apply(obj.model.inertia, w))], axis=1)
        weight = np.zeros((K, 6))
        weight[:, :3] = np.swapaxes(frames[name], 1, 2) @ (obj.model.mass * scene.gravity)
        balance[name] = (_apply(M, J_dir), _apply(M, J_rate) + gyro, weight + obj.external_wrench)

    # an object contact also enters, negated, the body it presses against,
    # through that body's own frame
    contact_terms = {name: [] for name in balance}
    reactions = {name: [] for name in balance}
    contact_jacs: dict[str, np.ndarray] = {}
    for sc in scene.contacts:
        c = sc.spec
        p_c = c.pose.translation
        if c.frame_mode == "body_fixed":
            R_c = c.pose.rotation
            G = np.broadcast_to(c.pose.wrench_map(), (K, 6, 6))
        else:
            R_c = _world_normal_rotation_many(frames[sc.owner], c.world_axis, c.pose.rotation[:, 0])
            G = wrench_map_many(R_c, p_c)
        contact_terms[sc.owner].append((sc.cid, 1.0, G))
        if c.kind == "object":
            reactions[c.against].append((sc.cid, -1.0, np.broadcast_to(c.pose_in_other.wrench_map(), (K, 6, 6))))
        if c.kind == "manipulator":
            base = scene.ee_offsets[sc.cid]
            R_off, p_off = compose_many(base.rotation, base.translation, R_c, p_c)
            full = np.zeros((K, 6, n))
            full[:, :, slices[c.robot]] = body_jacobian_many(*fk[c.robot], R_off, p_off)
            contact_jacs[sc.cid] = full

    return PathDynamics(
        s=s,
        q=q,
        dq=dq,
        ddq=ddq,
        torque_accel_coeff=terms[0],
        torque_velsq_coeff=terms[1],
        torque_gravity=terms[2],
        contact_jacobians=contact_jacs,
        objects=tuple(
            ObjectPathTerms(name, A, B, external, tuple(contact_terms[name] + reactions[name]))
            for name, (A, B, external) in balance.items()
        ),
    )
