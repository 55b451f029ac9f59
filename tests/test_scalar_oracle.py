"""The scalar kinematics and dynamics stay an independent, strict oracle.

* They round exactly like plain `Pose` products: each function is held, bit
  for bit, to a reference here that composes `Pose` objects joint by joint
  with `np.cross` in the exponential.
* They check every rotation they build, as the `Pose` constructor does.
* `verification.py` and the scalar sampler share no code with the batched
  sampler, so comparing the two compares two implementations.
"""
import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contact_topp
from contact_topp import liegroup
from contact_topp.dynamics import inverse_dynamics
from contact_topp.liegroup import Pose, Twist, body_jacobian, forward_kinematics, rotation_exp, skew
from contact_topp.robot import JointDef, Link, LinkInertia, RobotModel

from conftest import make_limits

# ---------------------------------------------------------------------------
# reference: the same formulas on `Pose` objects


def ref_pose_exp(twist, angle):
    w, v = twist.angular, twist.linear
    wn = np.linalg.norm(w)
    if wn * abs(angle) < 1e-12 and wn < 1e-9:
        return Pose(np.eye(3), v * angle)
    axis = w / wn
    vn = v / wn
    phi = wn * angle
    R = rotation_exp(axis, phi)
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
        cols[:, i] = T.adjoint() @ joint.twist.as_array()
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
        A = inv_home.adjoint() @ joint.twist.as_array()
        chain.append((A, inv_home.compose(prev_home), link.inertia.spatial_inertia()))
        prev_home = link.home_pose
    n = model.dof
    V = np.zeros(6)
    Vd = np.concatenate([-gravity, np.zeros(3)])
    vel, acc, ads_down = [], [], []
    for i, (A, B, _) in enumerate(chain):
        Ad = ref_pose_exp(Twist.from_array(A), -q[i]).compose(B).adjoint()
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


# ---------------------------------------------------------------------------
# random chains in the style of conftest.planar_arm and spatial_arm


def random_pose(rng):
    return Pose.from_quaternion(rng.normal(size=4), rng.uniform(-0.5, 0.5, size=3))


def random_arm(rng, kinds):
    joints, links = [], []
    for i, kind in enumerate(kinds):
        axis = rng.normal(size=3)
        if kind == "revolute":
            twist = Twist.revolute(axis, rng.uniform(-0.3, 0.3, size=3) + [0.0, 0.0, 0.2 * i])
        else:
            twist = Twist.prismatic(axis)
        joints.append(JointDef(kind, twist))
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
    assert same_bits(inverse_dynamics(arm, q, qd, qdd, gravity), ref_inverse_dynamics(arm, q, qd, qdd, gravity))
    # a second call reads the cached chain data and rounds the same
    assert same_bits(inverse_dynamics(arm, q, qd, qdd, gravity), ref_inverse_dynamics(arm, q, qd, qdd, gravity))


def test_chain_data_built_once_per_model():
    arm = random_arm(np.random.default_rng(3), ["revolute", "prismatic", "revolute"])
    assert arm.chain_data is arm.chain_data
    assert len(arm.chain_data) == arm.dof


def test_every_joint_rotation_is_checked(monkeypatch):
    arm = random_arm(np.random.default_rng(7), ["revolute", "prismatic", "revolute"])
    q = np.array([0.4, 0.1, -0.7])
    arm.chain_data  # built from valid home poses before the patch
    monkeypatch.setattr(liegroup, "rotation_exp", lambda axis, angle: 1.001 * rotation_exp(axis, angle))
    with pytest.raises(ValueError, match="finite proper rotation"):
        forward_kinematics(arm, q)
    with pytest.raises(ValueError, match="finite proper rotation"):
        body_jacobian(arm, q)
    with pytest.raises(ValueError, match="finite proper rotation"):
        inverse_dynamics(arm, q, np.zeros(3), np.zeros(3), np.zeros(3))


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
