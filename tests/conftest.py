import numpy as np
from hypothesis import settings

from contact_topp.liegroup import Pose, Twist
from contact_topp.robot import JointDef, JointLimits, Link, LinkInertia, RobotModel

# Property tests draw a fixed sequence of examples and have no per-example
# deadline: on a shared machine the same example can take twice as long from
# one run to the next, and a failure must reproduce, not depend on load.
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


def make_limits(n, torque=100.0, velocity=2.0, accel=50.0):
    return JointLimits(
        torque_lower=-torque * np.ones(n),
        torque_upper=torque * np.ones(n),
        velocity_max=velocity * np.ones(n),
        accel_lower=-accel * np.ones(n),
        accel_upper=accel * np.ones(n),
    )


def rod_inertia(mass, length):
    i = mass * length**2 / 12.0
    return np.diag([1e-4, i, i])


def planar_arm(lengths, masses, tool=None, limits=None):
    """Serial arm in the x-z plane, revolute joints about +y, links along +x."""
    joints = []
    links = []
    at = 0.0
    for l, m in zip(lengths, masses):
        joints.append(JointDef("revolute", Twist.revolute([0, 1, 0], [at, 0.0, 0.0])))
        links.append(
            Link(
                home_pose=Pose(np.eye(3), [at + l / 2.0, 0.0, 0.0]),
                inertia=LinkInertia(m, np.zeros(3), rod_inertia(m, l)),
            )
        )
        at += l
    return RobotModel(
        name="planar",
        joints=tuple(joints),
        links=tuple(links),
        x_ref=Pose(np.eye(3), [at, 0.0, 0.0]),
        tool_offset=tool if tool is not None else Pose.identity(),
        limits=limits if limits is not None else make_limits(len(lengths)),
    )


def spatial_arm():
    joints = (
        JointDef("revolute", Twist.revolute([0, 0, 1], [0, 0, 0])),
        JointDef("revolute", Twist.revolute([0, 1, 0], [0, 0, 0.3])),
        JointDef("prismatic", Twist.prismatic([0, 0, 1])),
        JointDef("revolute", Twist.revolute([1, 0, 0], [0.2, 0, 0.5])),
    )
    links = tuple(
        Link(
            home_pose=Pose(np.eye(3), [0.05 * i, 0.0, 0.2 + 0.1 * i]),
            inertia=LinkInertia(1.0 + i, [0.01, 0.0, 0.02], np.diag([0.02, 0.03, 0.04])),
        )
        for i in range(4)
    )
    return RobotModel(
        name="spatial",
        joints=joints,
        links=links,
        x_ref=Pose.from_quaternion([0.9238795, 0.0, 0.3826834, 0.0], [0.3, 0.1, 0.6]),
        tool_offset=Pose(np.eye(3), [0.0, 0.0, 0.1]),
        limits=make_limits(4),
    )
