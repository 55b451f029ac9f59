"""Time-optimal path timing for manipulation through frictional contacts.

The pipeline: a geometric joint path and a contact topology go in, the
fastest dynamically consistent traversal timing comes out, found as the
optimum of a second-order cone program over the path-speed profile.
"""

from .contacts import ConeDescriptor, ContactSpec, FrictionParams, cone_margin, emit_cone
from .dynamics import (
    ObjectInstance,
    ObjectModel,
    RobotInstance,
    Scene,
    inverse_dynamics,
    sample_path_dynamics,
)
from .liegroup import (
    Pose,
    body_jacobian,
    forward_kinematics,
    jacobian_path_derivative,
    object_path_kinematics,
    pose_exp,
)
from .paths import JointPath
from .robot import JointDef, JointLimits, Link, LinkInertia, RobotModel, robot_to_json
from .scenario import (
    InfeasibleScenarioError,
    RunSettings,
    Scenario,
    ScenarioError,
    SolverFailureError,
    TrajectoryOutput,
    assemble_scenario,
    load_scenario,
    robot_from_json,
    run,
    scenario_from_dict,
    solve_scenario,
    sweep,
)
from .solver import canonicalize, solve, solve_conic_program, verify_kkt
from .transcription import ConicProgram, Grid, assemble, build_grid, recover_time
from .verification import audit, fd_suite, topp_phase_plane, verification_ledger

__version__ = "0.1.0"

__all__ = [
    "ConeDescriptor",
    "ConicProgram",
    "ContactSpec",
    "FrictionParams",
    "Grid",
    "InfeasibleScenarioError",
    "JointDef",
    "JointLimits",
    "JointPath",
    "Link",
    "LinkInertia",
    "ObjectInstance",
    "ObjectModel",
    "Pose",
    "RobotInstance",
    "RobotModel",
    "RunSettings",
    "Scenario",
    "ScenarioError",
    "Scene",
    "SolverFailureError",
    "TrajectoryOutput",
    "assemble",
    "assemble_scenario",
    "audit",
    "body_jacobian",
    "build_grid",
    "canonicalize",
    "cone_margin",
    "emit_cone",
    "fd_suite",
    "forward_kinematics",
    "inverse_dynamics",
    "jacobian_path_derivative",
    "load_scenario",
    "object_path_kinematics",
    "pose_exp",
    "recover_time",
    "robot_from_json",
    "robot_to_json",
    "run",
    "sample_path_dynamics",
    "scenario_from_dict",
    "solve",
    "solve_conic_program",
    "solve_scenario",
    "sweep",
    "topp_phase_plane",
    "verification_ledger",
    "verify_kkt",
]
