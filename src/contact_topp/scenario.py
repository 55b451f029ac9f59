"""Scenario files, the end-to-end timing pipeline, and parameter sweeps.

A scenario JSON file bundles everything one solve needs: robot models with
their joint waypoints, manipulated objects with their contact sets, gravity,
the grid resolution, and boundary path speeds.  `run` turns a loaded
scenario into a `TrajectoryOutput` with uniformly resampled trajectories
and per-contact force series; `sweep` fans out runs over a scalar
parameter (object mass, friction coefficient, ...), serially or over a
pool of worker processes.

One table, `SCHEMA`, declares both file kinds, scenarios and the
trajectory files that `run` writes: for each level of a file its keys,
each key's rule and default, and the builder of its model object.
`_read` walks it for every level, robot models (`robot_from_json`) and
trajectory profiles (`profile_from_json_dict`) included; a bad field, an
unknown key among them, is a `ScenarioError` naming its path
("scenario.robots[0].model.x_ref: ...", "trajectory.profile.torque: ...").
`read_json` reads both file kinds; `_write` writes a trajectory file
(`TrajectoryOutput.to_json_dict`) by the same table, in its key order.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import os
from dataclasses import dataclass
from numbers import Real
from typing import ClassVar

import numpy as np

from .contacts import CONE_MODELS, CONTACT_KINDS, FRAME_MODES, ContactSpec, FrictionParams, cone_margin
from .dynamics import ObjectInstance, ObjectModel, RobotInstance, Scene
from .liegroup import Pose
from .paths import BOUNDARY_KINDS, JointPath
from .robot import JOINT_TYPES, JointDef, JointLimits, Link, LinkInertia, RobotModel
from .solver import DUAL_INFEASIBLE, OPTIMAL, PRIMAL_INFEASIBLE, TOL, solve_conic_program
from .transcription import (
    MAX_INTERVALS,
    ConicProgram,
    Grid,
    ScalingVariables,
    assemble,
    build_grid,
    recover_time,
)

SCENARIO_FORMAT = "contact-topp/scenario-v1"
TRAJECTORY_FORMAT = "contact-topp/trajectory-v1"

class ScenarioError(ValueError):
    """Schema or invariant violation in a scenario file."""


class InfeasibleScenarioError(RuntimeError):
    """The task cannot be executed within actuator/contact limits."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class SolverFailureError(RuntimeError):
    """The solve ended without an optimum or a certificate."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Scenario:
    """A loaded, validated scenario plus its raw dict (kept for sweeps)."""

    name: str
    scene: Scene
    grid_points: int
    boundary_sdot: tuple
    source: dict


def read_json(path, what: str):
    """The JSON value in file `path`; ScenarioError naming the `what` file if
    it does not exist, cannot be read as UTF-8 text, or is not valid JSON."""
    where = f"{what} file {path!r}"
    if not os.path.exists(path):
        raise ScenarioError(f"{where} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{where} is not readable: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ScenarioError(f"{where} is not valid JSON: {exc}") from exc


def _whole(value, what="a whole number", least=-math.inf, most=math.inf) -> int:
    """`value` as an int; ValueError for a bool, text, fraction or value out of [least, most]."""
    # an int too large for a float is whole, and math.isfinite cannot take it
    if isinstance(value, Real) and not isinstance(value, bool) and (isinstance(value, int) or math.isfinite(value)):
        if value == int(value) and value >= least:
            if value > most:
                got = str(int(value))
                if len(got) > 20:  # a count of 10**400 would fill the message with digits
                    got = f"a number of {len(got)} digits"
                raise ValueError(f"must be at most {most}, got {got}")
            return int(value)
    raise ValueError(f"must be {what}, got {value!r}")


def _number(value) -> float:
    # a type test, not numbers.Real, which costs about 1 us a call
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def _vector(size):
    """The rule for a list of `size` numbers, read as a tuple of floats."""
    def rule(value) -> tuple:
        if not (isinstance(value, list) and len(value) == size):
            raise ValueError(f"expected a list of {size} numbers, got {value!r}")
        return tuple(map(_number, value))
    return rule


def _waypoints(value) -> tuple:
    """At least two rows of joint values, each as long as the first."""
    if not (isinstance(value, list) and len(value) >= 2 and isinstance(value[0], list)):
        raise ValueError("expected a list of at least two rows of joint values")
    return tuple(map(_vector(len(value[0])), value))


def _bound(sign):
    """The rule for a limit: a number, or null for none on that side (sign * inf)."""
    return lambda value: sign * math.inf if value is None else _number(value)


def _name(value) -> str:
    """Non-empty text without a path separator: it names output files and
    joins object and contact names into contact ids."""
    if not isinstance(value, str) or not value or any(c in value for c in "/\\\0"):
        raise ValueError(f"must be a non-empty string without '/', '\\' or NUL, got {value!r}")
    return value


def _one_of(*allowed):
    def rule(value):
        if value not in allowed:
            raise ValueError(f"only {' or '.join(map(repr, allowed))} is supported, got {value!r}")
        return value
    return rule


def _intervals(value) -> int:
    return _whole(value, "a positive whole interval count", 1, MAX_INTERVALS)


def _array(value) -> np.ndarray:
    """A number or nested lists of numbers as a float array, every entry finite."""
    array = np.array(value)  # text, null, or an int too large for int64 gives a dtype of kind U or O
    # np.array reads a true among numbers as 1, so the type of each entry is looked at too
    entries = [value]
    for _ in range(array.ndim):
        entries = itertools.chain.from_iterable(entries)
    if array.dtype.kind not in "iuf" or bool in set(map(type, entries)):
        raise ValueError("expected numbers or nested lists of numbers")
    if not np.isfinite(array).all():
        raise ValueError("has a non-finite entry")
    return array.astype(float, copy=False)


def _arrays(value) -> dict:
    """An object of `_array`s, each by its name; a bad one is named by its key."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {type(value).__name__}")
    arrays = {}
    for key, entry in value.items():
        try:
            arrays[key] = _array(entry)
        except ValueError as exc:
            raise _FieldError(f"[{key!r}]", str(exc)) from exc
    return arrays


def _boundary_sdot(value) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError("expected two entries (null leaves an end free)")
    ends = tuple(None if v is None else _number(v) for v in value)
    # the transcription fixes b = sdot^2 at a given end; NaN fails both tests
    if not all(v is None or (v >= 0.0 and math.isfinite(v * v)) for v in ends):
        raise ValueError(f"each entry must be null or a number >= 0 with a finite square, got {list(ends)}")
    return ends


def _parent(value) -> tuple:
    """(robot index, None) from "robot:<index>", (None, object name) from "object:<name>"."""
    kind, _, ref = str(value).partition(":")
    if kind == "robot" and ref.lstrip("-").isdigit():
        return int(ref), None
    if kind == "object" and ref:
        return None, ref
    raise ValueError(f"expected 'robot:<index>' or 'object:<name>', got {value!r}")


def _inertia(six) -> np.ndarray:
    """The 3x3 inertia of [ixx, iyy, izz, ixy, ixz, iyz]."""
    ixx, iyy, izz, ixy, ixz, iyz = six
    return np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])


def _scenario(name, grid_points, boundary_sdot, path_boundary, robots, objects, gravity, **checked):
    """(name, scene, grid_points, boundary_sdot); `checked` holds the fields only their rule reads."""
    robots = tuple(RobotInstance(r["model"], JointPath(r["waypoints"], boundary=path_boundary)) for r in robots)
    scene = Scene(robots=robots, objects=objects, gravity=gravity)
    if all(np.all(r.path.waypoints == r.path.waypoints[0]) for r in scene.robots):
        raise _FieldError(".robots", "stationary path, every robot's waypoints are all equal")
    return name, scene, grid_points, boundary_sdot


def _model(name, joints, links, x_ref, tool_offset) -> RobotModel:
    """Each joint comes as the dict of its fields; JointLimits takes each limit as one array."""
    limits = ([j[key] for j in joints] for key in ("torque_min", "torque_max", "velocity_max", "accel_min", "accel_max"))
    joint_defs = tuple(JointDef(j["type"], j["twist"]) for j in joints)
    return RobotModel(name, joint_defs, links, x_ref, tool_offset, JointLimits(*limits))


def _placed_object(name, parent, mass, inertia, contacts, offset, external_wrench) -> ObjectInstance:
    model = ObjectModel(name=name, mass=mass, inertia=_inertia(inertia), contacts=contacts)
    return ObjectInstance(model, *parent, offset=offset, external_wrench=external_wrench)


REQUIRED = object()  # the default of a key that the file must give

# The scenario and trajectory file formats.  Each level, one kind of JSON object in a file, maps to (builder, fields),
# and each key to (rule, default).  A rule is a function of the JSON value, raising TypeError or ValueError
# on a bad one, or a nested level's name, or [level] for a list.  A key left out or given as its default is
# taken as the default.  The builder takes the fields by key; the model classes' own checks raise in it.
SCHEMA = {
    "scenario": (_scenario, {
        "format": (_one_of(SCENARIO_FORMAT), REQUIRED), "name": (_name, REQUIRED),
        "grid_points": (_intervals, REQUIRED),
        "boundary_sdot": (_boundary_sdot, (0.0, 0.0)), "path_boundary": (_one_of(*BOUNDARY_KINDS), "clamped"),
        "robots": (["robot"], REQUIRED), "objects": (["object"], ()), "gravity": (_vector(3), (0.0, 0.0, -9.81)),
        # path derivatives of the Jacobian are analytic; files may still name that
        "jacobian_derivative": (_one_of("analytic"), "analytic"),
    }),
    # the scenario builds each robot's path, with its path_boundary
    "robot": (dict, {"model": ("model", REQUIRED), "waypoints": (_waypoints, REQUIRED)}),
    "model": (_model, {
        "name": (_name, "robot"), "joints": (["joint"], REQUIRED), "links": (["link"], REQUIRED),
        "x_ref": ("pose", REQUIRED), "tool_offset": ("pose", REQUIRED),
    }),
    "joint": (dict, {
        "type": (_one_of(*JOINT_TYPES), REQUIRED), "twist": (_vector(6), REQUIRED),
        "torque_min": (_bound(-1.0), REQUIRED), "torque_max": (_bound(1.0), REQUIRED),
        "velocity_max": (_bound(1.0), REQUIRED), "accel_min": (_bound(-1.0), REQUIRED), "accel_max": (_bound(1.0), REQUIRED),
    }),
    "link": (lambda home_pose, mass, com, inertia: Link(home_pose, LinkInertia(mass, com, _inertia(inertia))), {
        "home_pose": ("pose", REQUIRED), "mass": (_number, REQUIRED),
        "com": (_vector(3), REQUIRED), "inertia": (_vector(6), REQUIRED),
    }),
    "object": (_placed_object, {
        "name": (_name, REQUIRED), "parent": (_parent, REQUIRED),
        "mass": (_number, REQUIRED), "inertia": (_vector(6), REQUIRED),
        "contacts": (["contact"], ()), "offset": ("pose", None), "external_wrench": (_vector(6), (0.0,) * 6),
    }),
    "contact": (lambda friction, **fields: ContactSpec(params=friction, **fields), {
        "name": (_name, REQUIRED), "kind": (_one_of(*CONTACT_KINDS), REQUIRED), "model": (_one_of(*CONE_MODELS), REQUIRED),
        "pose": ("pose", REQUIRED), "friction": ("friction", REQUIRED), "fz_max": (_number, None), "robot": (_whole, 0),
        "against": (_name, None), "pose_in_other": ("pose", None), "frame_mode": (_one_of(*FRAME_MODES), "body_fixed"),
        "world_axis": (_vector(3), (0.0, 0.0, 1.0)),
    }),
    "friction": (FrictionParams, {
        "mu": (_number, REQUIRED), "ex": (_number, 1.0), "ey": (_number, 1.0), "ez": (_number, 1.0),
    }),
    "pose": (Pose.from_quaternion, {"quaternion_wxyz": (_vector(4), REQUIRED), "translation": (_vector(3), REQUIRED)}),
    # the trajectory file, which `_write` writes from a `TrajectoryOutput`.  The builder keeps what `topp verify`
    # reads; the rest is only checked, and a stored profile may leave out the keys that default to null
    "trajectory": (lambda grid_intervals, boundary_sdot, profile, **checked: (profile, grid_intervals, boundary_sdot), {
        "format": (_one_of(TRAJECTORY_FORMAT), REQUIRED), "scenario": (_name, REQUIRED),
        "status": (_one_of(OPTIMAL), REQUIRED), "grid_intervals": (_intervals, REQUIRED),
        "boundary_sdot": (_boundary_sdot, REQUIRED), "objective": (_number, None), "total_time": (_number, REQUIRED),
        "solver": ("solver", None), "profile": ("profile", REQUIRED), "series": ("series", None),
    }),
    "solver": (dict, {
        "iterations": (_whole, REQUIRED), "wall_time": (_number, REQUIRED),
        "residuals": (_arrays, REQUIRED), "free_scalars": (_whole, REQUIRED),
    }),
    "profile": (ScalingVariables, {
        **dict.fromkeys(("accel", "speed_sq", "speed_aux", "inverse_avg", "torque"), (_array, REQUIRED)),
        "wrenches": (_arrays, REQUIRED),
    }),
    "series": (dict, {
        **dict.fromkeys(("t", "s", "sdot", "q", "qd", "qdd", "tau"), (_array, REQUIRED)),
        "wrench": (_arrays, REQUIRED), "margin": (_arrays, REQUIRED),
    }),
}


class _FieldError(Exception):
    """A bad field met in reading a level, `path` leading from that level to it ("" for the level
    itself); each enclosing level puts its own step in front, so no good field's path is written."""

    def __init__(self, path, message):
        super().__init__(message)
        self.path = path


def _read(level, data):
    """What the builder of `SCHEMA[level]` makes of the JSON object `data`;
    for a `level` of [name], the tuple it makes of each object of a list."""
    if type(level) is list:
        if not isinstance(data, list):
            raise _FieldError("", f"expected a list, got {type(data).__name__}")
        read = []
        try:
            for item in data:
                read.append(_read(level[0], item))
        except _FieldError as exc:
            exc.path = f"[{len(read)}]{exc.path}"
            raise
        return tuple(read)
    build, fields = SCHEMA[level]
    if not isinstance(data, dict):
        raise _FieldError("", f"expected an object, got {type(data).__name__}")
    for key in data:
        if key not in fields:
            raise _FieldError(f".{key}", "unknown field")
    values = {}
    for key, (rule, default) in fields.items():
        value = data.get(key, default)
        if value is REQUIRED:
            raise _FieldError("", f"missing field {key!r}")
        try:
            if value is not default:
                value = rule(value) if callable(rule) else _read(rule, value)
        except _FieldError as exc:
            exc.path = f".{key}{exc.path}"
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise _FieldError(f".{key}", str(exc)) from exc
        values[key] = value
    try:
        return build(**values)
    except (TypeError, ValueError) as exc:
        raise _FieldError("", str(exc)) from exc


def _write(level, value):
    """`value` as the JSON object of `SCHEMA[level]`, as `json.loads` would give it back: each key in table
    order, taken by name (by key from a dict), a nested level written alike, arrays and tuples as lists."""
    data = {}
    for key, (rule, _) in SCHEMA[level][1].items():
        item = value[key] if isinstance(value, dict) else getattr(value, key)
        if isinstance(rule, str) and item is not None:
            item = _write(rule, item)
        elif isinstance(item, dict):
            item = {name: entry.tolist() if isinstance(entry, np.ndarray) else entry for name, entry in item.items()}
        elif isinstance(item, np.ndarray):
            item = item.tolist()
        elif isinstance(item, tuple):
            item = list(item)
        data[key] = item
    return data


def _load(level, data):
    """`_read(level, data)`, a bad field raised as ScenarioError("<level>.key[i]...: why")."""
    try:
        return _read(level, data)
    except _FieldError as exc:
        raise ScenarioError(f"{level}{exc.path}: {exc}") from exc.__cause__


def robot_from_json(data: dict) -> RobotModel:
    """The robot model of a JSON object laid out as a scenario's robot "model"."""
    return _load("model", data)


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a raw scenario dict against `SCHEMA` and build the scene it describes."""
    return Scenario(*_load("scenario", data), source=copy.deepcopy(data))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"))


# parameter paths for sweeps: dotted segments, each resolving a dict key, a
# list index, or the "name" field of a list entry ("objects.box.mass")


def set_by_path(data, path: str, value):
    """Write `value` into `data` at `path`, in place."""
    *outer, last = _path_keys(data, path)
    for key in outer:
        data = data[key]
    data[last] = value


def _copy_along(data, path: str):
    """A copy of `data` in which the containers on `path` are new and all else is shared."""
    root = here = copy.copy(data)
    for key in _path_keys(data, path)[:-1]:
        here[key] = copy.copy(here[key])
        here = here[key]
    return root


def _path_keys(data, path: str) -> list:
    """The dict key or list index of each segment of `path`, walked from `data`."""
    parts = [p for p in str(path).split(".") if p]
    if not parts:
        raise ScenarioError("empty parameter path")
    keys = []
    for i, part in enumerate(parts):
        try:
            keys.append(_path_key(data, part))
        except LookupError as exc:
            raise ScenarioError(f"parameter path {path!r} at {'.'.join(parts[:i]) or 'root'}: {exc}") from None
        if i + 1 < len(parts):
            data = data[keys[-1]]
    return keys


def _path_key(node, part: str):
    """The dict key or list index of node that one path segment names."""
    if isinstance(node, dict):
        if part in node:
            return part
        raise LookupError(f"no field {part!r}")
    if not isinstance(node, list):
        raise LookupError(f"cannot index into {type(node).__name__}")
    if part.lstrip("-").isdigit():
        idx = int(part)
        if -len(node) <= idx < len(node):
            return idx
        raise LookupError(f"index {idx} out of range")
    for i, entry in enumerate(node):
        if isinstance(entry, dict) and entry.get("name") == part:
            return i
    raise LookupError(f"no entry named {part!r}")


def assemble_scenario(scenario: Scenario, grid: Grid | None = None) -> ConicProgram:
    """The scenario's conic program; a scenario that assembly rejects (a
    fixed boundary speed that breaks a limit, say) raises ScenarioError."""
    grid = grid if grid is not None else build_grid(scenario.grid_points)
    try:
        return assemble(scenario.scene, grid, scenario.boundary_sdot)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


# end-to-end run


@dataclass(frozen=True)
class RunSettings:
    grid_override: int | None = None
    output_points: int = 801
    tol: float = TOL


@dataclass
class TrajectoryOutput:
    """Resampled trajectories and forces of one optimal solve; `_write` reads its file's keys by name."""

    format: ClassVar[str] = TRAJECTORY_FORMAT
    scenario: str
    status: str
    grid_intervals: int
    boundary_sdot: tuple
    objective: float
    total_time: float
    t: np.ndarray
    s: np.ndarray
    sdot: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    tau: np.ndarray
    wrench: dict
    margin: dict
    profile: ScalingVariables
    contact_order: tuple
    meta: dict

    def write_csv(self, path):
        n = self.q.shape[1]
        cols = ["t", "s", "sdot"]
        for stem in ("q", "qd", "qdd", "tau"):
            cols += [f"{stem}_{i + 1}" for i in range(n)]
        for cid in self.contact_order:
            cols += [f"{cid}_{part}" for part in ("fx", "fy", "fz", "tx", "ty", "tz", "margin")]
        table = [self.t, self.s, self.sdot, self.q.T, self.qd.T, self.qdd.T, self.tau.T]
        table += [arr for cid in self.contact_order for arr in (self.wrench[cid].T, self.margin[cid])]
        data = np.column_stack([np.atleast_2d(part).reshape(-1, self.t.size).T for part in table])
        header = ",".join(cols)
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.12g")

    solver = property(lambda self: self.meta)
    series = property(lambda self: self)

    def to_json_dict(self) -> dict:
        return _write("trajectory", self)


def profile_from_json_dict(data: dict) -> tuple[ScalingVariables, int, tuple]:
    """(profile, grid_intervals, boundary_sdot) of a trajectory file's JSON value, read by `SCHEMA`."""
    return _load("trajectory", data)


def check_profile(profile: ScalingVariables, intervals: int, scenario: Scenario) -> None:
    """Raise ScenarioError naming the first field of a solve profile that does not fit the scenario.

    At K = `intervals`: accel and inverse_avg hold K values, speed_sq and
    speed_aux K + 1, torque is (K, dof), and the wrenches are keyed by
    exactly the scenario's contact ids, each (K, 6).
    """
    K = intervals

    def fit(name, value, shape):
        if value.shape != shape:
            raise ScenarioError(
                f"trajectory profile {name} has shape {value.shape}; scenario {scenario.name!r} at K = {K} needs {shape}"
            )

    for name, size in (("accel", K), ("speed_sq", K + 1), ("speed_aux", K + 1), ("inverse_avg", K)):
        fit(name, getattr(profile, name), (size,))
    fit("torque", profile.torque, (K, scenario.scene.dof))
    ids = [sc.cid for sc in scenario.scene.contacts]
    for cid in ids:
        if cid not in profile.wrenches:
            raise ScenarioError(f"trajectory has no wrenches for contact {cid!r} of scenario {scenario.name!r}")
    for cid in profile.wrenches:
        if cid not in ids:
            raise ScenarioError(f"trajectory has wrenches for {cid!r}, which is not a contact of scenario {scenario.name!r}")
    for cid in ids:
        fit(f"wrenches[{cid!r}]", profile.wrenches[cid], (K, 6))


def solve_scenario(scenario: Scenario, settings: RunSettings = RunSettings()):
    """Assemble and solve; returns (program, report, solution-or-None)."""
    grid = build_grid(scenario.grid_points if settings.grid_override is None else settings.grid_override)
    program = assemble_scenario(scenario, grid)
    report, solution = solve_conic_program(program, settings.tol)
    return program, report, solution


def run(scenario: Scenario, settings: RunSettings = RunSettings()) -> TrajectoryOutput:
    """Full pipeline: solve, recover the time map, resample, attach forces."""
    program, report, solution = solve_scenario(scenario, settings)
    if report.status in (PRIMAL_INFEASIBLE, DUAL_INFEASIBLE):
        raise InfeasibleScenarioError(
            f"scenario {scenario.name!r} cannot be executed within the given "
            f"actuator and contact force limits ({report.status})",
            report,
        )
    if report.status != OPTIMAL:
        raise SolverFailureError(
            f"solver ended with {report.status} on scenario {scenario.name!r}", report
        )
    grid = program.grid
    timing = recover_time(solution.speed_sq, grid)
    scene = scenario.scene

    m = max(2, int(settings.output_points))
    t = np.linspace(0.0, timing.total, m)
    s = timing.s_of(t)
    s[0], s[-1] = 0.0, 1.0
    K = grid.intervals
    k_idx = np.clip(np.searchsorted(grid.points, s, side="right") - 1, 0, K - 1)
    frac = (s - grid.points[k_idx]) / grid.spacing
    b = solution.speed_sq[k_idx] * (1.0 - frac) + solution.speed_sq[k_idx + 1] * frac
    sdot = np.sqrt(np.maximum(b, 0.0))
    sddot = solution.accel[k_idx]

    q, dq, ddq = scene.path(s)
    qd = dq * sdot[:, None]
    qdd = ddq * b[:, None] + dq * sddot[:, None]
    tau = solution.torque[k_idx]

    wrench = {cid: solution.wrenches[cid][k_idx] for cid in program.contact_order}
    margin = {sc.cid: cone_margin(sc.cone, wrench[sc.cid]) for sc in scene.contacts}

    return TrajectoryOutput(
        scenario=scenario.name,
        status=report.status,
        grid_intervals=K,
        boundary_sdot=scenario.boundary_sdot,
        objective=float(report.objective),
        total_time=float(timing.total),
        t=t,
        s=s,
        sdot=sdot,
        q=q,
        qd=qd,
        qdd=qdd,
        tau=tau,
        wrench=wrench,
        margin=margin,
        profile=solution,
        contact_order=program.contact_order,
        meta={
            "iterations": report.iterations,
            "wall_time": report.wall_time,
            "residuals": {k: float(v) for k, v in report.residuals.items()},
            "free_scalars": program.num_vars,
        },
    )


# parameter sweeps


# status of a sweep point whose value makes the scenario invalid or cannot be
# assembled; the point's `message` says why
SWEEP_INPUT_ERROR = "InputError"


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep.  `iterations` is the solver's iteration count,
    None when the point never reached the solver (`SWEEP_INPUT_ERROR`).
    `value` is the value as given when `float()` cannot take it."""

    value: float
    status: str
    total_time: float | None
    objective: float | None
    iterations: int | None
    message: str | None = None


def _sweep_worker(payload):
    data, params, value, grid, tol = payload
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        return SweepPoint(value, SWEEP_INPUT_ERROR, None, None, None, f"sweep value {value!r}: {exc}")
    # the source is shared, not copied: `scenario_from_dict` copies what it keeps
    for p in params:
        data = _copy_along(data, p)
        set_by_path(data, p, value)
    settings = RunSettings(grid_override=grid, tol=tol)
    try:
        scenario = scenario_from_dict(data)
        program, report, solution = solve_scenario(scenario, settings)
    except ValueError as exc:
        return SweepPoint(value, SWEEP_INPUT_ERROR, None, None, None, str(exc))
    if report.status == OPTIMAL:
        total = recover_time(solution.speed_sq, program.grid).total
        return SweepPoint(value, report.status, float(total), float(report.objective), report.iterations)
    return SweepPoint(value, report.status, None, None, report.iterations)


def sweep(
    scenario: Scenario,
    param,
    values,
    grid: int | None = None,
    tol: float = TOL,
    threads: int | None = None,
) -> list[SweepPoint]:
    """Re-solve the scenario at each parameter value.

    Each point gets its own status: the solver's, or `SWEEP_INPUT_ERROR`
    with a message when `float()` cannot take the value, the value makes
    the scenario invalid or its assembly fails; the other points still
    solve.  A parameter path that does not resolve aborts the sweep with
    `ScenarioError`.

    With `threads` None or 1 the points run serially in the calling
    process; with more, they run in a pool of up to that many worker
    processes.  `threads` below 1 raises `ScenarioError` before any point
    is solved.

    `param` is a dotted path into the scenario dict ("objects.box.mass") or a
    list of such paths all receiving the same value.
    """
    if threads is not None and threads < 1:
        raise ScenarioError(f"threads must be at least 1, got {threads}")
    params = [param] if isinstance(param, str) else list(param)
    jobs = [(scenario.source, params, v, grid, tol) for v in values]
    workers = min(threads or 1, len(jobs))
    if workers <= 1:
        return [_sweep_worker(job) for job in jobs]
    # imported here: a process that never sweeps in a pool never loads it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, jobs))
