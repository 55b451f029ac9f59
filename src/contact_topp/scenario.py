"""Scenario files, the end-to-end timing pipeline, and parameter sweeps.

A scenario JSON file bundles everything one solve needs: robot models with
their joint waypoints, manipulated objects with their contact sets, gravity,
the grid resolution, and boundary path speeds.  `run` turns a loaded
scenario into a `TrajectoryOutput` with uniformly resampled trajectories
and per-contact force series; `sweep` fans out runs over a scalar
parameter (object mass, friction coefficient, ...), serially or over a
pool of worker processes.

One place turns a bad field into a `ScenarioError`: `_reading(where)`
wraps each read of a field, and the model classes' own checks raise in
its block, so the error names the field's path ("scenario.robots[0].model:
...").  `read_json` reads both file kinds, scenarios and trajectory dumps.
"""
from __future__ import annotations

import copy
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .contacts import ContactSpec, FrictionParams, cone_margin
from .dynamics import ObjectInstance, ObjectModel, RobotInstance, Scene
from .liegroup import Pose
from .paths import BOUNDARY_KINDS, JointPath
from .robot import _inertia_from_six, _pose_from_json, robot_from_json
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


@contextmanager
def _reading(where):
    """Raise a bad field read or converted in the block as ScenarioError naming `where`.

    A KeyError, TypeError, ValueError (UnicodeDecodeError and JSON decode
    errors included), OverflowError or OSError becomes
    ScenarioError(f"{where}: {exc}"), a KeyError reading "missing field
    'key'"; a ScenarioError passes unchanged.
    """
    try:
        yield
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ScenarioError(f"{where}: {detail}") from exc


def read_json(path, what: str):
    """The JSON value in file `path`; ScenarioError naming the `what` file if
    it does not exist, cannot be read as UTF-8 text, or is not valid JSON."""
    where = f"{what} file {path!r}"
    if not os.path.exists(path):
        raise ScenarioError(f"{where} does not exist")
    with _reading(f"{where} is not readable"):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    with _reading(f"{where} is not valid JSON"):
        return json.loads(text)


def _need(mapping, key, where):
    if key not in _object(mapping, where):
        raise ScenarioError(f"{where}: missing field {key!r}")
    return mapping[key]


def _name(mapping, where) -> str:
    """mapping["name"], a non-empty string with no path separator: it names
    output files and joins object and contact names into contact ids."""
    name = _need(mapping, "name", where)
    if not isinstance(name, str) or not name or any(c in name for c in "/\\\0"):
        raise ScenarioError(f"{where}.name: must be a non-empty string without '/', '\\' or NUL, got {name!r}")
    return name


def _whole(value, where, what="a whole number", least=-math.inf) -> int:
    """`value` as an int; a bool, text, fraction or value below `least` raised as ScenarioError naming `where`."""
    # an int too large for a float is whole, and math.isfinite cannot take it
    if isinstance(value, Real) and not isinstance(value, bool) and (isinstance(value, int) or math.isfinite(value)):
        if value == int(value) and value >= least:
            return int(value)
    raise ScenarioError(f"{where}: must be {what}, got {value!r}")


def _object(value, where) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _list(value, where) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _pose(entry, where) -> Pose:
    with _reading(where):
        return _pose_from_json(entry)


def _contact_from_dict(entry, where) -> ContactSpec:
    name = _name(entry, where)
    kind = _need(entry, "kind", where)
    model = _need(entry, "model", where)
    pose = _pose(_need(entry, "pose", where), f"{where}.pose")
    fr = _need(entry, "friction", where)
    fz_max = entry.get("fz_max")
    pose_in_other = entry.get("pose_in_other")
    with _reading(where):
        return ContactSpec(
            name=name,
            kind=kind,
            model=model,
            pose=pose,
            params=FrictionParams(
                mu=float(_need(fr, "mu", f"{where}.friction")),
                ex=float(fr.get("ex", 1.0)),
                ey=float(fr.get("ey", 1.0)),
                ez=float(fr.get("ez", 1.0)),
            ),
            fz_max=None if fz_max is None else float(fz_max),
            robot=_whole(entry.get("robot", 0), f"{where}.robot"),
            against=entry.get("against"),
            pose_in_other=None if pose_in_other is None else _pose(pose_in_other, f"{where}.pose_in_other"),
            frame_mode=entry.get("frame_mode", "body_fixed"),
            world_axis=np.asarray(entry.get("world_axis", (0.0, 0.0, 1.0)), dtype=float),
        )


def _object_from_dict(entry, where) -> ObjectInstance:
    name = _name(entry, where)
    parent = _need(entry, "parent", where)
    contacts = tuple(
        _contact_from_dict(c, f"{where}.contacts[{i}]")
        for i, c in enumerate(_list(entry.get("contacts", []), f"{where}.contacts"))
    )
    with _reading(where):
        model = ObjectModel(
            name=name,
            mass=float(_need(entry, "mass", where)),
            inertia=_inertia_from_six(_need(entry, "inertia", where)),
            contacts=contacts,
        )

    kind, _, ref = str(parent).partition(":")
    if kind == "robot" and ref.lstrip("-").isdigit():
        parent_robot, parent_object = int(ref), None
    elif kind == "object" and ref:
        parent_robot, parent_object = None, ref
    else:
        raise ScenarioError(f"{where}.parent: expected 'robot:<index>' or 'object:<name>', got {parent!r}")
    offset = entry.get("offset")
    with _reading(f"{where}.external_wrench"):
        ext = np.asarray(entry.get("external_wrench", np.zeros(6)), dtype=float)
    if ext.shape != (6,):
        raise ScenarioError(f"{where}.external_wrench: expected 6 entries")
    with _reading(where):
        return ObjectInstance(
            model=model,
            parent_robot=parent_robot,
            parent_object=parent_object,
            offset=None if offset is None else _pose(offset, f"{where}.offset"),
            external_wrench=ext,
        )


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a raw scenario dict and build the scene it describes."""
    fmt = _need(data, "format", "scenario")
    if fmt != SCENARIO_FORMAT:
        raise ScenarioError(f"scenario.format: unsupported {fmt!r}, expected {SCENARIO_FORMAT!r}")
    name = _name(data, "scenario")
    grid_points = _whole(_need(data, "grid_points", "scenario"), "scenario.grid_points", "a positive whole interval count", 1)
    if grid_points > MAX_INTERVALS:
        raise ScenarioError(f"scenario.grid_points: must be at most {MAX_INTERVALS}, got {grid_points}")

    with _reading("scenario.boundary_sdot"):
        boundary = tuple(None if v is None else float(v) for v in data.get("boundary_sdot", (0.0, 0.0)))
    if len(boundary) != 2:
        raise ScenarioError("scenario.boundary_sdot: expected two entries (null leaves an end free)")
    # the transcription fixes b = sdot^2 at a given end; NaN fails both tests
    if not all(v is None or (v >= 0.0 and math.isfinite(v * v)) for v in boundary):
        raise ScenarioError(
            f"scenario.boundary_sdot: each entry must be null or a number >= 0 with a finite square, got {list(boundary)}"
        )

    path_boundary = data.get("path_boundary", "clamped")
    if path_boundary not in BOUNDARY_KINDS:
        raise ScenarioError(f"scenario.path_boundary: unknown kind {path_boundary!r}")

    # limits are written in each robot model; a file that still scales them
    # would get an answer the file does not describe
    if "limit_scale" in data:
        raise ScenarioError("scenario.limit_scale: not supported, write the scaled limits into each robot model")

    robots_raw = _list(_need(data, "robots", "scenario"), "scenario.robots")
    if not robots_raw:
        raise ScenarioError("scenario.robots: need at least one robot")
    robots = []
    for i, entry in enumerate(robots_raw):
        rwhere = f"scenario.robots[{i}]"
        with _reading(f"{rwhere}.model"):
            model = robot_from_json(_need(entry, "model", rwhere))
        waypoints = _need(entry, "waypoints", rwhere)
        with _reading(f"{rwhere}.waypoints"):
            robots.append(RobotInstance(model=model, path=JointPath(waypoints, boundary=path_boundary)))

    if all(np.all(r.path.waypoints == r.path.waypoints[0]) for r in robots):
        raise ScenarioError("scenario.robots: stationary path, every robot's waypoints are all equal")

    objects_raw = _list(data.get("objects", []), "scenario.objects")
    objects = tuple(_object_from_dict(entry, f"scenario.objects[{i}]") for i, entry in enumerate(objects_raw))

    with _reading("scenario.gravity"):
        gravity = np.asarray(data.get("gravity", (0.0, 0.0, -9.81)), dtype=float)
    if gravity.shape != (3,):
        raise ScenarioError("scenario.gravity: expected 3 entries")
    # path derivatives of the Jacobian are analytic; files may still name that
    method = data.get("jacobian_derivative", "analytic")
    if method != "analytic":
        raise ScenarioError(f"scenario.jacobian_derivative: only 'analytic' is supported, got {method!r}")
    with _reading("scenario"):
        scene = Scene(robots=tuple(robots), objects=objects, gravity=gravity)
    return Scenario(
        name=name,
        scene=scene,
        grid_points=grid_points,
        boundary_sdot=boundary,
        source=copy.deepcopy(data),
    )


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario"))


# parameter paths for sweeps: dotted segments, each resolving a dict key, a
# list index, or the "name" field of a list entry ("objects.box.mass")


def set_by_path(data, path: str, value):
    parts = [p for p in str(path).split(".") if p]
    if not parts:
        raise ScenarioError("empty parameter path")
    here = data
    for i, part in enumerate(parts):
        try:
            key = _path_key(here, part)
        except LookupError as exc:
            raise ScenarioError(f"parameter path {path!r} at {'.'.join(parts[:i]) or 'root'}: {exc}") from None
        if i + 1 < len(parts):
            here = here[key]
    here[key] = value


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
    """Resampled trajectories and forces of one optimal solve."""

    scenario_name: str
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

    def to_json_dict(self) -> dict:
        p = self.profile
        return {
            "format": TRAJECTORY_FORMAT,
            "scenario": self.scenario_name,
            "status": self.status,
            "grid_intervals": self.grid_intervals,
            "boundary_sdot": list(self.boundary_sdot),
            "objective": self.objective,
            "total_time": self.total_time,
            "solver": self.meta,
            "profile": {
                "accel": p.accel.tolist(),
                "speed_sq": p.speed_sq.tolist(),
                "speed_aux": p.speed_aux.tolist(),
                "inverse_avg": p.inverse_avg.tolist(),
                "torque": p.torque.tolist(),
                "wrenches": {cid: p.wrenches[cid].tolist() for cid in self.contact_order},
            },
            "series": {
                "t": self.t.tolist(),
                "s": self.s.tolist(),
                "sdot": self.sdot.tolist(),
                "q": self.q.tolist(),
                "qd": self.qd.tolist(),
                "qdd": self.qdd.tolist(),
                "tau": self.tau.tolist(),
                "wrench": {cid: self.wrench[cid].tolist() for cid in self.contact_order},
                "margin": {cid: self.margin[cid].tolist() for cid in self.contact_order},
            },
        }


def profile_from_json_dict(data: dict) -> tuple[ScalingVariables, int, tuple]:
    """Rebuild the raw solve profile from a trajectory JSON dump.

    `grid_intervals` is read by the `grid_points` rule (a whole number, not
    a bool, text or fraction) and `profile.wrenches` must be an object; a
    field that breaks its rule is reported as malformed.
    """
    if _object(data, "trajectory").get("format") != TRAJECTORY_FORMAT:
        raise ScenarioError(f"unsupported trajectory format {data.get('format')!r}")
    try:
        p = data["profile"]
        profile = ScalingVariables(
            accel=np.asarray(p["accel"], dtype=float),
            speed_sq=np.asarray(p["speed_sq"], dtype=float),
            speed_aux=np.asarray(p["speed_aux"], dtype=float),
            inverse_avg=np.asarray(p["inverse_avg"], dtype=float),
            torque=np.asarray(p["torque"], dtype=float),
            wrenches={cid: np.asarray(w, dtype=float) for cid, w in _object(p["wrenches"], "profile.wrenches").items()},
        )
        boundary = tuple(None if v is None else float(v) for v in data["boundary_sdot"])
        return profile, _whole(data["grid_intervals"], "grid_intervals"), boundary
    except KeyError as exc:
        raise ScenarioError(f"trajectory has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"trajectory has a malformed field: {exc}") from exc


def check_profile(profile: ScalingVariables, intervals: int, scenario: Scenario) -> None:
    """Raise ScenarioError naming the first field of a solve profile that does not fit the scenario.

    At K = `intervals` (at least 1): accel and inverse_avg hold K values,
    speed_sq and speed_aux K + 1, torque is (K, dof), and the wrenches are
    keyed by exactly the scenario's contact ids, each (K, 6).  Every entry
    is finite.
    """
    K = intervals
    if K < 1:
        raise ScenarioError(f"trajectory grid_intervals must be at least 1, got {K}")

    def fit(name, value, shape):
        if value.shape != shape:
            raise ScenarioError(
                f"trajectory profile {name} has shape {value.shape}; scenario {scenario.name!r} at K = {K} needs {shape}"
            )
        if not np.isfinite(value).all():
            raise ScenarioError(f"trajectory profile {name} has a non-finite entry")

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

    q = np.hstack([r.path.position(s) for r in scene.robots])
    dq = np.hstack([r.path.derivative(s) for r in scene.robots])
    ddq = np.hstack([r.path.second_derivative(s) for r in scene.robots])
    qd = dq * sdot[:, None]
    qdd = ddq * b[:, None] + dq * sddot[:, None]
    tau = solution.torque[k_idx]

    wrench = {cid: solution.wrenches[cid][k_idx] for cid in program.contact_order}
    margin = {sc.cid: cone_margin(sc.cone, wrench[sc.cid]) for sc in scene.contacts}

    return TrajectoryOutput(
        scenario_name=scenario.name,
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
    data = copy.deepcopy(data)
    for p in params:
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
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, jobs))
