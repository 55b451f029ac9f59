"""Transcription checks: bookkeeping, row structure, and the time recovery map.

The single-interval slider instance has a closed-form optimum worked out by
hand (unit mass, unit force bound, straight path, free terminal speed): the
force bound is active over the whole interval, the terminal squared speed is
2 and the travel time is sqrt(2).  That point must satisfy every assembled
row and reproduce the objective, which pins down signs and scalings of the
whole assembly independent of any solver.
"""

import bisect
import copy
import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_limits, planar_arm, spatial_arm
from contact_topp.contacts import ContactSpec, FrictionParams
from contact_topp.dynamics import ObjectInstance, ObjectModel, RobotInstance, Scene, sample_path_dynamics
from contact_topp.liegroup import Pose, Twist
from contact_topp.paths import JointPath
from contact_topp.robot import JointDef, JointLimits, Link, LinkInertia, RobotModel
from contact_topp.scenario import (
    RunSettings,
    assemble_scenario,
    load_scenario,
    run,
    scenario_from_dict,
    solve_scenario,
)
from contact_topp.solver import canonicalize, cone_residual
from contact_topp.transcription import (
    ConicProgram,
    RowIds,
    assemble,
    build_grid,
    recover_time,
)
from contact_topp.verification import audit

DATA = Path(__file__).resolve().parent / "data"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def slider_robot(torque_cap=1.0):
    """Single prismatic joint along x, unit mass, gravity-neutral."""
    inertia = LinkInertia(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-6)
    return RobotModel(
        name="slider",
        joints=(JointDef(kind="prismatic", twist=Twist.prismatic(np.array([1.0, 0.0, 0.0]))),),
        links=(Link(home_pose=Pose.identity(), inertia=inertia),),
        x_ref=Pose.identity(),
        tool_offset=Pose.identity(),
        limits=JointLimits(
            torque_lower=[-torque_cap],
            torque_upper=[torque_cap],
            velocity_max=[1e6],
            accel_lower=[-1e6],
            accel_upper=[1e6],
        ),
    )


def slider_scene():
    path = JointPath(np.array([[0.0], [1.0]]), boundary="natural")
    return Scene(robots=(RobotInstance(slider_robot(), path),), objects=())


class TestGrid:
    def test_uniform_layout(self):
        g = build_grid(4)
        assert g.spacing == 0.25
        assert np.allclose(g.points, [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_grid(0)


def grasped_scene(K_waypoints=5):
    """Spatial arm holding a box through two soft-finger contacts."""
    model = spatial_arm()
    q0 = np.array([0.1, -0.2, 0.1, 0.3])
    q1 = np.array([0.4, 0.1, 0.25, -0.2])
    way = np.linspace(q0, q1, K_waypoints)
    contacts = []
    for name, y in (("left", -0.04), ("right", 0.04)):
        R = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, np.sign(y) * 1.0], [1.0 * np.sign(y) * np.sign(y), 0.0, 0.0]])
        # columns: x on object z, y sideways, z pressing toward the object center
        Rz = np.zeros((3, 3))
        Rz[:, 2] = np.array([0.0, -np.sign(y), 0.0])
        Rz[:, 0] = np.array([0.0, 0.0, 1.0])
        Rz[:, 1] = np.cross(Rz[:, 2], Rz[:, 0])
        contacts.append(
            ContactSpec(
                name=name,
                kind="manipulator",
                model="sfce",
                pose=Pose(Rz, np.array([0.0, y, 0.0])),
                params=FrictionParams(mu=0.6, ez=0.25),
                fz_max=40.0,
            )
        )
    box = ObjectModel("box", 1.0, np.eye(3) * 1e-3, contacts=tuple(contacts))
    return Scene(
        robots=(RobotInstance(model, JointPath(way)),),
        objects=(ObjectInstance(model=box, parent_robot=0),),
    )


class TestVariableCounting:
    def test_contact_free_rest_to_rest(self):
        # K(4 + n) - 2 variables with n = 1
        prog = assemble(slider_scene(), build_grid(5))
        assert prog.num_vars == 5 * (4 + 1) - 2

    def test_soft_finger_pair(self):
        # v = 2 soft-finger cones, n = 4: K(4 + 4*2 + 4) - 2
        prog = assemble(grasped_scene(), build_grid(3))
        assert prog.num_vars == 3 * (4 + 8 + 4) - 2

    def test_free_terminal_speed_adds_one_node(self):
        base = assemble(slider_scene(), build_grid(4))
        free = assemble(slider_scene(), build_grid(4), (0.0, None))
        assert free.num_vars == base.num_vars + 2

    def test_pinned_components_take_no_columns(self):
        prog = assemble(grasped_scene(), build_grid(3))
        # a soft finger stores the forces and the twisting moment, 4 of 6
        for cid in prog.contact_order:
            assert prog.components[cid] == (0, 1, 2, 5)
            width = prog.slices[f"F:{cid}"]
            assert width.stop - width.start == 3 * 4


def family_names(ids, rows=slice(None)):
    """The family name of each of `rows`."""
    return [ids.families[f][0] for f in ids.family[rows].tolist()]


def cone_heads(cones):
    """The family name of each cone's head row."""
    sizes = np.array(cones.sizes, dtype=np.intp)
    return family_names(cones.ids, np.cumsum(sizes) - sizes)


class TestRowStructure:
    def test_equality_row_census(self):
        K = 3
        prog = assemble(grasped_scene(), build_grid(K))
        n = 4
        names = family_names(prog.equalities.ids)
        assert Counter(names) == {"torque": K * n, "balance": K * 6, "coupling": K}
        assert prog.equalities.matrix.shape[0] == len(names)

    def test_row_order_is_deterministic(self):
        p1 = assemble(grasped_scene(), build_grid(3))
        p2 = assemble(grasped_scene(), build_grid(3))
        for section in ("equalities", "bounds", "cones"):
            a, b = getattr(p1, section).ids, getattr(p2, section).ids
            assert a.families == b.families
            for field in ("family", "k", "j"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert p1.cones.sizes == p2.cones.sizes
        m1, m2 = p1.equalities.matrix, p2.equalities.matrix
        assert np.array_equal(m1.indptr, m2.indptr)
        assert np.array_equal(m1.indices, m2.indices)
        assert np.array_equal(m1.data, m2.data)

    def test_cone_census(self):
        K = 3
        prog = assemble(grasped_scene(), build_grid(K))
        # boundary nodes eliminated: K - 1 sqrt epigraphs
        assert Counter(cone_heads(prog.cones)) == {"cone_head": 2 * K, "sqrt_head": K - 1, "inv_head": K}

    def test_contact_free_scene_has_only_epigraph_cones(self):
        prog = assemble(slider_scene(), build_grid(4))
        assert set(cone_heads(prog.cones)) == {"sqrt_head", "inv_head"}


class TestSliderBangSolution:
    """Hand-computed optimum of the single-interval slider with free exit speed."""

    def optimum(self, prog: ConicProgram):
        x = np.zeros(prog.num_vars)
        x[prog.slices["a"]] = 1.0
        x[prog.slices["b"]] = 2.0
        x[prog.slices["c"]] = math.sqrt(2.0)
        x[prog.slices["d"]] = 1.0 / math.sqrt(2.0)
        x[prog.slices["tau"]] = 1.0
        return x

    def test_optimum_is_feasible(self):
        prog = assemble(slider_scene(), build_grid(1), (0.0, None))
        form, x = canonicalize(prog), self.optimum(prog)
        assert np.max(np.abs(form.A @ x - form.b)) <= 1e-12
        assert cone_residual(form.cones, form.h - form.G @ x) <= 1e-12

    def test_objective_equals_travel_time(self):
        prog = assemble(slider_scene(), build_grid(1), (0.0, None))
        x = self.optimum(prog)
        assert float(prog.objective @ x) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        sol = prog.extract(x)
        timing = recover_time(sol.speed_sq, prog.grid)
        assert timing.total == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_torque_above_cap_breaks_feasibility(self):
        prog = assemble(slider_scene(), build_grid(1), (0.0, None))
        x = self.optimum(prog)
        x[prog.slices["a"]] = 1.2
        x[prog.slices["tau"]] = 1.2
        x[prog.slices["b"]] = 2.4
        form = canonicalize(prog)
        slack = (form.h - form.G @ x)[: form.cones.orthant]
        worst = int(np.argmin(slack))
        assert form.ids.families[form.ids.family[worst]] == ("torque_box", None, "upper")
        assert slack[worst] < -0.1


class TestExtraction:
    def test_extract_fills_boundary_constants(self):
        prog = assemble(slider_scene(), build_grid(4), (0.3, 0.5))
        x = np.zeros(prog.num_vars)
        sol = prog.extract(x)
        assert sol.speed_sq[0] == pytest.approx(0.09)
        assert sol.speed_sq[-1] == pytest.approx(0.25)
        assert sol.speed_aux[0] == pytest.approx(0.3)
        assert sol.torque.shape == (4, 1)

    def test_wrench_layout(self):
        prog = assemble(grasped_scene(), build_grid(2))
        x = np.arange(prog.num_vars, dtype=float)
        sol = prog.extract(x)
        cid = prog.contact_order[0]
        sl = prog.slices[f"F:{cid}"]
        stored = list(prog.components[cid])
        assert np.array_equal(sol.wrenches[cid][0, stored], x[sl][:4])
        assert np.array_equal(sol.wrenches[cid][1, stored], x[sl][4:8])
        # the soft finger's untransmitted moments come out as exact zeros
        assert sol.wrenches[cid].shape == (2, 6)
        assert np.all(sol.wrenches[cid][:, [3, 4]] == 0.0)


def time_of(timing, s):
    """Closed-form time at path position s: the inverse of `PathTiming.s_of`."""
    pts = timing.grid.points
    k = min(max(int(np.searchsorted(pts, s, side="right")) - 1, 0), timing.grid.intervals - 1)
    b_lo, b_hi = timing.speed_sq[k], timing.speed_sq[k + 1]
    slope = (b_hi - b_lo) / timing.grid.spacing
    ds = s - pts[k]
    if slope == 0.0:
        return timing.node_times[k] + ds / math.sqrt(b_lo)
    return timing.node_times[k] + 2.0 * (math.sqrt(b_lo + slope * ds) - math.sqrt(b_lo)) / slope


def ref_s_of(timing, t):
    """`PathTiming.s_of` at one time, written one Python float at a time."""
    t = min(max(float(t), 0.0), timing.total)
    k = min(max(int(np.searchsorted(timing.node_times, t, side="right")) - 1, 0), timing.grid.intervals - 1)
    dt = t - float(timing.node_times[k])
    b_lo, b_hi = float(timing.speed_sq[k]), float(timing.speed_sq[k + 1])
    slope = (b_hi - b_lo) / timing.grid.spacing
    root_lo = math.sqrt(max(b_lo, 0.0))
    s_k = float(timing.grid.points[k])
    if abs(slope) < 1e-300:
        return s_k + root_lo * dt
    root_here = max(root_lo + 0.5 * slope * dt, 0.0)
    return min(max(s_k + (root_here**2 - b_lo) / slope, 0.0), 1.0)


class TestRecoverTime:
    def test_unit_speed(self):
        g = build_grid(10)
        timing = recover_time(np.ones(11), g)
        assert timing.total == pytest.approx(1.0)
        for s in (0.0, 0.23, 0.77, 1.0):
            assert time_of(timing, s) == pytest.approx(s, abs=1e-12)

    def test_double_speed(self):
        timing = recover_time(np.full(5, 4.0), build_grid(4))
        assert timing.total == pytest.approx(0.5)

    def test_single_ramp(self):
        timing = recover_time(np.array([0.0, 1.0]), build_grid(1))
        assert timing.total == pytest.approx(2.0)

    def test_stall_raises_with_index(self):
        b = np.array([1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="interval 1"):
            recover_time(b, build_grid(3))

    @pytest.mark.parametrize("K", [1, 2, 16, 250, 500, 2000])
    def test_node_times_match_running_total(self, K):
        # the cumsum adds in the order of a running total, so every bit agrees
        rng = np.random.default_rng(K)
        b = rng.uniform(0.0, 3.0, K + 1) ** 3
        grid = build_grid(K)
        roots = np.sqrt(b)
        times = [0.0]
        for k in range(K):
            times.append(times[-1] + 2.0 * grid.spacing / (roots[k] + roots[k + 1]))
        timing = recover_time(b, grid)
        assert timing.node_times.tobytes() == np.array(times).tobytes()
        assert timing.total == times[-1]

    def test_time_map_round_trip(self):
        rng = np.random.default_rng(3)
        b = np.abs(rng.normal(size=9)) + 0.05
        b[0] = 0.0
        timing = recover_time(b, build_grid(8))
        for s in np.linspace(0.01, 1.0, 17):
            assert timing.s_of(time_of(timing, s)) == pytest.approx(s, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_s_of_array_matches_point_loop(self, seed):
        # random profiles with stops, flat stretches and wide speed ranges;
        # times before 0 and past the end included
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 40))
        b = (rng.random(K + 1) + 1e-3) * 10.0 ** rng.uniform(-3, 3)
        b[rng.random(K + 1) < 0.3] = b[0]
        # stops at even nodes only, so no interval has two
        b[(rng.random(K + 1) < 0.3) & (np.arange(K + 1) % 2 == 0)] = 0.0
        timing = recover_time(b, build_grid(K))
        # x * x and the pow of a float's ** differ in the last bit now and
        # then, and s shows it at about 2 in 10 000 times
        t = np.concatenate((np.linspace(0.0, timing.total, 1000), rng.uniform(-0.1, 1.1, 1000) * timing.total))
        got = timing.s_of(t)
        assert got.shape == t.shape
        assert got.tobytes() == np.array([ref_s_of(timing, tj) for tj in t]).tobytes()
        assert timing.s_of(float(t[7])) == got[7]

    def test_node_times_match_interval_formula(self):
        b = np.array([0.0, 0.5, 2.0, 1.0])
        g = build_grid(3)
        timing = recover_time(b, g)
        manual = np.cumsum([2 * g.spacing / (np.sqrt(b[k]) + np.sqrt(b[k + 1])) for k in range(3)])
        assert np.allclose(timing.node_times[1:], manual)


class TestConstantRowChecks:
    def test_fixed_boundary_speed_violating_velocity_cap(self):
        # K = 1 with both ends pinned fast while the joint speed cap is tiny
        model = slider_robot()
        lim = JointLimits(
            torque_lower=[-1.0], torque_upper=[1.0], velocity_max=[0.1], accel_lower=[-1e6], accel_upper=[1e6]
        )
        model = RobotModel(
            name=model.name,
            joints=model.joints,
            links=model.links,
            x_ref=model.x_ref,
            tool_offset=model.tool_offset,
            limits=lim,
        )
        path = JointPath(np.array([[0.0], [1.0]]), boundary="natural")
        scene = Scene(robots=(RobotInstance(model, path),), objects=())
        with pytest.raises(ValueError, match="velocity limit"):
            assemble(scene, build_grid(1), (5.0, 5.0))

    def test_rest_to_rest_single_interval_is_a_degenerate_stall(self):
        # c^0 + c^1 = 0 leaves the epigraph of d >= 1/(c^0 + c^1) empty
        with pytest.raises(ValueError, match="degenerate stall"):
            assemble(slider_scene(), build_grid(1))
        # one fixed end moving, or one end free, leaves the interval passable
        for ends in ((0.0, 0.5), (0.0, None)):
            assert assemble(slider_scene(), build_grid(1), ends).num_vars > 0


def velocity_rows(program):
    """{interval: [joints]} of the program's velocity rows."""
    ids = program.bounds.ids
    mine = ids.family == ids.families.index(("velocity", None))
    rows = {}
    for k, i in zip(ids.k[mine].tolist(), ids.j[mine].tolist()):
        rows.setdefault(k, []).append(i)
    return rows


def arm_7dof_with_velocity_max(vmax):
    data = json.loads((SCENARIOS / "arm_7dof.json").read_text())
    for joint, v in zip(data["robots"][0]["model"]["joints"], vmax):
        joint["velocity_max"] = v
    return scenario_from_dict(data)


class TestVelocityRows:
    @pytest.mark.parametrize("name", ["pivoting", "arm_7dof"])
    def test_one_row_per_interval(self, name):
        program = assemble_scenario(load_scenario(SCENARIOS / f"{name}.json"), build_grid(80))
        rows = velocity_rows(program)
        assert sorted(rows) == list(range(80))
        assert all(len(joints) == 1 for joints in rows.values())

    @pytest.mark.parametrize("path", sorted(SCENARIOS.rglob("*.json")), ids=lambda p: p.stem)
    def test_row_is_the_least_room_of_the_scalar_samples(self, path):
        # vmax_i^2 / q'_i^2 from the scalar sampler, over the joints that
        # have a finite limit and move
        sc = load_scenario(path)
        grid = build_grid(16)
        rows = velocity_rows(assemble_scenario(sc, grid))
        vmax = sc.scene.limit_arrays()[2]
        for k, s in enumerate(grid.midpoints):
            dq = sample_path_dynamics(sc.scene, float(s)).dq
            room = {i: vmax[i] ** 2 / dq[i] ** 2 for i in range(dq.size) if np.isfinite(vmax[i]) and dq[i] != 0.0}
            if not room:
                assert k not in rows
                continue
            (i,) = rows[k]
            assert room[i] <= min(room.values()) * (1.0 + 1e-12), (k, i)

    def test_stationary_joint_gets_no_row(self):
        # joint 1 holds still, so its tiny limit bounds nothing
        limits = make_limits(2)
        limits = dataclasses.replace(limits, velocity_max=np.array([2.0, 1e-3]))
        path = JointPath(np.array([[0.0, 0.3], [0.5, 0.3], [1.0, 0.3]]), boundary="natural")
        scene = Scene(robots=(RobotInstance(planar_arm([0.5, 0.5], [1.0, 1.0], limits=limits), path),), objects=())
        grid = build_grid(8)
        assert sample_path_dynamics(scene, 0.3).dq[1] == 0.0
        assert velocity_rows(assemble(scene, grid)) == {k: [0] for k in range(8)}

    @settings(max_examples=8)
    @given(st.lists(st.sampled_from([None, 0.5, 1.0, 2.0]) | st.floats(0.3, 3.0), min_size=7, max_size=7))
    def test_dropped_rows_never_bind(self, vmax):
        # the audit measures every joint's limit, so a joint whose row was
        # not emitted would show here
        sc = arm_7dof_with_velocity_max(vmax)
        _, report, solution = solve_scenario(sc, RunSettings(grid_override=16))
        assert report.status == "Optimal"
        assert audit(solution, sc).families["velocity_limits"] <= 1e-6


# golden program-v1 dumps, written by the assembly that built one Python
# object per row; the array assembly must reproduce them row for row.  That
# assembly stored some zero coefficients, which today's drops: a stored zero
# and a missing entry are the same row.

VALUE_TOL = dict(rtol=1e-12, atol=1e-15)


def waiter_free_end_program():
    data = json.loads((SCENARIOS / "waiter" / "tilt_0.json").read_text())
    data["boundary_sdot"] = [0.0, None]
    return assemble_scenario(scenario_from_dict(data), build_grid(3))


GOLDEN = {
    "program_grasped_k2.json": lambda: assemble(grasped_scene(), build_grid(2)),
    # pinned end speeds that are not zero fold into the row constants
    "program_grasped_k2_moving_ends.json": lambda: assemble(
        grasped_scene(), build_grid(2), (0.3, 0.5)
    ),
    "program_waiter_tilt_0_k3.json": waiter_free_end_program,
}


def golden_program(name):
    """The golden dump in today's layout.

    Each interval's velocity rows are cut to the one `assemble` keeps: the
    least (upper - offset) / coefficient, the lowest joint on a tie, and no
    row whose coefficients are all zero.  The golden gave every contact six
    wrench columns and pinned the untransmitted ones with `pin[` rows; those
    rows go, each pinned column leaves every row it is in, and every later
    column moves down by the pinned columns before it.  The dump's `pinned`
    list gives way to each contact's stored components.
    """
    data = json.loads((DATA / name).read_text())
    pinned = sorted(data.pop("pinned"))

    def renumber(col):
        return col - bisect.bisect_left(pinned, col)

    def kept_entries(row):
        keep = [(c, v) for c, v in zip(row["cols"], row["vals"]) if c not in pinned]
        return dict(row, cols=[renumber(c) for c, _ in keep], vals=[v for _, v in keep])

    data["components"] = {}
    for cid in data["contact_order"]:
        start, stop = data["slices"][f"F:{cid}"]
        gone = {(c - start) % 6 for c in pinned if start <= c < stop}
        data["components"][cid] = [i for i in range(6) if i not in gone]
    data["slices"] = {key: [renumber(a), renumber(b)] for key, (a, b) in data["slices"].items()}
    data["num_vars"] -= len(pinned)
    data["objective"]["cols"] = [renumber(c) for c in data["objective"]["cols"]]
    data["equalities"] = [kept_entries(r) for r in data["equalities"] if not r["label"].startswith("pin[")]
    data["bounds"] = [kept_entries(r) for r in data["bounds"]]
    for cone in data["cones"]:
        cone["rows"] = [kept_entries(r) for r in cone["rows"]]
    best = {}
    for row in data["bounds"]:
        if row["label"].startswith("velocity[") and any(row["vals"]):
            room = (row["upper"] - row["offset"]) / next(v for v in row["vals"] if v != 0.0)
            interval = row["label"].split("]")[0]
            if interval not in best or room < best[interval][0]:
                best[interval] = (room, row["label"])
    kept = {label for _, label in best.values()}
    data["bounds"] = [r for r in data["bounds"] if not r["label"].startswith("velocity[") or r["label"] in kept]
    return data


def assert_rows_match(fresh, golden):
    """Same rows in the same order; the column order inside a row is free."""
    assert len(fresh) == len(golden)
    for new, old in zip(fresh, golden):
        assert new.keys() == old.keys()
        assert {k: new[k] for k in new if k not in ("cols", "vals", "offset")} == {
            k: old[k] for k in old if k not in ("cols", "vals", "offset")
        }
        # a column absent from a row reads as 0, so an entry that is zero only
        # to rounding (below VALUE_TOL's atol) may be present on one side alone
        new_map = dict(zip(new["cols"], new["vals"]))
        old_map = dict(zip(old["cols"], old["vals"]))
        cols = sorted(new_map.keys() | old_map.keys())
        np.testing.assert_allclose(
            [new_map.get(c, 0.0) for c in cols], [old_map.get(c, 0.0) for c in cols], err_msg=new["label"], **VALUE_TOL
        )
        np.testing.assert_allclose(new["offset"], old["offset"], **VALUE_TOL)


SHIPPED = sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("waiter/*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_wrench_columns_are_the_transmitted_components(path):
    # a point contact stores 3 components per interval, a soft finger 4, and
    # no row pins one of the others to zero
    sc = load_scenario(str(path))
    K = 16
    program = assemble_scenario(sc, build_grid(K))
    for contact in sc.scene.contacts:
        width = {"pcwf": 3, "sfce": 4}[contact.cone.model]
        columns = program.slices[f"F:{contact.cid}"]
        assert columns.stop - columns.start == K * width
    assert "pin" not in family_names(program.equalities.ids)


@pytest.mark.parametrize("K", [2, 16])
def test_shipped_programs_have_no_singleton_equality_rows(K):
    # K=80 is checked on the canonical form by
    # test_solver.py::TestPresolve::test_shipped_form_is_the_pin_substitution
    for path in SHIPPED:
        rows = assemble_scenario(load_scenario(str(path)), build_grid(K)).equalities.matrix
        assert np.all(np.diff(rows.indptr) != 1), (path.stem, K)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_programs_store_no_zeros(path):
    # a zero coefficient is no entry: the assembled matrices carry none, so
    # dumps and nonzero counts hold only the real coupling
    program = assemble_scenario(load_scenario(str(path)), build_grid(16))
    for rows in (program.equalities, program.bounds, program.cones):
        assert rows.matrix.nnz > 0
        zero = np.flatnonzero(rows.matrix.data == 0.0)
        row = np.searchsorted(rows.matrix.indptr, zero[:1], side="right") - 1
        assert zero.size == 0, (family_names(rows.ids, row), rows.ids.k[row], rows.ids.j[row])


# the families whose k is a grid node; every other family's k is an interval
NODE_FAMILIES = ("speed_sq_nonneg", "sqrt_head", "sqrt_tail_c", "sqrt_tail_b")
INTERVAL_FAMILIES = (
    "torque", "balance", "coupling", "torque_box", "velocity", "acceleration", "normal_cap",
    "cone_head", "cone_tail", "inv_head", "inv_tail_two", "inv_tail_diff",
)


def column_map(program):
    """Per column: its interval, its node, its joint (tau) or wrench
    component (F), and its contact, each -1 or None where it has none."""
    n = program.meta["dof"]
    interval, node, slot = (np.full(program.num_vars, -1) for _ in range(3))
    owner = np.full(program.num_vars, None, dtype=object)
    blocks = [("a", range(1)), ("d", range(1)), ("tau", range(n))]
    blocks += [(f"F:{cid}", program.components[cid]) for cid in program.contact_order]
    for name, slots in blocks:
        cols = np.arange(program.slices[name].start, program.slices[name].stop)
        interval[cols] = (cols - cols[0]) // len(slots)
        slot[cols] = np.asarray(slots)[(cols - cols[0]) % len(slots)]
        if name.startswith("F:"):
            owner[cols] = name[2:]
    for col in (program.nodes.b_col, program.nodes.c_col):
        node[col[col >= 0]] = np.flatnonzero(col >= 0)
    return interval, node, slot, owner


@pytest.mark.parametrize("K", [16, 80])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_row_ids_match_the_columns_they_touch(path, K):
    # the row identities against the variable layout alone, with no label text
    program = assemble_scenario(load_scenario(str(path)), build_grid(K))
    interval, node, slot, owner = column_map(program)
    tau_start, n = program.slices["tau"].start, program.meta["dof"]
    seen = set()
    for rows in (program.equalities, program.bounds, program.cones):
        ids = rows.ids
        names = np.array([name for name, _ in ids.families] + [""])[ids.family]
        owners = np.array([o for _, o in ids.families] + [None], dtype=object)[ids.family]
        seen |= set(names)
        coo = rows.matrix.tocoo()
        r, c = coo.row, coo.col
        k, j, name = ids.k[r], ids.j[r], names[r]
        at_node = np.isin(name, NODE_FAMILIES)
        # a node row touches only node k's b and c
        assert np.all(node[c[at_node]] == k[at_node])
        # an interval row touches interval k's a, d, tau and F and nodes k, k + 1
        lag = np.where(node[c] >= 0, node[c] - k, interval[c] - k)
        assert np.all(np.where(node[c] >= 0, (lag == 0) | (lag == 1), lag == 0)[~at_node])
        # a torque row holds the tau column (k, j); a torque box is that column alone
        hits = np.bincount(r[c == tau_start + n * k + j], minlength=rows.matrix.shape[0])
        assert np.all(hits[np.isin(names, ("torque", "torque_box"))] == 1)
        assert np.all(np.diff(rows.matrix.indptr)[names == "torque_box"] == 1)
        # cone tails and normal caps touch their contact's wrench at k, a tail its component j
        mine = np.isin(name, ("cone_tail", "normal_cap"))
        assert np.all(owner[c[mine]] == owners[r[mine]])
        assert np.all((slot[c] == j)[name == "cone_tail"])
    assert seen <= set(NODE_FAMILIES + INTERVAL_FAMILIES)
    assert {"torque", "torque_box", "speed_sq_nonneg", "sqrt_tail_b", "inv_head"} <= seen
    assert ("cone_tail" in seen) == bool(program.contact_order)


def test_run_formats_no_label(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a row label was formatted")

    monkeypatch.setattr(RowIds, "labels", refuse)
    out = run(load_scenario(SCENARIOS / "pickup.json"), RunSettings(grid_override=16))
    assert out.status == "Optimal"


class TestGoldenDumps:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_assembly_matches_row_for_row(self, name):
        golden = golden_program(name)
        fresh = GOLDEN[name]().to_json_dict()
        assert fresh.keys() == golden.keys()
        assert_rows_match(fresh["equalities"], golden["equalities"])
        assert_rows_match(fresh["bounds"], golden["bounds"])
        assert [c["label"] for c in fresh["cones"]] == [c["label"] for c in golden["cones"]]
        for new, old in zip(fresh["cones"], golden["cones"]):
            assert_rows_match(new["rows"], old["rows"])
        for key in ("components", "slices", "nodes", "num_vars", "objective", "grid_intervals", "contact_order", "meta"):
            assert fresh[key] == golden[key], key

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_comparator_sees_one_real_coefficient(self, change):
        # the smallest real coefficient in the goldens is 1.25e-6, far above
        # the rounding-level entries the comparator reads as 0
        golden = golden_program("program_waiter_tilt_0_k3.json")
        rows = golden["equalities"]
        edited = copy.deepcopy(rows)
        row = edited[next(k for k, r in enumerate(rows) if r["label"].startswith("balance[") and len(r["cols"]) > 1)]
        if change == "drop":
            k = int(np.argmax(np.abs(row["vals"])))
            del row["cols"][k], row["vals"][k]
        else:
            row["cols"].append(next(c for c in range(golden["num_vars"]) if c not in row["cols"]))
            row["vals"].append(1.25e-6)
        assert_rows_match(rows, rows)
        with pytest.raises(AssertionError):
            assert_rows_match(edited, rows)
