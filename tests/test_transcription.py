"""Transcription checks: bookkeeping, row structure, and the time recovery map.

The single-interval slider instance has a closed-form optimum worked out by
hand (unit mass, unit force bound, straight path, free terminal speed): the
force bound is active over the whole interval, the terminal squared speed is
2 and the travel time is sqrt(2).  That point must satisfy every assembled
row and reproduce the objective, which pins down signs and scalings of the
whole assembly independent of any solver.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_limits, spatial_arm
from contact_topp.contacts import ContactSpec, FrictionParams
from contact_topp.dynamics import ObjectInstance, ObjectModel, RobotInstance, Scene
from contact_topp.liegroup import Pose, Twist
from contact_topp.paths import JointPath
from contact_topp.robot import JointDef, JointLimits, Link, LinkInertia, RobotModel
from contact_topp.scenario import assemble_scenario, load_scenario, scenario_from_dict
from contact_topp.solver import canonicalize
from contact_topp.transcription import (
    ConicProgram,
    assemble,
    build_grid,
    program_from_json_dict,
    recover_time,
)


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
        # free scalars K(4 + n) - 2 with n = 1
        prog = assemble(slider_scene(), build_grid(5))
        assert prog.free_scalar_count() == 5 * (4 + 1) - 2

    def test_soft_finger_pair(self):
        # v = 2 soft-finger cones, n = 4: K(4 + 4*2 + 4) - 2
        prog = assemble(grasped_scene(), build_grid(3))
        assert prog.free_scalar_count() == 3 * (4 + 8 + 4) - 2

    def test_free_terminal_speed_adds_one_node(self):
        base = assemble(slider_scene(), build_grid(4))
        free = assemble(slider_scene(), build_grid(4), (0.0, None))
        assert free.free_scalar_count() == base.free_scalar_count() + 2

    def test_pinned_components_stay_as_variables(self):
        prog = assemble(grasped_scene(), build_grid(3))
        # two sfce contacts pin 2 components each across 3 midpoints
        assert len(prog.pinned_idx) == 2 * 2 * 3
        assert prog.num_vars == prog.free_scalar_count() + len(prog.pinned_idx)


class TestRowStructure:
    def test_equality_row_census(self):
        K = 3
        prog = assemble(grasped_scene(), build_grid(K))
        n = 4
        labels = prog.equalities.labels
        torque = sum(1 for label in labels if label.startswith("torque["))
        balance = sum(1 for label in labels if label.startswith("balance["))
        coupling = sum(1 for label in labels if label.startswith("coupling["))
        pins = sum(1 for label in labels if label.startswith("pin["))
        assert torque == K * n
        assert balance == K * 6
        assert coupling == K
        assert pins == K * 2 * 2
        assert prog.equalities.matrix.shape[0] == len(labels) == torque + balance + coupling + pins

    def test_row_order_is_deterministic(self):
        p1 = assemble(grasped_scene(), build_grid(3))
        p2 = assemble(grasped_scene(), build_grid(3))
        assert p1.equalities.labels == p2.equalities.labels
        assert p1.bounds.labels == p2.bounds.labels
        assert p1.cones.cone_labels == p2.cones.cone_labels
        m1, m2 = p1.equalities.matrix, p2.equalities.matrix
        assert np.array_equal(m1.indptr, m2.indptr)
        assert np.array_equal(m1.indices, m2.indices)
        assert np.array_equal(m1.data, m2.data)

    def test_cone_census(self):
        K = 3
        prog = assemble(grasped_scene(), build_grid(K))
        labels = prog.cones.cone_labels
        contact = sum(1 for label in labels if label.startswith("cone["))
        sqrtc = sum(1 for label in labels if label.startswith("sqrt_epigraph["))
        invc = sum(1 for label in labels if label.startswith("inv_epigraph["))
        assert contact == 2 * K
        assert sqrtc == K - 1  # boundary nodes eliminated
        assert invc == K

    def test_contact_free_scene_has_only_epigraph_cones(self):
        prog = assemble(slider_scene(), build_grid(4))
        assert all(
            label.startswith("sqrt_epigraph[") or label.startswith("inv_epigraph[") for label in prog.cones.cone_labels
        )


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
        report = prog.residual_report(self.optimum(prog))
        assert max(report.values()) <= 1e-12

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
        report = prog.residual_report(x)
        assert report["torque_box"] > 0.1


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
        assert np.allclose(sol.wrenches[cid][0], x[sl][:6])
        assert np.allclose(sol.wrenches[cid][1], x[sl][6:12])


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


class TestDumpRoundTrip:
    def test_json_round_trip_preserves_rows(self):
        prog = assemble(grasped_scene(), build_grid(2))
        blob = json.dumps(prog.to_json_dict())
        back = program_from_json_dict(json.loads(blob))
        assert back.num_vars == prog.num_vars
        assert back.free_scalar_count() == prog.free_scalar_count()
        assert back.equalities.labels == prog.equalities.labels
        x = np.linspace(-1.0, 1.0, prog.num_vars)
        r1 = prog.residual_report(x)
        r2 = back.residual_report(x)
        assert r1.keys() == r2.keys()
        for k in r1:
            assert r1[k] == pytest.approx(r2[k], rel=1e-12, abs=1e-12)

    def test_format_tag_checked(self):
        with pytest.raises(ValueError, match="format"):
            program_from_json_dict({"format": "something-else"})


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


# golden program-v1 dumps, written by the assembly that built one Python
# object per row; the array assembly must reproduce them row for row.  That
# assembly stored some zero coefficients, which today's drops: a stored zero
# and a missing entry are the same row.

DATA = Path(__file__).resolve().parent / "data"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
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


def assert_rows_match(fresh, golden):
    """Same rows in the same order; the column order inside a row is free."""
    assert len(fresh) == len(golden)
    for new, old in zip(fresh, golden):
        assert new.keys() == old.keys()
        assert {k: new[k] for k in new if k not in ("cols", "vals", "offset")} == {
            k: old[k] for k in old if k not in ("cols", "vals", "offset")
        }
        new_map = dict(zip(new["cols"], new["vals"]))
        old_map = {c: v for c, v in zip(old["cols"], old["vals"]) if v != 0.0}
        assert sorted(new_map) == sorted(old_map), new["label"]
        cols = sorted(old_map)
        np.testing.assert_allclose([new_map[c] for c in cols], [old_map[c] for c in cols], **VALUE_TOL)
        np.testing.assert_allclose(new["offset"], old["offset"], **VALUE_TOL)


SHIPPED = sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("waiter/*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_programs_store_no_zeros(path):
    # a zero coefficient is no entry: the assembled matrices carry none, so
    # dumps and nonzero counts hold only the real coupling
    program = assemble_scenario(load_scenario(str(path)), build_grid(16))
    for rows in (program.equalities, program.bounds, program.cones):
        assert rows.matrix.nnz > 0
        assert np.count_nonzero(rows.matrix.data == 0.0) == 0, rows.labels[0]


class TestGoldenDumps:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_assembly_matches_row_for_row(self, name):
        golden = json.loads((DATA / name).read_text())
        fresh = GOLDEN[name]().to_json_dict()
        assert fresh.keys() == golden.keys()
        assert_rows_match(fresh["equalities"], golden["equalities"])
        assert_rows_match(fresh["bounds"], golden["bounds"])
        assert [c["label"] for c in fresh["cones"]] == [c["label"] for c in golden["cones"]]
        for new, old in zip(fresh["cones"], golden["cones"]):
            assert_rows_match(new["rows"], old["rows"])
        for key in ("pinned", "slices", "nodes", "num_vars", "objective", "grid_intervals", "contact_order", "meta"):
            assert fresh[key] == golden[key], key

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_canonicalizes_like_fresh_assembly(self, name):
        loaded = canonicalize(program_from_json_dict(json.loads((DATA / name).read_text())))
        fresh = canonicalize(GOLDEN[name]())
        assert loaded.cones == fresh.cones
        assert loaded.row_labels == fresh.row_labels
        for key in ("A", "G"):
            got, want = getattr(loaded, key).copy(), getattr(fresh, key)
            got.eliminate_zeros()
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            np.testing.assert_allclose(got.data, want.data, **VALUE_TOL)
        for key in ("b", "h", "c"):
            np.testing.assert_allclose(getattr(loaded, key), getattr(fresh, key), **VALUE_TOL)

