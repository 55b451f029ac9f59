"""Acceptance suite: one test per promised property, at its stated tolerance.

Every test prints a single summary line so a full run reads as a checklist.
Solves are cached per (file, grid) and shared across tests; everything runs
from the shipped scenario files plus a handful of synthetic assemblies.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_limits, planar_arm
from contact_topp.contacts import ContactSpec, FrictionParams
from contact_topp.dynamics import ObjectInstance, ObjectModel, RobotInstance, Scene
from contact_topp.liegroup import Pose
from contact_topp.paths import JointPath
from contact_topp.robot import robot_from_json
from contact_topp.scenario import (
    InfeasibleScenarioError,
    RunSettings,
    load_scenario,
    run,
    solve_scenario,
    sweep,
)
from contact_topp.solver import solve
from contact_topp.transcription import assemble, build_grid
from contact_topp.verification import audit, fd_suite, topp_phase_plane
from test_solver import ANALYTIC_CASES, form

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

CONTACT_FREE = ["double_integrator.json", "planar_2dof.json", "arm_7dof.json"]
FEASIBLE = CONTACT_FREE + [
    "pickup.json",
    "pivoting.json",
    "waiter/tilt_0.json",
    "waiter/tilt_10.json",
    "waiter/tilt_15.json",
]
INFEASIBLE = ["waiter/tilt_17_5.json", "waiter/tilt_20.json"]
SHIPPED = FEASIBLE + INFEASIBLE


@functools.lru_cache(maxsize=None)
def scenario(rel):
    return load_scenario(str(SCENARIOS / rel))


@functools.lru_cache(maxsize=None)
def solved(rel, grid):
    sc = scenario(rel)
    t0 = time.time()
    _, report, solution = solve_scenario(sc, RunSettings(grid_override=grid))
    wall = time.time() - t0
    assert report.status == "Optimal", f"{rel} at K={grid}: {report.status}"
    return report, solution, wall


def ok(line):
    print(f"PASS  {line}")


def test_criterion_01_oracle_equivalence():
    # contact-free fixtures: conic optimum vs phase-plane integration, 2%
    worst = 0.0
    for rel in CONTACT_FREE:
        report, _, wall = solved(rel, 250)
        reference = topp_phase_plane(scenario(rel)).total
        rel_err = abs(report.objective - reference) / reference
        worst = max(worst, rel_err)
        assert rel_err <= 0.02, f"{rel}: {rel_err:.3e}"
        assert wall <= 60.0, f"{rel}: solve took {wall:.1f}s"
    ok(f"criterion 1: oracle equivalence on {len(CONTACT_FREE)} fixtures, worst {worst:.2e} (tol 2e-2)")


def test_criterion_02_closed_form_double_integrator():
    report, _, _ = solved("double_integrator.json", 250)
    assert report.objective == pytest.approx(2.000, abs=0.02)
    ok(f"criterion 2: double integrator T = {report.objective:.6f} (2.000 +/- 0.02)")


def test_criterion_03_variable_count_formula():
    arm7_json = json.loads((SCENARIOS / "arm_7dof.json").read_text())["robots"][0]["model"]

    def contact(model, name, y):
        pose = Pose(np.eye(3), np.array([0.0, y, 0.0]))
        return ContactSpec(
            name=name,
            kind="manipulator",
            model=model,
            pose=pose,
            params=FrictionParams(mu=0.5, ez=0.1),
            fz_max=25.0,
        )

    def scene_for(u, v, n):
        if n % 7 == 0:
            one = robot_from_json(arm7_json)
            robots = tuple(
                RobotInstance(one, JointPath(np.array([[0.0] * 7, [0.5] * 7])))
                for _ in range(n // 7)
            )
        else:
            model = planar_arm((0.3, 0.25, 0.2), (2.0, 1.5, 1.0), limits=make_limits(3))
            robots = (RobotInstance(model, JointPath(np.array([[0.0] * 3, [0.4] * 3]))),)
        contacts = [contact("pcwf", f"p{i}", 0.02 + 0.01 * i) for i in range(u)]
        contacts += [contact("sfce", f"s{i}", -0.02 - 0.01 * i) for i in range(v)]
        box = ObjectModel("box", 1.0, np.eye(3) * 1e-3, contacts=tuple(contacts))
        return Scene(robots=robots, objects=(ObjectInstance(model=box, parent_robot=0),))

    for K, u, v, n in [(10, 0, 1, 3), (250, 2, 1, 7), (50, 3, 2, 14)]:
        prog = assemble(scene_for(u, v, n), build_grid(K))
        expect = K * (4 + 3 * u + 4 * v + n) - 2
        assert prog.num_vars == expect, (K, u, v, n)
    ok("criterion 3: free scalars K(4+3u+4v+n)-2 for (10,0,1,3), (250,2,1,7), (50,3,2,14)")


def test_criterion_04_resubstitution_audit():
    worst = 0.0
    for rel in FEASIBLE:
        for grid in (250, 500):
            _, solution, _ = solved(rel, grid)
            report = audit(solution, scenario(rel), tolerance=1e-6)
            worst = max(worst, report.worst)
            assert report.passed(), f"{rel} K={grid}: worst {report.worst:.2e}, flags {sorted(report.flagged)}"
    ok(f"criterion 4: audit clean on {2 * len(FEASIBLE)} Optimal solves, worst {worst:.2e} (tol 1e-6)")


def test_criterion_05_pickup_mass_trend():
    masses = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    points = sweep(scenario("pickup.json"), "objects.box.mass", masses, grid=80, threads=2)
    feasible = [p for p in points if p.status == "Optimal"]
    assert 2 <= len(feasible) < len(points), [p.status for p in points]
    times = [p.total_time for p in feasible]
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(times, times[1:])), times
    assert times[-1] > times[0] * 1.05
    onset = points[len(feasible)]
    assert onset.status == "PrimalInfeasible"
    assert all(p.status == "PrimalInfeasible" for p in points[len(feasible) :])
    ok(
        "criterion 5: pickup T nondecreasing over "
        f"{[f'{t:.3f}' for t in times]}, infeasible from m = {onset.value:g} kg"
    )


def test_criterion_06_pivoting_friction_invariance():
    # velocity limits must actually bind at the optimum
    sc = scenario("pivoting.json")
    _, solution, _ = solved("pivoting.json", 80)
    robot = sc.scene.robots[0]
    vmax = robot.model.limits.velocity_max
    grid = build_grid(80)
    activity = 0.0
    b_mid = 0.5 * (solution.speed_sq[:-1] + solution.speed_sq[1:])
    for k, m in enumerate(grid.midpoints):
        dq = robot.path.derivative(float(m))
        activity = max(activity, float(np.max(b_mid[k] * dq**2 / vmax**2)))
    assert activity >= 0.99, f"velocity limits inactive (peak use {activity:.3f})"

    mus = [0.2, 0.3, 0.4, 0.5]
    points = sweep(
        sc,
        [
            "objects.box.contacts.edge_front.friction.mu",
            "objects.box.contacts.edge_back.friction.mu",
        ],
        mus,
        grid=80,
        threads=2,
    )
    times = [p.total_time for p in points]
    assert all(p.status == "Optimal" for p in points)
    spread = (max(times) - min(times)) / min(times)
    assert spread <= 1e-6, times
    ok(f"criterion 6: pivoting T invariant across mu_E {mus}, spread {spread:.2e} (tol 1e-6)")


def test_criterion_07_waiter_tilt_trend():
    tilts = [("waiter/tilt_0.json", 0.0), ("waiter/tilt_10.json", 10.0), ("waiter/tilt_15.json", 15.0)]
    times = []
    last = None
    for rel, _ in tilts:
        out = run(scenario(rel), RunSettings(output_points=161))
        times.append(out.total_time)
        last = out
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(times, times[1:])), times
    assert times[-1] > times[0] * 1.05

    for rel in INFEASIBLE:
        with pytest.raises(InfeasibleScenarioError) as exc:
            run(scenario(rel), RunSettings(output_points=2))
        assert exc.value.report.certificate is not None, rel

    # at the last feasible tilt some cube contact rides its cone
    margins = {cid: float(np.min(m)) for cid, m in last.margin.items() if cid.startswith("cube")}
    scales = {cid: max(1e-9, float(np.max(np.abs(last.wrench[cid])))) for cid in margins}
    tightest = min(margins[cid] / scales[cid] for cid in margins)
    assert tightest <= 1e-3, margins
    ok(
        f"criterion 7: waiter T {[f'{t:.3f}' for t in times]} then certified infeasible; "
        f"tightest cube margin/scale {tightest:.1e} (tol 1e-3)"
    )


def test_criterion_08_solver_analytic_suite():
    assert len(ANALYTIC_CASES) >= 20
    for name, prob, obj, point in ANALYTIC_CASES:
        report = solve(prob)
        assert report.status == "Optimal", name
        assert report.residuals["gap"] <= 1e-8, name
        assert abs(report.objective - obj) <= 1e-6 * max(1.0, abs(obj)), name

    # both certificate kinds on crafted instances, checked by Farkas algebra
    bad = form([0.0], G=[[-1.0], [1.0]], h=[-1.0, 0.0], orthant=2)
    rep = solve(bad)
    assert rep.status == "PrimalInfeasible" and rep.certificate["kind"] == "primal"
    z = rep.certificate["z"]
    assert np.all(z >= -1e-9)
    assert np.linalg.norm(bad.G.T @ z, ord=np.inf) <= 1e-7
    assert float(bad.h @ z) < 0.0

    unb = form([-1.0], G=[[-1.0]], h=[0.0], orthant=1)
    rep = solve(unb)
    assert rep.status == "DualInfeasible" and rep.certificate["kind"] == "dual"
    x = rep.certificate["x"]
    assert float(unb.c @ x) < 0.0
    assert np.all(-(unb.G @ x) >= -1e-9)
    ok(f"criterion 8: {len(ANALYTIC_CASES)} analytic instances at 1e-8 gap, both certificate kinds verified")


def test_criterion_09_fd_suite_all_scenarios():
    worst_fd, worst_sub = 0.0, 0.0
    for rel in SHIPPED:
        ledger = fd_suite(scenario(rel), seed=0)
        assert ledger["passed"], (rel, ledger["checks"])
        sub = ledger["checks"]["rnea_substitution"]["max_error"]
        others = max(
            c["max_error"] for name, c in ledger["checks"].items() if name != "rnea_substitution"
        )
        worst_fd, worst_sub = max(worst_fd, others), max(worst_sub, sub)
        assert sub <= 1e-9, rel
    ok(
        f"criterion 9: fd suite on {len(SHIPPED)} scenarios, worst fd {worst_fd:.1e} (tol 1e-5), "
        f"worst substitution {worst_sub:.1e} (tol 1e-9)"
    )


def test_criterion_10_grid_consistency():
    worst = 0.0
    for rel in FEASIBLE:
        coarse, _, _ = solved(rel, 250)
        fine, _, _ = solved(rel, 500)
        rel_err = abs(fine.objective - coarse.objective) / coarse.objective
        worst = max(worst, rel_err)
        assert rel_err <= 0.02, f"{rel}: {rel_err:.3e}"
    ok(f"criterion 10: |T(500)-T(250)|/T on {len(FEASIBLE)} scenarios, worst {worst:.2e} (tol 2e-2)")
