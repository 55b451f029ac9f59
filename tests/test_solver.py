"""Interior-point solver checks against instances with known optima.

Every entry in ANALYTIC_CASES is a small LP or SOCP whose optimum was worked
out by hand (supporting hyperplanes of disks/balls, vertex enumeration for
the LPs, symmetry arguments for the two-anchor instances).  The catalog is
shared with the acceptance suite, which requires at least twenty of these
solved to the default gap tolerance.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_limits
from contact_topp.dynamics import RobotInstance, Scene
from contact_topp.liegroup import Pose
from contact_topp.paths import JointPath
from contact_topp.robot import JointDef, JointLimits, Link, LinkInertia, RobotModel
from contact_topp import solver
from contact_topp.scenario import assemble_scenario, load_scenario, sweep
from contact_topp.solver import (
    ConeSpec,
    StandardConicForm,
    _row_conflict,
    _check_dual_infeasibility_certificate,
    _check_primal_infeasibility_certificate,
    canonicalize,
    cone_residual,
    solve,
    solve_conic_program,
    verify_kkt,
)
from contact_topp.transcription import (
    BoundRows,
    ConeRows,
    ConicProgram,
    RowIds,
    Rows,
    assemble,
    build_grid,
    recover_time,
)

RT2 = math.sqrt(2.0)


def form(c, G=None, h=None, A=None, b=None, orthant=0, socs=()):
    c = np.asarray(c, dtype=float)
    n = c.size
    if G is None:
        G = np.zeros((0, n))
        h = np.zeros(0)
    if A is None:
        A = np.zeros((0, n))
        b = np.zeros(0)
    return StandardConicForm(
        c=c,
        A=sp.csr_matrix(np.atleast_2d(A)),
        b=np.asarray(b, dtype=float),
        G=sp.csr_matrix(np.atleast_2d(G)),
        h=np.asarray(h, dtype=float),
        cones=ConeSpec(orthant=orthant, socs=tuple(socs)),
    )


def box(n, lower, upper):
    """G, h rows for elementwise lower <= x <= upper."""
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([np.full(n, upper), np.full(n, -lower)])
    return G, h


# (name, form, optimal objective, optimal point or None when the face is flat)
ANALYTIC_CASES = [
    ("one_sided_bound", form([1.0], G=[[-1.0]], h=[-3.0], orthant=1), 3.0, [3.0]),
    (
        "simplex_face",
        form([-1.0, -1.0], G=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], h=[1.0, 0.0, 0.0], orthant=3),
        -1.0,
        None,
    ),
    (
        "box_corners",
        form([1.0, -1.0, 2.0, -3.0], G=box(4, -1.0, 2.0)[0], h=box(4, -1.0, 2.0)[1], orthant=8),
        -11.0,
        [-1.0, 2.0, -1.0, 2.0],
    ),
    (
        "equality_vertex",
        form([1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], G=-np.eye(2), h=[0.0, 0.0], orthant=2),
        1.0,
        [1.0, 0.0],
    ),
    (
        "capacity_split",
        form(
            [2.0, 3.0],
            A=[[1.0, 1.0]],
            b=[4.0],
            G=np.vstack([np.eye(2), -np.eye(2)]),
            h=[3.0, 3.0, 0.0, 0.0],
            orthant=4,
        ),
        9.0,
        [3.0, 1.0],
    ),
    (
        "degenerate_face",
        form(
            [0.0, 1.0],
            G=[[0.0, -1.0], [1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
            h=[0.0, 0.0, 1.0, 1.0],
            orthant=4,
        ),
        0.0,
        None,
    ),
    (
        "stacked_lower_bounds",
        form(np.ones(5), G=-np.eye(5), h=[-0.1, -0.2, -0.3, -0.4, -0.5], orthant=5),
        1.5,
        [0.1, 0.2, 0.3, 0.4, 0.5],
    ),
    ("redundant_rows", form([1.0], G=[[-1.0], [-1.0]], h=[-1.0, -1.0], orthant=2), 1.0, [1.0]),
    ("stiff_objective", form([1e3], G=[[-1.0]], h=[-1e-3], orthant=1), 1.0, [1e-3]),
    ("fixed_norm", form([1.0], G=[[-1.0], [0.0], [0.0]], h=[0.0, 3.0, 4.0], socs=(3,)), 5.0, [5.0]),
    (
        "unit_shift",
        form(
            [1.0, 0.0],
            A=[[0.0, 1.0]],
            b=[0.0],
            G=[[-1.0, 0.0], [0.0, 0.0], [0.0, -1.0]],
            h=[0.0, 1.0, 0.0],
            socs=(3,),
        ),
        1.0,
        [1.0, 0.0],
    ),
    (
        "disk_support",
        form([-1.0, 0.0], G=[[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], h=[1.0, 0.0, 0.0], socs=(3,)),
        -1.0,
        [1.0, 0.0],
    ),
    (
        "anchored_distance",
        form(
            [1.0, 0.0, 0.0],
            A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            b=[4.0, 6.0],
            G=-np.eye(3),
            h=[0.0, -1.0, -2.0],
            socs=(3,),
        ),
        5.0,
        [5.0, 4.0, 6.0],
    ),
    (
        "two_anchor_midpoint",
        form(
            [1.0, 0.0],
            G=[[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
            h=[0.0, 0.0, 1.0, 0.0, -2.0, 1.0],
            socs=(3, 3),
        ),
        RT2,
        [RT2, 1.0],
    ),
    (
        "ball_linear",
        form([-1.0, -1.0], G=[[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], h=[RT2, 0.0, 0.0], socs=(3,)),
        -2.0,
        [1.0, 1.0],
    ),
    (
        "reciprocal_epigraph",
        form([1.0], G=[[-1.0], [0.0], [-1.0]], h=[1.0, 2.0, -1.0], socs=(3,)),
        1.0,
        [1.0],
    ),
    (
        "sqrt_epigraph",
        form([-1.0], G=[[0.0], [-2.0], [0.0]], h=[5.0, 0.0, 3.0], socs=(3,)),
        -2.0,
        [2.0],
    ),
    (
        "line_distance_pair",
        form(
            [1.0, 1.0, 0.0],
            G=[[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
            h=[0.0, 0.0, 0.0, -4.0],
            socs=(2, 2),
        ),
        4.0,
        None,
    ),
    (
        "line_projection",
        form(
            [1.0, 0.0, 0.0],
            A=[[0.0, 1.0, -1.0]],
            b=[0.0],
            G=-np.eye(3),
            h=[0.0, -3.0, 0.0],
            socs=(3,),
        ),
        3.0 / RT2,
        [3.0 / RT2, 1.5, 1.5],
    ),
    (
        "shared_head",
        form(
            [-1.0, 0.0, 1.0],
            G=[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
            h=[2.0, 0.0, 0.0, 0.0],
            orthant=1,
            socs=(3,),
        ),
        0.0,
        None,
    ),
    (
        "ball3_support",
        form(
            [-1.0, -2.0, -2.0],
            G=np.vstack([np.zeros(3), -np.eye(3)]),
            h=[3.0, 0.0, 0.0, 0.0],
            socs=(4,),
        ),
        -9.0,
        [1.0, 2.0, 2.0],
    ),
    ("pinned_head", form([1.0], G=[[-1.0], [0.0], [0.0], [0.0]], h=[0.0, 1.0, 2.0, 2.0], socs=(4,)), 3.0, [3.0]),
    (
        "feasibility_box",
        form([0.0], G=[[1.0], [-1.0]], h=[2.0, -1.0], orthant=2),
        0.0,
        None,
    ),
    (
        "offset_ball",
        form([1.0, 0.0], G=[[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], h=[2.0, -1.0, 1.0], socs=(3,)),
        -1.0,
        [-1.0, -1.0],
    ),
    # cone sizes interleaved (3, 4, 2, 3, 4): every cone bounds its own t_i
    # by a distinct norm, ||(3, 4)||, ||(1, 2, 2)||, |-6|, ||(5, 12)|| and
    # ||(2, 3, u)|| with u = 6 pinned by the equality row, so a cone whose
    # slack lands in another cone's rows cannot reach this optimum
    (
        "interleaved_sizes",
        form(
            [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            A=[[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]],
            b=[6.0],
            G=[
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # orthant: t1 <= 10
                [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # (t1, 3, 4)
                [0.0] * 6,
                [0.0] * 6,
                [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],  # (t2, 1, 2, 2)
                [0.0] * 6,
                [0.0] * 6,
                [0.0] * 6,
                [0.0, 0.0, -1.0, 0.0, 0.0, 0.0],  # (t3, -6)
                [0.0] * 6,
                [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],  # (t4, 5, 12)
                [0.0] * 6,
                [0.0] * 6,
                [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],  # (t5, 2, 3, u)
                [0.0] * 6,
                [0.0] * 6,
                [0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
            ],
            h=[10.0, 0.0, 3.0, 4.0, 0.0, 1.0, 2.0, 2.0, 0.0, -6.0, 0.0, 5.0, 12.0, 0.0, 2.0, 3.0, 0.0],
            orthant=1,
            socs=(3, 4, 2, 3, 4),
        ),
        34.0,
        [5.0, 3.0, 6.0, 13.0, 7.0, 6.0],
    ),
]


def slider_robot(torque_cap=np.inf, accel_cap=1.0, vel=np.inf):
    inertia = LinkInertia(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-6)
    return RobotModel(
        name="slider",
        joints=(JointDef.prismatic([1.0, 0.0, 0.0]),),
        links=(Link(home_pose=Pose.identity(), inertia=inertia),),
        x_ref=Pose.identity(),
        tool_offset=Pose.identity(),
        limits=JointLimits(
            torque_lower=[-torque_cap],
            torque_upper=[torque_cap],
            velocity_max=[vel],
            accel_lower=[-accel_cap],
            accel_upper=[accel_cap],
        ),
    )


def slider_program(K, torque_cap=np.inf, accel_cap=1.0, vel=np.inf, boundary=(0.0, 0.0)):
    path = JointPath(np.array([[0.0], [1.0]]), boundary="natural")
    scene = Scene(robots=(RobotInstance(slider_robot(torque_cap, accel_cap, vel), path),), objects=())
    grid = build_grid(K)
    return assemble(scene, grid, boundary), grid


class TestAnalyticCatalog:
    @pytest.mark.parametrize("name,prob,obj,point", ANALYTIC_CASES, ids=[c[0] for c in ANALYTIC_CASES])
    def test_reaches_known_optimum(self, name, prob, obj, point):
        report = solve(prob)
        assert report.status == "Optimal"
        assert report.residuals["gap"] <= 1e-8
        assert abs(report.objective - obj) <= 1e-6 * max(1.0, abs(obj))
        if point is not None:
            assert np.allclose(report.x, point, atol=5e-6)

    def test_catalog_is_large_enough(self):
        assert len(ANALYTIC_CASES) >= 20


class TestCertificates:
    def test_rounding_level_potential_is_no_primal_certificate(self):
        # x0 = 0.1 + 0.2 and x0 = 0.3 differ in the last bit only; y = (-1, 1)
        # has A'y = 0 exactly, but b'y = -5.6e-17 is rounding, not a sign
        A = [[1.0, 0.0], [1.0, 0.0]]
        prob = form([0.0, 1.0], G=[[0.0, -1.0]], h=[0.0], A=A, b=[0.1 + 0.2, 0.3], orthant=1)
        y, z = np.array([-1.0, 1.0]), np.zeros(1)
        assert float(prob.b @ y) < 0.0
        assert _check_primal_infeasibility_certificate(prob, y, z, solver.TOL) is None
        assert solve(prob).status == "Optimal"
        # the same ray certifies pins that really conflict
        conflict = form([0.0, 1.0], G=[[0.0, -1.0]], h=[0.0], A=A, b=[0.4, 0.3], orthant=1)
        cert = _check_primal_infeasibility_certificate(conflict, y, z, solver.TOL)
        assert cert is not None and np.allclose(cert["y"], y / 0.1)

    def test_rounding_level_potential_is_no_dual_certificate(self):
        # c'x = 0.3 - (0.1 + 0.2) = -5.6e-17 along x = (1, 1), which keeps
        # A x = 0 exactly
        x, s = np.ones(2), np.zeros(0)
        prob = form([0.3, -(0.1 + 0.2)], A=[[1.0, -1.0]], b=[0.0])
        assert float(prob.c @ x) < 0.0
        assert _check_dual_infeasibility_certificate(prob, x, s, solver.TOL) is None
        unbounded = form([0.3, -0.4], A=[[1.0, -1.0]], b=[0.0])
        assert _check_dual_infeasibility_certificate(unbounded, x, s, solver.TOL) is not None

    def test_contradictory_bounds_primal_certificate(self):
        prob = form([0.0], G=[[-1.0], [1.0]], h=[-1.0, 0.0], orthant=2)
        report = solve(prob)
        assert report.status == "PrimalInfeasible"
        cert = report.certificate
        assert cert is not None and cert["kind"] == "primal"
        z = cert["z"]
        # independent Farkas check: z in the dual cone, G'z ~ 0, h'z < 0
        assert np.all(z >= -1e-9)
        assert np.linalg.norm(prob.G.T @ z, ord=np.inf) <= 1e-7
        assert float(prob.h @ z) <= -1e-8

    def test_short_cone_primal_certificate(self):
        # || (x, 3) || <= 2 has no solution
        prob = form([0.0], G=[[0.0], [-1.0], [0.0]], h=[2.0, 0.0, 3.0], socs=(3,))
        report = solve(prob)
        assert report.status == "PrimalInfeasible"
        z = report.certificate["z"]
        assert z[0] >= np.linalg.norm(z[1:]) - 1e-9
        assert np.linalg.norm(prob.G.T @ z, ord=np.inf) <= 1e-7
        assert float(prob.h @ z) <= -1e-8

    def test_unbounded_orthant_dual_certificate(self):
        prob = form([-1.0], G=[[-1.0]], h=[0.0], orthant=1)
        report = solve(prob)
        assert report.status == "DualInfeasible"
        cert = report.certificate
        assert cert["kind"] == "dual"
        x = cert["x"]
        assert float(prob.c @ x) <= -1e-8
        slack_dir = -(prob.G @ x)
        assert np.all(slack_dir >= -1e-9)

    def test_unbounded_cone_ray_dual_certificate(self):
        prob = form([-1.0, 0.0], G=[[-1.0, 0.0], [0.0, -1.0]], h=[0.0, 0.0], socs=(2,))
        report = solve(prob)
        assert report.status == "DualInfeasible"
        x = report.certificate["x"]
        assert float(prob.c @ x) <= -1e-8
        ray = -(prob.G @ x)
        assert ray[0] >= abs(ray[1]) - 1e-9


class TestSolverProperties:
    def test_deterministic_repeat(self):
        prob = ANALYTIC_CASES[4][1]
        r1 = solve(prob)
        r2 = solve(prob)
        assert r1.iterations == r2.iterations
        assert r1.objective == r2.objective
        assert np.array_equal(r1.x, r2.x)

    @pytest.mark.parametrize("idx", [2, 12, 20])
    def test_weak_duality_along_iterates(self, idx):
        prob = ANALYTIC_CASES[idx][1]
        report = solve(prob)
        assert report.status == "Optimal"
        for entry in report.history:
            # weak duality binds for feasible pairs; iterates carry slack
            # proportional to how infeasible they still are
            infeas = max(entry["primal_eq"], entry["primal_in"], entry["dual"])
            slack = (1e-8 + 10.0 * infeas) * max(1.0, abs(entry["pcost"]))
            assert entry["pcost"] - entry["dcost"] >= -slack

    @pytest.mark.parametrize("idx", [2, 11, 20])
    def test_objective_scaling_leaves_argmin(self, idx):
        prob = ANALYTIC_CASES[idx][1]
        scaled = StandardConicForm(
            c=1e3 * prob.c,
            A=prob.A,
            b=prob.b,
            G=prob.G,
            h=prob.h,
            cones=prob.cones,
            ids=prob.ids,
        )
        r1 = solve(prob)
        r2 = solve(scaled)
        assert r1.status == r2.status == "Optimal"
        assert np.max(np.abs(r1.x - r2.x)) <= 1e-6

    def test_max_iterations_carries_last_iterate(self, monkeypatch):
        prob = ANALYTIC_CASES[4][1]
        monkeypatch.setattr(solver, "MAX_ITER", 2)
        report = solve(prob)
        assert report.status == "MaxIterations"
        assert report.iterations == 2
        assert report.x.shape == prob.c.shape
        assert np.all(np.isfinite(report.x))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            solve(ANALYTIC_CASES[4][1], tol)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("b", np.array([1.0, 0.0]), "b has 2 entries, A has 1 rows"),
            ("h", np.array([0.0]), "h has 1 entries, G has 2 rows"),
            ("c", np.array([1.0, 1.0, 0.0]), "A has 2 columns, c has 3 entries"),
            ("G", sp.csr_matrix(-np.eye(2, 3)), "G has 3 columns, c has 2 entries"),
        ],
        ids=["b-long", "h-short", "c-long", "G-wide"],
    )
    def test_rejects_a_form_whose_shapes_disagree(self, field, value, message):
        # min x0 + x1 subject to x0 + x1 = 1, x >= 0, with one field resized
        prob = form([1.0, 1.0], G=-np.eye(2), h=[0.0, 0.0], A=[[1.0, 1.0]], b=[1.0], orthant=2)
        assert solve(prob).status == "Optimal"
        with pytest.raises(ValueError, match=message):
            solve(dataclasses.replace(prob, **{field: value}))


class TestVerifyKkt:
    def test_hand_optimum_exact(self):
        prob = form([1.0], G=[[-1.0]], h=[-3.0], orthant=1)
        rep = verify_kkt(prob, np.array([3.0]), np.zeros(0), np.array([1.0]), np.array([0.0]))
        assert rep["primal_eq"] <= 1e-12
        assert rep["primal_in"] <= 1e-12
        assert rep["dual"] <= 1e-12
        assert rep["gap"] <= 1e-12

    def test_perturbed_point_scales_residual(self):
        prob = form([1.0], G=[[-1.0]], h=[-3.0], orthant=1)
        rep = verify_kkt(prob, np.array([3.1]), np.zeros(0), np.array([1.0]), np.array([0.0]))
        assert abs(rep["primal_in"] - 0.1 / (1.0 + 3.0)) <= 1e-9

    def test_reported_residuals_are_recomputable(self):
        prob = ANALYTIC_CASES[12][1]
        report = solve(prob)
        rep = verify_kkt(prob, report.x, report.y, report.z, report.s)
        for key in ("primal_eq", "primal_in", "dual", "gap"):
            assert abs(rep[key] - report.residuals[key]) <= 1e-10


def assert_primal_certificate(prob, cert):
    """Farkas check on the given data: A'y + G'z ~ 0, b'y + h'z < 0, z in K*."""
    y, z = cert["y"], cert["z"]
    assert np.linalg.norm(prob.A.T @ y + prob.G.T @ z, ord=np.inf) <= 1e-7
    assert float(prob.b @ y + prob.h @ z) <= -1e-8
    assert cone_residual(prob.cones, z) <= 1e-9


def assert_dual_certificate(prob, cert):
    """Unboundedness check on the given data: A x ~ 0, G x + s ~ 0, s in K, c'x < 0."""
    x, s = cert["x"], cert["s"]
    assert np.max(np.abs(prob.A @ x), initial=0.0) <= 1e-7
    assert np.max(np.abs(prob.G @ x + s), initial=0.0) <= 1e-7
    assert cone_residual(prob.cones, s) <= 1e-9
    assert float(prob.c @ x) < 0.0


def assert_verified(prob, report):
    """The reported point passes verify_kkt on prob at the solver's tolerances."""
    rep = verify_kkt(prob, report.x, report.y, report.z, report.s)
    assert max(rep["primal_eq"], rep["primal_in"], rep["dual"]) <= solver.TOL
    assert rep["gap"] <= solver.TOL
    assert rep["s_in_cone"] and rep["z_in_cone"]


@st.composite
def pinned_socps(draw):
    """(problem, pinned columns, their values): a feasible, bounded SOCP whose
    equality rows are dense, with one singleton row per pinned column
    inserted among them.  x0 is strictly feasible, the boxes |x| <= 2 bound
    it, and every pin a x_j = a x0_j fixes its column at (a x0_j) / a."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_free = draw(st.integers(2, 5))
    n_pin = draw(st.integers(1, 3))
    p = draw(st.integers(0, n_free - 1))
    socs = tuple(draw(st.lists(st.integers(2, 4), max_size=3)))
    n = n_free + n_pin
    pinned = np.sort(rng.choice(n, size=n_pin, replace=False))
    x0 = rng.uniform(-1.0, 1.0, n)
    A_dense = rng.uniform(0.5, 2.0, (p, n)) * rng.choice([-1.0, 1.0], (p, n))
    pivots = rng.uniform(0.5, 2.0, n_pin) * rng.choice([-1.0, 1.0], n_pin)
    singles = np.zeros((n_pin, n))
    singles[np.arange(n_pin), pinned] = pivots
    A = np.vstack((A_dense, singles))[rng.permutation(p + n_pin)]
    G_cone = rng.normal(size=(sum(socs), n))
    s0 = np.concatenate([[1.0 + rng.uniform(0.1, 1.0)] + list(rng.uniform(-1.0, 1.0, d - 1) / d) for d in socs] or [[]])
    G = np.vstack((np.eye(n), -np.eye(n), G_cone))
    h = np.concatenate((np.full(2 * n, 2.0), G_cone @ x0 + s0))
    prob = form(rng.normal(size=n), G=G, h=h, A=A, b=A @ x0, orthant=2 * n, socs=socs)
    return prob, pinned, (pivots * x0[pinned]) / pivots


def substituted(prob, pinned, values):
    """prob with the pinned columns and their singleton rows taken out by hand."""
    free = np.setdiff1d(np.arange(prob.c.size), pinned)
    A = prob.A.toarray()
    dense = np.count_nonzero(A, axis=1) > 1
    return StandardConicForm(
        c=prob.c[free],
        A=sp.csr_matrix(A[dense][:, free]),
        b=prob.b[dense] - A[dense][:, pinned] @ values,
        G=sp.csr_matrix(prob.G.toarray()[:, free]),
        h=prob.h - prob.G.toarray()[:, pinned] @ values,
        cones=prob.cones,
    )


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def shipped_form(name, K):
    return canonicalize(assemble_scenario(load_scenario(SCENARIOS / f"{name}.json"), build_grid(K)))


SHIPPED = sorted(str(p.relative_to(SCENARIOS).with_suffix("")) for p in SCENARIOS.rglob("*.json"))


class TestPresolve:
    """Equality rows with a single nonzero (pins) and parallel equality
    rows: the iteration solves them as it does any row, and `_row_conflict`
    turns two that disagree into a certificate before it starts."""

    @settings(max_examples=25)
    @given(pinned_socps())
    def test_matches_hand_substitution(self, case):
        prob, pinned, values = case
        report = solve(prob)
        hand_prob = substituted(prob, pinned, values)
        hand = solve(hand_prob)
        assert report.status == hand.status == "Optimal"
        offset = float(prob.c[pinned] @ values)
        assert abs(report.objective - (hand.objective + offset)) <= 1e-8 * max(1.0, abs(report.objective))
        free = np.setdiff1d(np.arange(prob.c.size), pinned)
        assert np.allclose(report.x[pinned], values, atol=1e-7)
        # an optimum on a cone's boundary is fixed only to about sqrt(tol),
        # so the two solves need not meet in x to 1e-7; the point without
        # its pins must instead be a verified optimum of the substituted form
        dense = np.diff(prob.A.tocsr().indptr) > 1
        assert_verified(hand_prob, dataclasses.replace(report, x=report.x[free], y=report.y[dense]))
        assert (report.x.size, report.y.size, report.z.size, report.s.size) == (
            prob.c.size, prob.A.shape[0], prob.G.shape[0], prob.G.shape[0]
        )
        assert_verified(prob, report)

    def test_every_column_pinned(self):
        # 2 x0 = 2 and 4 x1 = 4 fix x = (1, 1) inside the disk ||x|| <= 2
        G = [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]
        prob = form([1.0, -3.0], G=G, h=[2.0, 0.0, 0.0], A=np.diag([2.0, 4.0]), b=[2.0, 4.0], socs=(3,))
        report = solve(prob)
        assert report.status == "Optimal"
        assert np.allclose(report.x, [1.0, 1.0], atol=1e-7)
        assert abs(report.objective + 2.0) <= 1e-8 * 2.0
        assert_verified(prob, report)

    def test_every_column_pinned_no_inequalities(self):
        prob = form([1.0, 2.0], A=[[2.0, 0.0], [0.0, -1.0]], b=[3.0, 1.0])
        report = solve(prob)
        assert report.status == "Optimal"
        assert np.allclose(report.x, [1.5, -1.0], atol=1e-7)
        assert_verified(prob, report)

    def test_every_column_pinned_outside_cone(self):
        # x = (1, 1) lies outside the unit disk
        G = [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]
        prob = form([1.0, 1.0], G=G, h=[1.0, 0.0, 0.0], A=np.eye(2), b=[1.0, 1.0], socs=(3,))
        report = solve(prob)
        assert report.status == "PrimalInfeasible"
        assert_primal_certificate(prob, report.certificate)

    @pytest.mark.parametrize("seed", range(12))
    def test_inconsistent_pins(self, seed):
        # a1 x0 = a1 / 2 and a2 x0 = a2 v with v > 1/2 pin one column twice;
        # both rows stay, and the same rows with v = 1/2 are feasible
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        G, h = box(n, -rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))
        a = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        A = np.zeros((2, n))
        A[:, 0] = a
        c = rng.normal(size=n)
        prob = form(c, G=G, h=h, A=A, b=a * [0.5, 0.5 + rng.uniform(0.1, 1.0)], orthant=2 * n)
        report = solve(prob)
        assert report.status == "PrimalInfeasible"
        assert_primal_certificate(prob, report.certificate)
        consistent = form(c, G=G, h=h, A=A, b=a * 0.5, orthant=2 * n)
        report = solve(consistent)
        assert report.status == "Optimal" and abs(report.x[0] - 0.5) <= 1e-6
        assert_verified(consistent, report)

    @pytest.mark.parametrize("seed", range(60))
    def test_inconsistent_parallel_rows(self, seed):
        # a fifth row k a0 x = k a0 x0 +- 1 repeats the first up to a factor
        # and contradicts it; the rows with the shift taken out are feasible
        rng = np.random.default_rng(seed)
        A0 = rng.normal(size=(4, 8))
        A0 = A0 * (rng.random((4, 8)) < 0.4)
        A0[0, rng.integers(8)] = 1.0
        A = np.vstack([A0, rng.uniform(-5.0, 5.0) * A0[0]])
        b = A @ rng.normal(size=8)
        shift = np.zeros(5)
        shift[4] = rng.choice([-1.0, 1.0])
        G, h = box(8, -10.0, 10.0)
        c = rng.normal(size=8)
        prob = form(c, G=G, h=h, A=A, b=b + shift, orthant=16)
        report = solve(prob)
        assert report.status == "PrimalInfeasible"
        assert_primal_certificate(prob, report.certificate)
        consistent = form(c, G=G, h=h, A=A, b=b, orthant=16)
        report = solve(consistent)
        assert report.status == "Optimal"
        assert_verified(consistent, report)

    def test_explicit_zero_pins_nothing(self):
        # the first row stores one entry, an explicit 0: 0 x0 = 0 holds for
        # every x and must not be divided through
        G, h = box(2, -1.0, 1.0)
        A = sp.csr_matrix((np.array([0.0, 1.0, 1.0]), np.array([0, 0, 1]), np.array([0, 1, 3])), shape=(2, 2))
        prob = form([1.0, 2.0], G=G, h=h, orthant=4)
        prob.A, prob.b = A, np.array([0.0, 0.5])
        with np.errstate(divide="raise"):
            report = solve(prob)
        assert report.status == "Optimal"
        assert np.allclose(report.x, [1.0, -0.5], atol=5e-6)
        assert_verified(prob, report)

    @pytest.mark.parametrize(
        "prob,x",
        [
            # no equalities besides the pin: min t, ||(3, 4)|| <= t <= 10
            (form([1.0, 0.0], G=[[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, -1.0]], h=[10.0, 0.0, 3.0, 0.0],
                  A=[[0.0, 1.0]], b=[4.0], orthant=1, socs=(3,)), [5.0, 4.0]),
            # pure LP: x0 + x1 = 1, x1 = 0.25, x >= 0
            (form([1.0, 2.0], A=[[1.0, 1.0], [0.0, 1.0]], b=[1.0, 0.25], G=-np.eye(2), h=[0.0, 0.0], orthant=2),
             [0.75, 0.25]),
            # no inequalities: x0 = 2, x0 + x1 = 3
            (form([1.0, 2.0], A=[[1.0, 0.0], [1.0, 1.0]], b=[2.0, 3.0]), [2.0, 1.0]),
        ],
        ids=["no_equalities", "pure_lp", "no_inequalities"],
    )
    def test_edge_shapes_with_a_pin(self, prob, x):
        report = solve(prob)
        assert report.status == "Optimal"
        assert np.allclose(report.x, x, atol=5e-6)
        assert_verified(prob, report)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_form_is_the_pin_substitution(self, name):
        # the transcription stores no pinned wrench component, so the
        # shipped form is already what substituting the pins gave: no
        # equality row has a single nonzero, and no two rows conflict
        prob = shipped_form(name, 80)
        assert np.all(np.diff(prob.A.indptr) != 1)
        assert _row_conflict(prob.A, prob.b, solver.TOL) is None


@st.composite
def dominated_forms(draw):
    """(base, augmented, extra positions): a feasible, bounded LP
    or SOCP, and the same problem with positive multiples of some of its
    orthant rows added among them, each h shifted up by a random slack, so
    that every added row is implied by the row it copies."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    p = draw(st.integers(0, n - 1))
    q = draw(st.integers(0, 3))
    socs = tuple(draw(st.lists(st.integers(2, 4), max_size=2)))
    x0 = rng.uniform(-1.0, 1.0, n)
    A = rng.uniform(0.5, 2.0, (p, n)) * rng.choice([-1.0, 1.0], (p, n))
    R = rng.normal(size=(q, n))
    orth = np.vstack((np.eye(n), -np.eye(n), R))
    h_orth = np.concatenate((np.full(2 * n, 2.0), R @ x0 + rng.uniform(0.1, 1.0, q)))
    G_cone = rng.normal(size=(sum(socs), n))
    s0 = np.concatenate([[1.0 + rng.uniform(0.1, 1.0)] + list(rng.uniform(-1.0, 1.0, d - 1) / d) for d in socs] or [[]])
    c = rng.normal(size=n)

    def make(G_o, h_o):
        return form(c, G=np.vstack((G_o, G_cone)), h=np.concatenate((h_o, G_cone @ x0 + s0)), A=A, b=A @ x0,
                    orthant=len(h_o), socs=socs)

    copies = rng.integers(len(h_orth), size=draw(st.integers(1, 4)))
    lam = rng.uniform(0.1, 10.0, copies.size)
    slack = rng.uniform(0.01, 1.0, copies.size)
    G_all = np.vstack((orth, lam[:, None] * orth[copies]))
    h_all = np.concatenate((h_orth, lam * h_orth[copies] + slack))
    order = rng.permutation(len(h_all))
    extra = np.flatnonzero(order >= len(h_orth))
    return make(orth, h_orth), make(G_all[order], h_all[order]), extra


def contradicted(prob, row):
    """prob with one more orthant row, g x >= h + 1 for its orthant row g x <= h."""
    G, o = prob.G.toarray(), prob.cones.orthant
    flip = np.vstack((G[:o], -G[row], G[o:]))
    h = np.concatenate((prob.h[:o], [-prob.h[row] - 1.0], prob.h[o:]))
    return form(prob.c, G=flip, h=h, A=prob.A.toarray(), b=prob.b, orthant=o + 1, socs=prob.cones.socs)


class TestDominatedRows:
    """Orthant rows implied by a parallel row stay in the problem the
    iteration sees; the solve gives the answers of the form without them."""

    @settings(max_examples=25)
    @given(dominated_forms())
    def test_matches_form_without_the_rows(self, case):
        base, aug, extra = case
        want, got = solve(base), solve(aug)
        assert got.status == want.status == "Optimal"
        assert abs(got.objective - want.objective) <= solver.TOL * max(1.0, abs(want.objective))
        assert (got.z.size, got.s.size) == (aug.G.shape[0],) * 2
        assert_verified(aug, got)

    @settings(max_examples=10)
    @given(dominated_forms(), st.integers(0, 2**16))
    def test_infeasible_variant_certificate(self, case, pick):
        _, aug, extra = case
        kept = np.setdiff1d(np.arange(aug.cones.orthant), extra)
        bad = contradicted(aug, int(kept[pick % kept.size]))
        report = solve(bad)
        assert report.status == "PrimalInfeasible"
        assert_primal_certificate(bad, report.certificate)
        assert _check_primal_infeasibility_certificate(bad, report.certificate["y"], report.certificate["z"],
                                                       solver.TOL) is not None

    def test_stored_zero_groups_with_its_twin(self):
        # row 1 stores (2, 0, 4): with the zero taken out it is twice row 0
        G = sp.csr_matrix(
            (np.array([1.0, 2.0, 2.0, 0.0, 4.0, -1.0, -1.0, -1.0]), np.array([0, 2, 0, 1, 2, 0, 1, 2]),
             np.array([0, 2, 5, 6, 7, 8])),
            shape=(5, 3),
        )
        prob = form([1.0, 1.0, 1.0], G=np.zeros((5, 3)), h=[1.0, 3.0, 0.0, 0.0, 0.0], orthant=5)
        prob.G = G
        report = solve(prob)
        assert report.status == "Optimal"
        assert_verified(prob, report)

    def test_exact_twin_rows_solve(self):
        # x0 + 2 x1 <= 3 and 2 x0 + 4 x1 <= 6 are one constraint
        G = [[1.0, 2.0], [2.0, 4.0], [-1.0, 0.0], [0.0, -1.0]]
        prob = form([-1.0, -1.0], G=G, h=[3.0, 6.0, 0.0, 0.0], orthant=4)
        report = solve(prob)
        assert report.status == "Optimal" and abs(report.objective + 3.0) <= 1e-8
        assert_verified(prob, report)


def interior_point(rng, orthant, socs):
    """A point strictly inside the orthant times the second-order cones."""
    heads = [np.r_[1.0 + rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0, d - 1) / d] for d in socs]
    return np.concatenate([rng.uniform(0.1, 1.0, orthant)] + heads)


def planted_form(seed, margin):
    """An LP or SOCP with a planted Farkas ray (y, z): A'y + G'z = 0 with z
    strictly inside the cone and b'y + h'z = margin z's0 for an interior s0.
    margin < 0 makes the ray a certificate; margin > 0 leaves x0 feasible
    with slack margin s0.  The cost is A'y1 + G'z1 with z1 interior, so the
    dual is strictly feasible: no form has a dual infeasibility ray and a
    feasible one is bounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    p = int(rng.integers(0, n))
    o = int(rng.integers(2, 6))
    socs = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(0, 3)))
    z = interior_point(rng, o, socs)
    y = rng.normal(size=p)
    A = rng.normal(size=(p, n))
    G = rng.normal(size=(z.size, n))
    G -= np.outer(z, A.T @ y + G.T @ z) / (z @ z)
    c = -(A.T @ rng.normal(size=p) + G.T @ interior_point(rng, o, socs))
    x0 = rng.normal(size=n)
    return form(c, G=G, h=G @ x0 + margin * interior_point(rng, o, socs), A=A, b=A @ x0, orthant=o, socs=socs)


def planted_unbounded_form(seed):
    """The mirror of `planted_form`: an LP or SOCP with a strictly feasible
    x0 and a planted ray d with A d = 0, G d = -s_ray for an interior s_ray
    and c'd = -1, so c'x falls without bound along d."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    p = int(rng.integers(0, n))
    o = int(rng.integers(2, 6))
    socs = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(0, 3)))
    d = rng.normal(size=n)
    A = rng.normal(size=(p, n))
    A -= np.outer(A @ d, d) / (d @ d)
    s_ray = interior_point(rng, o, socs)
    G = rng.normal(size=(s_ray.size, n))
    G -= np.outer(G @ d + s_ray, d) / (d @ d)
    c = rng.normal(size=n)
    c -= (c @ d + 1.0) * d / (d @ d)
    x0 = rng.normal(size=n)
    return form(c, G=G, h=G @ x0 + interior_point(rng, o, socs), A=A, b=A @ x0, orthant=o, socs=socs)


def badly_scaled(prob, scale):
    """prob with its cost or its right-hand sides blown up, per `scale`."""
    c_scale, rhs_scale = {"none": (1.0, 1.0), "cost": (1e4, 1.0), "rhs": (1.0, 1e8)}[scale]
    return StandardConicForm(c=c_scale * prob.c, A=prob.A, b=rhs_scale * prob.b, G=prob.G, h=rhs_scale * prob.h,
                             cones=prob.cones)


def solve_counting_attempts(prob):
    """(report, number of certificate attempts) for one solve."""
    attempts = []
    tried = solver._infeasibility_certificate

    def counted(*args):
        attempts.append(args)
        return tried(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_infeasibility_certificate", counted)
        return solve(prob), len(attempts)


def solve_without_attempts(prob):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_infeasibility_certificate", lambda *args: None)
        return solve(prob)


def assert_same_solve(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.x.tobytes() == want.x.tobytes()
    assert float(got.objective).hex() == float(want.objective).hex()


class TestEarlyCertificates:
    """A certificate is tried at every iterate with kappa > tau."""

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "cost"]))
    def test_planted_ray_is_certified(self, seed, scale):
        prob = badly_scaled(planted_form(seed, -1.0), scale)
        report = solve(prob)
        assert report.status == "PrimalInfeasible"
        assert_primal_certificate(prob, report.certificate)

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "cost", "rhs"]))
    def test_attempts_leave_feasible_solves_alone(self, seed, scale):
        # a refused attempt changes nothing: the solve is the one that never
        # tries a certificate, bit for bit
        prob = badly_scaled(planted_form(seed, 1.0), scale)
        want = solve_without_attempts(prob)
        assert want.status == "Optimal"
        assert_same_solve(solve(prob), want)

    def test_badly_scaled_feasible_forms_are_tried_and_refused(self):
        # the absolute residual test alone accepts early rays of these
        # bounded, feasible forms; the scale-free test refuses them
        tried = 0
        for seed in range(8):
            for scale in ("cost", "rhs"):
                report, attempts = solve_counting_attempts(badly_scaled(planted_form(seed, 1.0), scale))
                assert report.status == "Optimal", (seed, scale)
                tried += attempts
        assert tried > 0

    def test_relative_test_refuses_a_ray_that_only_the_scale_hides(self):
        # -1e9 - 1 <= x <= -1e9 is feasible; z = (1, 1 - 1e-6) has potential
        # about -1e3, so G'z / -pot = 1e-9 passes the absolute test while
        # G'z is 5e-7 of its terms
        prob = form([0.0], G=[[1.0], [-1.0]], h=[-1e9, 1e9 + 1.0], orthant=2)
        y, z = np.zeros(0), np.array([1.0, 1.0 - 1e-6])
        assert _check_primal_infeasibility_certificate(prob, y, z, solver.TOL) is not None
        assert _check_primal_infeasibility_certificate(prob, y, z, solver.TOL, relative=True) is None
        # the same test refuses the dual ray x = -1 of a bounded problem
        # whose cost is large
        prob = form([1e6], G=[[-1.0], [1.0]], h=[0.0, 1.0], orthant=2)
        x, s = np.array([-1.0]), np.array([1.0 - 1e-6, 1.0])
        assert _check_dual_infeasibility_certificate(prob, x, s, solver.TOL) is not None
        assert _check_dual_infeasibility_certificate(prob, x, s, solver.TOL, relative=True) is None

    def test_pivoting_attempt_at_iteration_one_changes_nothing(self):
        prob = shipped_form("pivoting", 80)
        got, attempts = solve_counting_attempts(prob)
        assert got.status == "Optimal" and attempts >= 1
        assert_same_solve(got, solve_without_attempts(prob))

    @pytest.mark.parametrize("name,most", [("waiter/tilt_17_5", 9), ("waiter/tilt_20", 8)])
    def test_waiter_tilts_certified_early(self, name, most):
        report = solve(shipped_form(name, 80))
        assert report.status == "PrimalInfeasible" and report.certificate["kind"] == "primal"
        assert report.iterations <= most

    def test_heavy_pickup_certified_early(self):
        sc = load_scenario(SCENARIOS / "pickup.json")
        (point,) = sweep(sc, "objects.box.mass", [1.75], grid=80)
        assert point.status == "PrimalInfeasible"
        assert point.iterations <= 8


@pytest.mark.parametrize(
    "scale",
    [
        "none",
        "cost",
        # seeds 8, 10, 17, 22, 26, 30, 34 and 44 are certified
        # PrimalInfeasible by a ray that passes `assert_primal_certificate`
        # (ROADMAP direction 1)
        pytest.param("rhs", marks=pytest.mark.xfail(strict=True, raises=AssertionError)),
    ],
)
def test_planted_unbounded_forms(scale):
    # DualInfeasible and NumericalFailure are the only right answers for a
    # feasible form that is unbounded below
    for seed in range(50):
        prob = badly_scaled(planted_unbounded_form(seed), scale)
        report = solve(prob)
        assert report.status in ("DualInfeasible", "NumericalFailure"), (seed, report.status)
        if report.status == "DualInfeasible":
            assert_dual_certificate(prob, report.certificate)


# Status and iteration count of planted forms whose [A; G] lacks full column
# rank, by (seed, margin, scale).  With REG as its only regularization, the
# reduced KKT matrix is singular to working precision on these once W^{-2}
# grows: REG rounds away next to a large diagonal entry, and half of these
# solves end in NumericalFailure.  REG_COLUMN prevents that.
PLANTED_RANK_DEFICIENT = {
    (2, 1.0, "none"): ("Optimal", 5),
    (2, 1.0, "cost"): ("Optimal", 7),
    (2, -1.0, "none"): ("PrimalInfeasible", 6),
    (2, -1.0, "cost"): ("PrimalInfeasible", 7),
    (3, 1.0, "none"): ("Optimal", 6),
    (3, 1.0, "cost"): ("Optimal", 6),
    (3, -1.0, "none"): ("PrimalInfeasible", 5),
    (3, -1.0, "cost"): ("PrimalInfeasible", 5),
    (22, 1.0, "none"): ("Optimal", 6),
    (22, 1.0, "cost"): ("Optimal", 7),
    (22, -1.0, "none"): ("PrimalInfeasible", 6),
    (22, -1.0, "cost"): ("PrimalInfeasible", 6),
    (29, 1.0, "none"): ("Optimal", 7),
    (29, 1.0, "cost"): ("Optimal", 8),
    (29, -1.0, "none"): ("PrimalInfeasible", 6),
    (29, -1.0, "cost"): ("PrimalInfeasible", 7),
}


@pytest.mark.parametrize("seed,margin,scale", sorted(PLANTED_RANK_DEFICIENT))
def test_rank_deficient_planted_forms(seed, margin, scale):
    prob = badly_scaled(planted_form(seed, margin), scale)
    assert np.linalg.matrix_rank(sp.vstack([prob.A, prob.G]).toarray()) < prob.c.size
    report = solve(prob)
    assert (report.status, report.iterations) == PLANTED_RANK_DEFICIENT[seed, margin, scale]


# status and iteration count of every shipped scenario at K=16
SHIPPED_K16 = {
    "arm_7dof": ("Optimal", 14),
    "double_integrator": ("Optimal", 11),
    "pickup": ("Optimal", 15),
    "pivoting": ("Optimal", 16),
    "planar_2dof": ("Optimal", 13),
    "waiter/tilt_0": ("Optimal", 14),
    "waiter/tilt_10": ("Optimal", 13),
    "waiter/tilt_15": ("Optimal", 16),
    "waiter/tilt_17_5": ("PrimalInfeasible", 9),
    "waiter/tilt_20": ("PrimalInfeasible", 9),
}


def test_shipped_k16_table_names_every_scenario():
    assert sorted(SHIPPED_K16) == SHIPPED


@pytest.mark.parametrize("name", sorted(SHIPPED_K16))
def test_shipped_k16_status_and_iterations(name):
    report = solve(shipped_form(name, 16))
    assert (report.status, report.iterations) == SHIPPED_K16[name]


class TestKKTSolves:
    def test_one_factor_two_refined_one_plain_solve_per_iteration(self):
        calls = {"factor": 0, "refined_solve": 0, "solve": 0}

        def counting(name):
            original = getattr(solver._KKTSystem, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        with pytest.MonkeyPatch.context() as m:
            for name in calls:
                m.setattr(solver._KKTSystem, name, counting(name))
            report = solve(shipped_form("pivoting", 16))
        assert report.status == "Optimal"
        k = report.iterations
        assert calls == {"factor": k, "refined_solve": 2 * k, "solve": k}

    def test_factor_uses_one_column_panels(self, monkeypatch):
        # perfbench's trace times the factor through this module-level name
        seen = []

        def recording(matrix, **options):
            seen.append(options)
            return splu(matrix, **options)

        monkeypatch.setattr(solver, "splu", recording)
        report = solve(ANALYTIC_CASES[4][1])
        assert len(seen) == report.iterations
        assert all(options == {"permc_spec": "NATURAL", "panel_size": 1} for options in seen)


# Solves a banded LP with 23 996 inequality rows, above the length at which
# OpenBLAS splits a dot product across threads, and prints
# "<rows> <status> <objective as float.hex> <sha256 of x>".
LARGE_LP = """
import hashlib
import numpy as np
import scipy.sparse as sp
from contact_topp.solver import ConeSpec, StandardConicForm, solve

n = 6000
rng = np.random.default_rng(0)
# two random rows on each window of three neighbouring columns, and a box
window = np.arange(n - 2)
rows = np.repeat(np.arange(2 * window.size), 3)
cols = np.repeat(np.tile(window, 2), 3) + np.tile(np.arange(3), 2 * window.size)
band = sp.csr_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(2 * window.size, n))
G = sp.vstack([band, sp.eye(n), -sp.eye(n)], format="csr")
x0 = rng.uniform(-0.5, 0.5, n)
h = np.concatenate([band @ x0 + rng.uniform(0.1, 1.0, band.shape[0]), np.ones(2 * n)])
form = StandardConicForm(c=rng.standard_normal(n), A=sp.csr_matrix((0, n)), b=np.zeros(0), G=G, h=h,
                         cones=ConeSpec(orthant=G.shape[0], socs=()))
report = solve(form)
print(G.shape[0], report.status, float(report.objective).hex(), hashlib.sha256(report.x.tobytes()).hexdigest())
"""


def test_large_lp_bits_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    lines = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", LARGE_LP], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines.append(done.stdout.split())
    rows, status, objective, x_hash = lines[0]
    assert int(rows) > 20_000 and status == "Optimal"
    assert lines[1] == lines[0]


def hand_program(num_vars, objective, equalities=(), bounds=(), cones=()):
    """A program written out row by row.

    Equality rows are (cols, vals, offset, family); bound rows add (lower,
    upper); a cone is a tuple of rows.  Each row's k is its place in its
    section.  A section's matrix is widened past num_vars when a row names a
    column beyond it.
    """

    def section(entries, cls, **fields):
        rows = [i for i, entry in enumerate(entries) for _ in entry[0]]
        cols = [c for entry in entries for c in entry[0]]
        vals = [v for entry in entries for v in entry[1]]
        shape = (len(entries), max([num_vars] + [c + 1 for c in cols]))
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=shape)
        offset = np.array([entry[2] for entry in entries], dtype=float)
        families = tuple(dict.fromkeys((entry[3], None) for entry in entries))
        family = np.array([families.index((entry[3], None)) for entry in entries], dtype=np.intp)
        count = np.arange(len(entries))
        return cls(matrix, offset, RowIds(families, family, count, np.full(len(entries), -1)), **fields)

    cone_rows = [row for rows in cones for row in rows]
    return ConicProgram(
        num_vars=num_vars,
        objective=np.asarray(objective, dtype=float),
        equalities=section(list(equalities), Rows),
        bounds=section(
            [b[:4] for b in bounds],
            BoundRows,
            lower=np.array([b[4] for b in bounds], dtype=float),
            upper=np.array([b[5] for b in bounds], dtype=float),
        ),
        cones=section(
            cone_rows,
            ConeRows,
            sizes=tuple(len(rows) for rows in cones),
        ),
        slices={},
        nodes=None,
        grid=None,
        contact_order=(),
        components={},
        meta={},
    )


class TestCanonicalize:
    def lp_only_program(self, num_vars=2, equalities=(((0, 1), (1.0, 1.0), -1.0, "sum"),), cones=()):
        return hand_program(
            num_vars,
            [1.0, 0.0],
            equalities=equalities,
            bounds=(
                ((0,), (1.0,), 0.0, "x0", -1.0, 2.0),
                ((1,), (1.0,), 0.0, "x1", 0.0, np.inf),
            ),
            cones=cones,
        )

    def test_boxes_become_orthant_pairs(self):
        prob = canonicalize(self.lp_only_program())
        assert prob.cones.socs == ()
        # two-sided box contributes two rows, one-sided bound one row
        assert prob.cones.orthant == 3
        families = [prob.ids.families[f] for f in prob.ids.family]
        assert families == [("x0", None, "upper"), ("x0", None, "lower"), ("x1", None, "lower")]
        assert prob.ids.k.tolist() == [0, 0, 1]
        assert prob.A.shape == (1, 2)
        assert prob.b[0] == 1.0

    def test_single_cone_block(self):
        prog = hand_program(
            3,
            [0.0, 0.0, 1.0],
            cones=(
                (
                    ((2,), (1.0,), 0.0, "cone"),
                    ((0,), (1.0,), 0.0, "cone"),
                    ((1,), (1.0,), 0.0, "cone"),
                ),
            ),
        )
        prob = canonicalize(prog)
        assert prob.cones.orthant == 0
        assert prob.cones.socs == (3,)
        assert prob.G.shape == (3, 3)

    def test_objective_length_mismatch_rejected(self):
        bad = self.lp_only_program(num_vars=3)
        with pytest.raises(ValueError, match="A has 3 columns, c has 2 entries"):
            solve_conic_program(bad)

    def test_out_of_range_column_rejected(self):
        bad = self.lp_only_program(equalities=(((0, 5), (1.0, 1.0), 0.0, "sum"),))
        with pytest.raises(ValueError, match="A has 6 columns, c has 2 entries"):
            solve_conic_program(bad)

    def test_empty_cone_block_rejected(self):
        bad = self.lp_only_program(cones=((),))
        with pytest.raises(ValueError, match="cone sizes >= 1"):
            solve_conic_program(bad)


class TestTimingIntegration:
    """End-to-end: assemble a path program, solve it, recover the motion time."""

    def test_single_interval_bang(self):
        prog, grid = slider_program(1, torque_cap=1.0, accel_cap=np.inf, boundary=(0.0, None))
        report, values = solve_conic_program(prog)
        assert report.status == "Optimal"
        assert abs(report.objective - RT2) <= 1e-6
        assert abs(recover_time(values.speed_sq, grid).total - RT2) <= 1e-6

    def test_rest_to_rest_triangle(self):
        prog, grid = slider_program(50)
        report, values = solve_conic_program(prog)
        assert report.status == "Optimal"
        # discrete optimum is exactly 2: the squared-speed profile is the
        # piecewise-linear tent b(s) = 2 min(s, 1-s) and the interval sums
        # telescope
        assert abs(recover_time(values.speed_sq, grid).total - 2.0) <= 1e-6

    def test_velocity_capped_trapezoid(self):
        prog, grid = slider_program(125, vel=0.8)
        report, values = solve_conic_program(prog)
        assert report.status == "Optimal"
        # accelerate to the cap, cruise, brake: T = vbar + 1/vbar
        assert abs(recover_time(values.speed_sq, grid).total - 2.05) <= 1e-4

    def test_speed_matches_aux_variable_at_optimum(self):
        prog, grid = slider_program(40)
        report, values = solve_conic_program(prog)
        assert report.status == "Optimal"
        interior = values.speed_sq[1:-1]
        assert np.max(np.abs(values.speed_aux[1:-1] - np.sqrt(interior))) <= 1e-6

    def test_infinite_limits_drop_rows(self):
        prog, _ = slider_program(10, torque_cap=np.inf, accel_cap=1.0, vel=np.inf)
        ids = prog.bounds.ids
        names = {ids.families[f][0] for f in ids.family.tolist()}
        assert "torque_box" not in names
        assert "velocity" not in names
        assert "acceleration" in names
