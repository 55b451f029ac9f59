"""Verification layer: phase-plane oracle, resubstitution audit, fd cross-checks.

The oracle is exercised against closed-form 1-DOF optima (bang-bang and the
velocity-capped trapezoid) and against the conic solve on a shipped arm
scenario.  Audit tests corrupt a known-good profile one family at a time and
expect the matching flag, which checks the auditor's independence as much as
its arithmetic.
"""

import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contact_topp.verification as verification
from conftest import make_limits, planar_arm
from contact_topp.dynamics import RobotInstance, Scene
from contact_topp.paths import JointPath
from contact_topp.robot import JointLimits
from contact_topp.scenario import (
    RunSettings,
    Scenario,
    load_scenario,
    scenario_from_dict,
    solve_scenario,
)
from contact_topp.transcription import ScalingVariables
from contact_topp.verification import (
    audit,
    fd_suite,
    topp_phase_plane,
    verification_ledger,
)
from test_scenario import slider_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_of(model, waypoints, boundary=(0.0, 0.0), grid_points=40):
    path = JointPath(np.asarray(waypoints, dtype=float), boundary="natural")
    scene = Scene(robots=(RobotInstance(model, path),), objects=(), gravity=np.array([0.0, 0.0, -9.81]))
    return Scenario(
        name="inline",
        scene=scene,
        grid_points=grid_points,
        boundary_sdot=boundary,
        source={},
    )


# phase-plane oracle against closed forms


def test_oracle_bang_bang():
    sc = scenario_from_dict(slider_scenario(accel=4.0))
    prof = topp_phase_plane(sc, resolution=800)
    assert prof.total == pytest.approx(1.0, rel=1e-4)
    assert prof.forward[0] == 0.0
    assert prof.profile[-1] == 0.0


def test_oracle_velocity_trapezoid():
    # caps |a| <= 2, |v| <= 0.8 over unit length: T = 1/v + v/a
    sc = scenario_from_dict(slider_scenario(accel=2.0, velocity=0.8))
    prof = topp_phase_plane(sc, resolution=800)
    assert prof.total == pytest.approx(1.0 / 0.8 + 0.8 / 2.0, rel=1e-4)
    # cruise at the cap: limit curve equals v^2 away from the ends
    mid = prof.limit_curve[prof.s.size // 2]
    assert mid == pytest.approx(0.64, rel=1e-9)


def test_oracle_profile_under_limit_curve():
    sc = scenario_from_dict(slider_scenario(accel=1.0, velocity=0.7))
    prof = topp_phase_plane(sc, resolution=300)
    assert np.all(prof.profile <= prof.limit_curve + 1e-9)
    assert np.all(prof.profile >= -1e-12)
    assert prof.total > 0.0


def test_oracle_matches_conic_solve():
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    _, rep, _ = solve_scenario(sc, RunSettings(grid_override=60))
    prof = topp_phase_plane(sc, resolution=600)
    assert rep.status == "Optimal"
    assert abs(rep.objective - prof.total) / prof.total < 0.02


def test_oracle_rejects_contact_scenarios():
    sc = load_scenario(str(SCENARIOS / "pickup.json"))
    with pytest.raises(ValueError, match="contact-free"):
        topp_phase_plane(sc)


def test_oracle_reports_zero_speed_infeasibility():
    # one link, gravity torque at the reversal pose exceeds the actuator cap,
    # and the reversal sample constrains b alone: nothing is feasible at rest
    model = planar_arm((1.0,), (1.0,), limits=make_limits(1, torque=4.0, velocity=1e6, accel=1e6))
    sc = scenario_of(model, [[-0.3], [0.3], [-0.3]])
    with pytest.raises(ValueError, match="zero speed"):
        topp_phase_plane(sc, resolution=200)


def test_oracle_boundary_speed_errors():
    data = slider_scenario(accel=1.0)
    data["boundary_sdot"] = [3.0, 0.0]
    with pytest.raises(ValueError, match="initial speed"):
        topp_phase_plane(scenario_from_dict(data), resolution=200)
    data["boundary_sdot"] = [0.0, 3.0]
    with pytest.raises(ValueError, match="terminal speed"):
        topp_phase_plane(scenario_from_dict(data), resolution=200)


# resubstitution audit


@pytest.fixture(scope="module")
def solved_slider():
    sc = scenario_from_dict(slider_scenario(grid_points=16, accel=1.0))
    _, rep, sol = solve_scenario(sc, RunSettings())
    assert rep.status == "Optimal"
    return sc, sol


def test_audit_clean_on_solved_profile(solved_slider):
    sc, sol = solved_slider
    rep = audit(sol, sc)
    assert rep.passed()
    assert rep.flagged == {}
    assert rep.worst < 1e-8
    assert set(rep.families) >= {
        "torque_dynamics",
        "torque_limits",
        "acceleration_limits",
        "speed_coupling",
        "time_epigraph",
        "speed_nonneg",
        "boundary_speed",
    }


def test_audit_flags_torque_tampering(solved_slider):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    bad.torque[5, 0] += 1e-3
    rep = audit(bad, sc)
    assert not rep.passed()
    assert 5 in rep.flagged["torque_dynamics"]


def test_audit_flags_negative_speed(solved_slider):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    bad.speed_sq[3] = -1e-4
    rep = audit(bad, sc)
    assert "speed_nonneg" in rep.flagged


def test_audit_flags_boundary_mismatch(solved_slider):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    bad.speed_sq[0] = 0.05
    rep = audit(bad, sc)
    assert "boundary_speed" in rep.flagged


def test_audit_is_deterministic(solved_slider):
    sc, sol = solved_slider
    a = audit(sol, sc).to_json_dict()
    b = audit(sol, sc).to_json_dict()
    assert a == b


def test_audit_json_is_plain(solved_slider):
    import json

    sc, sol = solved_slider
    blob = json.dumps(audit(sol, sc).to_json_dict())
    assert "torque_dynamics" in blob


# finite-difference suite


def test_fd_suite_passes_and_is_deterministic():
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    a = fd_suite(sc, seed=3)
    b = fd_suite(sc, seed=3)
    assert a == b
    assert a["passed"]
    assert a["checks"]["rnea_substitution"]["max_error"] <= 1e-9


def test_fd_suite_catches_corrupted_dynamics(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    true_id = verification.inverse_dynamics

    def crooked(model, q, qd, qdd, gravity):
        # velocity-linear corruption: survives none of the substitution algebra
        return true_id(model, q, qd, qdd, gravity) + 1e-3 * np.sum(np.abs(qd))

    monkeypatch.setattr(verification, "inverse_dynamics", crooked)
    led = fd_suite(sc, seed=0)
    assert not led["checks"]["rnea_substitution"]["passed"]


def test_ledger_shape(solved_slider):
    sc, sol = solved_slider
    led = verification_ledger(sc, sol)
    assert led["scenario"] == "slider_case"
    assert led["passed"] is True
    assert led["fd_suite"]["checks"]["body_jacobian_fd"]["passed"]
    assert led["audit"]["worst"] <= 1e-6


# a NaN compares false with every tolerance, and max(0.0, nan) is 0.0: the
# audit and the fd suite must count it as a failure, not drop it


@pytest.mark.parametrize(
    "field, index",
    [("torque", (5, 0)), ("accel", (3,)), ("speed_sq", (4,)), ("inverse_avg", (2,))],
)
def test_audit_fails_a_nan_profile(solved_slider, field, index):
    sc, sol = solved_slider
    bad = copy.deepcopy(sol)
    getattr(bad, field)[index] = math.nan
    rep = audit(bad, sc)
    assert not rep.passed()
    assert rep.worst == math.inf and rep.flagged


def test_audit_fails_a_nan_wrench():
    sc = load_scenario(str(SCENARIOS / "pickup.json"))
    _, rep, sol = solve_scenario(sc, RunSettings(grid_override=8))
    assert rep.status == "Optimal" and audit(sol, sc).passed()
    sol.wrenches["box/finger_left"][3, 0] = math.nan
    assert not audit(sol, sc).passed()


def test_fd_suite_fails_a_nan_error(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "planar_2dof.json"))
    monkeypatch.setattr(verification, "_fd_body_jacobian", lambda model, q: np.full((6, q.size), math.nan))
    check = fd_suite(sc, seed=0)["checks"]["body_jacobian_fd"]
    assert math.isnan(check["max_error"]) and not check["passed"]


# grid-wide oracles against the per-point code they replace


def reference_audit(profile, scenario, tolerance=1e-6) -> dict:
    """`audit` measured interval by interval and contact by contact, as a ledger dict."""
    scene = scenario.scene
    K = profile.accel.size
    grid = verification.build_grid(K)
    samples = [verification.sample_path_dynamics(scene, float(s)) for s in grid.midpoints]
    tl, tu, vmax, al, au = scene.limit_arrays()
    n = tl.size
    a, b, c, d = profile.accel, profile.speed_sq, profile.speed_aux, profile.inverse_avg
    b_mid = 0.5 * (b[:-1] + b[1:])
    families, flagged = {}, {}

    def note(family, k, violation):
        if math.isnan(violation):
            violation = math.inf
        families[family] = max(families.get(family, 0.0), violation)
        if violation > tolerance:
            flagged.setdefault(family, []).append(k)

    for k, smp in enumerate(samples):
        contact_pull = np.zeros(n)
        for cid, J in smp.contact_jacobians.items():
            contact_pull += J.T @ profile.wrenches[cid][k]
        inertial = smp.torque_accel_coeff * a[k] + smp.torque_velsq_coeff * b_mid[k] + smp.torque_gravity
        resid = profile.torque[k] + contact_pull - inertial
        scale = 1.0 + np.abs(profile.torque[k]) + np.abs(contact_pull) + np.abs(inertial)
        note("torque_dynamics", k, float(np.max(np.abs(resid) / scale)))
        for osmp in smp.objects:
            total = osmp.external - osmp.accel_coeff * a[k] - osmp.velsq_coeff * b_mid[k]
            mag = np.abs(total)
            for cid, sign, Gmap in osmp.contact_terms:
                term = sign * (Gmap @ profile.wrenches[cid][k])
                total = total + term
                mag = mag + np.abs(term)
            note(f"balance[{osmp.name}]", k, float(np.max(np.abs(total) / (1.0 + mag))))
        viol = np.maximum(profile.torque[k] - tu, tl - profile.torque[k])
        cap = np.where(np.isfinite(tu), np.abs(tu), 0.0) + np.where(np.isfinite(tl), np.abs(tl), 0.0)
        note("torque_limits", k, float(np.max(np.maximum(viol, 0.0) / (1.0 + cap))))
        vel = smp.dq**2 * b_mid[k]
        vel_viol = np.where(np.isfinite(vmax), vel - vmax**2, 0.0)
        note("velocity_limits", k, float(np.max(np.maximum(vel_viol, 0.0) / (1.0 + np.where(np.isfinite(vmax), vmax**2, 0.0)))))
        acc = smp.ddq * b_mid[k] + smp.dq * a[k]
        acc_viol = np.maximum(np.where(np.isfinite(au), acc - au, 0.0), np.where(np.isfinite(al), al - acc, 0.0))
        acc_cap = np.where(np.isfinite(au), np.abs(au), 0.0) + np.where(np.isfinite(al), np.abs(al), 0.0)
        note("acceleration_limits", k, float(np.max(np.maximum(acc_viol, 0.0) / (1.0 + acc_cap))))

    for k in range(K):
        resid = abs(b[k + 1] - b[k] - 2.0 * grid.spacing * a[k])
        scale = 1.0 + abs(b[k + 1]) + abs(b[k]) + 2.0 * grid.spacing * abs(a[k])
        note("speed_coupling", k, resid / scale)
        csum = c[k] + c[k + 1]
        inv = 1.0 / csum if csum > 1e-12 else np.inf
        note("time_epigraph", k, max(inv - d[k], 0.0) / (1.0 + abs(d[k])))
    for k in range(K + 1):
        note("speed_nonneg", min(k, K - 1), max(-b[k], 0.0))
        root = np.sqrt(max(b[k], 0.0))
        note("speed_aux", min(k, K - 1), max(c[k] - root, -c[k], 0.0) / (1.0 + root))

    sdot0, sdotT = scenario.boundary_sdot
    if sdot0 is not None:
        note("boundary_speed", 0, abs(b[0] - sdot0**2) / (1.0 + sdot0**2))
    if sdotT is not None:
        note("boundary_speed", K - 1, abs(b[-1] - sdotT**2) / (1.0 + sdotT**2))

    for sc in scene.contacts:
        desc, fz_cap = sc.cone, sc.spec.fz_max
        for k, F in enumerate(profile.wrenches[sc.cid]):
            scale = 1.0 + float(np.max(np.abs(F)))
            note("cone_membership", k, max(-verification.cone_margin(desc, F), 0.0) / scale)
            note("pinned_components", k, max((abs(F[idx]) for idx in desc.pinned), default=0.0) / scale)
            if fz_cap is not None:
                note("normal_force_cap", k, max(F[desc.head_index] - fz_cap, 0.0) / (1.0 + fz_cap))

    report = verification.AuditReport(families, {k: tuple(v) for k, v in flagged.items()}, tolerance)
    return report.to_json_dict()


SHIPPED = sorted(p.relative_to(SCENARIOS).with_suffix("").as_posix() for p in SCENARIOS.rglob("*.json"))


@pytest.fixture(scope="module")
def small_solves():
    """Every shipped scenario with a profile at K = 6: its own solve, or for a
    certified infeasible one the solve of a feasible scenario of its family,
    which then fails the audit."""
    out = {}
    for name in SHIPPED:
        sc = load_scenario(str(SCENARIOS / f"{name}.json"))
        _, rep, sol = solve_scenario(sc, RunSettings(grid_override=6))
        out[name] = (sc, sol)
    for name, (sc, sol) in out.items():
        if sol is None:
            out[name] = (sc, out["waiter/tilt_15"][1])
    return out


@pytest.mark.parametrize("name", SHIPPED)
def test_audit_matches_per_interval_reference(small_solves, name):
    sc, sol = small_solves[name]
    ledger = audit(sol, sc).to_json_dict()
    assert ledger == reference_audit(sol, sc)
    assert ledger["passed"] == (name not in ("waiter/tilt_17_5", "waiter/tilt_20"))


def test_audit_matches_reference_on_one_interval():
    # with K = 1 both boundary checks, and nodes 0 and 1, book interval 0
    sc = load_scenario(str(SCENARIOS / "pickup.json"))
    rng = np.random.default_rng(5)
    prof = ScalingVariables(
        accel=rng.normal(size=1),
        speed_sq=np.array([-0.5, 2.0]),
        speed_aux=rng.normal(size=2),
        inverse_avg=rng.normal(size=1),
        torque=rng.normal(size=(1, sc.scene.dof)),
        wrenches={c.cid: rng.normal(size=(1, 6)) for c in sc.scene.contacts},
    )
    ledger = audit(prof, sc).to_json_dict()
    assert ledger == reference_audit(prof, sc)
    assert ledger["flagged"]["boundary_speed"] == [0, 0]


def test_audit_flagged_follows_family_order(small_solves):
    # cone_membership precedes pinned_components in `families`, though here
    # it first flags a later interval, and a later contact
    sc, sol = small_solves["pickup"]
    bad = copy.deepcopy(sol)
    first, second = (bad.wrenches[c.cid] for c in sc.scene.contacts)
    first[1, 4] = 1.0
    second[3] = -second[3]
    rep = audit(bad, sc)
    assert rep.flagged["pinned_components"][0] == 1 and rep.flagged["cone_membership"][0] == 3
    assert list(rep.flagged) == [f for f in rep.families if f in rep.flagged]


PERTURBABLE = [name for name in SHIPPED if name not in ("waiter/tilt_17_5", "waiter/tilt_20")]


@st.composite
def perturbed(draw, solves):
    """A shipped solve with NaNs, negative speeds, tampered torques and
    wrenches, flipped wrenches and boundary mismatches drawn into it."""
    name = draw(st.sampled_from(PERTURBABLE))
    sc, sol = solves[name]
    bad = copy.deepcopy(sol)
    fields = {"accel": bad.accel, "speed_sq": bad.speed_sq, "speed_aux": bad.speed_aux, "inverse_avg": bad.inverse_avg, "torque": bad.torque}
    fields.update({f"wrenches[{cid}]": w for cid, w in bad.wrenches.items()})
    forces = ["torque"] + [f"wrenches[{cid}]" for cid in bad.wrenches]
    K = bad.accel.size
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["nan", "negative_speed", "tamper", "flip_wrench", "boundary"]))
        if kind == "nan" or kind == "tamper":
            arr = fields[draw(st.sampled_from(sorted(fields) if kind == "nan" else forces))]
            at = tuple(draw(st.integers(0, size - 1)) for size in arr.shape)
            arr[at] = math.nan if kind == "nan" else arr[at] + draw(st.floats(-10.0, 10.0, allow_subnormal=False))
        elif kind == "negative_speed":
            bad.speed_sq[draw(st.integers(0, K))] = -draw(st.floats(1e-9, 1.0))
        elif kind == "flip_wrench" and bad.wrenches:
            W = bad.wrenches[draw(st.sampled_from(sorted(bad.wrenches)))]
            k = draw(st.integers(0, K - 1))
            W[k] = -W[k]
        elif kind == "boundary":
            bad.speed_sq[draw(st.sampled_from([0, -1]))] = draw(st.floats(0.0, 5.0))
    return sc, bad


@settings(max_examples=40)
@given(data=st.data())
def test_audit_matches_reference_on_perturbed_profiles(small_solves, data):
    sc, bad = data.draw(perturbed(small_solves))
    assert audit(bad, sc).to_json_dict() == reference_audit(bad, sc)


def reference_accel_box(samples, limits):
    """`_AccelBox` rows built joint by joint and sample by sample."""
    tl, tu, vmax, al, au = limits
    M, C, G, LB, UB = [], [], [], [], []
    for i in range(tl.size):
        if np.isfinite(tl[i]) or np.isfinite(tu[i]):
            M.append([smp.torque_accel_coeff[i] for smp in samples])
            C.append([smp.torque_velsq_coeff[i] for smp in samples])
            G.append([smp.torque_gravity[i] for smp in samples])
            LB.append(tl[i])
            UB.append(tu[i])
        if np.isfinite(al[i]) or np.isfinite(au[i]):
            M.append([smp.dq[i] for smp in samples])
            C.append([smp.ddq[i] for smp in samples])
            G.append([0.0] * len(samples))
            LB.append(al[i])
            UB.append(au[i])
    P = len(samples)
    box = object.__new__(verification._AccelBox)
    box.M = np.asarray(M, dtype=float).T.reshape(P, -1)
    box.C = np.asarray(C, dtype=float).T.reshape(P, -1)
    box.G = np.asarray(G, dtype=float).T.reshape(P, -1)
    box.LB = np.asarray(LB, dtype=float)
    box.UB = np.asarray(UB, dtype=float)
    caps = np.full(P, verification.B_CAP)
    for i in range(tl.size):
        if np.isfinite(vmax[i]):
            dq2 = np.array([smp.dq[i] ** 2 for smp in samples])
            with np.errstate(divide="ignore"):
                caps = np.minimum(caps, np.where(dq2 > 0.0, vmax[i] ** 2 / np.maximum(dq2, 1e-300), verification.B_CAP))
    box.velocity_cap = caps
    return box


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_accel_box_matches_per_joint_construction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))

    def bound(scale):
        # about one joint in three leaves a side unbounded
        return np.where(rng.random(n) < 0.3, np.inf, scale * rng.uniform(0.5, 2.0, n))

    tu, au = bound(50.0), bound(20.0)
    limits = JointLimits(-bound(50.0), tu, bound(2.0), -bound(20.0), au)
    model = planar_arm(rng.uniform(0.2, 1.0, n), rng.uniform(0.5, 3.0, n), limits=limits)
    sc = scenario_of(model, rng.uniform(-1.5, 1.5, (4, n)))
    samples = [verification.sample_path_dynamics(sc.scene, float(s)) for s in np.linspace(0.0, 1.0, 41)]
    box = verification._AccelBox(samples, sc.scene.limit_arrays())
    ref = reference_accel_box(samples, sc.scene.limit_arrays())
    assert box.velocity_cap.tobytes() == ref.velocity_cap.tobytes()
    for name in ("M", "C", "G", "LB", "UB"):
        assert np.array_equal(getattr(box, name), getattr(ref, name))
    for b in (np.zeros(41), rng.uniform(0.0, 3.0, 41), ref.velocity_cap):
        assert np.array_equal(box.feasible(b), ref.feasible(b))
        assert [box.interval(j, bj) for j, bj in enumerate(b)] == [ref.interval(j, bj) for j, bj in enumerate(b)]
