"""Independent correctness oracles for the timing pipeline.

Three layers of cross-checking, deliberately sharing no matrix-assembly
code with the transcription:

  * a classic phase-plane integrator for contact-free instances, giving an
    independent minimal time to compare the conic solve against;
  * a resubstitution auditor that re-derives every constraint family from
    the raw robot/object models and measures how well a solved profile
    satisfies them;
  * a finite-difference suite for the kinematic derivatives and the
    inverse-dynamics substitution identity.

Independence contract: everything here evaluates the dynamics point by point
through the scalar functions (`sample_path_dynamics`, `inverse_dynamics`,
`forward_kinematics`, `body_jacobian`, `jacobian_path_derivative`,
`object_path_kinematics`) and reaches no batched code: no `*_many` helper,
no `stack_dynamics_in_s`, no `_path_torque_terms`.  The batched sampler that
the solve uses is therefore checked against a second implementation, and
`tests/test_scalar_oracle.py` holds this module to that by a static call
graph of the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contacts import cone_margin
from .dynamics import _grasping_robot, inverse_dynamics, sample_path_dynamics
from .liegroup import (
    body_jacobian,
    forward_kinematics,
    jacobian_path_derivative,
    object_path_kinematics,
)
from .transcription import ScalingVariables, build_grid

# squared-speed ceiling standing in for "no velocity limit applies"
B_CAP = 1e12
# below this, a row's acceleration coefficient counts as zero (the row
# constrains the squared speed only)
SLOPE_TOL = 1e-11


# ---------------------------------------------------------------------------
# phase-plane oracle


@dataclass(frozen=True)
class PhasePlaneProfile:
    """Bang-bang speed profile in the (s, sdot^2) plane."""

    s: np.ndarray
    limit_curve: np.ndarray  # largest feasible sdot^2 at each s
    forward: np.ndarray
    backward: np.ndarray
    profile: np.ndarray  # pointwise min of the three curves
    total: float


class _AccelBox:
    """Feasible path-acceleration intervals at precomputed path samples.

    Every torque and joint-acceleration limit is an affine condition
    lb <= m*a + c*b + g <= ub at a sample; rows with |m| below SLOPE_TOL
    constrain b alone.  Arrays are (points, rows).
    """

    def __init__(self, samples, limits):
        tl, tu, vmax, al, au = limits
        M, C, G, LB, UB = [], [], [], [], []
        n = tl.size
        for i in range(n):
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
        self.M = np.asarray(M, dtype=float).T.reshape(P, -1)
        self.C = np.asarray(C, dtype=float).T.reshape(P, -1)
        self.G = np.asarray(G, dtype=float).T.reshape(P, -1)
        self.LB = np.asarray(LB, dtype=float)
        self.UB = np.asarray(UB, dtype=float)

        caps = np.full(P, B_CAP)
        for i in range(n):
            if not np.isfinite(vmax[i]):
                continue
            dq2 = np.array([smp.dq[i] ** 2 for smp in samples])
            with np.errstate(divide="ignore"):
                caps = np.minimum(caps, np.where(dq2 > 0.0, vmax[i] ** 2 / np.maximum(dq2, 1e-300), B_CAP))
        self.velocity_cap = caps

    @staticmethod
    def _bounds(M, C, G, LB, UB, b):
        """(lower, upper, zero_row_ok) for row arrays at squared speed b."""
        if M.shape[-1] == 0:
            shape = np.shape(b)
            return np.full(shape, -np.inf), np.full(shape, np.inf), np.full(shape, True)
        r = C * b + G
        big = np.inf
        pos = M > SLOPE_TOL
        neg = M < -SLOPE_TOL
        stiff = ~(pos | neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo_cand = np.where(pos, (LB - r) / M, np.where(neg, (UB - r) / M, -big))
            hi_cand = np.where(pos, (UB - r) / M, np.where(neg, (LB - r) / M, big))
        lo_cand = np.where(np.isnan(lo_cand), -big, lo_cand)
        hi_cand = np.where(np.isnan(hi_cand), big, hi_cand)
        slack = 1e-9 * np.maximum(1.0, np.abs(r))
        ok = ~stiff | ((r >= LB - slack) & (r <= UB + slack))
        return lo_cand.max(axis=-1), hi_cand.min(axis=-1), ok.all(axis=-1)

    def feasible(self, b_vec: np.ndarray) -> np.ndarray:
        lo, hi, ok = self._bounds(self.M, self.C, self.G, self.LB, self.UB, b_vec[:, None])
        gap_tol = 1e-9 * np.maximum(1.0, np.minimum(np.abs(lo), np.abs(hi)))
        return ok & (lo <= hi + gap_tol)

    def interval(self, j: int, b: float):
        """Acceleration interval at sample j, or None when empty."""
        lo, hi, ok = self._bounds(self.M[j], self.C[j], self.G[j], self.LB, self.UB, max(b, 0.0))
        if not ok or lo > hi + 1e-9 * max(1.0, min(abs(lo), abs(hi))):
            return None
        return float(lo), float(hi)


def _max_velocity_curve(box: _AccelBox) -> np.ndarray:
    """Largest feasible squared speed at every sample, by bisection.

    The infeasibility measure max(lower) - min(upper) is convex in b, so
    the feasible squared speeds form an interval containing 0 and bisection
    against its upper end is exact.
    """
    P = box.velocity_cap.size
    zero_ok = box.feasible(np.zeros(P))
    if not zero_ok.all():
        bad = np.flatnonzero(~zero_ok)
        raise ValueError(
            "dynamic singularity: no feasible path acceleration at zero speed "
            f"around samples {bad[0]}..{bad[-1]} of {P}"
        )
    hi = box.velocity_cap.copy()
    good_hi = box.feasible(hi)
    lo = np.where(good_hi, hi, 0.0)
    hi_work = hi.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi_work)
        good = box.feasible(mid)
        lo = np.where(good_hi, lo, np.where(good, mid, lo))
        hi_work = np.where(good_hi, hi_work, np.where(good, hi_work, mid))
    return np.where(good_hi, hi, lo)


def topp_phase_plane(scenario, resolution: int | None = None) -> PhasePlaneProfile:
    """Independent minimal-time profile for a contact-free scenario.

    Integrates the bang-bang extremal fields db/ds = 2*beta (forward) and
    db/ds = 2*alpha (backward) with RK4, clips both at the maximum-velocity
    curve, and takes the pointwise minimum.
    """
    scene = scenario.scene
    if scene.objects:
        raise ValueError("phase-plane oracle covers contact-free scenarios only")
    N = int(resolution) if resolution else 10 * scenario.grid_points
    if N < 2:
        raise ValueError("resolution must give at least two integration steps")
    # samples at nodes and interval midpoints: index 2j is node j
    s_all = np.linspace(0.0, 1.0, 2 * N + 1)
    samples = [sample_path_dynamics(scene, float(s)) for s in s_all]
    box = _AccelBox(samples, scene.limit_arrays())
    if box.LB.size == 0:
        raise ValueError("no torque or acceleration limits; the extremal fields are unbounded")
    mvc_all = _max_velocity_curve(box)
    h = 1.0 / N

    sdot0, sdotT = scenario.boundary_sdot
    b_start = mvc_all[0] if sdot0 is None else float(sdot0) ** 2
    b_end = mvc_all[-1] if sdotT is None else float(sdotT) ** 2

    def clipped_rate(j2: int, b: float, want_max: bool) -> float:
        iv = box.interval(j2, min(max(b, 0.0), mvc_all[j2]))
        if iv is None:
            # ridden above the limit curve between nodes; steer back down
            iv = box.interval(j2, mvc_all[j2])
            if iv is None:
                return 0.0
        return 2.0 * (iv[1] if want_max else iv[0])

    def rk4_step(j2_from: int, b: float, sign: float, want_max: bool) -> float:
        j_mid = j2_from + int(sign)
        j_to = j2_from + 2 * int(sign)
        k1 = clipped_rate(j2_from, b, want_max)
        k2 = clipped_rate(j_mid, b + sign * 0.5 * h * k1, want_max)
        k3 = clipped_rate(j_mid, b + sign * 0.5 * h * k2, want_max)
        k4 = clipped_rate(j_to, b + sign * h * k3, want_max)
        return b + sign * h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    forward = np.zeros(N + 1)
    forward[0] = min(b_start, mvc_all[0])
    for j in range(N):
        b = rk4_step(2 * j, forward[j], +1.0, want_max=True)
        forward[j + 1] = min(max(b, 0.0), mvc_all[2 * (j + 1)])

    backward = np.zeros(N + 1)
    backward[N] = min(b_end, mvc_all[-1])
    for j in range(N, 0, -1):
        b = rk4_step(2 * j, backward[j], -1.0, want_max=False)
        backward[j - 1] = min(max(b, 0.0), mvc_all[2 * (j - 1)])

    tol = 1e-6 * max(1.0, b_start, b_end)
    if forward[N] < b_end - tol:
        raise ValueError(
            f"terminal speed unreachable: forward pass ends at b={forward[N]:.6g}, need {b_end:.6g}"
        )
    if backward[0] < b_start - tol:
        raise ValueError(
            f"initial speed too high: backward pass allows b={backward[0]:.6g}, need {b_start:.6g}"
        )

    mvc = mvc_all[::2]
    profile = np.minimum(np.minimum(forward, backward), mvc)
    roots = np.sqrt(np.maximum(profile, 0.0))
    scale = max(1.0, float(roots.max()))
    total = 0.0
    for j in range(N):
        denom = roots[j] + roots[j + 1]
        if denom <= 1e-9 * scale:
            raise ValueError(f"profile stalls near s = {j * h:.6g}; the path is not traversable")
        total += 2.0 * h / denom
    return PhasePlaneProfile(
        s=s_all[::2],
        limit_curve=mvc,
        forward=forward,
        backward=backward,
        profile=profile,
        total=float(total),
    )


# ---------------------------------------------------------------------------
# resubstitution audit


@dataclass
class AuditReport:
    """Per-family worst relative violation of a solved profile."""

    families: dict
    flagged: dict  # family -> interval indices beyond tolerance
    tolerance: float

    @property
    def worst(self) -> float:
        return float(max(self.families.values())) if self.families else 0.0

    def passed(self) -> bool:
        return bool(self.worst <= self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "families": {k: float(v) for k, v in self.families.items()},
            "flagged": {k: list(map(int, v)) for k, v in self.flagged.items() if v},
            "tolerance": self.tolerance,
            "worst": float(self.worst),
            "passed": self.passed(),
        }


def audit(profile: ScalingVariables, scenario, tolerance: float = 1e-6) -> AuditReport:
    """Re-derive every constraint family from the raw models and measure it.

    Each violation is normalized by 1 plus the magnitudes of the terms in
    its row, so the report is scale-free.  Nothing here touches the
    assembled matrices; agreement is evidence both sides are right.
    """
    scene = scenario.scene
    K = profile.accel.size
    grid = build_grid(K)
    samples = [sample_path_dynamics(scene, float(s)) for s in grid.midpoints]
    tl, tu, vmax, al, au = scene.limit_arrays()
    n = tl.size

    a = profile.accel
    b = profile.speed_sq
    c = profile.speed_aux
    d = profile.inverse_avg
    b_mid = 0.5 * (b[:-1] + b[1:])

    families: dict[str, float] = {}
    flagged: dict[str, list] = {}

    def note(family, k, violation):
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
        acc_viol = np.maximum(
            np.where(np.isfinite(au), acc - au, 0.0), np.where(np.isfinite(al), al - acc, 0.0)
        )
        acc_cap = np.where(np.isfinite(au), np.abs(au), 0.0) + np.where(np.isfinite(al), np.abs(al), 0.0)
        note("acceleration_limits", k, float(np.max(np.maximum(acc_viol, 0.0) / (1.0 + acc_cap))))

    # speed-profile families
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

    # contact cone families, straight from the cone models
    descriptors = {
        f"{obj.model.name}/{c_.name}": (c_.descriptor(), c_.fz_max)
        for obj in scene.objects
        for c_ in obj.model.contacts
    }
    for cid, (desc, fz_cap) in descriptors.items():
        W = profile.wrenches[cid]
        for k in range(K):
            F = W[k]
            scale = 1.0 + float(np.max(np.abs(F)))
            margin = cone_margin(desc, F, pin_tol=np.inf)
            note("cone_membership", k, max(-margin, 0.0) / scale)
            pin_err = max((abs(F[idx]) for idx in desc.pinned), default=0.0)
            note("pinned_components", k, pin_err / scale)
            if fz_cap is not None:
                note("normal_force_cap", k, max(F[desc.head_index] - fz_cap, 0.0) / (1.0 + fz_cap))

    return AuditReport(families=families, flagged={k: tuple(v) for k, v in flagged.items()}, tolerance=tolerance)


# ---------------------------------------------------------------------------
# finite-difference suite


def _fd_body_jacobian(model, q, h=1e-6) -> np.ndarray:
    """Central-difference body Jacobian from forward kinematics alone.

    Differentiates the tool pose, matching the default reporting frame of
    the analytic Jacobian.
    """
    n = q.size
    J = np.zeros((6, n))

    def tool(qv):
        return forward_kinematics(model, qv).compose(model.tool_offset).as_matrix()

    Xinv = np.linalg.inv(tool(q))
    for i in range(n):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        E = Xinv @ (tool(qp) - tool(qm)) / (2 * h)
        W = 0.5 * (E[:3, :3] - E[:3, :3].T)
        J[:3, i] = E[:3, 3]
        J[3:, i] = (W[2, 1], W[0, 2], W[1, 0])
    return J


def fd_suite(scenario, samples: int = 50, seed: int = 0) -> dict:
    """Finite-difference cross-checks at fixed-seed random path points.

    Returns a machine-readable ledger: one entry per check with its max
    error, tolerance, and verdict.  Deterministic for a given seed.
    """
    scene = scenario.scene
    rng = np.random.default_rng(seed)
    s_vals = rng.uniform(0.02, 0.98, size=samples)
    checks: dict[str, dict] = {}

    def record(name, err, tol):
        checks[name] = {"max_error": float(err), "tolerance": tol, "passed": bool(err <= tol)}

    jac_err = 0.0
    path_err = 0.0
    for r in scene.robots:
        for s in s_vals[:: max(1, samples // 12)]:
            q = r.path.position(float(s))
            jac_err = max(jac_err, float(np.max(np.abs(body_jacobian(r.model, q) - _fd_body_jacobian(r.model, q)))))
        for s in s_vals:
            dJ_an = jacobian_path_derivative(r.model, r.path, float(s), method="analytic")
            dJ_fd = jacobian_path_derivative(r.model, r.path, float(s), method="finite_difference")
            path_err = max(path_err, float(np.max(np.abs(dJ_an - dJ_fd))))
    record("body_jacobian_fd", jac_err, 1e-5)
    record("jacobian_path_derivative_fd", path_err, 1e-5)

    if scene.objects:
        dir_err = 0.0
        h = 1e-6
        for obj in scene.objects:
            grasp = scene.robots[_grasping_robot(scene, obj)]
            offset = scene.offset_from_ee(obj.model.name)
            for s in s_vals:
                s = float(np.clip(s, h, 1.0 - h))
                _, rate = object_path_kinematics(grasp.model, grasp.path, s, offset)
                d_hi, _ = object_path_kinematics(grasp.model, grasp.path, s + h, offset)
                d_lo, _ = object_path_kinematics(grasp.model, grasp.path, s - h, offset)
                dir_err = max(dir_err, float(np.max(np.abs((d_hi - d_lo) / (2 * h) - rate))))
        record("object_direction_rate_fd", dir_err, 1e-5)

    sub_err = 0.0
    for r in scene.robots:
        zeros = np.zeros(r.model.dof)
        for s in s_vals:
            q = r.path.position(float(s))
            dq = r.path.derivative(float(s))
            ddq = r.path.second_derivative(float(s))
            sd, sdd = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
            direct = inverse_dynamics(r.model, q, dq * sd, ddq * sd * sd + dq * sdd, scene.gravity)
            acc = inverse_dynamics(r.model, q, zeros, dq, np.zeros(3))
            velsq = inverse_dynamics(r.model, q, dq, ddq, np.zeros(3))
            grav = inverse_dynamics(r.model, q, zeros, zeros, scene.gravity)
            stitched = acc * sdd + velsq * sd * sd + grav
            sub_err = max(sub_err, float(np.max(np.abs(direct - stitched))))
    record("rnea_substitution", sub_err, 1e-9)

    return {
        "seed": seed,
        "samples": samples,
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }


def verification_ledger(scenario, profile: ScalingVariables | None = None, tolerance: float = 1e-6) -> dict:
    """Combined machine-readable ledger: fd_suite plus (optionally) an audit."""
    ledger = {"scenario": scenario.name, "fd_suite": fd_suite(scenario)}
    if profile is not None:
        ledger["audit"] = audit(profile, scenario, tolerance).to_json_dict()
    ledger["passed"] = ledger["fd_suite"]["passed"] and (
        profile is None or ledger["audit"]["passed"]
    )
    return ledger
