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
through the scalar functions and reaches no batched code: no `*_many`
helper, no `stack_dynamics_in_s`, no `_path_torque_terms`.  The batched
sampler that the solve uses is therefore checked against a second
implementation, and `tests/test_scalar_oracle.py` holds this module to that
by a static call graph of the package.

The audit and the phase-plane oracle sample through `sample_path_dynamics`.
Sampled point by point, the fields are then stacked (`_stacked`) and each
constraint family is measured over the whole grid at once, rounded as a
loop over the points would be.  The finite-difference suite calls the
scalar helpers beneath the public `body_jacobian`, `jacobian_path_derivative`,
`object_path_kinematics` and `inverse_dynamics`, with the same operations,
so that it builds each chain once per point and shares it:
`liegroup._space_chain`, `_reporting_frame`, `_jacobian_rate` and
`_direction_terms`, and `dynamics._down_adjoints` and `_newton_euler`.  Its
finite-difference body Jacobian (`_fd_body_jacobian`) differentiates the
tool pose of `forward_kinematics`, built with its operations from
`_times_exp`, and lives here, beside the one suite that uses it.

What the oracles do share with the solve is the scene's joint layout and
contact table (`Scene.slices`, `Scene.path`, `Scene.grasp` and
`Scene.contacts`): each robot's joint columns and path, which robot carries
each object, the contact ids and the friction cones; and the clock,
`transcription.recover_time`, which times the phase-plane profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contacts import cone_margin
from .dynamics import _down_adjoints, _newton_euler, sample_path_dynamics
from .liegroup import (
    Pose,
    _checked,
    _compose,
    _direction_terms,
    _jacobian_rate,
    _reporting_frame,
    _space_chain,
    _times_exp,
)
from .transcription import ScalingVariables, build_grid, recover_time

# squared-speed ceiling standing in for "no velocity limit applies"
B_CAP = 1e12
# below this, a row's acceleration coefficient counts as zero (the row
# constrains the squared speed only)
SLOPE_TOL = 1e-11
# random path points of `fd_suite`; every fourth of them also checks the body Jacobian
FD_SAMPLES = 50
# step of every central difference in `fd_suite`
FD_STEP = 1e-6
# default bound on every audited violation (`audit`, `verification_ledger`, `topp verify`)
AUDIT_TOL = 1e-6


def _stacked(samples, name) -> np.ndarray:
    """Field `name` of every sample, stacked on a leading axis."""
    return np.array([getattr(smp, name) for smp in samples])


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
        # joint i owns a torque row (2i) and an acceleration row (2i + 1),
        # kept when either of its limits is finite
        rows = np.column_stack([np.isfinite(tl) | np.isfinite(tu), np.isfinite(al) | np.isfinite(au)]).ravel()

        def pick(torque_term, accel_term):
            return np.stack([torque_term, accel_term], axis=-1).reshape(len(samples), -1)[:, rows]

        dq = _stacked(samples, "dq")
        self.M = pick(_stacked(samples, "torque_accel_coeff"), dq)
        self.C = pick(_stacked(samples, "torque_velsq_coeff"), _stacked(samples, "ddq"))
        self.G = pick(_stacked(samples, "torque_gravity"), np.zeros_like(dq))
        self.LB = np.column_stack([tl, al]).ravel()[rows]
        self.UB = np.column_stack([tu, au]).ravel()[rows]

        capped = np.isfinite(vmax)
        # float_power calls the C library's pow, as the ** of one float does
        dq2 = np.float_power(dq[:, capped], 2.0)
        with np.errstate(divide="ignore"):
            ratio = np.where(dq2 > 0.0, np.float_power(vmax[capped], 2.0) / np.maximum(dq2, 1e-300), B_CAP)
        self.velocity_cap = np.min(ratio, axis=1, initial=B_CAP)

    def _bounds(self, at, b):
        """(lower, upper, non-empty) of the acceleration intervals at samples `at` and squared speeds b."""
        M = self.M[at]
        r = self.C[at] * b + self.G[at]
        big = np.inf
        pos = M > SLOPE_TOL
        neg = M < -SLOPE_TOL
        stiff = ~(pos | neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo_cand = np.where(pos, (self.LB - r) / M, np.where(neg, (self.UB - r) / M, -big))
            hi_cand = np.where(pos, (self.UB - r) / M, np.where(neg, (self.LB - r) / M, big))
        lo = np.where(np.isnan(lo_cand), -big, lo_cand).max(axis=-1, initial=-big)
        hi = np.where(np.isnan(hi_cand), big, hi_cand).min(axis=-1, initial=big)
        slack = 1e-9 * np.maximum(1.0, np.abs(r))
        ok = (~stiff | ((r >= self.LB - slack) & (r <= self.UB + slack))).all(axis=-1)
        return lo, hi, ok & (lo <= hi + 1e-9 * np.maximum(1.0, np.minimum(np.abs(lo), np.abs(hi))))

    def feasible(self, b_vec: np.ndarray) -> np.ndarray:
        return self._bounds(slice(None), b_vec[:, None])[2]

    def interval(self, j: int, b: float):
        """Acceleration interval at sample j, or None when empty."""
        lo, hi, ok = self._bounds(j, max(b, 0.0))
        return (float(lo), float(hi)) if ok else None


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
    # a sample whose cap is feasible starts at lo = hi = cap and stays
    # there, since 0.5 (cap + cap) = cap
    hi = box.velocity_cap
    lo = np.where(box.feasible(hi), hi, 0.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        good = box.feasible(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return lo


def topp_phase_plane(scenario, resolution: int | None = None) -> PhasePlaneProfile:
    """Independent minimal-time profile for a contact-free scenario.

    Integrates the bang-bang extremal fields db/ds = 2*beta (forward) and
    db/ds = 2*alpha (backward) with RK4, clips both at the maximum-velocity
    curve, takes the pointwise minimum and times it with `recover_time`.
    """
    scene = scenario.scene
    if scene.objects:
        raise ValueError("phase-plane oracle covers contact-free scenarios only")
    N = 10 * scenario.grid_points if resolution is None else int(resolution)
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

    def clip(j2: int, b: float) -> float:
        return min(max(b, 0.0), mvc_all[j2])

    def clipped_rate(j2: int, b: float, sign: int) -> float:
        iv = box.interval(j2, clip(j2, b))
        if iv is None:
            # ridden above the limit curve between nodes; steer back down
            iv = box.interval(j2, mvc_all[j2])
            if iv is None:
                return 0.0
        return 2.0 * (iv[1] if sign > 0 else iv[0])

    def rk4_step(j2_from: int, b: float, sign: int) -> float:
        k1 = clipped_rate(j2_from, b, sign)
        k2 = clipped_rate(j2_from + sign, b + sign * 0.5 * h * k1, sign)
        k3 = clipped_rate(j2_from + sign, b + sign * 0.5 * h * k2, sign)
        k4 = clipped_rate(j2_from + 2 * sign, b + sign * h * k3, sign)
        return b + sign * h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    # forward from node 0 at maximal, backward from node N at minimal acceleration
    forward, backward = np.zeros(N + 1), np.zeros(N + 1)
    for curve, first, sign, b_first in ((forward, 0, 1, b_start), (backward, N, -1, b_end)):
        curve[first] = clip(2 * first, b_first)
        for j in range(first, N - first, sign):
            curve[j + sign] = clip(2 * (j + sign), rk4_step(2 * j, curve[j], sign))

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
    return PhasePlaneProfile(
        s=s_all[::2],
        limit_curve=mvc,
        forward=forward,
        backward=backward,
        profile=profile,
        total=recover_time(profile, build_grid(N)).total,
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


def audit(profile: ScalingVariables, scenario, tolerance: float = AUDIT_TOL) -> AuditReport:
    """Re-derive every constraint family from the raw models and measure it.

    One rule, `note`'s, reads every family: the excess over its limit,
    clamped at 0, divided by 1 plus the magnitudes of the terms in its row
    (`speed_nonneg` by 1 alone).  The floor of 1 makes a reading absolute
    where those terms are small, so the report is not scale-free.  A NaN
    excess, from a NaN in the profile, counts as an infinite one.  Nothing
    here touches the assembled matrices; agreement is evidence both sides
    are right.

    Sampled point by point at the K interval midpoints, each family is then
    measured on all intervals at once, node k booked on interval min(k, K - 1).
    `flagged` lists families in `families` order, intervals as measured.
    """
    scene = scenario.scene
    K = profile.accel.size
    grid = build_grid(K)
    samples = [sample_path_dynamics(scene, float(s)) for s in grid.midpoints]
    tl, tu, vmax, al, au = scene.limit_arrays()

    a, b, c, d = profile.accel, profile.speed_sq, profile.speed_aux, profile.inverse_avg
    T, W = profile.torque, profile.wrenches
    a_k, b_k = a[:, None], 0.5 * (b[:-1] + b[1:])[:, None]  # sddot and the mid-interval sdot^2 as columns

    families: dict[str, float] = {}
    flagged: dict[str, list] = {}

    def note(family, excess, *terms, intervals=None):
        """Book row i's excess, clamped at 0 and divided by 1 plus `terms` (added
        left to right), on interval intervals[i], by default i.  A 2-D row books
        its worst entry; a NaN reads as infinite."""
        scale = 1.0
        for term in terms:
            scale = scale + term
        v = np.maximum(np.asarray(excess, dtype=float), 0.0) / scale
        v = v.reshape(len(v), -1).max(axis=1)
        v = np.where(np.isnan(v), np.inf, v)
        families[family] = max(families.get(family, 0.0), float(v.max()))
        hit = (np.arange(v.size) if intervals is None else np.asarray(intervals))[v > tolerance]
        if hit.size:
            flagged.setdefault(family, []).extend(hit.tolist())

    # J'F and G F stay one matrix-vector product per interval, whose rounding
    # a stacked product need not keep
    pull = np.zeros(T.shape)
    for cid in samples[0].contact_jacobians:
        pull += np.array([smp.contact_jacobians[cid].T @ w for smp, w in zip(samples, W[cid])])
    inertial = _stacked(samples, "torque_accel_coeff") * a_k + _stacked(samples, "torque_velsq_coeff") * b_k
    inertial = inertial + _stacked(samples, "torque_gravity")
    note("torque_dynamics", np.abs(T + pull - inertial), np.abs(T), np.abs(pull), np.abs(inertial))
    del pull, inertial  # freed here, the (K, n) arrays add little to the samples' memory

    for j, name in enumerate(o.name for o in samples[0].objects):
        terms = [smp.objects[j] for smp in samples]
        total = _stacked(terms, "external") - _stacked(terms, "accel_coeff") * a_k - _stacked(terms, "velsq_coeff") * b_k
        mag = np.abs(total)
        for t, (cid, sign, _) in enumerate(terms[0].contact_terms):
            term = sign * np.array([o.contact_terms[t][2] @ w for o, w in zip(terms, W[cid])])
            total = total + term
            mag = mag + np.abs(term)
        note(f"balance[{name}]", np.abs(total), mag)

    def bounded(limit, value):
        """`value` where `limit` is finite, 0 where it leaves a side open."""
        return np.where(np.isfinite(limit), value, 0.0)

    def cap(lower, upper):
        """Per joint, |lower| + |upper| over their finite sides, to divide both sides' excess by."""
        return (bounded(upper, np.abs(upper)) + bounded(lower, np.abs(lower)))[:, None]

    note("torque_limits", np.stack([T - tu, tl - T], axis=-1), cap(tl, tu))
    dq = _stacked(samples, "dq")
    note("velocity_limits", bounded(vmax, dq**2 * b_k - vmax**2), bounded(vmax, vmax**2))
    acc = _stacked(samples, "ddq") * b_k + dq * a_k
    note("acceleration_limits", np.stack([bounded(au, acc - au), bounded(al, al - acc)], axis=-1), cap(al, au))

    # speed-profile families
    step = 2.0 * grid.spacing
    note("speed_coupling", np.abs(b[1:] - b[:-1] - step * a), np.abs(b[1:]), np.abs(b[:-1]), step * np.abs(a))
    csum = c[:-1] + c[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(csum > 1e-12, 1.0 / csum, np.inf)
    note("time_epigraph", inv - d, np.abs(d))
    nodes = np.minimum(np.arange(K + 1), K - 1)
    note("speed_nonneg", -b, intervals=nodes)
    root = np.sqrt(b.clip(0.0))
    note("speed_aux", np.stack([c - root, -c], axis=-1), root[:, None], intervals=nodes)

    sdot0, sdotT = scenario.boundary_sdot
    if sdot0 is not None:
        note("boundary_speed", [abs(b[0] - sdot0**2)], sdot0**2, intervals=[0])
    if sdotT is not None:
        note("boundary_speed", [abs(b[-1] - sdotT**2)], sdotT**2, intervals=[K - 1])

    # contact cone families, straight from the cone models
    for sc in scene.contacts:
        desc, fz_cap = sc.cone, sc.spec.fz_max
        F = W[sc.cid]
        mag = np.max(np.abs(F), axis=1)
        note("cone_membership", -cone_margin(desc, F), mag)
        note("pinned_components", np.max(np.abs(F[:, list(desc.pinned)]), axis=1, initial=0.0), mag)
        if fz_cap is not None:
            note("normal_force_cap", F[:, desc.head_index] - fz_cap, fz_cap)

    flagged = {f: tuple(flagged[f]) for f in families if f in flagged}
    return AuditReport(families=families, flagged=flagged, tolerance=tolerance)


# ---------------------------------------------------------------------------
# finite-difference suite


def _fd_body_jacobian(model, q) -> np.ndarray:
    """Central-difference body Jacobian from forward kinematics alone.

    Differentiates the tool pose, matching the default reporting frame of
    the analytic Jacobian.  The tool poses are `forward_kinematics`'s, with
    the same operations: its product of joint exponentials runs left to
    right, and the factors before joint i are the same at q and at q with
    joint i moved, so the poses moved at joint i go on from the product at
    q up to joint i.  A 7-joint arm takes 63 exponentials instead of 105.
    """
    n = q.size
    J = np.zeros((6, n))
    screws = model.space_screws
    # prefix[i]: the checked product of the first i joint exponentials at q
    prefix = [(np.eye(3), np.zeros(3))]
    for screw, qi in zip(screws, q):
        prefix.append(_times_exp(*prefix[-1], screw, qi))

    def tool(R, p):
        """The tool pose as a matrix, from a product of all n exponentials."""
        R, p = _checked(*_compose(R, p, model.x_ref.rotation, model.x_ref.translation))
        return Pose(R, p).compose(model.tool_offset).as_matrix()

    def moved(i, angle):
        """`tool` with joint i at `angle` and the joints after it at q."""
        R, p = prefix[i]
        for screw, qj in zip(screws[i:], (angle, *q[i + 1 :])):
            R, p = _times_exp(R, p, screw, qj)
        return tool(R, p)

    Xinv = np.linalg.inv(tool(*prefix[n]))
    for i in range(n):
        E = Xinv @ (moved(i, q[i] + FD_STEP) - moved(i, q[i] - FD_STEP)) / (2 * FD_STEP)
        W = 0.5 * (E[:3, :3] - E[:3, :3].T)
        J[:3, i] = E[:3, 3]
        J[3:, i] = (W[2, 1], W[0, 2], W[1, 0])
    return J


def fd_suite(scenario, seed: int = 0) -> dict:
    """Finite-difference cross-checks at `FD_SAMPLES` fixed-seed random path points.

    Returns a machine-readable ledger: one entry per check with its max
    error, tolerance, and verdict.  The maxima are taken with np.maximum,
    which keeps a NaN error, so it fails its check.  Deterministic for a
    given seed.

    Each robot's chain is built once per point, at s, s - FD_STEP and
    s + FD_STEP: its tool-frame body Jacobians there serve the body-Jacobian
    check (every fourth point) and the Jacobian-rate check, and its Jacobians
    at each object it carries serve the direction-rate check.  The points lie
    in [0.02, 0.98], so neither step leaves [0, 1].  The four inverse-dynamics
    passes of the substitution check share one set of down adjoints.
    """
    scene = scenario.scene
    rng = np.random.default_rng(seed)
    s_vals = rng.uniform(0.02, 0.98, size=FD_SAMPLES)
    h = FD_STEP
    carried = [[offset for robot, offset in scene.grasp.values() if robot == i] for i in range(len(scene.robots))]
    jac_err = path_err = dir_err = sub_err = 0.0
    for r, offsets in zip(scene.robots, carried):
        model, path, chain = r.model, r.path, r.model.chain_data
        zeros = np.zeros(model.dof)
        for k, s in enumerate(s_vals.tolist()):
            lo, hi = s - h, s + h
            q, dq, ddq = path.position(s), path.derivative(s), path.second_derivative(s)
            at_s, at_lo, at_hi = (_space_chain(model, qt) for qt in (q, path.position(lo), path.position(hi)))
            J = _reporting_frame(*at_s, model.tool_offset)
            if k % (FD_SAMPLES // 12) == 0:
                jac_err = np.maximum(jac_err, np.max(np.abs(J - _fd_body_jacobian(model, q))))
            dJ_fd = (_reporting_frame(*at_hi, model.tool_offset) - _reporting_frame(*at_lo, model.tool_offset)) / (hi - lo)
            path_err = np.maximum(path_err, np.max(np.abs(_jacobian_rate(J, dq) - dJ_fd)))

            for offset in offsets:
                _, rate = _direction_terms(_reporting_frame(*at_s, offset), dq, ddq)
                d_hi = _reporting_frame(*at_hi, offset) @ path.derivative(hi)
                d_lo = _reporting_frame(*at_lo, offset) @ path.derivative(lo)
                dir_err = np.maximum(dir_err, np.max(np.abs((d_hi - d_lo) / (2 * h) - rate)))

            ads = _down_adjoints(model, q)
            sd, sdd = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
            direct = _newton_euler(chain, ads, dq * sd, ddq * sd * sd + dq * sdd, scene.gravity)
            acc = _newton_euler(chain, ads, zeros, dq, np.zeros(3))
            velsq = _newton_euler(chain, ads, dq, ddq, np.zeros(3))
            grav = _newton_euler(chain, ads, zeros, zeros, scene.gravity)
            stitched = acc * sdd + velsq * sd * sd + grav
            sub_err = np.maximum(sub_err, np.max(np.abs(direct - stitched)))

    checks: dict[str, dict] = {}

    def record(name, err, tol):
        checks[name] = {"max_error": float(err), "tolerance": tol, "passed": bool(err <= tol)}

    record("body_jacobian_fd", jac_err, 1e-5)
    record("jacobian_path_derivative_fd", path_err, 1e-5)
    if scene.objects:
        record("object_direction_rate_fd", dir_err, 1e-5)
    record("rnea_substitution", sub_err, 1e-9)
    return {
        "seed": seed,
        "samples": FD_SAMPLES,
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }


def verification_ledger(scenario, profile: ScalingVariables, tolerance: float = AUDIT_TOL) -> dict:
    """Combined machine-readable ledger: fd_suite plus the audit of `profile`."""
    ledger = {"scenario": scenario.name, "fd_suite": fd_suite(scenario)}
    ledger["audit"] = audit(profile, scenario, tolerance).to_json_dict()
    ledger["passed"] = ledger["fd_suite"]["passed"] and ledger["audit"]["passed"]
    return ledger
