#!/usr/bin/env python3
"""Print sha256 hashes of the independent oracles' outputs and the solver's
results as one JSON line.

    python scripts/fingerprint.py                     # K=500, as shipped
    python scripts/fingerprint.py --grid 10           # quick run (K >= 2)
    python scripts/fingerprint.py --check saved.json  # compare with a saved line

For every shipped scenario (scenarios/*.json and scenarios/waiter/*.json)
it hashes, bit for bit:

  samples/<name>      `sample_path_dynamics` at the K interval midpoints
  stack/<name>        `stack_dynamics_in_s` at the same K midpoints, in one
                      call: every field, the contact Jacobians in dict order
                      and each object's contact terms in order
  fd_suite/<name>     the `fd_suite` ledger, seed 0

so every robot, path, object and contact kind that ships guards both
samplers: the two contact-free scenarios, planar_2dof and double_integrator,
the one-object scenes, and the waiter tilts, whose cube rides on the tray,
with contact reactions and a grasp chain through an object parent.  For
pivoting, pickup and arm_7dof, which have a shipped profile, it also hashes:

  audit/<name>        the `audit` report of the shipped K=500 profile in
                      perfbench/profiles (with --grid, of its first K intervals)

and for each contact-free scenario (arm_7dof, double_integrator and
planar_2dof), which needs no stored profile:

  phase_plane/<name>  `topp_phase_plane` (every field, the total included;
                      with --grid below 500, at resolution K)

and for every shipped scenario it solves at K intervals and records:

  dump/<name>              sha256 of `json.dumps(program.to_json_dict())`,
                           the bytes `topp solve --dump-program` writes
  form/<name>              sha256 of the canonical form the iteration runs
                           on (c, A, b, G, h, the cones and the row labels),
                           so a change to the transcription that leaves the
                           solver's input alone says so
  solve/<name>/status      the solver's status
  solve/<name>/iterations  its iteration count
  solve/<name>/T           the total time T as `float.hex`, null unless Optimal
  solve/<name>/x           sha256 of the solver's x (its shape and bytes)
  solve/<name>/history     sha256 of the solver's iteration history (every
                           iteration's mu, sigma, alpha, tau, kappa, costs and
                           residuals), each float written as `float.hex`
  kkt/<name>/lu_nnz        the nonzeros of L plus U in the solver's first
                           factor of its reduced KKT matrix, at the first
                           iterate (s = z = e), an exact count: a change to
                           the order of that matrix shows here as numbers

The line also carries `blas_threads`, the OPENBLAS_NUM_THREADS setting it
was taken under ("unset" when there is none): the last bits of long dot
products, and so of a solve with many rows, depend on the BLAS thread count.

Two trees that compute the same floating-point operations print the same
line, so a change meant to leave results alone can be checked by running
this script on both: save the line printed on one tree and pass it to
--check on the other, with the same --grid and the same OPENBLAS_NUM_THREADS.
--check prints each key that differs and exits 1 if any does, 0 if none; a
saved line taken under another BLAS setting is flagged as such.
"""
import argparse
import glob
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from contact_topp.dynamics import sample_path_dynamics, stack_dynamics_in_s  # noqa: E402
from contact_topp.scenario import RunSettings, load_scenario, profile_from_json_dict, solve_scenario  # noqa: E402
from contact_topp.solver import Scaling, _KKTSystem, _Scaled, canonicalize, cone_identity  # noqa: E402
from contact_topp.transcription import ScalingVariables, build_grid, recover_time  # noqa: E402
from contact_topp.verification import audit, fd_suite, topp_phase_plane  # noqa: E402

PROFILED = ("pivoting", "pickup", "arm_7dof")
PROFILE_K = 500


class Digest:
    """sha256 over a stream of arrays (exact bytes, shape and dtype) and strings."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *items):
        for x in items:
            if isinstance(x, str):
                self.h.update(x.encode())
            else:
                a = np.ascontiguousarray(x, dtype=float)
                self.h.update(repr(a.shape).encode())
                self.h.update(a.tobytes())
        return self

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def add_dynamics(d: Digest, dyn, cids) -> Digest:
    """Add every field of a `PathDynamics` to d, its contact Jacobians in the order of cids."""
    d.add(dyn.s, dyn.q, dyn.dq, dyn.ddq, dyn.torque_accel_coeff, dyn.torque_velsq_coeff, dyn.torque_gravity)
    for cid in cids:
        d.add(cid, dyn.contact_jacobians[cid])
    for terms in dyn.objects:
        d.add(terms.name, terms.accel_coeff, terms.velsq_coeff, terms.external)
        for cid, sign, G in terms.contact_terms:
            d.add(cid, sign, G)
    return d


def samples_hash(scene, K: int) -> str:
    d = Digest()
    for s in build_grid(K).midpoints:
        smp = sample_path_dynamics(scene, float(s))
        add_dynamics(d, smp, sorted(smp.contact_jacobians))
    return d.hexdigest()


def stack_hash(scene, K: int) -> str:
    stk = stack_dynamics_in_s(scene, build_grid(K).midpoints)
    return add_dynamics(Digest(), stk, stk.contact_jacobians).hexdigest()


def json_hash(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def shipped_profile(name: str, K: int) -> ScalingVariables:
    """The shipped K=500 profile, cut to its first K intervals when K is smaller."""
    with open(os.path.join(ROOT, "perfbench", "profiles", f"{name}.k{PROFILE_K}.json")) as fh:
        profile, _, _ = profile_from_json_dict(json.load(fh))
    return ScalingVariables(
        accel=profile.accel[:K],
        speed_sq=profile.speed_sq[: K + 1],
        speed_aux=profile.speed_aux[: K + 1],
        inverse_avg=profile.inverse_avg[:K],
        torque=profile.torque[:K],
        wrenches={cid: w[:K] for cid, w in profile.wrenches.items()},
    )


def history_hash(history: list) -> str:
    return json_hash([{k: float.hex(v) if isinstance(v, float) else v for k, v in row.items()} for row in history])


def phase_plane_hash(sc, resolution) -> str:
    pp = topp_phase_plane(sc, resolution)
    return Digest().add(pp.s, pp.limit_curve, pp.forward, pp.backward, pp.profile, pp.total).hexdigest()


def shipped_scenarios() -> list:
    """Names of the shipped scenario files, relative to scenarios/ without .json."""
    base = os.path.join(ROOT, "scenarios")
    paths = glob.glob(os.path.join(base, "*.json")) + glob.glob(os.path.join(base, "waiter", "*.json"))
    return sorted(os.path.relpath(p, base)[: -len(".json")].replace(os.sep, "/") for p in paths)


def form_hash(form) -> str:
    d = Digest().add(form.c, form.b, form.h)
    for M in (form.A, form.G):
        d.add(repr(M.shape), M.data, M.indices, M.indptr)
    return d.add(repr((form.cones.orthant, form.cones.socs)), json.dumps(form.ids.labels())).hexdigest()


def lu_nnz(form) -> int:
    """L + U nonzeros of the first factor a solve of form makes."""
    data = _Scaled(form)
    kkt = _KKTSystem(data.A, data.G, form.cones)
    e = cone_identity(form.cones)
    kkt.refill(Scaling(form.cones, e, e).w_inv_matrix())
    kkt.factor()
    return int(kkt._lu.L.nnz + kkt._lu.U.nnz)


def solve_keys(name: str, K: int) -> dict:
    sc = load_scenario(os.path.join(ROOT, "scenarios", f"{name}.json"))
    program, report, solution = solve_scenario(sc, RunSettings(grid_override=K))
    T = None if solution is None else float(recover_time(solution.speed_sq, program.grid).total).hex()
    form = canonicalize(program)
    return {
        f"dump/{name}": hashlib.sha256(json.dumps(program.to_json_dict()).encode()).hexdigest(),
        f"form/{name}": form_hash(form),
        f"solve/{name}/status": report.status,
        f"solve/{name}/iterations": report.iterations,
        f"solve/{name}/T": T,
        f"solve/{name}/x": Digest().add(report.x).hexdigest(),
        f"solve/{name}/history": history_hash(report.history),
        f"kkt/{name}/lu_nnz": lu_nnz(form),
    }


def fingerprint(K: int) -> dict:
    out = {"grid": K, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    for name in shipped_scenarios():
        sc = load_scenario(os.path.join(ROOT, "scenarios", f"{name}.json"))
        out[f"samples/{name}"] = samples_hash(sc.scene, K)
        out[f"stack/{name}"] = stack_hash(sc.scene, K)
        out[f"fd_suite/{name}"] = json_hash(fd_suite(sc, seed=0))
        if name in PROFILED:
            out[f"audit/{name}"] = json_hash(audit(shipped_profile(name, K), sc).to_json_dict())
        if not sc.scene.objects:
            # at K=500 the phase plane keeps its own default resolution, so
            # "grid" names one line whether or not --grid 500 was given
            out[f"phase_plane/{name}"] = phase_plane_hash(sc, None if K == PROFILE_K else K)
        out.update(solve_keys(name, K))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--grid", type=int, default=PROFILE_K, help=f"intervals K for a quick run (default: {PROFILE_K})")
    ap.add_argument("--check", metavar="FILE", help="compare with the JSON line saved in FILE instead of printing")
    args = ap.parse_args(argv)
    # one interval between two speeds fixed at zero is a degenerate stall,
    # which assembly rejects for every shipped scenario
    if not 2 <= args.grid <= PROFILE_K:
        ap.error(f"--grid must be between 2 and {PROFILE_K}")
    if args.check is None:
        print(json.dumps(fingerprint(args.grid)))
        return 0
    with open(args.check) as fh:
        saved = json.loads(fh.read())
    now = fingerprint(args.grid)
    if saved.get("blas_threads") != now["blas_threads"]:
        print(
            f"settings differ: OPENBLAS_NUM_THREADS saved {saved.get('blas_threads')}, now {now['blas_threads']}; "
            "solve keys can differ for that reason alone"
        )
    differ = sorted(k for k in saved.keys() | now.keys() if saved.get(k) != now.get(k))
    for key in differ:
        print(f"differs: {key}: saved {saved.get(key)}, now {now.get(key)}")
    if not differ:
        print(f"all {len(now)} keys match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
