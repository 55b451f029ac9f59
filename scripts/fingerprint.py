#!/usr/bin/env python3
"""Print sha256 hashes of the independent oracles' outputs as one JSON line.

    python scripts/fingerprint.py            # K=500, as shipped
    python scripts/fingerprint.py --grid 10  # quick run

For pivoting, pickup and arm_7dof it hashes, bit for bit:

  samples/<name>      `sample_path_dynamics` at the K interval midpoints
  fd_suite/<name>     the `fd_suite` ledger, seed 0
  audit/<name>        the `audit` report of the shipped K=500 profile in
                      perfbench/profiles (with --grid, of its first K intervals)
  phase_plane/<name>  `topp_phase_plane` of a contact-free scenario (every
                      field, the total included; with --grid, at resolution K)

Two trees whose oracles compute the same floating-point operations print
the same line, so a change meant to leave the oracles' results alone can be
checked by running this script on both.
"""
import argparse
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from contact_topp.dynamics import sample_path_dynamics  # noqa: E402
from contact_topp.scenario import load_scenario, profile_from_json_dict  # noqa: E402
from contact_topp.transcription import ScalingVariables, build_grid  # noqa: E402
from contact_topp.verification import audit, fd_suite, topp_phase_plane  # noqa: E402

SCENARIOS = ("pivoting", "pickup", "arm_7dof")
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


def samples_hash(scene, K: int) -> str:
    d = Digest()
    for s in build_grid(K).midpoints:
        smp = sample_path_dynamics(scene, float(s))
        d.add(smp.s, smp.q, smp.dq, smp.ddq, smp.torque_accel_coeff, smp.torque_velsq_coeff, smp.torque_gravity)
        for cid in sorted(smp.contact_jacobians):
            d.add(cid, smp.contact_jacobians[cid])
        for osmp in smp.objects:
            d.add(osmp.name, osmp.accel_coeff, osmp.velsq_coeff, osmp.external)
            for cid, sign, G in osmp.contact_terms:
                d.add(cid, sign, G)
    return d.hexdigest()


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


def phase_plane_hash(sc, resolution) -> str:
    pp = topp_phase_plane(sc, resolution)
    return Digest().add(pp.s, pp.limit_curve, pp.forward, pp.backward, pp.profile, pp.total).hexdigest()


def fingerprint(grid: int | None) -> dict:
    K = grid or PROFILE_K
    out = {"grid": K}
    for name in SCENARIOS:
        sc = load_scenario(os.path.join(ROOT, "scenarios", f"{name}.json"))
        out[f"samples/{name}"] = samples_hash(sc.scene, K)
        out[f"fd_suite/{name}"] = json_hash(fd_suite(sc, seed=0))
        out[f"audit/{name}"] = json_hash(audit(shipped_profile(name, K), sc).to_json_dict())
        if not sc.scene.objects:
            out[f"phase_plane/{name}"] = phase_plane_hash(sc, grid)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--grid", type=int, default=None, help=f"intervals K for a quick run (default: {PROFILE_K})")
    args = ap.parse_args(argv)
    if args.grid is not None and not 1 <= args.grid <= PROFILE_K:
        ap.error(f"--grid must be between 1 and {PROFILE_K}")
    print(json.dumps(fingerprint(args.grid)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
