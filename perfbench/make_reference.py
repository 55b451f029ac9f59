#!/usr/bin/env python3
"""Regenerate the benchmark's reference data from the library as it stands.

Writes `reference.json` (status, T and iteration count of every checked
operation, at the full and the smoke grid) and the K=500 profiles under
`profiles/` that the verify-k500 workload re-audits.  Run it from the
repository root, only when a change is meant to move those numbers:

    python3 perfbench/make_reference.py
"""
import json
import os
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from contact_topp import scenario as cs  # noqa: E402


def solve_ref(sc, grid=None):
    out = cs.run(sc, cs.RunSettings(grid_override=grid))
    return {"status": out.status, "total_time": out.total_time, "iterations": out.meta["iterations"]}


def sweep_ref(sc, params, values, grid):
    points = cs.sweep(sc, params, values, grid=grid, threads=1)
    return {"values": values, "status": [p.status for p in points], "total_time": [p.total_time for p in points]}


def waiter_ref(raw, grid):
    sc = cs.scenario_from_dict(raw)
    program, report, solution = cs.solve_scenario(sc, cs.RunSettings(grid_override=grid, output_points=2))
    total = cs.recover_time(solution.speed_sq, program.grid).total if report.status == wl.OPTIMAL else None
    return {"status": report.status, "total_time": total, "iterations": report.iterations}


def main():
    solve_in = wl.load_inputs("solve-k250")["scenarios"]
    trend_in = wl.load_inputs("trend-sweeps-k80")
    masses, mus = wl.sweep_values(wl.DEFAULT_SEED)
    ref = {"full": {}, "smoke": {}}

    ref["full"]["solve-k250"] = {n: solve_ref(solve_in[n]) for n in wl.SOLVE_SCENARIOS}
    first = wl.SOLVE_SCENARIOS[0]
    ref["smoke"]["solve-k250"] = {first: solve_ref(solve_in[first], wl.SMOKE_K)}

    trend = {
        "pickup.mass": sweep_ref(trend_in["pickup"], wl.PICKUP_PARAM, masses, wl.SWEEP_K),
        "pivoting.mu": sweep_ref(trend_in["pivoting"], list(wl.PIVOT_PARAMS), mus, wl.SWEEP_K),
    }
    for tilt in wl.WAITER_TILTS:
        trend[f"waiter/tilt_{tilt}"] = waiter_ref(trend_in["waiter"][tilt], wl.SWEEP_K)
    ref["full"]["trend-sweeps-k80"] = trend
    ref["smoke"]["trend-sweeps-k80"] = {
        "pickup.mass": sweep_ref(trend_in["pickup"], wl.PICKUP_PARAM, masses, wl.SMOKE_K)
    }

    os.makedirs(wl.PROFILES, exist_ok=True)
    verify = {}
    for name in wl.VERIFY_SCENARIOS:
        out = cs.run(cs.load_scenario(wl.scenario_path(name)), cs.RunSettings(grid_override=wl.VERIFY_K))
        with open(os.path.join(wl.PROFILES, f"{name}.k{wl.VERIFY_K}.json"), "w") as fh:
            json.dump(wl.trajectory_profile_dict(out), fh)
        verify[name] = {"status": out.status, "total_time": out.total_time, "iterations": out.meta["iterations"]}
    ref["full"]["verify-k500"] = verify
    ref["smoke"]["verify-k500"] = {}

    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref, indent=1))


if __name__ == "__main__":
    main()
