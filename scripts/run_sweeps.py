#!/usr/bin/env python3
"""Run the three trend studies and print their tables: each point's status,
minimum time T and solver iteration count.

  pickup   grasped-box mass sweep: minimum time grows with payload until the
           grip force cap makes the task infeasible
  pivoting edge-friction sweep: with joint-velocity limits active the optimum
           never touches the environment cones, so T is invariant
  waiter   tray-tilt family: T grows with tilt and the task turns infeasible
           past the friction angle of the riding cube
"""
import argparse
import glob
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from contact_topp.scenario import (
    InfeasibleScenarioError,
    RunSettings,
    SolverFailureError,
    load_scenario,
    run,
    sweep,
)

ROOT = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def show(title, header, rows):
    print(f"\n{title}")
    print(f"  {header:>10s}  {'status':<16s}  {'T':>10s}  {'iterations':>10s}")
    for value, status, total, iterations in rows:
        t = "-" if total is None else f"{total:.4f}"
        it = "-" if iterations is None else str(iterations)
        print(f"  {value:>10}  {status:<16s}  {t:>10s}  {it:>10s}")


def pickup_table(grid, threads):
    sc = load_scenario(os.path.join(ROOT, "pickup.json"))
    masses = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    pts = sweep(sc, "objects.box.mass", masses, grid=grid, threads=threads)
    show("pickup: box mass [kg] vs minimum time [s]", "mass",
         [(f"{p.value:g}", p.status, p.total_time, p.iterations) for p in pts])


def pivoting_table(grid, threads):
    sc = load_scenario(os.path.join(ROOT, "pivoting.json"))
    mus = [0.2, 0.3, 0.4, 0.5]
    params = [
        "objects.box.contacts.edge_front.friction.mu",
        "objects.box.contacts.edge_back.friction.mu",
    ]
    pts = sweep(sc, params, mus, grid=grid, threads=threads)
    show("pivoting: edge friction vs minimum time [s]", "mu_env",
         [(f"{p.value:g}", p.status, p.total_time, p.iterations) for p in pts])
    ts = [p.total_time for p in pts if p.total_time is not None]
    if len(ts) == len(mus):
        print(f"  spread (max-min)/min = {(max(ts) - min(ts)) / min(ts):.2e}")


def waiter_table(grid):
    rows = []
    for path in sorted(glob.glob(os.path.join(ROOT, "waiter", "tilt_*.json")),
                       key=lambda p: float(os.path.basename(p)[5:-5].replace("_", "."))):
        sc = load_scenario(path)
        tilt = os.path.basename(path)[5:-5].replace("_", ".")
        try:
            out = run(sc, RunSettings(grid_override=grid, output_points=2))
            rows.append((tilt, out.status, out.total_time, out.meta["iterations"]))
        except (InfeasibleScenarioError, SolverFailureError) as exc:
            rows.append((tilt, exc.report.status, None, exc.report.iterations))
    show("waiter: tray tilt [deg] vs minimum time [s]", "tilt", rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--grid", type=int, default=80, help="grid intervals for every solve")
    ap.add_argument("--threads", type=int, default=None, help="sweep workers (default: serial)")
    ap.add_argument("--only", choices=("pickup", "pivoting", "waiter"), default=None)
    args = ap.parse_args()

    if args.only in (None, "pickup"):
        pickup_table(args.grid, args.threads)
    if args.only in (None, "pivoting"):
        pivoting_table(args.grid, args.threads)
    if args.only in (None, "waiter"):
        waiter_table(args.grid)


if __name__ == "__main__":
    main()
