"""Command-line front end: solve, sweep, and verify scenario files.

Exit codes: 0 optimal (or verification pass), 2 certified infeasible,
3 numerical failure or iteration limit, 4 bad input, 1 verification fail.
Bad input is a usage error (an unknown command or option, a missing or
malformed argument), a missing or unreadable file, a file that is not
JSON, a scenario or trajectory field that breaks its rule, or an output
directory that cannot be made (`solve --out`) or an output file that
cannot be written (`sweep --out` and `verify --out` naming a directory or
a file in a missing directory), which is checked before any work.  A
sweep exits 4 if any point's value is bad input, else 3 if any point
failed numerically, else 0 (certified infeasible points included).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .scenario import (
    SWEEP_INPUT_ERROR,
    InfeasibleScenarioError,
    RunSettings,
    ScenarioError,
    SolverFailureError,
    assemble_scenario,
    check_profile,
    load_scenario,
    profile_from_json_dict,
    read_json,
    run,
    sweep,
)
from .solver import MAX_ITERATIONS, NUMERICAL_FAILURE, TOL
from .transcription import MAX_INTERVALS, build_grid
from .verification import AUDIT_TOL, verification_ledger

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER_FAILURE = 3
EXIT_INPUT = 4

TOL_HELP = "solver tolerance on feasibility, duality gap and infeasibility certificates (default: %(default)g)"


def _check_positive(option: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ScenarioError(f"{option} must be a positive finite number, got {value!r}")


def _check_count(option: str, value: int | None, most: float = math.inf) -> None:
    if value is not None and value < 1:
        raise ScenarioError(f"{option} must be at least 1, got {value}")
    if value is not None and value > most:
        raise ScenarioError(f"{option} must be at most {most}, got {value}")


def _check_out_file(path: str | None) -> None:
    """Reject an --out file that cannot be written, before any work is done."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ScenarioError(f"--out {path!r} is a directory; it must name a file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ScenarioError(f"--out {path!r} cannot be written: no directory {parent!r}")


def _cmd_solve(args) -> int:
    _check_positive("--tol", args.tol)
    _check_count("--grid", args.grid, MAX_INTERVALS)
    scenario = load_scenario(args.scenario)
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {out_dir!r} cannot be made a directory: {exc}") from exc
    stem = os.path.join(out_dir, scenario.name)

    if args.dump_program:
        grid = None if args.grid is None else build_grid(args.grid)
        program = assemble_scenario(scenario, grid)
        with open(f"{stem}.program.json", "w") as fh:
            json.dump(program.to_json_dict(), fh)
        print(f"wrote {stem}.program.json")

    settings = RunSettings(grid_override=args.grid, tol=args.tol)
    try:
        out = run(scenario, settings)
    except InfeasibleScenarioError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.report.certificate is not None:
            print(f"certificate: {exc.report.certificate['kind']}, residual {exc.report.certificate['residual']:.3e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE

    csv_path = f"{stem}.trajectory.csv"
    json_path = f"{stem}.trajectory.json"
    out.write_csv(csv_path)
    with open(json_path, "w") as fh:
        json.dump(out.to_json_dict(), fh)
    print(
        f"{scenario.name}: {out.status}, T = {out.total_time:.6f} s, "
        f"{out.meta['iterations']} iterations, {out.meta['wall_time']:.2f} s wall"
    )
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _check_positive("--tol", args.tol)
    _check_count("--grid", args.grid, MAX_INTERVALS)
    _check_count("--threads", args.threads)
    _check_out_file(args.out)
    scenario = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"--values must be comma-separated numbers, got {args.values!r}") from None
    if not values:
        raise ScenarioError("--values is empty")
    points = sweep(
        scenario,
        args.param,
        values,
        grid=args.grid,
        tol=args.tol,
        threads=args.threads,
    )
    print(f"{'value':>12}  {'status':<16}  {'T [s]':>12}")
    for pt in points:
        t_str = f"{pt.total_time:.6f}" if pt.total_time is not None else "-"
        note = f"  {pt.message}" if pt.message else ""
        print(f"{pt.value:>12.6g}  {pt.status:<16}  {t_str:>12}{note}")
    if args.out:
        payload = {
            "scenario": scenario.name,
            "param": args.param,
            "points": [dataclasses.asdict(p) for p in points],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.out}")
    if any(p.status == SWEEP_INPUT_ERROR for p in points):
        return EXIT_INPUT
    if any(p.status in (MAX_ITERATIONS, NUMERICAL_FAILURE) for p in points):
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_positive("--tolerance", args.tolerance)
    _check_out_file(args.out)
    scenario = load_scenario(args.scenario)
    profile, intervals, _ = profile_from_json_dict(read_json(args.output, "trajectory"))
    check_profile(profile, intervals, scenario)
    ledger = verification_ledger(scenario, profile, tolerance=args.tolerance)
    text = json.dumps(ledger, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK if ledger["passed"] else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INPUT, not
    argparse's 2, which here means certified infeasible.  Subparsers are
    built from the parent's class, so they share it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topp",
        description="Time-optimal path timing through contact-consistent conic optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario and write trajectory outputs")
    p_solve.add_argument("scenario", help="scenario JSON file")
    p_solve.add_argument("--grid", type=int, default=None, help="override the grid interval count")
    p_solve.add_argument("--out", default=None, help="output directory (default: current)")
    p_solve.add_argument("--dump-program", action="store_true", help="also write the assembled conic program")
    p_solve.add_argument("--tol", type=float, default=TOL, help=TOL_HELP)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="re-solve over a list of parameter values")
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument(
        "--param",
        action="append",
        required=True,
        help="dotted path into the scenario ('objects.box.mass'); repeat to set several fields",
    )
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    p_sweep.add_argument("--grid", type=int, default=None)
    p_sweep.add_argument("--tol", type=float, default=TOL, help=TOL_HELP)
    p_sweep.add_argument("--threads", type=int, default=None, help="worker processes (default: serial)")
    p_sweep.add_argument("--out", default=None, help="write sweep results to a JSON file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="audit a trajectory output against its scenario")
    p_verify.add_argument("scenario", help="scenario JSON file")
    p_verify.add_argument("output", help="trajectory JSON written by 'topp solve'")
    p_verify.add_argument("--tolerance", type=float, default=AUDIT_TOL, help="audit tolerance (default: %(default)g)")
    p_verify.add_argument("--out", default=None, help="write the ledger to a file instead of stdout")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
