"""The benchmark's workloads: inputs, timed operations and output checks.

A workload is a fixed list of operations run serially through the public
API of `contact_topp`, one at a time (a closed loop with a single client).
Each operation returns one or more results; every result is checked after
the operation's timer has stopped, and a failed check or an exception
counts against that result without stopping the run.

Callers go through module attributes (`cs.run`, `cv.audit`, ...) so that the
layer trace in `layers.py` sees the calls when it wraps those names.
"""
from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

from contact_topp import scenario as cs
from contact_topp import verification as cv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCENARIOS = os.path.join(ROOT, "scenarios")
PROFILES = os.path.join(HERE, "profiles")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("solve-k250", "trend-sweeps-k80", "verify-k500")

SOLVE_SCENARIOS = ("pivoting", "pickup", "arm_7dof")
VERIFY_SCENARIOS = ("pivoting", "pickup", "arm_7dof")
SOLVE_K = 250
SWEEP_K = 80
VERIFY_K = 500
# the smoke mode runs each workload's first operation at this grid size
SMOKE_K = 16

T_REL_TOL = 1e-6
AUDIT_TOL = 1e-6
PIVOT_SPREAD_TOL = 1e-6

PICKUP_PARAM = "objects.box.mass"
# Each study is thinned from the paper's lists (six masses, four friction
# values, five tilts) to the ends of each status bracket: the full lists
# took about 65 s per run, twice as long as the other workloads, and the
# runs of all workloads together must stay within an hour.
PICKUP_MASSES = (0.5, 1.0, 1.25, 1.75)
# statuses on these brackets are known, so jittered values stay checkable
PICKUP_FEASIBLE = (0.5, 1.0)
PICKUP_INFEASIBLE = (1.25, 1.75)
PIVOT_PARAMS = (
    "objects.box.contacts.edge_front.friction.mu",
    "objects.box.contacts.edge_back.friction.mu",
)
PIVOT_MUS = (0.2, 0.5)
PIVOT_BRACKET = (0.2, 0.5)
WAITER_TILTS = ("0", "15", "20")
JITTER = 0.05
DEFAULT_SEED = 0

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"


@dataclass
class Result:
    """One checked outcome of an operation (a solve, a sweep point, a ledger)."""

    key: str
    status: str | None = None
    total_time: float | None = None
    iterations: int | None = None
    ok: bool = True
    reason: str = ""
    op: int = -1  # index of the operation that produced it


@dataclass
class Op:
    """A timed call into the library that yields `count` results."""

    name: str
    group: str
    kind: str
    count: int
    call: object
    check: object
    # checks across every result of the op's group, run after the pass
    rule: object = None
    # facts the layer self-check needs: which layers this call must reach
    facts: dict = field(default_factory=dict)


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIOS, f"{name}.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def sweep_values(seed: int) -> tuple[list[float], list[float]]:
    """Pickup masses and pivoting friction values for a seed.

    The default seed gives the nominal values; any other seed jitters each
    value by at most JITTER inside the bracket whose status is known.
    """
    if seed == DEFAULT_SEED:
        return list(PICKUP_MASSES), list(PIVOT_MUS)
    rng = random.Random(seed)

    def jitter(v, lo, hi):
        return min(hi, max(lo, v + rng.uniform(-JITTER, JITTER)))

    masses = []
    for m in PICKUP_MASSES:
        lo, hi = PICKUP_FEASIBLE if m <= PICKUP_FEASIBLE[1] else PICKUP_INFEASIBLE
        masses.append(jitter(m, lo, hi))
    mus = [jitter(mu, *PIVOT_BRACKET) for mu in PIVOT_MUS]
    return sorted(masses), sorted(mus)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _expect(result: Result, status: str, ref_time: float | None) -> Result:
    if result.status != status:
        result.ok, result.reason = False, f"status {result.status}, expected {status}"
    elif ref_time is not None and _rel(result.total_time, ref_time) > T_REL_TOL:
        result.ok, result.reason = False, f"T {result.total_time!r} differs from reference {ref_time!r}"
    return result


# ---------------------------------------------------------------------------
# inputs (loaded and validated during set-up, before any timer)


def load_inputs(workload: str, smoke: bool = False) -> dict:
    """Read and validate every input file the workload needs."""
    if workload == "solve-k250":
        scenarios = {name: cs.load_scenario(scenario_path(name)) for name in SOLVE_SCENARIOS}
        for name, sc in scenarios.items():
            if sc.grid_points != SOLVE_K:
                raise ValueError(f"{name}: shipped grid is {sc.grid_points}, expected {SOLVE_K}")
        return {"scenarios": scenarios}
    if workload == "trend-sweeps-k80":
        pickup = cs.load_scenario(scenario_path("pickup"))
        pivoting = cs.load_scenario(scenario_path("pivoting"))
        for sc, params in ((pickup, [PICKUP_PARAM]), (pivoting, PIVOT_PARAMS)):
            probe = json.loads(json.dumps(sc.source))
            for p in params:
                cs.set_by_path(probe, p, 1.0)
        waiter = {}
        for tilt in WAITER_TILTS:
            with open(scenario_path(f"waiter/tilt_{tilt}")) as fh:
                raw = json.load(fh)
            cs.scenario_from_dict(raw)
            waiter[tilt] = raw
        return {"pickup": pickup, "pivoting": pivoting, "waiter": waiter}
    if workload == "verify-k500":
        scenarios = {name: cs.load_scenario(scenario_path(name)) for name in VERIFY_SCENARIOS}
        dumps = {}
        if not smoke:
            for name in VERIFY_SCENARIOS:
                with open(os.path.join(PROFILES, f"{name}.k{VERIFY_K}.json")) as fh:
                    dump = json.load(fh)
                if dump.get("format") != cs.TRAJECTORY_FORMAT or dump.get("scenario") != name:
                    raise ValueError(f"profile for {name}: wrong format or scenario")
                if dump.get("grid_intervals") != VERIFY_K:
                    raise ValueError(f"profile for {name}: grid {dump.get('grid_intervals')}, expected {VERIFY_K}")
                dumps[name] = dump
        return {"scenarios": scenarios, "dumps": dumps}
    raise ValueError(f"unknown workload {workload!r}")


def trajectory_profile_dict(out) -> dict:
    """The `trajectory-v1` fields that `topp verify` reads back."""
    full = out.to_json_dict()
    return {k: full[k] for k in ("format", "scenario", "status", "grid_intervals", "boundary_sdot", "total_time", "profile")}


# ---------------------------------------------------------------------------
# operations


def _solve_op(name, sc, ref, grid=None):
    settings = cs.RunSettings() if grid is None else cs.RunSettings(grid_override=grid)

    def call():
        out = cs.run(sc, settings)
        # the in-memory JSON dump is part of what a solve delivers
        return out, json.dumps(out.to_json_dict())

    def check(outcome):
        out, _ = outcome
        r = Result(name, out.status, out.total_time, out.meta["iterations"])
        _expect(r, OPTIMAL, ref["total_time"])
        if r.ok:
            report = cv.audit(out.profile, sc, AUDIT_TOL)
            if not report.passed():
                r.ok, r.reason = False, f"audit flagged {sorted(report.flagged)}"
        return [r]

    contacts = sum(len(o.model.contacts) for o in sc.scene.objects)
    return Op(name, name, "solve", 1, call, check, facts={"contacts": contacts > 0})


def _sweep_op(name, sc, params, values, grid, expected, refs, rule):
    def call():
        # threads=1 always: the default worker count is os.cpu_count(), and a
        # pool would both change what is measured and hide spans from the trace
        return cs.sweep(sc, params, values, grid=grid, threads=1)

    def check(points):
        results = []
        for i, p in enumerate(points):
            r = Result(f"{name}[{p.value:g}]", p.status, p.total_time)
            results.append(_expect(r, expected[i], None if refs is None else refs[i]))
        return results

    facts = {"optimal": OPTIMAL in expected, "infeasible": PRIMAL_INFEASIBLE in expected}
    return Op(name, name.split(".")[0], "sweep", len(values), call, check, rule, facts)


def _waiter_op(tilt, raw, grid, expected, ref_time):
    name = f"waiter/tilt_{tilt}"

    def call():
        sc = cs.scenario_from_dict(raw)
        program, report, solution = cs.solve_scenario(sc, cs.RunSettings(grid_override=grid, output_points=2))
        total = cs.recover_time(solution.speed_sq, program.grid).total if report.status == OPTIMAL else None
        return report.status, total, report.iterations

    def check(outcome):
        return [_expect(Result(name, *outcome), expected, ref_time)]

    facts = {"optimal": expected == OPTIMAL, "infeasible": expected == PRIMAL_INFEASIBLE}
    return Op(name, "waiter", "waiter", 1, call, check, _waiter_rule, facts)


def _verify_op(name, sc, dump, seed):
    def call():
        profile, _, _ = cs.profile_from_json_dict(dump)
        fd = cv.fd_suite(sc, seed=seed)
        report = cv.audit(profile, sc, AUDIT_TOL)
        return {"fd_suite": fd, "audit": report.to_json_dict(), "passed": fd["passed"] and report.passed()}

    def check(ledger):
        r = Result(name)
        if not ledger["passed"]:
            failed = [k for k, c in ledger["fd_suite"]["checks"].items() if not c["passed"]]
            r.ok, r.reason = False, f"ledger failed: fd {failed}, audit {sorted(ledger['audit']['flagged'])}"
        return [r]

    contacts = sum(len(o.model.contacts) for o in sc.scene.objects)
    return Op(name, name, "verify", 1, call, check, facts={"contacts": contacts > 0})


def _fail(result: Result, reason: str):
    if result.ok:
        result.ok, result.reason = False, reason


def _feasible_then_infeasible(results, what):
    """The first points are Optimal, the rest certified infeasible."""
    feasible = [r for r in results if r.status == OPTIMAL]
    if not 1 <= len(feasible) < len(results) or any(
        r.status != PRIMAL_INFEASIBLE for r in results[len(feasible) :]
    ):
        for r in results:
            _fail(r, f"{what} statuses are not feasible-then-infeasible")
    return feasible


def _pickup_rule(results):
    """T nondecreasing in mass, then certified infeasible (criterion 5)."""
    feasible = _feasible_then_infeasible(results, "pickup")
    for a, b in zip(feasible, feasible[1:]):
        if b.total_time < a.total_time * (1.0 - 1e-9):
            _fail(b, f"T {b.total_time!r} decreases with mass")


def _waiter_rule(results):
    """T increasing in tilt, then certified infeasible (criterion 7)."""
    feasible = _feasible_then_infeasible(results, "waiter")
    for a, b in zip(feasible, feasible[1:]):
        if not b.total_time > a.total_time:
            _fail(b, f"T {b.total_time!r} does not increase with tilt")


def _pivot_rule(results):
    """T invariant to edge friction while velocity limits dominate (criterion 6)."""
    times = [r.total_time for r in results if r.total_time is not None]
    if len(times) == len(results) and (max(times) - min(times)) / min(times) > PIVOT_SPREAD_TOL:
        for r in results:
            _fail(r, f"T spread {(max(times) - min(times)) / min(times):.2e}")


def build_ops(workload: str, inputs: dict, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's operation list for a seed, in the order they run.

    The order is fixed: peak RSS depends on it.  The seed picks the sweep
    values (trend-sweeps-k80) and the finite-difference sample points
    (verify-k500); solve-k250 has no seeded input.  Smoke mode keeps only
    the first operation, at grid SMOKE_K.
    """
    ref = load_reference()
    wref = ref["smoke" if smoke else "full"][workload]
    if workload == "solve-k250":
        names = list(SOLVE_SCENARIOS[:1] if smoke else SOLVE_SCENARIOS)
        grid = SMOKE_K if smoke else None
        ops = [_solve_op(n, inputs["scenarios"][n], wref[n], grid) for n in names]
    elif workload == "trend-sweeps-k80":
        grid = SMOKE_K if smoke else SWEEP_K
        masses, mus = sweep_values(DEFAULT_SEED if smoke else seed)
        default = smoke or seed == DEFAULT_SEED
        pick_ref = wref["pickup.mass"]
        pick_expected = (
            pick_ref["status"]
            if default
            else [OPTIMAL if m <= PICKUP_FEASIBLE[1] else PRIMAL_INFEASIBLE for m in masses]
        )
        ops = [
            _sweep_op("pickup.mass", inputs["pickup"], PICKUP_PARAM, masses, grid, pick_expected,
                      pick_ref["total_time"] if default else None, _pickup_rule)
        ]
        if not smoke:
            piv_ref = wref["pivoting.mu"]
            ops.append(
                _sweep_op("pivoting.mu", inputs["pivoting"], list(PIVOT_PARAMS), mus, grid, piv_ref["status"],
                          piv_ref["total_time"] if default else None, _pivot_rule)
            )
            for tilt in WAITER_TILTS:
                wr = wref[f"waiter/tilt_{tilt}"]
                ops.append(_waiter_op(tilt, inputs["waiter"][tilt], grid, wr["status"], wr["total_time"]))
    elif workload == "verify-k500":
        if smoke:
            # no shipped profile at the smoke grid: make one before timing
            name = VERIFY_SCENARIOS[0]
            sc = inputs["scenarios"][name]
            dump = trajectory_profile_dict(cs.run(sc, cs.RunSettings(grid_override=SMOKE_K)))
            ops = [_verify_op(name, sc, dump, seed)]
        else:
            ops = [_verify_op(n, inputs["scenarios"][n], inputs["dumps"][n], seed) for n in VERIFY_SCENARIOS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# running


@dataclass
class PassStats:
    wall: float
    cpu: float
    op_times: dict
    results: list
    # (start, end) of each operation's timed call, for the speed sampler
    spans: list = field(default_factory=list)


def run_pass(ops: list[Op], on_op=None) -> PassStats:
    """Run every operation once; time each call, then check its output.

    Checks run outside the timers.  Group rules (the trend studies) run
    after the whole pass, over the results of each group in list order.

    `on_op(index)` is called before each operation and `on_op(None)` after
    it, so a tracer can tag spans with the operation that caused them.
    """
    results: list[Result] = []
    op_times: dict[str, float] = {}
    spans: list[tuple[float, float]] = []
    wall = cpu = 0.0
    for i, op in enumerate(ops):
        if on_op:
            on_op(i)
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        w1, c1 = time.perf_counter(), time.process_time()
        if on_op:
            on_op(None)
        wall += w1 - w0
        cpu += c1 - c0
        spans.append((w0, w1))
        op_times[op.group] = op_times.get(op.group, 0.0) + (w1 - w0)
        if error is None:
            try:
                checked = op.check(out)
                if len(checked) != op.count:
                    error = f"{len(checked)} results, expected {op.count}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            checked = [Result(f"{op.name}#{j}", ok=False, reason=error) for j in range(op.count)]
        for r in checked:
            r.op = i
        results.extend(checked)
    for group, rule in {op.group: op.rule for op in ops if op.rule}.items():
        rule([r for r in results if ops[r.op].group == group])
    return PassStats(wall, cpu, op_times, results, spans)
