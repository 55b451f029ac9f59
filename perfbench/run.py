#!/usr/bin/env python3
"""contact-topp benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload solve-k250 --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from `src/`.  With
`--trace 0` the workload's operation list is run serially, in passes, until
another pass would overrun `--seconds` (at least one pass), and the last
line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics.  Times are normalised to a reference CPU
speed by a sampler that runs while they are measured (see `speed.py`).
With `--trace 1` one untraced pass is followed by one traced pass (see
`layers.py`), and the metrics are the per-layer ones.  `--smoke` runs only each workload's first operation at a tiny grid.
Each process is pinned to one BLAS thread.  Records of every run (the
environment, failures and, when tracing, the spans) go to `.perfbench/`.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# Read by native libraries when the process starts, so a run re-executes
# itself with them set.  One BLAS thread: a second OpenBLAS thread only
# adds noise on a 2-CPU machine.  A fixed glibc mmap threshold: with the
# default adaptive one, peak RSS depends on heap fragmentation and varied
# by 15% between runs of the same operations.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "1048576",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], {**os.environ, **PINNED})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(ROOT, ".perfbench")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 3
SETUP_TIMEOUT = 120
OP_GROUPS = ("pivoting", "pickup", "arm_7dof", "waiter")


def probe_setup(workload: str, smoke: bool) -> tuple[float, float]:
    """Import the library and load the workload's inputs; runs in a fresh interpreter.

    Returns the normalised and the raw wall time.  The speed sampler's
    kernel needs numpy, so numpy is imported before the timer starts.
    """
    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        import workloads

        workloads.load_inputs(workload, smoke)
        t1 = time.perf_counter()
    return sampler.normalise(t0, t1), t1 - t0


def measure_setup(workload: str, smoke: bool, repeats: int) -> list[list[float]]:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded; None if unknown."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(loadavg) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED},
        "loadavg_start": list(loadavg),
    }


def load_spec() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def metric_units(spec: dict, kind: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[kind]}


def tally(passes) -> tuple[int, list]:
    results = [r for p in passes for r in p.results]
    return len(results), [r for r in results if not r.ok]


def run_untraced(ops, seconds: float, smoke: bool, sampler):
    """Passes of the operation list until another would overrun `seconds` (at least one)."""
    import workloads

    passes = []
    start = time.perf_counter()
    with sampler:
        while True:
            p0 = time.perf_counter()
            passes.append(workloads.run_pass(ops))
            last = time.perf_counter() - p0
            if smoke or time.perf_counter() - start + last > seconds:
                return passes


def normalised_wall(p, sampler) -> float:
    return sum(sampler.normalise(t0, t1) for t0, t1 in p.spans)


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="first operation only, at a tiny grid")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.smoke)))
        return 0

    loadavg = os.getloadavg()
    setup = [] if args.trace else measure_setup(args.workload, args.smoke, 1 if args.smoke else SETUP_REPEATS)

    import workloads
    from layers import Tracer
    from speed import SpeedSampler

    env = environment(loadavg)
    print("env " + json.dumps(env), flush=True)
    inputs = workloads.load_inputs(args.workload, args.smoke)
    ops = workloads.build_ops(args.workload, inputs, args.seed, args.smoke)

    problems = []
    tracer = None
    sampler = SpeedSampler()
    if args.trace:
        with sampler:
            untraced = workloads.run_pass(ops)
        tracer = Tracer()
        with tracer:
            traced = workloads.run_pass(ops, on_op=tracer.set_op)
        passes = [untraced, traced]
        problems = tracer.check(ops, untraced.results)
        units = metric_units(spec, "per_layer")
        values = tracer.layer_metrics(traced.wall)
        values.update({f"op.{g}_s": untraced.op_times.get(g, 0.0) for g in OP_GROUPS})
        values["process.cpu_s"] = untraced.cpu
        values["process.wall_s"] = untraced.wall
        values["process.slowdown"] = sampler.slowdown()
        values["trace.overhead_s"] = traced.wall - untraced.wall
        for i, op in enumerate(ops):
            parts = sorted(tracer.op_breakdown(i).items())
            print(f"layers {op.name}: " + ", ".join(f"{k}={v:.3f}" for k, v in parts), flush=True)
    else:
        passes = run_untraced(ops, args.seconds, args.smoke, sampler)
        units = metric_units(spec, "end_to_end")
        values = {
            "setup_s": statistics.median(norm for norm, _ in setup),
            "norm_wall_s": statistics.median(normalised_wall(p, sampler) for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    attempted, failures = tally(passes)
    values["success_rate"] = (attempted - len(failures)) / attempted
    for r in failures:
        print(f"FAIL {r.key}: {r.reason}", flush=True)
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"benchmark bug: no value for {sorted(missing)}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
        record = {
            "args": vars(args),
            "env": env,
            "passes": len(passes),
            "pass_wall_s": [p.wall for p in passes],
            "pass_norm_wall_s": [normalised_wall(p, sampler) for p in passes],
            "slowdown": sampler.slowdown(),
            "pass_cpu_s": [p.cpu for p in passes],
            "setup_s": [norm for norm, _ in setup],
            "setup_raw_s": [raw for _, raw in setup],
            "op_times": [p.op_times for p in passes],
            "failures": [f"{r.key}: {r.reason}" for r in failures],
            "trace_problems": problems,
            "result": result,
        }
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"{stem}.spans.json"), ops)
    if problems:
        # a layer that silently reads zero would mislead every later comparison
        for p in problems:
            print(f"TRACE SELF-CHECK FAILED: {p}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
