"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench

The smoke runs start `run.py` as a subprocess exactly as a benchmark run
would, with `--smoke` so each takes seconds.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--seed", "0", "--seconds", "1", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]


def test_every_wrapped_name_resolves():
    for name in (*layers.SPANNED, *layers.COUNTED):
        owner, attr = layers._resolve(name)
        assert callable(vars(owner)[attr]), name


def test_self_check_flags_unreached_layers_and_iteration_mismatch():
    solve = wl.Op("pivoting", "pivoting", "solve", 1, None, None, facts={"contacts": True})
    verify = wl.Op("arm_7dof", "arm_7dof", "verify", 1, None, None)
    tr = layers.Tracer()
    for name in layers.required_names(solve)[0]:
        tr.hits[(0, name)] = 1
    tr.extra[(0, "iterations")] = 31
    tr.hits[(1, "solver.splu")] = 2
    problems = tr.check([solve, verify], [wl.Result("pivoting", iterations=32, op=0), wl.Result("arm_7dof", op=1)])
    assert any("31 traced solver iterations" in p for p in problems)
    assert any("arm_7dof: wrapped name verification.fd_suite recorded no calls" in p for p in problems)
    assert any("arm_7dof: solver.splu was called 2 times" in p for p in problems)
    assert not any(p.startswith("pivoting: wrapped name") for p in problems)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_untraced(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metrics["success_rate"]["value"] == 1.0
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_traced(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "1", "--smoke"))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["liegroup.pose_count"] > 0 and metrics["dynamics.points"] > 0
    if workload == "verify-k500":
        assert all(metrics[k] == 0 for k in metrics if k.startswith("solver."))
        assert metrics["verification.audit_s"] > 0 and metrics["verification.fd_s"] > 0
    else:
        assert metrics["solver.iterations"] > 0 and metrics["solver.factor_s"] > 0
        assert metrics["verification.audit_s"] == 0


def test_failures_are_counted_and_do_not_stop_the_run():
    def boom():
        raise RuntimeError("no")

    def wrong_status(_):
        return [wl.Result("b", status="NumericalFailure", ok=False, reason="status")]

    ops = [
        wl.Op("a", "a", "solve", 2, boom, None),
        wl.Op("b", "b", "solve", 1, lambda: None, wrong_status),
        wl.Op("c", "c", "solve", 1, lambda: None, lambda _: [wl.Result("c")]),
    ]
    stats = wl.run_pass(ops)
    assert [r.ok for r in stats.results] == [False, False, False, True]
    assert "RuntimeError" in stats.results[0].reason
    assert set(stats.op_times) == {"a", "b", "c"}


def test_trend_rules_flag_the_offending_points():
    def pt(status, t):
        return wl.Result("p", status=status, total_time=t)

    pickup = [pt("Optimal", 1.0), pt("Optimal", 0.9), pt("PrimalInfeasible", None)]
    wl._pickup_rule(pickup)
    assert [r.ok for r in pickup] == [True, False, True]
    waiter = [pt("Optimal", 1.0), pt("PrimalInfeasible", None), pt("Optimal", 2.0)]
    wl._waiter_rule(waiter)
    assert not any(r.ok for r in waiter)
    pivot = [pt("Optimal", 5.0), pt("Optimal", 5.0 * (1 + 1e-5))]
    wl._pivot_rule(pivot)
    assert not any(r.ok for r in pivot)


def test_sweep_values_stay_in_their_brackets():
    assert wl.sweep_values(wl.DEFAULT_SEED) == (list(wl.PICKUP_MASSES), list(wl.PIVOT_MUS))
    for seed in range(1, 50):
        masses, mus = wl.sweep_values(seed)
        assert masses == sorted(masses) and wl.sweep_values(seed) == (masses, mus)
        n = sum(m <= wl.PICKUP_FEASIBLE[1] for m in wl.PICKUP_MASSES)
        assert all(wl.PICKUP_FEASIBLE[0] <= m <= wl.PICKUP_FEASIBLE[1] for m in masses[:n])
        assert all(wl.PICKUP_INFEASIBLE[0] <= m <= wl.PICKUP_INFEASIBLE[1] for m in masses[n:])
        assert all(wl.PIVOT_BRACKET[0] <= mu <= wl.PIVOT_BRACKET[1] for mu in mus)


def test_self_time_subtracts_direct_children():
    tr = layers.Tracer()
    tr.spans = [
        ["solver.solve", 0.0, 10.0, -1, 0],
        ["solver.splu", 1.0, 3.0, 0, 0],
        ["solver.Scaling.apply", 4.0, 5.0, 0, 0],
    ]
    assert tr.self_times() == [7.0, 2.0, 1.0]
    m = tr.layer_metrics(op_wall_total=11.0)
    assert m["solver.solve_s"] == 10.0 and m["solver.other_s"] == 7.0
    assert m["solver.factor_s"] == 2.0 and m["solver.scaling_s"] == 1.0
    assert m["trace.unattributed_s"] == 1.0


def test_normalise_scales_by_sampled_speed_and_drops_kernel_time():
    s = speed.SpeedSampler()
    ref = speed.REF_KERNEL_S
    # half the interval at reference speed, half at half speed
    s.starts = [1.0, 2.0, 3.0, 4.0, 9.0]
    s.durations = [ref, ref, 2 * ref, 2 * ref, ref]
    assert abs(s.normalise(0.5, 5.0) - (4.5 - 6 * ref) * 0.75) < 1e-12
    # no sample inside: the speed of the samples just before it
    assert abs(s.normalise(5.0, 5.01) - 0.01 * (1 + 0.5 + 0.5) / 3) < 1e-12
    assert s.slowdown() == 1.0


def test_sampler_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as s:
        t0 = time.perf_counter()
        while len(s.durations) < 3:
            speed.kernel()
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < s.normalise(t0, t1)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "solve-k250", "--trace", "0", cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
