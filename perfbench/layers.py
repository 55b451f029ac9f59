"""Layer trace recorded from outside the library.

The library's modules import each other's functions with `from .x import y`,
so every call site looks its callee up in the *caller's* namespace.  The
trace therefore wraps a name where it is looked up at call time, e.g.
`transcription.stack_dynamics_in_s` rather than
`dynamics.stack_dynamics_in_s` (wrapping the latter would catch nothing).
Methods are wrapped on their class.

Each wrapped call made while an operation is active records a span: name,
start, end, parent span and operation index.  Spans stay in memory and are
written out once at the end.  A span's self time is its duration minus the
time covered by its direct child spans; the layer metrics are self times,
so they do not overlap, except `solver.solve_s`, which is the whole
interior-point solve.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

PKG = "contact_topp"

# wrapped name -> layer time metric its self time feeds
SPANNED = {
    "scenario.scenario_from_dict": "scenario.load_s",
    # deepcopy and parameter write that precede each sweep point's parse
    "scenario._sweep_worker": "scenario.load_s",
    "scenario.run": "scenario.resample_s",
    "scenario.solve_scenario": None,
    "scenario.assemble": "transcription.assemble_s",
    "transcription.stack_dynamics_in_s": "dynamics.sample_s",
    "verification.sample_path_dynamics": "dynamics.sample_s",
    "scenario.recover_time": "transcription.recover_s",
    "scenario.cone_margin": "contacts.margin_s",
    "verification.cone_margin": "contacts.margin_s",
    "solver.canonicalize": "solver.canonicalize_s",
    "solver.solve": "solver.other_s",
    "solver._ruiz_equilibrate": "solver.equilibrate_s",
    "solver.splu": "solver.factor_s",
    "solver.Scaling.__init__": "solver.scaling_s",
    "solver.Scaling.apply": "solver.scaling_s",
    "solver.Scaling.apply_inverse": "solver.scaling_s",
    "solver.Scaling.w_inv_matrix": "solver.scaling_s",
    "solver.jordan_product": "solver.cone_ops_s",
    "solver.jordan_solve": "solver.cone_ops_s",
    "solver.max_step": "solver.cone_ops_s",
    "solver.verify_kkt": "solver.residual_s",
    "solver._check_primal_infeasibility_certificate": "solver.residual_s",
    "solver._check_dual_infeasibility_certificate": "solver.residual_s",
    "verification.audit": "verification.audit_s",
    "verification.fd_suite": "verification.fd_s",
}
# called tens of thousands of times per solve: counted, not spanned
COUNTED = ("liegroup.Pose.__post_init__",)


_SCALING = ("solver.Scaling.__init__", "solver.Scaling.apply", "solver.Scaling.apply_inverse", "solver.Scaling.w_inv_matrix")
_SOLVER_CORE = (
    "solver.canonicalize", "solver.solve", "solver._ruiz_equilibrate", "solver.splu",
    *_SCALING, "solver.jordan_product", "solver.jordan_solve", "solver.max_step", "solver.verify_kkt",
)
_ASSEMBLY = ("scenario.solve_scenario", "scenario.assemble", "transcription.stack_dynamics_in_s")
_POSE = "liegroup.Pose.__post_init__"


def required_names(op) -> tuple[list[str], list[str]]:
    """(names the operation must reach, names it must not reach)."""
    facts = op.facts
    if op.kind == "verify":
        must = ["verification.audit", "verification.fd_suite", "verification.sample_path_dynamics", _POSE]
        if facts.get("contacts"):
            must.append("verification.cone_margin")
        return must, [n for n in SPANNED if n.startswith("solver.")]
    must = [*_ASSEMBLY, *_SOLVER_CORE, _POSE]
    if op.kind == "solve":
        must += ["scenario.run", "scenario.recover_time"]
        if facts.get("contacts"):
            must.append("scenario.cone_margin")
        return must, []
    must.append("scenario.scenario_from_dict")
    if op.kind == "sweep":
        must.append("scenario._sweep_worker")
    if facts.get("optimal"):
        must.append("scenario.recover_time")
    if facts.get("infeasible"):
        must.append("solver._check_primal_infeasibility_certificate")
    return must, []


def _resolve(name: str):
    """(owner object, attribute) for a wrapped name like `solver.Scaling.apply`."""
    parts = name.split(".")
    owner = importlib.import_module(f"{PKG}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs wrappers, records spans and counts, computes layer metrics."""

    def __init__(self):
        self.op = None
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.hits: Counter = Counter()  # (op, wrapped name) -> calls
        self.extra: Counter = Counter()  # (op, counter) -> value
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        for name in SPANNED:
            self._patch(name, self._spanning)
        for name in COUNTED:
            self._patch(name, self._counting)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, name, make):
        owner, attr = _resolve(name)
        if attr not in vars(owner):
            raise LookupError(f"wrapped name {name} no longer exists; update SPANNED or COUNTED in layers.py")
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(name, original))

    def set_op(self, index):
        self.op = index

    def _counting(self, name, fn):
        hits = self.hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                hits[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name, fn):
        spans, stack, hits = self.spans, self.stack, self.hits
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            hits[(op, name)] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                for key, value in after(args, result):
                    self.extra[(op, key)] += value
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (name, start, end, parent, op) in enumerate(self.spans)]

    def _times(self, op=None) -> tuple[dict, float]:
        """Layer time metrics (of one operation, or of all) and their sum."""
        out = {metric: 0.0 for metric in SPANNED.values() if metric is not None}
        out["solver.solve_s"] = 0.0
        attributed = 0.0
        for (name, start, end, parent, o), own in zip(self.spans, self.self_times()):
            if op is not None and o != op:
                continue
            metric = SPANNED[name]
            if metric is not None:
                out[metric] += own
                attributed += own
            if name == "solver.solve":
                out["solver.solve_s"] += end - start
        return out, attributed

    def layer_metrics(self, op_wall_total: float) -> dict:
        """Every layer metric, summed over all traced operations."""
        out, attributed = self._times()
        count = Counter()
        for (op, name), n in self.hits.items():
            count[name] += n
        totals = Counter()
        for (op, key), v in self.extra.items():
            totals[key] += v
        out["scenario.load_calls"] = count["scenario.scenario_from_dict"]
        out["dynamics.points"] = totals["points"]
        out["dynamics.us_per_point"] = out["dynamics.sample_s"] / max(totals["points"], 1) * 1e6
        out["liegroup.pose_count"] = count[_POSE]
        out["transcription.rows"] = totals["rows"]
        out["transcription.vars"] = totals["vars"]
        out["contacts.margin_calls"] = count["scenario.cone_margin"] + count["verification.cone_margin"]
        out["solver.iterations"] = totals["iterations"]
        out["solver.per_iter_ms"] = out["solver.solve_s"] / max(totals["iterations"], 1) * 1e3
        out["solver.nnz"] = totals["nnz"]
        out["solver.certificates"] = totals["certificates"]
        out["trace.unattributed_s"] = op_wall_total - attributed
        return out

    def op_breakdown(self, op) -> dict:
        """Nonzero layer times of one operation (for the human-readable log)."""
        return {k: v for k, v in self._times(op)[0].items() if v}

    def check(self, ops, untraced_results) -> list[str]:
        """Interposition self-check; returns the problems found.

        Every operation must reach the names its kind always reaches, so a
        refactor that renames an import cannot silently zero a layer.  The
        traced iteration count must equal the one the program reported in
        the untraced pass, where the API reports it.
        """
        reported = defaultdict(list)
        for r in untraced_results:
            reported[r.op].append(r.iterations)
        problems = []
        for i, op in enumerate(ops):
            must, must_not = required_names(op)
            for name in must:
                if self.hits[(i, name)] == 0:
                    problems.append(f"{op.name}: wrapped name {name} recorded no calls")
            for name in must_not:
                if self.hits[(i, name)]:
                    problems.append(f"{op.name}: {name} was called {self.hits[(i, name)]} times, expected none")
            expected = None if None in reported[i] else sum(reported[i])
            traced = self.extra[(i, "iterations")]
            if expected is not None and traced != expected:
                problems.append(f"{op.name}: {traced} traced solver iterations, untraced run reported {expected}")
        return problems

    def write(self, path, ops):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "ops": [op.name for op in ops],
                    "spans": self.spans,
                },
                fh,
            )


def _after_stack(args, samples):
    yield "points", len(samples)


def _after_sample(args, sample):
    yield "points", 1


def _after_canonicalize(args, form):
    yield "rows", form.A.shape[0] + form.G.shape[0]
    yield "vars", form.c.size
    yield "nnz", form.A.nnz + form.G.nnz


def _after_solve(args, report):
    yield "iterations", report.iterations
    yield "certificates", int(report.certificate is not None)


_AFTER = {
    "transcription.stack_dynamics_in_s": _after_stack,
    "verification.sample_path_dynamics": _after_sample,
    "solver.canonicalize": _after_canonicalize,
    "solver.solve": _after_solve,
}
