"""Discretization of the minimum-time speed profile into a conic program.

The path coordinate runs over [0, 1] on a uniform grid of K intervals.  The
squared path speed b(s) is piecewise linear between grid nodes and the path
acceleration a(s) is constant on each interval, tied together by the chain
rule row b^{k+1} - b^k = 2 Delta a^k.  Auxiliary variables c^k ~ sqrt(b^k)
and d^k >= 1/(c^{k+1} + c^k) turn the travel time sum(2 Delta d^k) into a
linear objective with second-order cone epigraphs.

All dynamics rows are collocated at interval midpoints, where b enters as
the average of the two surrounding node values.  Joint torques and contact
wrenches are decision variables at every midpoint; wrench components that a
contact model cannot transmit stay in the variable vector but are pinned to
zero by equality rows, which keeps the bookkeeping uniform and makes the
free-scalar count match K(4 + 3u + 4v + n) - 2 for a rest-to-rest profile
with u point contacts and v soft-finger contacts.

The program holds three row sections (equalities, bounds, cone rows), each
one sparse matrix with an offset vector and row labels.  `assemble` fills
them family by family (torque, balance, ..., inv_epigraph) with array
operations over the samples of all K midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import defaultdict
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .dynamics import Scene, stack_dynamics_in_s

STALL_TOLERANCE = 1e-9
# slack allowed to a velocity or acceleration limit row whose value is a
# constant (fixed boundary speeds) before assembly rejects it
CONSTANT_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the path coordinate."""

    intervals: int
    points: np.ndarray
    midpoints: np.ndarray
    spacing: float


def build_grid(intervals: int) -> Grid:
    if intervals < 1:
        raise ValueError("grid needs at least one interval")
    pts = np.linspace(0.0, 1.0, intervals + 1)
    mids = 0.5 * (pts[:-1] + pts[1:])
    return Grid(intervals=intervals, points=pts, midpoints=mids, spacing=1.0 / intervals)


@dataclass(frozen=True, eq=False)
class Rows:
    """Affine rows `matrix @ x + offset`, one label per row."""

    matrix: sp.csr_matrix
    offset: np.ndarray
    labels: tuple

    @classmethod
    def from_lists(cls, cols, vals, offset, labels, width: int, **fields):
        """Rows from per-row column and value lists (the program-v1 layout).

        The matrix is widened past `width` when a column lies beyond it, so
        that `canonicalize` can name the offending row.
        """
        counts = [len(c) for c in cols]
        rows = np.repeat(np.arange(len(counts)), counts)
        flat_cols = np.fromiter(chain.from_iterable(cols), dtype=np.intp, count=rows.size)
        flat_vals = np.fromiter(chain.from_iterable(vals), dtype=float, count=rows.size)
        width = max(width, int(flat_cols.max(initial=-1)) + 1)
        matrix = sp.csr_matrix((flat_vals, (rows, flat_cols)), shape=(len(counts), width))
        return cls(matrix, np.asarray(offset, dtype=float).reshape(-1), tuple(labels), **fields)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.offset

    def row_dicts(self) -> list:
        """One {cols, vals, offset, label} dict per row (the program-v1 layout)."""
        m = self.matrix
        ends = m.indptr.tolist()
        return [
            {"cols": m.indices[a:b].tolist(), "vals": m.data[a:b].tolist(), "offset": off, "label": lab}
            for a, b, off, lab in zip(ends[:-1], ends[1:], self.offset.tolist(), self.labels)
        ]


@dataclass(frozen=True, eq=False)
class BoundRows(Rows):
    """lower <= matrix @ x + offset <= upper, infinities allowed."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True, eq=False)
class ConeRows(Rows):
    """Second-order cones over consecutive rows: in each cone of `sizes`,
    the first row bounds the norm of the others."""

    sizes: tuple
    cone_labels: tuple


@dataclass(frozen=True, eq=False)
class SpeedNodes:
    """Grid-node speed bookkeeping: the b and c column of every node (-1
    where the node is pinned) and the constants of pinned nodes (nan where
    the node is free)."""

    b_col: np.ndarray
    c_col: np.ndarray
    b_value: np.ndarray
    c_value: np.ndarray


@dataclass(frozen=True)
class ScalingVariables:
    """Solution of the speed program mapped back to named quantities."""

    accel: np.ndarray  # per interval
    speed_sq: np.ndarray  # per node, constants filled in
    speed_aux: np.ndarray  # per node
    inverse_avg: np.ndarray  # per interval
    torque: np.ndarray  # (K, n)
    wrenches: dict  # contact id -> (K, 6)


def _worst_by_family(worst: dict, labels, violation: np.ndarray):
    """Fold row violations into `worst`, keyed by the label up to its first '['."""
    family = np.array([lab.split("[", 1)[0] for lab in labels])
    for name in dict.fromkeys(family.tolist()):
        worst[name] = max(worst.get(name, 0.0), float(violation[family == name].max()))


@dataclass
class ConicProgram:
    """Assembled program: linear objective, equality rows, bound rows, cones."""

    num_vars: int
    objective: np.ndarray
    equalities: Rows
    bounds: BoundRows
    cones: ConeRows
    pinned_idx: np.ndarray
    slices: dict
    nodes: SpeedNodes
    grid: Grid
    contact_order: tuple
    meta: dict = field(default_factory=dict)

    def free_scalar_count(self) -> int:
        return self.num_vars - len(self.pinned_idx)

    def extract(self, x: np.ndarray) -> ScalingVariables:
        x = np.asarray(x, dtype=float).reshape(self.num_vars)
        K = self.grid.intervals
        n = self.meta["dof"]
        nd = self.nodes
        tau = x[self.slices["tau"]].reshape(K, n)
        wrenches = {cid: x[self.slices[f"F:{cid}"]].reshape(K, 6) for cid in self.contact_order}
        return ScalingVariables(
            accel=x[self.slices["a"]].copy(),
            # pinned nodes read x[-1], which the where discards
            speed_sq=np.where(nd.b_col >= 0, x[nd.b_col], nd.b_value),
            speed_aux=np.where(nd.c_col >= 0, x[nd.c_col], nd.c_value),
            inverse_avg=x[self.slices["d"]].copy(),
            torque=tau,
            wrenches=wrenches,
        )

    def residual_report(self, x: np.ndarray) -> dict:
        """Worst violation of each row family at the point x, keyed by label prefix."""
        x = np.asarray(x, dtype=float).reshape(self.num_vars)
        bounds, cones = self.bounds, self.cones
        v = bounds.values(x)
        u = cones.values(x)
        sizes = np.asarray(cones.sizes, dtype=np.intp)
        owner = np.repeat(np.arange(sizes.size), sizes)
        head = np.zeros(u.size, dtype=bool)
        head[np.cumsum(sizes) - sizes] = True
        tail_norm = np.sqrt(np.bincount(owner[~head], weights=u[~head] ** 2, minlength=sizes.size))
        worst: dict[str, float] = {}
        _worst_by_family(worst, self.equalities.labels, np.abs(self.equalities.values(x)))
        _worst_by_family(worst, bounds.labels, np.maximum(np.maximum(bounds.lower - v, v - bounds.upper), 0.0))
        _worst_by_family(worst, cones.cone_labels, np.maximum(tail_norm - u[head], 0.0))
        return worst

    def to_json_dict(self) -> dict:
        def bound_val(v):
            return None if not np.isfinite(v) else v

        cone_rows = self.cones.row_dicts()
        ends = np.cumsum(self.cones.sizes, dtype=np.intp).tolist()
        nd = self.nodes
        return {
            "format": "contact-topp/program-v1",
            "num_vars": self.num_vars,
            "objective": {
                "cols": np.nonzero(self.objective)[0].tolist(),
                "vals": self.objective[np.nonzero(self.objective)[0]].tolist(),
            },
            "equalities": self.equalities.row_dicts(),
            "bounds": [
                dict(row, lower=bound_val(lo), upper=bound_val(hi))
                for row, lo, hi in zip(self.bounds.row_dicts(), self.bounds.lower.tolist(), self.bounds.upper.tolist())
            ],
            "cones": [
                {"label": label, "rows": cone_rows[end - size : end]}
                for label, size, end in zip(self.cones.cone_labels, self.cones.sizes, ends)
            ],
            "pinned": np.asarray(self.pinned_idx).tolist(),
            "slices": {k: [v.start, v.stop] for k, v in self.slices.items()},
            "nodes": [
                {
                    "b_col": None if b_col < 0 else b_col,
                    "c_col": None if c_col < 0 else c_col,
                    "b_value": None if b_col >= 0 else b_value,
                    "c_value": None if c_col >= 0 else c_value,
                }
                for b_col, c_col, b_value, c_value in zip(
                    nd.b_col.tolist(), nd.c_col.tolist(), nd.b_value.tolist(), nd.c_value.tolist()
                )
            ],
            "grid_intervals": self.grid.intervals,
            "contact_order": list(self.contact_order),
            "meta": dict(self.meta),
        }


def program_from_json_dict(data: dict) -> ConicProgram:
    if data.get("format") != "contact-topp/program-v1":
        raise ValueError(f"unsupported program dump format {data.get('format')!r}")
    num_vars = int(data["num_vars"])
    objective = np.zeros(num_vars)
    objective[np.asarray(data["objective"]["cols"], dtype=int)] = data["objective"]["vals"]

    def section(rows, cls=Rows, **fields):
        return cls.from_lists(
            [d["cols"] for d in rows],
            [d["vals"] for d in rows],
            [d["offset"] for d in rows],
            [d["label"] for d in rows],
            num_vars,
            **fields,
        )

    def side(key, missing):
        return np.array([missing if d[key] is None else float(d[key]) for d in data["bounds"]], dtype=float)

    def node_array(key, missing, dtype):
        return np.array([missing if d[key] is None else d[key] for d in data["nodes"]], dtype=dtype)

    return ConicProgram(
        num_vars=num_vars,
        objective=objective,
        equalities=section(data["equalities"]),
        bounds=section(data["bounds"], BoundRows, lower=side("lower", -np.inf), upper=side("upper", np.inf)),
        cones=section(
            [r for d in data["cones"] for r in d["rows"]],
            ConeRows,
            sizes=tuple(len(d["rows"]) for d in data["cones"]),
            cone_labels=tuple(d["label"] for d in data["cones"]),
        ),
        pinned_idx=np.asarray(data["pinned"], dtype=np.intp),
        slices={k: slice(v[0], v[1]) for k, v in data["slices"].items()},
        nodes=SpeedNodes(
            b_col=node_array("b_col", -1, np.intp),
            c_col=node_array("c_col", -1, np.intp),
            b_value=node_array("b_value", np.nan, float),
            c_value=node_array("c_value", np.nan, float),
        ),
        grid=build_grid(int(data["grid_intervals"])),
        contact_order=tuple(data["contact_order"]),
        meta=dict(data.get("meta", {})),
    )


class _Section:
    """One row section, gathered family by family and stacked once.

    A family is added over an index grid (interval k, joint i, ...): `keep`
    marks the grid points that get a row, numbered in C order.  Each term is
    (columns, values, present), broadcastable to the grid shape + (slots,),
    and only present entries are stored; `build` drops those whose value is
    zero, so no matrix carries an explicit zero.  The offset and any other
    per-row field (lower, upper) broadcast over the grid; `label` formats a
    row from its grid index.
    """

    def __init__(self):
        self.size = 0
        self.entries: list = []
        self.labels: list = []
        self.per_row: dict = defaultdict(list)

    def add(self, keep: np.ndarray, terms, offset, label, **per_row):
        ids = self.size + np.cumsum(keep).reshape(keep.shape) - 1
        for cols, vals, present in terms:
            full = keep.shape + np.shape(cols)[-1:]
            on = np.broadcast_to(present, full) & keep[..., None]
            self.entries.append([np.broadcast_to(a, full)[on] for a in (ids[..., None], cols, vals)])
        for name, value in dict(per_row, offset=offset).items():
            self.per_row[name].append(np.broadcast_to(value, keep.shape)[keep].astype(float))
        self.labels += [label(*ix) for ix in zip(*np.nonzero(keep))]
        self.size += int(np.count_nonzero(keep))

    def build(self, cls, width: int, **fields):
        rows, cols, vals = (np.concatenate(part) for part in zip(*self.entries))
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.size, width))
        matrix.eliminate_zeros()
        per_row = {name: np.concatenate(parts) for name, parts in self.per_row.items()}
        return cls(matrix, labels=tuple(self.labels), **per_row, **fields)


def assemble(scene: Scene, grid: Grid, boundary_sdot: tuple = (0.0, 0.0)) -> ConicProgram:
    """Build the conic program for the minimum-time profile along the path.

    `boundary_sdot` holds the path speeds at s = 0 and s = 1; None leaves
    that end free.
    """
    K = grid.intervals
    n = scene.dof
    dyn = stack_dynamics_in_s(scene, grid.midpoints)
    contact_order = tuple(sc.cid for sc in scene.contacts)
    tl, tu, vmax, al, au = scene.limit_arrays()

    # variable layout, in declaration order
    slices: dict[str, slice] = {}
    at = 0

    def claim(name, count):
        nonlocal at
        slices[name] = slice(at, at + count)
        at += count

    sdot0, sdotT = boundary_sdot
    node = np.arange(K + 1)
    free = ((node != 0) | (sdot0 is None)) & ((node != K) | (sdotT is None))
    num_free = int(free.sum())
    claim("a", K)
    claim("b", num_free)
    claim("c", num_free)
    claim("d", K)
    claim("tau", K * n)
    for cid in contact_order:
        claim(f"F:{cid}", 6 * K)
    num_vars = at

    rank = np.cumsum(free) - 1
    sdot = np.full(K + 1, np.nan)
    sdot[[0, K]] = [np.nan if v is None else v for v in (sdot0, sdotT)]
    nodes = SpeedNodes(
        b_col=np.where(free, slices["b"].start + rank, -1),
        c_col=np.where(free, slices["c"].start + rank, -1),
        b_value=np.where(free, np.nan, sdot * sdot),
        c_value=np.where(free, np.nan, np.abs(sdot)),
    )

    dq, ddq = dyn.dq, dyn.ddq
    k = np.arange(K)
    a_col = (slices["a"].start + k)[:, None, None]
    tau_term = ((slices["tau"].start + n * k[:, None] + np.arange(n))[..., None], 1.0, True)  # (K, n, 1)

    def f_cols(cids):
        """(K, 6 len(cids)) wrench columns of the contacts, in order."""
        starts = np.array([slices[f"F:{cid}"].start for cid in cids], dtype=np.intp)
        return (starts[:, None] + 6 * k[:, None, None] + np.arange(6)).reshape(K, -1)

    def pair(col, value, w_lo, w_hi):
        """Entry term and constant of w_lo v^k + w_hi v^{k+1} on every interval.

        v is the node variable with columns `col` (b or c); a pinned node's
        value folds into the constant.  The weights are (K, ...) arrays; the
        constant adds the pinned ends to 0.0 in node order.
        """
        w_lo, w_hi = np.broadcast_arrays(w_lo, w_hi)
        per = (K,) + (1,) * (w_lo.ndim - 1)
        ends = [(e[:-1].reshape(per), e[1:].reshape(per)) for e in (col, free, value)]
        (c_lo, c_hi), (f_lo, f_hi), (v_lo, v_hi) = ends
        const = 0.0 + np.where(f_lo, 0.0, w_lo * v_lo) + np.where(f_hi, 0.0, w_hi * v_hi)
        term = (np.stack((c_lo, c_hi), axis=-1), np.stack((w_lo, w_hi), axis=-1), np.stack((f_lo, f_hi), axis=-1))
        return term, const

    def mid_b(coeff):
        """coeff * (b^k + b^{k+1}) / 2, the collocated squared speed."""
        half = 0.5 * coeff
        return pair(nodes.b_col, nodes.b_value, half, half)

    def every(*shape):
        return np.ones(shape, dtype=bool)

    def along(arrays, shape):
        """(K, terms) + shape: per-term (K,) + shape arrays stacked on axis 1."""
        return np.stack(arrays, axis=1) if arrays else np.zeros((K, 0) + shape)

    equalities, bounds, cones = _Section(), _Section(), _Section()

    # torque-dynamics rows: tau + sum J^T F = Macc a + Mvel b_mid + grav
    jac_ids = tuple(dyn.contact_jacobians)
    J = along([dyn.contact_jacobians[cid] for cid in jac_ids], (6, n))
    J = J.transpose(0, 3, 1, 2).reshape(K, n, -1)
    b_term, b_const = mid_b(-dyn.torque_velsq_coeff)
    equalities.add(
        every(K, n),
        [
            tau_term,
            (f_cols(jac_ids)[:, None, :], J, J != 0.0),
            (a_col, -dyn.torque_accel_coeff[..., None], True),
            b_term,
        ],
        b_const - dyn.torque_gravity,
        lambda kk, i: f"torque[{kk}][{i}]",
    )

    # object wrench balance: sum sign G F - A a - B b_mid + f_ext = 0, on a
    # (k, object, component) grid; each object's terms are present on its rows
    objects = dyn.objects
    terms, offset = [], []
    for o, obj in enumerate(objects):
        mine = (np.arange(len(objects)) == o)[:, None, None]
        term_ids = [cid for cid, _, _ in obj.contact_terms]
        signs = np.array([sign for _, sign, _ in obj.contact_terms])
        G = along([g for _, _, g in obj.contact_terms], (6, 6))
        G = G.transpose(0, 2, 1, 3).reshape(K, 1, 6, -1)  # (k, 1, r, (term, m))
        (b_cols, b_vals, b_present), b_const = mid_b(-obj.velsq_coeff[:, None])
        terms += [
            (f_cols(term_ids)[:, None, None], np.repeat(signs, 6) * G, (G != 0.0) & mine),
            (a_col[..., None], -obj.accel_coeff[:, None, :, None], mine),
            (b_cols, b_vals, b_present & mine),
        ]
        offset.append(b_const[:, 0] + obj.external)
    names = [obj.name for obj in objects]
    equalities.add(
        every(K, len(objects), 6),
        terms,
        np.stack(offset, axis=1) if offset else 0.0,
        lambda kk, o, r: f"balance[{names[o]}][{kk}][{r}]",
    )

    # chain-rule coupling b^{k+1} - b^k = 2 Delta a^k
    b_term, b_const = pair(nodes.b_col, nodes.b_value, np.full(K, -1.0), np.full(K, 1.0))
    equalities.add(every(K), [b_term, (a_col[:, 0], -2.0 * grid.spacing, True)], b_const, lambda kk: f"coupling[{kk}]")

    # untransmittable wrench components pinned to zero
    pinned = []
    for sc in scene.contacts:
        cid, idx = sc.cid, sc.cone.pinned
        cols = f_cols([cid])[:, list(idx)]
        pinned.append(cols.ravel())
        pin = (cols[..., None], 1.0, True)
        equalities.add(every(*cols.shape), [pin], 0.0, lambda kk, j: f"pin[{cid}][{kk}][{idx[j]}]")

    # torque boxes
    boxed = np.broadcast_to(np.isfinite(tl) | np.isfinite(tu), (K, n))
    bounds.add(boxed, [tau_term], 0.0, lambda kk, i: f"torque_box[{kk}][{i}]", lower=tl, upper=tu)

    # joint velocity: (q'_i)^2 b_mid <= vmax_i^2; squares go through libm pow,
    # which rounds as scalar `x ** 2` does (x * x can differ in the last bit)
    has_b = (free[:-1] | free[1:])[:, None]
    cap = np.float_power(vmax, 2)
    b_term, const = mid_b(np.float_power(dq, 2))
    finite = np.isfinite(vmax)
    broken = np.argwhere(finite & ~has_b & (const > cap + CONSTANT_TOL * np.maximum(1.0, cap)))
    if broken.size:
        kk, i = broken[0]
        raise ValueError(f"velocity limit of joint {i} violated by fixed boundary speed at interval {kk}")
    bounds.add(finite & has_b, [b_term], const, lambda kk, i: f"velocity[{kk}][{i}]", lower=-np.inf, upper=cap)

    # joint acceleration: q''_i b_mid + q'_i a in [lo, hi]
    b_term, const = mid_b(ddq)
    finite = np.isfinite(al) | np.isfinite(au)
    has_cols = has_b | (dq != 0.0)
    broken = np.argwhere(finite & ~has_cols & ((const > au + CONSTANT_TOL) | (const < al - CONSTANT_TOL)))
    if broken.size:
        kk, i = broken[0]
        raise ValueError(f"acceleration limit of joint {i} violated by constants at interval {kk}")
    a_term = (a_col, dq[..., None], dq[..., None] != 0.0)
    bounds.add(finite & has_cols, [b_term, a_term], const, lambda kk, i: f"acceleration[{kk}][{i}]", lower=al, upper=au)

    # squared speed stays nonnegative at free nodes
    b_term = (nodes.b_col[:, None], 1.0, True)
    bounds.add(free, [b_term], 0.0, lambda kk: f"speed_sq_nonneg[{kk}]", lower=0.0, upper=np.inf)

    # normal force caps
    for sc in scene.contacts:
        cid, fz_max = sc.cid, sc.spec.fz_max
        if fz_max is not None:
            head = (f_cols([cid])[:, [sc.cone.head_index]], 1.0, True)
            bounds.add(every(K), [head], 0.0, lambda kk: f"normal_cap[{cid}][{kk}]", lower=-np.inf, upper=fz_max)

    # contact friction cones, one per contact and interval
    sizes, cone_labels = [], []
    for sc in scene.contacts:
        cid, desc = sc.cid, sc.cone
        idx = [desc.head_index] + [i for i, _ in desc.tail]
        weights = np.array([1.0] + [float(w) for _, w in desc.tail])
        cones.add(
            every(K, len(idx)),
            [(f_cols([cid])[:, idx, None], weights[:, None], True)],
            0.0,
            lambda kk, j: f"cone_tail[{cid}][{kk}][{idx[j]}]" if j else f"cone_head[{cid}][{kk}]",
        )
        sizes += [len(idx)] * K
        cone_labels += [f"cone[{cid}][{kk}]" for kk in range(K)]

    # epigraph linking c^k to sqrt(b^k): norm(2c, b - 1) <= b + 1
    at_free = np.flatnonzero(free)
    parts = ("sqrt_head", "sqrt_tail_c", "sqrt_tail_b")
    b_free, c_free = nodes.b_col[free], nodes.c_col[free]
    cones.add(
        every(at_free.size, 3),
        [(np.stack((b_free, c_free, b_free), axis=-1)[..., None], np.array([[1.0], [2.0], [1.0]]), True)],
        np.array([1.0, 0.0, -1.0]),
        lambda j, r: f"{parts[r]}[{at_free[j]}]",
    )
    sizes += [3] * at_free.size
    cone_labels += [f"sqrt_epigraph[{kk}]" for kk in at_free]

    # epigraph for d >= 1/(c^{k+1} + c^k): norm(2, u - d) <= u + d with
    # u = c^k + c^{k+1}, rows (head, constant two, difference)
    on = np.array([True, False, True])[:, None]
    (c_cols, c_vals, c_present), c_const = pair(nodes.c_col, nodes.c_value, np.ones((K, 1)), np.ones((K, 1)))
    parts = ("inv_head", "inv_tail_two", "inv_tail_diff")
    d_term = ((slices["d"].start + k)[:, None, None], np.array([[1.0], [0.0], [-1.0]]), on)
    cones.add(
        every(K, 3),
        [(c_cols, c_vals, c_present & on), d_term],
        np.where(on[:, 0], c_const, 2.0),
        lambda kk, r: f"{parts[r]}[{kk}]",
    )
    sizes += [3] * K
    cone_labels += [f"inv_epigraph[{kk}]" for kk in range(K)]

    objective = np.zeros(num_vars)
    objective[slices["d"]] = 2.0 * grid.spacing

    return ConicProgram(
        num_vars=num_vars,
        objective=objective,
        equalities=equalities.build(Rows, num_vars),
        bounds=bounds.build(BoundRows, num_vars),
        cones=cones.build(ConeRows, num_vars, sizes=tuple(sizes), cone_labels=tuple(cone_labels)),
        pinned_idx=np.concatenate(pinned) if pinned else np.zeros(0, dtype=np.intp),
        slices=slices,
        nodes=nodes,
        grid=grid,
        contact_order=contact_order,
        meta={"dof": n, "boundary_sdot": list(boundary_sdot)},
    )


@dataclass(frozen=True)
class PathTiming:
    """Closed-form time map for a piecewise-linear squared-speed profile."""

    total: float
    node_times: np.ndarray
    grid: Grid
    speed_sq: np.ndarray

    def s_of(self, t) -> float | np.ndarray:
        """Path position at time t, a float or an array of times (clipped to
        [0, total]); an array gives an array of the same shape."""
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.total)
        k = np.clip(np.searchsorted(self.node_times, t, side="right") - 1, 0, self.grid.intervals - 1)
        dt = t - self.node_times[k]
        b_lo, b_hi = self.speed_sq[k], self.speed_sq[k + 1]
        slope = (b_hi - b_lo) / self.grid.spacing
        root_lo = np.sqrt(np.maximum(b_lo, 0.0))
        flat = np.abs(slope) < 1e-300
        slope = np.where(flat, 1.0, slope)
        root_here = np.maximum(root_lo + 0.5 * slope * dt, 0.0)
        # float_power calls the C library's pow, as a float's ** does, so
        # every s keeps the bits a point-by-point evaluation gives
        curved = np.clip(self.grid.points[k] + (np.float_power(root_here, 2.0) - b_lo) / slope, 0.0, 1.0)
        s = np.where(flat, self.grid.points[k] + root_lo * dt, curved)
        return float(s) if s.ndim == 0 else s


def recover_time(speed_sq, grid: Grid) -> PathTiming:
    """Total travel time and the cumulative time at each grid node.

    Each interval contributes 2 Delta / (sqrt(b^{k+1}) + sqrt(b^k)); an
    interval whose both endpoint values vanish would take infinite time and
    is reported as a degenerate stall.
    """
    b = np.maximum(np.asarray(speed_sq, dtype=float).reshape(-1), 0.0)
    if b.size != grid.intervals + 1:
        raise ValueError("speed profile length does not match the grid")
    roots = np.sqrt(b)
    scale = max(1.0, float(roots.max()))
    times = np.zeros(grid.intervals + 1)
    for k in range(grid.intervals):
        denom = roots[k] + roots[k + 1]
        if denom <= STALL_TOLERANCE * scale:
            raise ValueError(f"degenerate stall: both speed values vanish on interval {k}")
        times[k + 1] = times[k] + 2.0 * grid.spacing / denom
    return PathTiming(total=float(times[-1]), node_times=times, grid=grid, speed_sq=b)
