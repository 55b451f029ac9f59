"""Discretization of the minimum-time speed profile into a conic program.

The path coordinate runs over [0, 1] on a uniform grid of K intervals.  The
squared path speed b(s) is piecewise linear between grid nodes and the path
acceleration a(s) is constant on each interval, tied together by the chain
rule row b^{k+1} - b^k = 2 Delta a^k.  Auxiliary variables c^k ~ sqrt(b^k)
and d^k >= 1/(c^{k+1} + c^k) turn the travel time sum(2 Delta d^k) into a
linear objective with second-order cone epigraphs.

All dynamics rows are collocated at interval midpoints, where b enters as
the average of the two surrounding node values.  Joint torques and contact
wrenches are decision variables at every midpoint.  A contact stores only
the wrench components its model transmits, in ascending order: a point
contact with friction (pcwf) the forces 0, 1, 2, a soft finger (sfce) those
and the twisting moment 5.  The others are zero by construction and take
no column, so a rest-to-rest profile with u point contacts and v soft
fingers has K(4 + 3u + 4v + n) - 2 variables; `extract` puts the zeros
back into each (K, 6) wrench.

The joint velocity limits |q'_i| sdot <= vmax_i, taken over all joints, are
one bound on b at each midpoint (the maximum-velocity curve of classic
TOPP), so each interval gets one velocity row: that of the joint whose
(q'_i)^2 b_mid <= vmax_i^2 leaves b_mid the least room, the lowest i on a
tie.  A joint with q'_i = 0 there bounds nothing and gets no row.

The program holds three row sections (equalities, bounds, cone rows), each
one sparse matrix with an offset vector and integer row identities (see
`RowIds`).  `assemble` fills them family by family (torque, balance, ...,
inv_head) with array operations over the samples of all K midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import Scene, stack_dynamics_in_s

if TYPE_CHECKING:
    import scipy.sparse as sp

STALL_TOLERANCE = 1e-9
# slack allowed to a velocity or acceleration limit row whose value is a
# constant (fixed boundary speeds) before assembly rejects it
CONSTANT_TOL = 1e-9
# a cone's name in the program dump, by the family of its head row
CONE_NAMES = {"cone_head": "cone", "sqrt_head": "sqrt_epigraph", "inv_head": "inv_epigraph"}


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the path coordinate."""

    intervals: int
    points: np.ndarray
    midpoints: np.ndarray
    spacing: float


# the most intervals a grid can have: its intervals + 1 points are one numpy
# array, whose length must fit an intp
MAX_INTERVALS = int(np.iinfo(np.intp).max) - 1


def build_grid(intervals: int) -> Grid:
    if intervals < 1:
        raise ValueError("grid needs at least one interval")
    pts = np.linspace(0.0, 1.0, intervals + 1)
    mids = 0.5 * (pts[:-1] + pts[1:])
    return Grid(intervals=intervals, points=pts, midpoints=mids, spacing=1.0 / intervals)


@dataclass(frozen=True, eq=False)
class RowIds:
    """What each row is.  `family` indexes `families`: one (name, owner) pair
    per family, the owner a contact id, an object name or None, and on the
    canonical form a third entry, the bound side "upper" or "lower".  k is
    the row's interval (its node for speed_sq_nonneg and sqrt_*), j its joint
    or wrench component, -1 where it has none."""

    families: tuple
    family: np.ndarray
    k: np.ndarray
    j: np.ndarray

    def labels(self, rows=slice(None), rename=None) -> list:
        """`name[owner][k][j]` for each of `rows`, no [owner] for None and no [j] for -1,
        then `:side` for a family with a side; `rename` maps a name to the one written."""
        heads = [(rename or {}).get(name, name) + ("" if o is None else f"[{o}]") for name, o, *_ in self.families]
        sides = [f":{side[0]}" if side else "" for _, _, *side in self.families]
        ids = zip(self.family[rows].tolist(), self.k[rows].tolist(), self.j[rows].tolist())
        return [f"{heads[f]}[{k}]{'' if j < 0 else f'[{j}]'}{sides[f]}" for f, k, j in ids]


@dataclass(frozen=True, eq=False)
class Rows:
    """Affine rows `matrix @ x + offset` and what each row is.

    The matrix is `num_vars` columns wide and stores no zero; `canonicalize`
    reads it as it is.
    """

    matrix: sp.csr_matrix
    offset: np.ndarray
    ids: RowIds


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


@dataclass
class ConicProgram:
    """Assembled program: linear objective, equality rows, bound rows, cones."""

    num_vars: int
    objective: np.ndarray
    equalities: Rows
    bounds: BoundRows
    cones: ConeRows
    slices: dict
    nodes: SpeedNodes
    grid: Grid
    contact_order: tuple
    components: dict  # contact id -> the wrench components it stores
    meta: dict = field(default_factory=dict)

    def extract(self, x: np.ndarray) -> ScalingVariables:
        x = np.asarray(x, dtype=float).reshape(self.num_vars)
        K = self.grid.intervals
        n = self.meta["dof"]
        nd = self.nodes
        tau = x[self.slices["tau"]].reshape(K, n)
        wrenches = {}
        for cid in self.contact_order:
            stored = list(self.components[cid])
            wrenches[cid] = np.zeros((K, 6))
            wrenches[cid][:, stored] = x[self.slices[f"F:{cid}"]].reshape(K, len(stored))
        return ScalingVariables(
            accel=x[self.slices["a"]].copy(),
            # pinned nodes read x[-1], which the where discards
            speed_sq=np.where(nd.b_col >= 0, x[nd.b_col], nd.b_value),
            speed_aux=np.where(nd.c_col >= 0, x[nd.c_col], nd.c_value),
            inverse_avg=x[self.slices["d"]].copy(),
            torque=tau,
            wrenches=wrenches,
        )

    def to_json_dict(self) -> dict:
        def bound_val(v):
            return None if not np.isfinite(v) else v

        def row_dicts(rows) -> list:
            """One {cols, vals, offset, label} dict per row (the program-v1 layout)."""
            m = rows.matrix
            ends = m.indptr.tolist()
            return [
                {"cols": m.indices[a:b].tolist(), "vals": m.data[a:b].tolist(), "offset": off, "label": lab}
                for a, b, off, lab in zip(ends[:-1], ends[1:], rows.offset.tolist(), rows.ids.labels())
            ]

        cone_rows = row_dicts(self.cones)
        edges = np.cumsum((0,) + self.cones.sizes).tolist()
        names = self.cones.ids.labels(edges[:-1], CONE_NAMES)
        nd = self.nodes
        return {
            "format": "contact-topp/program-v1",
            "num_vars": self.num_vars,
            "objective": {
                "cols": np.nonzero(self.objective)[0].tolist(),
                "vals": self.objective[np.nonzero(self.objective)[0]].tolist(),
            },
            "equalities": row_dicts(self.equalities),
            "bounds": [
                dict(row, lower=bound_val(lo), upper=bound_val(hi))
                for row, lo, hi in zip(row_dicts(self.bounds), self.bounds.lower.tolist(), self.bounds.upper.tolist())
            ],
            "cones": [{"label": name, "rows": cone_rows[a:b]} for name, a, b in zip(names, edges, edges[1:])],
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
            "components": {cid: list(stored) for cid, stored in self.components.items()},
            "meta": dict(self.meta),
        }


class _Section:
    """One row section, gathered family by family and stacked once.

    A family is added over an index grid (interval k, joint i, ...): `keep`
    marks the grid points that get a row, numbered in C order.  Each term is
    (columns, values, present), broadcastable to the grid shape + (slots,),
    and only present entries are stored; `build` drops those whose value is
    zero, so no matrix carries an explicit zero.  The offset, the other per-row
    fields (lower, upper) and the row's `family` id, k and j broadcast over the
    grid; k and j default to its first and last axis (j to -1 on one axis).
    """

    def __init__(self):
        self.size = 0
        self.entries: list = []
        self.families: dict = {}
        self.per_row: dict = defaultdict(list)

    def family(self, name: str, owner=None) -> int:
        """The id of the family (name, owner), added on first use."""
        return self.families.setdefault((name, owner), len(self.families))

    def add(self, keep: np.ndarray, terms, offset, family, k=None, j=None, **per_row):
        row = self.size + np.cumsum(keep).reshape(keep.shape) - 1
        for cols, vals, present in terms:
            full = keep.shape + np.shape(cols)[-1:]
            on = np.broadcast_to(present, full) & keep[..., None]
            self.entries.append([np.broadcast_to(a, full)[on] for a in (row[..., None], cols, vals)])
        at = np.indices(keep.shape, sparse=True)
        k = at[0] if k is None else k
        j = (at[-1] if keep.ndim > 1 else -1) if j is None else j
        for name, value in dict(per_row, offset=offset, family=family, k=k, j=j).items():
            self.per_row[name].append(np.broadcast_to(value, keep.shape)[keep])
        self.size += int(np.count_nonzero(keep))

    def build(self, cls, width: int, **fields):
        # imported here, as the solver imports it: a process that never assembles never loads scipy
        import scipy.sparse as sp

        rows, cols, vals = (np.concatenate(part) for part in zip(*self.entries))
        matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.size, width))
        matrix.eliminate_zeros()
        per_row = {name: np.concatenate(parts) for name, parts in self.per_row.items()}
        ids = RowIds(tuple(self.families), *(per_row.pop(name) for name in ("family", "k", "j")))
        return cls(matrix, ids=ids, **per_row, **fields)


def assemble(scene: Scene, grid: Grid, boundary_sdot: tuple = (0.0, 0.0)) -> ConicProgram:
    """Build the conic program for the minimum-time profile along the path.

    `boundary_sdot` holds the path speeds at s = 0 and s = 1; None leaves
    that end free.
    """
    K = grid.intervals
    n = scene.dof
    dyn = stack_dynamics_in_s(scene, grid.midpoints)
    contact_order = tuple(sc.cid for sc in scene.contacts)
    # the components each contact transmits: those its cone does not pin
    components = {sc.cid: tuple(i for i in range(6) if i not in sc.cone.pinned) for sc in scene.contacts}
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
        claim(f"F:{cid}", K * len(components[cid]))
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
        """(K, total stored) wrench columns of the contacts, in order."""
        widths = [len(components[cid]) for cid in cids]
        cols = [slices[f"F:{cid}"].start + m * k[:, None] + np.arange(m) for cid, m in zip(cids, widths)]
        return np.concatenate(cols, axis=1) if cols else np.zeros((K, 0), dtype=np.intp)

    def stored(blocks, cids, shape):
        """Per-contact blocks (K,) + shape + (6,), each cut to its contact's
        stored components on the last axis, joined along it."""
        parts = [block[..., list(components[cid])] for block, cid in zip(blocks, cids)]
        return np.concatenate(parts, axis=-1) if parts else np.zeros((K,) + shape + (0,))

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

    equalities, bounds, cones = _Section(), _Section(), _Section()

    # torque-dynamics rows: tau + sum J^T F = Macc a + Mvel b_mid + grav
    jac_ids = tuple(dyn.contact_jacobians)
    J = stored([dyn.contact_jacobians[cid].transpose(0, 2, 1) for cid in jac_ids], jac_ids, (n,))
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
        equalities.family("torque"),
    )

    # object wrench balance: sum sign G F - A a - B b_mid + f_ext = 0, on a
    # (k, object, component) grid; each object's terms are present on its rows
    objects = dyn.objects
    terms, offset = [], []
    for o, obj in enumerate(objects):
        mine = (np.arange(len(objects)) == o)[:, None, None]
        term_ids = [cid for cid, _, _ in obj.contact_terms]
        signs = np.repeat([sign for _, sign, _ in obj.contact_terms], [len(components[cid]) for cid in term_ids])
        G = stored([g for _, _, g in obj.contact_terms], term_ids, (6,))[:, None]  # (k, 1, r, stored)
        (b_cols, b_vals, b_present), b_const = mid_b(-obj.velsq_coeff[:, None])
        terms += [
            (f_cols(term_ids)[:, None, None], signs * G, (G != 0.0) & mine),
            (a_col[..., None], -obj.accel_coeff[:, None, :, None], mine),
            (b_cols, b_vals, b_present & mine),
        ]
        offset.append(b_const[:, 0] + obj.external)
    equalities.add(
        every(K, len(objects), 6),
        terms,
        np.stack(offset, axis=1) if offset else 0.0,
        np.array([equalities.family("balance", obj.name) for obj in objects], dtype=np.intp)[:, None],
    )

    # chain-rule coupling b^{k+1} - b^k = 2 Delta a^k
    b_term, b_const = pair(nodes.b_col, nodes.b_value, np.full(K, -1.0), np.full(K, 1.0))
    equalities.add(every(K), [b_term, (a_col[:, 0], -2.0 * grid.spacing, True)], b_const, equalities.family("coupling"))

    # an interval whose two end speeds are both fixed at zero is never
    # traversed: d^k >= 1/(c^k + c^{k+1}) has no solution (c_value is nan
    # at free nodes, so only fixed pairs can sum to zero)
    stalled = np.flatnonzero(nodes.c_value[:-1] + nodes.c_value[1:] == 0.0)
    if stalled.size:
        raise ValueError(f"degenerate stall: both end speeds are fixed at zero on interval {stalled[0]}")

    # torque boxes
    boxed = np.broadcast_to(np.isfinite(tl) | np.isfinite(tu), (K, n))
    bounds.add(boxed, [tau_term], 0.0, bounds.family("torque_box"), lower=tl, upper=tu)

    # joint velocity: (q'_i)^2 b_mid <= vmax_i^2; squares go through libm pow,
    # which rounds as scalar `x ** 2` does (x * x can differ in the last bit).
    # Over all joints these are one bound on b_mid, so an interval keeps only
    # the row of the least (cap_i - const_i) / half_i, the lowest i on a tie;
    # a joint with q'_i = 0 bounds nothing and gets no row
    has_b = (free[:-1] | free[1:])[:, None]
    cap = np.float_power(vmax, 2)
    half = 0.5 * np.float_power(dq, 2)
    b_term, const = pair(nodes.b_col, nodes.b_value, half, half)
    finite = np.isfinite(vmax)
    broken = np.argwhere(finite & ~has_b & (const > cap + CONSTANT_TOL * np.maximum(1.0, cap)))
    if broken.size:
        kk, i = broken[0]
        raise ValueError(f"velocity limit of joint {i} violated by fixed boundary speed at interval {kk}")
    bounding = finite & has_b & (half != 0.0)
    ratio = np.divide(cap - const, half, out=np.full((K, n), np.inf), where=bounding)
    binding = bounding & (ratio == ratio.min(axis=1, keepdims=True, initial=np.inf))
    binding &= np.cumsum(binding, axis=1) == 1
    bounds.add(binding, [b_term], const, bounds.family("velocity"), lower=-np.inf, upper=cap)

    # joint acceleration: q''_i b_mid + q'_i a in [lo, hi]
    b_term, const = mid_b(ddq)
    finite = np.isfinite(al) | np.isfinite(au)
    has_cols = has_b | (dq != 0.0)
    broken = np.argwhere(finite & ~has_cols & ((const > au + CONSTANT_TOL) | (const < al - CONSTANT_TOL)))
    if broken.size:
        kk, i = broken[0]
        raise ValueError(f"acceleration limit of joint {i} violated by constants at interval {kk}")
    a_term = (a_col, dq[..., None], dq[..., None] != 0.0)
    bounds.add(finite & has_cols, [b_term, a_term], const, bounds.family("acceleration"), lower=al, upper=au)

    # squared speed stays nonnegative at free nodes
    b_term = (nodes.b_col[:, None], 1.0, True)
    bounds.add(free, [b_term], 0.0, bounds.family("speed_sq_nonneg"), lower=0.0, upper=np.inf)

    # normal force caps
    for sc in scene.contacts:
        cid, fz_max = sc.cid, sc.spec.fz_max
        if fz_max is not None:
            head = (f_cols([cid])[:, [components[cid].index(sc.cone.head_index)]], 1.0, True)
            bounds.add(every(K), [head], 0.0, bounds.family("normal_cap", cid), lower=-np.inf, upper=fz_max)

    # contact friction cones, one per contact and interval
    sizes = []
    for sc in scene.contacts:
        cid, desc = sc.cid, sc.cone
        idx = [desc.head_index] + [i for i, _ in desc.tail]
        weights = np.array([1.0] + [float(w) for _, w in desc.tail])
        pos = [components[cid].index(i) for i in idx]
        cones.add(
            every(K, len(idx)),
            [(f_cols([cid])[:, pos, None], weights[:, None], True)],
            0.0,
            np.where(np.arange(len(idx)) == 0, cones.family("cone_head", cid), cones.family("cone_tail", cid)),
            j=np.array([-1] + idx[1:]),
        )
        sizes += [len(idx)] * K

    # epigraph linking c^k to sqrt(b^k): norm(2c, b - 1) <= b + 1
    at_free = np.flatnonzero(free)
    b_free, c_free = nodes.b_col[free], nodes.c_col[free]
    cones.add(
        every(at_free.size, 3),
        [(np.stack((b_free, c_free, b_free), axis=-1)[..., None], np.array([[1.0], [2.0], [1.0]]), True)],
        np.array([1.0, 0.0, -1.0]),
        [cones.family(name) for name in ("sqrt_head", "sqrt_tail_c", "sqrt_tail_b")],
        k=at_free[:, None],
        j=-1,
    )
    sizes += [3] * at_free.size

    # epigraph for d >= 1/(c^{k+1} + c^k): norm(2, u - d) <= u + d with
    # u = c^k + c^{k+1}, rows (head, constant two, difference)
    on = np.array([True, False, True])[:, None]
    (c_cols, c_vals, c_present), c_const = pair(nodes.c_col, nodes.c_value, np.ones((K, 1)), np.ones((K, 1)))
    d_term = ((slices["d"].start + k)[:, None, None], np.array([[1.0], [0.0], [-1.0]]), on)
    cones.add(
        every(K, 3),
        [(c_cols, c_vals, c_present & on), d_term],
        np.where(on[:, 0], c_const, 2.0),
        [cones.family(name) for name in ("inv_head", "inv_tail_two", "inv_tail_diff")],
        j=-1,
    )
    sizes += [3] * K

    objective = np.zeros(num_vars)
    objective[slices["d"]] = 2.0 * grid.spacing

    return ConicProgram(
        num_vars=num_vars,
        objective=objective,
        equalities=equalities.build(Rows, num_vars),
        bounds=bounds.build(BoundRows, num_vars),
        cones=cones.build(ConeRows, num_vars, sizes=tuple(sizes)),
        slices=slices,
        nodes=nodes,
        grid=grid,
        contact_order=contact_order,
        components=components,
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
    denom = roots[:-1] + roots[1:]
    stalled = np.flatnonzero(denom <= STALL_TOLERANCE * scale)
    if stalled.size:
        raise ValueError(f"degenerate stall: both speed values vanish on interval {stalled[0]}")
    # cumsum adds in order, as a running total does
    times = np.concatenate([[0.0], np.cumsum(2.0 * grid.spacing / denom)])
    return PathTiming(total=float(times[-1]), node_times=times, grid=grid, speed_sq=b)
