"""Primal-dual interior-point solver for second-order cone programs.

Standard form:

    minimize    c'x
    subject to  A x = b
                G x + s = h,   s in K

with K a product of a nonnegative orthant and small second-order cones.
The solver embeds the primal-dual pair in the homogeneous self-dual model,
so infeasible problems terminate with a Farkas certificate instead of
diverging.  Search directions come from a Mehrotra predictor-corrector with
Nesterov-Todd scaling; the sparse KKT system is factored with SuperLU plus
static regularization.  Each iteration factors once and solves three times
with that factor.  The two solves a step is built from, the tau direction
u1 (it enters every dtau) and the corrector, are refined against the
exact matrix.  The predictor is one plain triangular solve: it only sets
the predictor step length, the centering sigma and the corrector's
second-order term, none of which needs the last digits.  Cone operations
work on groups of equal-size cones at once, and the KKT matrix keeps one
sparsity pattern per solve, whose values each iteration refills.

Before iterating, `solve` presolves the equality rows with a single
nonzero: each fixes its column, which is substituted into the other rows
and dropped with its row.  The iteration runs on the smaller problem, and
every iterate is lifted back to the original columns and rows (the fixed
values for x, and for the y of each dropped row the value that zeroes its
column's dual residual).  Two equality rows with the same pattern and
proportional values that disagree give a Farkas ray before any iteration.
The presolve also drops every orthant row that is a positive multiple of
another orthant row with a right-hand side at least as loose, which can
never bind; such a row lifts to z = 0 and the slack s = h - G x its
constraint leaves.
The KKT pattern is relabelled once per solve by
reverse Cuthill-McKee, which gives the path-structured matrix a narrow
band, and factored in that order with partial pivoting.

Convergence and infeasibility decisions are made on the original problem
data, from the lifted iterate.  Ruiz equilibration (uniform across each
cone block, so cone geometry is preserved) is applied internally only.
A certificate is tried at every iterate with kappa > tau and accepted only
when the lifted ray passes its check; until mu < tol * 1e-2 or tau
collapses, the ray must also cancel to tol against the size of its own
terms, which no scaling of the data can fake.

Every long dot product and 2-norm goes through `_dot`, which sums in
numpy's fixed pairwise order.  `u @ v` on two vectors calls BLAS ddot,
and OpenBLAS splits a long one across threads, so its last bits, and a
solve's T, would depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
DUAL_INFEASIBLE = "DualInfeasible"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_FAILURE = "NumericalFailure"


class ConeGroup(NamedTuple):
    """The second-order cones of one size d in a ConeSpec, as index arrays
    into the stacked vector (all read-only)."""

    size: int
    index: np.ndarray  # (count, d): row i holds the positions of the i-th cone
    tail: np.ndarray  # (count, d - 1): index[:, 1:], contiguous
    columns: np.ndarray  # (d, count): index.T, contiguous
    part: slice  # these cones in ConeSpec.heads order


@dataclass(frozen=True)
class ConeSpec:
    """Orthant dimension followed by second-order cone sizes, in order."""

    orthant: int
    socs: tuple

    def __post_init__(self):
        if self.orthant < 0 or any(d < 1 for d in self.socs):
            raise ValueError(f"cone spec needs orthant >= 0 and cone sizes >= 1, got {self.orthant}, {self.socs}")

    @property
    def total(self) -> int:
        return self.orthant + sum(self.socs)

    @property
    def degree(self) -> int:
        return self.orthant + len(self.socs)

    @cached_property
    def groups(self) -> tuple:
        """The second-order cones grouped by size, one `ConeGroup` per size.

        Computed once per spec; cone operations gather and scatter through
        these index arrays for a whole group at a time.
        """
        sizes = np.asarray(self.socs, dtype=np.intp)
        starts = self.orthant + np.cumsum(sizes) - sizes
        out = []
        at = 0
        for d in np.unique(sizes).tolist():
            index = starts[sizes == d][:, None] + np.arange(d)
            tail = np.ascontiguousarray(index[:, 1:])
            arrays = index, tail, np.ascontiguousarray(index.T)
            for arr in arrays:
                arr.flags.writeable = False
            out.append(ConeGroup(d, *arrays, slice(at, at + len(index))))
            at += len(index)
        return tuple(out)

    @cached_property
    def heads(self) -> np.ndarray:
        """Position of every cone's first entry, group after group.

        Per-cone scalars (norms, determinants, step roots) of all groups are
        computed once, in one array in this order.
        """
        heads = np.concatenate([g.index[:, 0] for g in self.groups] or [np.zeros(0, dtype=np.intp)])
        heads.flags.writeable = False
        return heads

    @cached_property
    def block_diag(self) -> tuple:
        """CSC structure of a block-diagonal matrix with one block per cone.

        Returns (indptr, indices, first, positions): an orthant coordinate
        is a 1x1 block, a cone of size d a full d x d block.  `first[k]` is
        the first row of the block holding row k, so entry (i, k) sits at
        data position indptr[k] + i - first[k].  `positions` holds, per
        group, the data positions of entry (i, j) of each of its blocks, as a
        (d, d, count) array.
        """
        m = self.total
        size = np.ones(m, dtype=np.intp)
        first = np.arange(m)
        for g in self.groups:
            size[g.index] = g.size
            first[g.index] = g.index[:, :1]
        indptr = np.concatenate(([0], np.cumsum(size)))
        offset = np.arange(indptr[-1]) - np.repeat(indptr[:-1], size)
        indices = np.repeat(first, size) + offset
        positions = tuple(indptr[g.columns] + np.arange(g.size)[:, None, None] for g in self.groups)
        # scipy's own index type, so building a matrix on them copies nothing
        itype = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
        return indptr.astype(itype), indices.astype(itype), first, positions


@dataclass
class StandardConicForm:
    """Problem data in standard conic form."""

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    G: sp.csr_matrix
    h: np.ndarray
    cones: ConeSpec
    row_labels: list = field(default_factory=list)


# default tolerance on the relative primal and dual residuals, the relative
# gap, and the infeasibility certificate residuals
TOL = 1e-8
MAX_ITER = 200
# static regularization of the KKT diagonal
REG = 1e-11
# iterative-refinement passes per KKT solve, at most
REFINE_STEPS = 8
# fraction of the distance to the cone boundary that a step may cover
STEP_FRACTION = 0.98
# tau below this multiple of max(1, kappa) ends the iteration
TAU_KAPPA_GUARD = 1e-10
EQUILIBRATE_ITERS = 10
# STALL_LIMIT consecutive steps shorter than STALL_ALPHA end the iteration
STALL_ALPHA = 1e-7
STALL_LIMIT = 3
# sign, exponent and the top 24 of the 52 mantissa bits of a float64
_TOP_24_BITS = np.uint64(2**64 - 2**28)
# relative distance within which an entry counts as lam times its
# counterpart in a parallel row: a few roundings of lam and of the entries
PARALLEL_RTOL = 8 * np.finfo(float).eps


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u'v, summed pairwise by numpy in an order fixed by the length alone
    (BLAS ddot, which `u @ v` calls, splits by thread count)."""
    return float(np.add.reduce(u * v))


def _norm(v: np.ndarray) -> float:
    """The 2-norm sqrt(v'v), as np.linalg.norm forms it, through `_dot`."""
    return math.sqrt(_dot(v, v))


@dataclass
class SolveReport:
    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray
    tau: float
    kappa: float
    objective: float
    iterations: int
    residuals: dict
    history: list
    wall_time: float
    certificate: dict | None = None


def canonicalize(program) -> StandardConicForm:
    """Stack a transcription-level program into standard conic form.

    Equality rows map directly.  Each bound row contributes one orthant row
    per finite side, its upper side first; cone rows follow, negated, as
    the second-order cone slices of (G, h).
    """
    n = program.num_vars
    if program.objective.size != n:
        raise ValueError(f"objective has {program.objective.size} entries for {n} variables")
    eq, bounds, cones = program.equalities, program.bounds, program.cones
    empty = np.flatnonzero(np.asarray(cones.sizes, dtype=int) < 1)
    if empty.size:
        raise ValueError(f"cone block {cones.cone_labels[empty[0]]!r} has no rows")
    for rows in (eq, bounds, cones):
        beyond = np.flatnonzero(rows.matrix.indices >= n)
        if beyond.size:
            row = rows.labels[np.searchsorted(rows.matrix.indptr, beyond[0], side="right") - 1]
            raise ValueError(f"row {row!r} references variable {rows.matrix.indices[beyond[0]]}, have {n}")
    A, B, C = (
        sp.csr_matrix((r.matrix.data, r.matrix.indices, r.matrix.indptr), shape=(r.matrix.shape[0], n), copy=True)
        for r in (eq, bounds, cones)
    )

    # one orthant row per finite side of each bound, the upper side first:
    # expr <= upper  ->  +vals x <= upper - offset
    # expr >= lower  ->  -vals x <= offset - lower
    which, side = np.nonzero(np.stack((np.isfinite(bounds.upper), np.isfinite(bounds.lower)), axis=1))
    is_lower = side == 1
    G_bounds = B[which]
    G_bounds.data *= np.repeat(np.where(is_lower, -1.0, 1.0), np.diff(G_bounds.indptr))
    offset = bounds.offset[which]
    h_bounds = np.where(is_lower, offset - bounds.lower[which], bounds.upper[which] - offset)
    labels = [f"{bounds.labels[i]}:{('upper', 'lower')[j]}" for i, j in zip(which.tolist(), side.tolist())]
    # slack equals the affine expression: G row = -vals, h = offset
    G = sp.vstack([G_bounds, -C], format="csr")

    return StandardConicForm(
        c=program.objective.astype(float).copy(),
        A=A,
        b=-eq.offset,
        G=G,
        h=np.concatenate((h_bounds, cones.offset)),
        cones=ConeSpec(orthant=which.size, socs=tuple(int(d) for d in cones.sizes)),
        row_labels=labels + list(cones.labels),
    )


# Cone algebra on stacked slack vectors.  Nothing loops once per cone.  The
# Jordan operations, the step length and the residual split each cone into
# its head (gathered for all cones at once through ConeSpec.heads) and its
# tail (gathered per group of equal-size cones), so the per-cone scalars are
# computed once for all groups.  The scaling works on whole blocks, group by
# group.  Inner products use np.vecdot on contiguous rows, which runs the
# same dot kernel as `u @ v` on one cone: the results round exactly as a
# per-cone loop would, and the step length and cone determinants near the
# boundary are sensitive to the last bit.


def _tails(spec: ConeSpec, *vectors) -> list:
    """Per group, the (count, d - 1) tail blocks of each vector."""
    return [tuple(v[g.tail] for v in vectors) for g in spec.groups]


def _per_cone(parts: list) -> np.ndarray:
    """Per-group arrays joined into one array in `heads` order."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _det(x0: np.ndarray, tail_sq: np.ndarray) -> np.ndarray:
    """x0^2 - |x1|^2 in the factored form that stays accurate near the
    cone boundary, where the difference of squares cancels."""
    norm = np.sqrt(tail_sq)
    return (x0 - norm) * (x0 + norm)


def cone_identity(spec: ConeSpec) -> np.ndarray:
    e = np.zeros(spec.total)
    e[: spec.orthant] = 1.0
    e[spec.heads] = 1.0
    return e


def cone_residual(spec: ConeSpec, v: np.ndarray) -> float:
    """How far v sits outside K (0 for members)."""
    worst = 0.0
    if spec.orthant:
        worst = max(worst, float(np.max(-v[: spec.orthant], initial=0.0)))
    if spec.groups:
        norm = np.sqrt(_per_cone([np.vecdot(vt, vt) for vt, in _tails(spec, v)]))
        worst = max(worst, float((norm - v[spec.heads]).max()))
    return worst


def jordan_product(spec: ConeSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty(spec.total)
    o = spec.orthant
    out[:o] = u[:o] * v[:o]
    if spec.groups:
        heads = spec.heads
        u0, v0 = u[heads], v[heads]
        tails = _tails(spec, u, v)
        out[heads] = u0 * v0 + _per_cone([np.vecdot(ut, vt) for ut, vt in tails])
        for g, (ut, vt) in zip(spec.groups, tails):
            out[g.tail] = u0[g.part, None] * vt + v0[g.part, None] * ut
    return out


def jordan_solve(spec: ConeSpec, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u with lam o u = v."""
    out = np.empty(spec.total)
    o = spec.orthant
    out[:o] = v[:o] / lam[:o]
    if spec.groups:
        heads = spec.heads
        l0, v0 = lam[heads], v[heads]
        tails = _tails(spec, lam, v)
        det = _det(l0, _per_cone([np.vecdot(lt, lt) for lt, _ in tails]))
        u0 = (l0 * v0 - _per_cone([np.vecdot(lt, vt) for lt, vt in tails])) / det
        out[heads] = u0
        for g, (lt, vt) in zip(spec.groups, tails):
            out[g.tail] = (vt - u0[g.part, None] * lt) / l0[g.part, None]
    return out


_PLUS_MINUS = np.array([[1.0], [-1.0]])


def max_step(spec: ConeSpec, v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t dv still in K (v strictly interior)."""
    t = np.inf
    o = spec.orthant
    if o:
        # v > 0, so the orthant step 1 / max(-dv / v) needs no mask
        rate = float((-dv[:o] / v[:o]).max())
        if rate > 0.0:
            t = 1.0 / rate
    if not spec.groups:
        return t
    heads = spec.heads
    v0, d0 = v[heads], dv[heads]
    tails = _tails(spec, v, dv)
    a = d0 * d0 - _per_cone([np.vecdot(dt, dt) for _, dt in tails])
    bq = v0 * d0 - _per_cone([np.vecdot(vt, dt) for vt, dt in tails])
    cq = _det(v0, _per_cone([np.vecdot(vt, vt) for vt, _ in tails]))
    # roots of a t^2 + 2 bq t + cq = 0; cq > 0 strictly inside
    disc = bq * bq - a * cq
    linear = np.abs(a) < 1e-300
    odd = linear | (disc < 0.0)
    if odd.any():
        hit = linear & (bq < 0.0)
        if hit.any():
            t = min(t, float((-cq[hit] / (2.0 * bq[hit])).min()))
        # disc < 0 only by rounding: a quadratic that opens downward must
        # cross eventually (disc clamped to 0), one that opens upward never.
        # a = nan keeps a cone's roots from being candidates.
        a = np.where(odd & (linear | ~(a < 0.0)), np.nan, a)
    root = np.sqrt(np.maximum(disc, 0.0))
    cand = (-bq - _PLUS_MINUS * root) / a
    return min(t, float(np.where((cand > 0.0) & (v0 + cand * d0 >= 0.0), cand, np.inf).min()))


class Scaling:
    """Nesterov-Todd scaling W of the product cone at a pair (s, z).

    W is the diagonal sqrt(s / z) on the orthant and eta * Wbar on each
    second-order cone, with Wbar = [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]]
    and W^{-1} = J Wbar J / eta, J = diag(1, -I).  The blocks of W and W^{-1}
    are kept as one (d, d, count) array per group of equal-size cones, so
    applying either is one batched product per group.  `w_inv_matrix` writes
    W^{-1} into the fixed block-diagonal pattern of `ConeSpec.block_diag`.
    """

    def __init__(self, spec: ConeSpec, s: np.ndarray, z: np.ndarray):
        self.spec = spec
        o = spec.orthant
        self.w_orth = np.sqrt(s[:o] / z[:o])
        self.soc = []
        for g in spec.groups:
            pair = np.stack((s[g.index], z[g.index]))  # (2, count, d)
            res = _det(pair[..., 0], np.vecdot(pair[..., 1:], pair[..., 1:]))
            if (res <= 0.0).any():
                raise FloatingPointError("scaling point left the cone interior")
            sbar, zbar = pair / np.sqrt(res)[..., None]
            gamma2 = 2.0 * np.sqrt((1.0 + np.vecdot(sbar, zbar)) / 2.0)
            wbar = sbar - zbar
            wbar[:, 0] = sbar[:, 0] + zbar[:, 0]
            wbar /= gamma2[:, None]
            # Wbar, one (d, d) slice per cone along the last axis: the outer
            # product of the tail, over 1 + w0, plus the identity, bordered
            # by wbar in the first row and column
            d = g.size
            w = np.ascontiguousarray(wbar.T)
            mat = np.empty((d, d, len(g.index)))
            mat[1:, 1:] = w[1:, None, :] * w[None, 1:, :] / (1.0 + w[0])
            mat.reshape(d * d, -1)[d + 1 :: d + 1] += 1.0
            mat[0] = w
            mat[1:, 0] = w[1:]
            eta = (res[0] / res[1]) ** 0.25
            flip = mat.copy()  # J Wbar J
            flip[0, 1:] *= -1.0
            flip[1:, 0] *= -1.0
            self.soc.append((g.columns, eta * mat, flip / eta))

    def _apply(self, v: np.ndarray, orth: np.ndarray, inverse: bool) -> np.ndarray:
        out = np.empty(self.spec.total)
        out[: self.spec.orthant] = orth
        for columns, w, w_inv in self.soc:
            out[columns] = np.einsum("ijk,jk->ik", w_inv if inverse else w, v[columns])
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, self.w_orth * v[: self.spec.orthant], inverse=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, v[: self.spec.orthant] / self.w_orth, inverse=True)

    def w_inv_matrix(self) -> sp.csc_matrix:
        """Sparse W^{-1}, used to fold the scaling into the KKT matrix.

        Factoring with W^{-1}G and an identity (3,3) block instead of G and
        W^2 halves the exponent range of the matrix, which is what keeps the
        factorization usable when the barrier parameter gets small.  The
        pattern is the same at every iterate, so `data` lines up with the
        maps that `_KKTSystem` builds once per solve.
        """
        indptr, indices, _, positions = self.spec.block_diag
        data = np.empty(indices.size)
        data[: self.spec.orthant] = 1.0 / self.w_orth
        for (_, _, w_inv), at in zip(self.soc, positions):
            data[at] = w_inv
        m = self.spec.total
        return sp.csc_matrix((data, indices, indptr), shape=(m, m))


class _KKTSystem:
    """The KKT matrix of one solve, with a sparsity pattern built once.

            [ 0        A'   (W^{-1}G)' ]
        M = [ A        0    0          ]
            [ W^{-1}G  0    -I         ]

    Row i of W^{-1}G combines the rows of G in the block of i, so its
    pattern is, per cone, the union of the columns its rows touch.  The
    constructor records each product W^{-1}[i, k] G[k, j] as a (W^{-1} data
    position, G value, W^{-1}G entry) triple and where each W^{-1}G entry
    sits in both triangles of M.  `refill` then writes only those values, in
    place, into `exact` (M in extended precision, for refinement residuals)
    and `regularized` (M + diag(REG, -REG, -REG), the matrix that is
    factored).  The diagonal is in the pattern, so the two share it.

    Both matrices are stored symmetrically permuted, P M P' with
    P M P'[i, j] = M[perm[i], perm[j]]: `perm` is the reverse Cuthill-McKee
    order of the fixed pattern (George & Liu, 1981).  Each grid interval
    couples only to its neighbours, so in that order M is narrowly banded
    and SuperLU factors it as it stands (natural column order, partial
    pivoting kept), with no fill-reducing ordering recomputed per factor.
    `refined_solve` takes and returns vectors in the original order.
    """

    def __init__(self, A: sp.csr_matrix, G: sp.csr_matrix, spec: ConeSpec):
        p, n = A.shape
        m = G.shape[0]
        w_indptr, _, first, _ = spec.block_diag
        row = np.repeat(np.arange(m), np.diff(G.indptr))
        size = np.diff(w_indptr)[row]
        entry = np.repeat(np.arange(G.nnz), size)
        offset = np.arange(entry.size) - np.repeat(np.cumsum(size) - size, size)
        k = row[entry]
        self._w_at = w_indptr[k] + offset
        self._g_vals = G.data[entry]
        keys, self._target = np.unique((first[k] + offset) * n + G.indices[entry], return_inverse=True)
        self._nnz = keys.size
        wg_row, wg_col = n + p + keys // n, keys % n

        A = A.tocoo()
        N = n + p + m
        diag = np.arange(N)
        rows = np.concatenate((diag, n + A.row, A.col, wg_row, wg_col))
        cols = np.concatenate((diag, A.col, n + A.row, wg_col, wg_row))
        exact = np.concatenate((np.zeros(n + p), -np.ones(m), A.data, A.data, np.zeros(2 * keys.size)))
        shift = np.concatenate((np.full(n, REG), np.full(p, -REG), np.full(m, -REG)))

        if N:
            # imported here: the package is imported by `topp verify` too,
            # which never solves, and csgraph adds about 1.3 MB to its RSS
            from scipy.sparse.csgraph import reverse_cuthill_mckee

            pattern = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(N, N))
            self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        else:
            self.perm = np.zeros(0, dtype=np.intp)
        label = np.empty(N, dtype=np.intp)
        label[self.perm] = diag
        rows, cols = label[rows], label[cols]
        order = np.lexsort((rows, cols))
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        self._slots = slot[N + 2 * A.nnz :]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=N))))
        regularized = exact.copy()
        regularized[:N] += shift
        self.regularized = sp.csc_matrix((regularized[order], rows[order], indptr), shape=(N, N))
        # M is symmetric, so its CSC arrays read as CSR are M again; the
        # row-wise CSR product is the faster one
        self.exact = sp.csr_matrix((exact[order].astype(np.longdouble), rows[order], indptr), shape=(N, N))

    def refill(self, w_inv: sp.csc_matrix):
        """Write the W^{-1}G values of the current scaling into both matrices."""
        wg = np.bincount(self._target, weights=w_inv.data[self._w_at] * self._g_vals, minlength=self._nnz)
        both = np.concatenate((wg, wg))
        self.regularized.data[self._slots] = both
        self.exact.data[self._slots] = both

    def factor(self):
        """Factor the regularized matrix; SuperLU raises RuntimeError when
        it is singular."""
        # One-column panels: on these narrowly banded matrices the default
        # multi-column panel fills dense work arrays it barely uses, which
        # costs a quarter of the factor time.
        self._lu = splu(self.regularized, permc_spec="NATURAL", panel_size=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M v = rhs by one triangular solve with the last factor, unrefined."""
        out = np.empty(rhs.size)
        out[self.perm] = self._lu.solve(rhs[self.perm])
        return out

    def refined_solve(self, rhs: np.ndarray) -> np.ndarray:
        """M v = rhs by the last factor, refined against the exact matrix.

        Near convergence mu falls toward the regularization level and the
        raw solve is too inaccurate to step with.  Residuals are formed in
        extended precision: the refinement plateau sits at the residual
        roundoff times the KKT condition number, and the handful of extra
        digits is what lets the gap reach tolerance on problems whose cones
        are all active at the optimum.  The iteration refines the two
        directions a step is made of, u1 and the corrector; the predictor,
        which only sizes the centering, takes the plain `_KKTSystem.solve`.
        """
        perm, lu = self.perm, self._lu
        rhs = rhs[perm]
        rhs_ld = rhs.astype(np.longdouble)
        sol = lu.solve(rhs).astype(np.longdouble)
        resid = rhs_ld - self.exact @ sol
        best, best_res = sol, _norm(resid.astype(np.float64))
        floor = 1e-16 * (_norm(rhs) + 1.0)
        for _ in range(REFINE_STEPS):
            if best_res <= floor:
                break
            sol = sol + lu.solve(resid.astype(np.float64))
            resid = rhs_ld - self.exact @ sol
            res = _norm(resid.astype(np.float64))
            if res < best_res:
                best, best_res = sol, res
            else:
                break
        out = np.empty(rhs.size)
        out[perm] = best
        return out


def _ruiz_equilibrate(form: StandardConicForm, iters: int = EQUILIBRATE_ITERS):
    """Row/column scaling of the stacked constraint matrix.

    Rows belonging to one second-order cone share a single scale so the
    scaled slack stays in the same cone.  [A; G] is stacked once and its
    values are scaled in place, by the row scale and then by the column
    scale, which rounds as the product diag(e) [A; G] diag(c) does; like
    that product, the result keeps no explicit zeros.
    """
    p, n = form.A.shape
    M = sp.vstack([form.A, form.G], format="csr")
    M.eliminate_zeros()
    row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    d_col = np.ones(n)
    d_row = np.ones(M.shape[0])
    spec = form.cones

    def inverse_sqrt(v):
        return 1.0 / np.sqrt(np.where(v > 0, v, 1.0))

    for _ in range(iters):
        mag = np.abs(M.data)
        col_max = np.zeros(n)
        np.maximum.at(col_max, M.indices, mag)
        row_max = np.zeros(M.shape[0])
        np.maximum.at(row_max, row, mag)
        col_scale = inverse_sqrt(col_max)
        row_scale = inverse_sqrt(row_max)
        for g in spec.groups:
            row_scale[p + g.index] = inverse_sqrt(row_max[p + g.index].max(axis=1))[:, None]
        M.data *= row_scale[row]
        M.data *= col_scale[M.indices]
        d_col *= col_scale
        d_row *= row_scale
        if np.all(np.abs(1.0 - col_scale) < 1e-4) and np.all(np.abs(1.0 - row_scale) < 1e-4):
            break
    return M[:p], M[p:], d_col, d_row[:p], d_row[p:]


def verify_kkt(form: StandardConicForm, x, y, z, s, tol: float = 1e-6) -> dict:
    """Recompute optimality residuals from scratch on the given data."""
    c, A, b, G, h = form.c, form.A, form.b, form.G, form.h
    pres_eq = _norm(A @ x - b)
    pres_in = _norm(G @ x + s - h)
    dres = _norm(A.T @ y + G.T @ z + c)
    pcost = _dot(c, x)
    dcost = -_dot(b, y) - _dot(h, z)
    gap = abs(pcost - dcost)
    return {
        "primal_eq": pres_eq / (1.0 + _norm(b)),
        "primal_in": pres_in / (1.0 + _norm(h)),
        "dual": dres / (1.0 + _norm(c)),
        "gap": gap / max(1.0, abs(pcost)),
        "pcost": pcost,
        "dcost": dcost,
        "s_in_cone": cone_residual(form.cones, s) <= tol,
        "z_in_cone": cone_residual(form.cones, z) <= tol,
        "comp": _dot(s, z),
    }


def _rounding_bound(*pairs) -> float:
    """Bound on the rounding error of the sum of dot products u'v over the
    (u, v) pairs: n eps sum |u|'|v| for n terms in all (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1).  A potential no
    larger than this has no sign to certify with."""
    n = sum(u.size for u, _ in pairs)
    return n * np.finfo(float).eps * sum(_dot(np.abs(u), np.abs(v)) for u, v in pairs)


# Each certificate check normalizes the ray to potential -1 and asks for
# residuals below tol times a data scale.  Those residuals shrink with the
# ray when b and h (primal) or c (dual) are large: an early iterate of a
# feasible problem with |h| ~ 1e8 or |c| ~ 1e4 passes.  With `relative`
# set, the residual must also be below tol times the size of the terms it
# sums (sum |M| |v| for each product M v), a test that no diagonal scaling
# of the data moves and that such an iterate fails.


def _check_primal_infeasibility_certificate(form, y, z, tol, relative: bool = False) -> dict | None:
    pot = _dot(form.b, y) + _dot(form.h, z)
    if -pot <= _rounding_bound((form.b, y), (form.h, z)):
        return None
    yc, zc = y / -pot, z / -pot
    res = float(np.linalg.norm(form.A.T @ yc + form.G.T @ zc, ord=np.inf))
    scale = max(1.0, float(abs(form.A).max() if form.A.nnz else 1.0), float(abs(form.G).max() if form.G.nnz else 1.0))
    bound = scale
    if relative:
        bound = min(bound, float(np.max(abs(form.A.T) @ np.abs(yc) + abs(form.G.T) @ np.abs(zc), initial=0.0)))
    cone_err = cone_residual(form.cones, zc)
    if res <= tol * bound and cone_err <= tol * scale:
        return {"kind": "primal", "y": yc, "z": zc, "residual": res, "cone_residual": cone_err}
    return None


def _check_dual_infeasibility_certificate(form, x, s, tol, relative: bool = False) -> dict | None:
    pot = _dot(form.c, x)
    if -pot <= _rounding_bound((form.c, x)):
        return None
    xc = x / -pot
    sc = s / -pot
    res_eq = float(np.linalg.norm(form.A @ xc, ord=np.inf)) if form.A.shape[0] else 0.0
    res_in = float(np.linalg.norm(form.G @ xc + sc, ord=np.inf)) if form.G.shape[0] else 0.0
    cone_err = cone_residual(form.cones, sc)
    scale = max(1.0, float(np.linalg.norm(form.c, ord=np.inf)))
    bound = scale
    if relative:
        size_eq = float(np.max(abs(form.A) @ np.abs(xc), initial=0.0))
        size_in = float(np.max(abs(form.G) @ np.abs(xc) + np.abs(sc), initial=0.0))
        bound = min(bound, max(size_eq, size_in))
    if max(res_eq, res_in) <= tol * bound and cone_err <= tol * scale:
        return {"kind": "dual", "x": xc, "s": sc, "residual": max(res_eq, res_in), "cone_residual": cone_err}
    return None


class _Presolve:
    """The problem with its pinned columns substituted out and its
    dominated inequality rows dropped.

    An equality row with a single nonzero, a x_j = b_r, fixes x_j = b_r / a
    (Andersen & Andersen, Math. Prog. 71, 1995).  Nonzeros are counted
    after dropping explicit zeros from A and G, so a row whose only stored
    entry is 0 pins nothing.  A column fixed by exactly one such row is
    dropped with that row, and its fixed value moves into the right-hand
    sides b and h of the rows that remain.  Its cost c_j x_j is a constant:
    it cancels in the duality gap and comes back when the objective is
    evaluated on the lifted point, so `form` carries no offset.  A column
    named by two or more singleton rows stays with all of them.  Equality
    rows stay in place when they repeat another up to a factor; if two such
    rows disagree by more than tol relative, `ray` is the Farkas direction
    they give (`_row_conflict`), which the iteration would otherwise have to
    find through a rank-deficient A.

    An orthant row G_d x <= h_d that is a positive multiple of another,
    G_d = lam G_k with lam > 0 and h_d >= lam h_k, is implied by it and is
    dropped (Brearley, Mitra & Williams, Math. Prog. 8, 1975; see
    `_dominated_rows`).  Such rows cannot bind, and left in they get huge
    equilibration scales that cost the iteration its last digits.  Cone
    rows are never dropped.

    `form` is the reduced problem; `lift` maps a homogeneous point of it
    back to the original columns and rows.
    """

    def __init__(self, form: StandardConicForm, tol: float):
        n, p = form.c.size, form.A.shape[0]
        A = form.A.tocsr(copy=True)
        A.eliminate_zeros()
        G = form.G.tocsr(copy=True)
        G.eliminate_zeros()
        single = np.flatnonzero(np.diff(A.indptr) == 1)
        col = A.indices[A.indptr[single]]
        pivot = A.data[A.indptr[single]]
        value = form.b[single] / pivot
        alone = np.bincount(col, minlength=n)[col] == 1
        self.rows, self.cols, self.pivots, self.values = single[alone], col[alone], pivot[alone], value[alone]
        self.ray = _row_conflict(A, form.b, tol)
        self.free = _complement(self.cols, n)
        self.kept = _complement(self.rows, p)
        self.shape = n, p
        orthant = form.cones.orthant
        self.g_dropped = _dominated_rows(G[:orthant], form.h[:orthant])
        self.g_kept = _complement(self.g_dropped, G.shape[0])
        self._G_dropped, self._h_dropped = G[self.g_dropped], form.h[self.g_dropped]
        A_kept, G_kept = A[self.kept], G[self.g_kept]
        A_fixed, G_fixed = A_kept[:, self.cols], G_kept[:, self.cols]
        self._A_fixed_t, self._G_fixed_t = A_fixed.T.tocsr(), G_fixed.T.tocsr()
        self._c_fixed = form.c[self.cols]
        labels = form.row_labels
        self.form = StandardConicForm(
            c=form.c[self.free],
            A=A_kept[:, self.free],
            b=form.b[self.kept] - A_fixed @ self.values,
            G=G_kept[:, self.free],
            h=form.h[self.g_kept] - G_fixed @ self.values,
            cones=ConeSpec(orthant=orthant - self.g_dropped.size, socs=form.cones.socs),
            row_labels=np.asarray(labels, dtype=object)[self.g_kept].tolist() if labels else [],
        )

    def lift(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, s: np.ndarray, tau: float) -> tuple:
        """(x, y, z, s) on the original columns and rows for a reduced point
        with homogeneous scale tau: a fixed column gets tau times its value,
        and the y of its row zeroes the column's residual A'y + G'z + tau c.
        A dropped inequality row gets z = 0 and the slack s = tau h - G x
        that its constraint leaves.  With tau = 0 this lifts a ray, as an
        infeasibility certificate needs."""
        n, p = self.shape
        x_full = np.empty(n)
        x_full[self.free] = x
        x_full[self.cols] = tau * self.values
        y_full = np.empty(p)
        y_full[self.kept] = y
        y_full[self.rows] = -(self._A_fixed_t @ y + self._G_fixed_t @ z + tau * self._c_fixed) / self.pivots
        m = self.g_kept.size + self.g_dropped.size
        z_full = np.zeros(m)
        z_full[self.g_kept] = z
        s_full = np.empty(m)
        s_full[self.g_kept] = s
        s_full[self.g_dropped] = tau * self._h_dropped - self._G_dropped @ x_full
        return x_full, y_full, z_full, s_full


def _complement(index: np.ndarray, size: int) -> np.ndarray:
    """The sorted positions below size that index does not name."""
    keep = np.ones(size, dtype=bool)
    keep[index] = False
    return np.flatnonzero(keep)


def _parallel_keys(M: sp.csr_matrix) -> tuple:
    """(rows, pivots, keys) of the nonempty rows of M, whose column indices
    must be sorted: a pivot is a row's first stored entry, and a key hashes
    the row's columns and its entries divided by the pivot, cut to 24
    significant bits.  Rows with the same nonzero pattern and values
    proportional up to rounding share a key; the key only proposes such
    rows, and a collision must be caught by whatever acts on them.
    """
    nnz = np.diff(M.indptr)
    rows = np.flatnonzero(nnz)
    first = M.indptr[rows]
    pivots = M.data[first]
    ratios = (M.data / np.repeat(pivots, nnz[rows])).view(np.uint64) & _TOP_24_BITS
    weights = np.random.default_rng(0).integers(1, 2**63, size=M.shape[1], dtype=np.uint64)
    keys = np.add.reduceat(weights[M.indices] * (ratios + np.uint64(1)), first)
    return rows, pivots, keys


def _row_conflict(A: sp.csr_matrix, b: np.ndarray, tol: float) -> np.ndarray | None:
    """y with A'y = 0 and b'y < 0 from two equality rows a x = b_r and
    (k a) x = b_r' that disagree: of all rows with the same nonzero pattern
    and proportional values, the two whose values b_r / a_j, for the first
    nonzero a_j of each row, differ most.  Two singleton rows on one column
    are the case of one nonzero.  None when no such pair is more than
    tol (1 + |value|) apart, a gap the iteration could close within its
    feasibility tolerance.

    Rows are matched by `_parallel_keys`; a collision only offers a ray
    that the certificate check then refuses.
    """
    rows, pivots, keys = _parallel_keys(A.sorted_indices())
    if rows.size < 2:
        return None
    values = b[rows] / pivots
    order = np.lexsort((values, keys))
    rows, keys, pivots, values = (a[order] for a in (rows, keys, pivots, values))
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    last = np.r_[start[1:], keys.size] - 1
    k = int(np.argmax(values[last] - values[start]))
    lo, hi = start[k], last[k]
    if values[hi] - values[lo] <= tol * (1.0 + max(abs(values[lo]), abs(values[hi]))):
        return None
    y = np.zeros(A.shape[0])
    y[rows[lo]] = 1.0 / pivots[lo]
    y[rows[hi]] = -1.0 / pivots[hi]
    return y


def _dominated_rows(G: sp.csr_matrix, h: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows of G x <= h implied by another row.

    Rows with the same `_parallel_keys` key and pivot sign form a candidate
    group; the sign keeps a row apart from its negation, the other side of
    a range.  Each group keeps its row with the least h / |pivot|, the
    tightest.  Another row d of the group is dropped only when, against
    that keeper k, it has the same columns, lam = pivot_d / pivot_k > 0,
    every entry within PARALLEL_RTOL of lam G_k, and h_d >= lam h_k.
    G must hold no explicit zeros.
    """
    G = G.sorted_indices()
    rows, pivots, keys = _parallel_keys(G)
    keys = keys + (pivots < 0.0)
    order = np.lexsort((h[rows] / np.abs(pivots), keys))
    rows, keys, pivots = rows[order], keys[order], pivots[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    keeper = np.maximum.accumulate(np.where(new, np.arange(rows.size), 0))[~new]
    d, k = rows[~new], rows[keeper]
    lam = pivots[~new] / pivots[keeper]
    nnz = np.diff(G.indptr)
    same = (nnz[d] == nnz[k]) & (lam > 0.0)
    d, k, lam = d[same], k[same], lam[same]
    # entry j of pair i sits at indptr + j on both rows
    size = nnz[d]
    start = np.cumsum(size) - size
    offset = np.arange(size.sum()) - np.repeat(start, size)
    at_d = np.repeat(G.indptr[d], size) + offset
    at_k = np.repeat(G.indptr[k], size) + offset
    g_d = G.data[at_d]
    match = (G.indices[at_d] == G.indices[at_k]) & (
        np.abs(g_d - np.repeat(lam, size) * G.data[at_k]) <= PARALLEL_RTOL * np.abs(g_d)
    )
    whole = np.logical_and.reduceat(match, start)
    return np.sort(d[whole & (h[d] >= lam * h[k])])


def _infeasibility_certificate(form, presolve, x, y, z, s, tol, relative) -> tuple | None:
    """(status, certificate) when the reduced homogeneous point, lifted back
    as a ray, passes the primal and then the dual certificate check on the
    original data (`relative` as in those checks)."""
    x, y, z, s = presolve.lift(x, y, z, s, 0.0)
    cert = _check_primal_infeasibility_certificate(form, y, z, tol, relative)
    if cert is not None:
        return PRIMAL_INFEASIBLE, cert
    cert = _check_dual_infeasibility_certificate(form, x, s, tol, relative)
    if cert is not None:
        return DUAL_INFEASIBLE, cert
    return None


def solve(form: StandardConicForm, tol: float = TOL) -> SolveReport:
    """Run the homogeneous self-dual predictor-corrector iteration.

    `tol` bounds the relative residuals and gap of an optimum and the
    residuals of an infeasibility certificate.  A certificate is tried at
    every iterate with kappa > tau: a ray that fails its check is refused
    and the iteration goes on, so a refused attempt leaves the solve as it
    was.  When tau collapses (the guard) and no ray passes, the solve ends
    in NumericalFailure.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    t0 = time.perf_counter()
    if form.cones.total != form.G.shape[0]:
        raise ValueError("cone dimensions do not match G")
    # the iteration runs on the reduced problem; every decision reads the
    # lifted iterate on the original data
    presolve = _Presolve(form, tol)
    reduced = presolve.form
    spec = reduced.cones
    n = reduced.c.size
    p = reduced.A.shape[0]

    As, Gs, d_col, d_eq, d_in = _ruiz_equilibrate(reduced)
    bs = d_eq * reduced.b
    hs = d_in * reduced.h
    # Scalar normalization of the right-hand sides and cost keeps the initial
    # homogeneous residuals O(1).  The divisor is clamped: every decade of
    # scaling spent here is a decade lost from the achievable unscaled duality
    # gap, so outlier data (say a 1e6 box limit on an O(1) problem) is tamed
    # only partially rather than at the expense of the 1e-8 gap target.
    rhs_norm = max(
        float(np.linalg.norm(bs, ord=np.inf)) if bs.size else 0.0,
        float(np.linalg.norm(hs, ord=np.inf)) if hs.size else 0.0,
    )
    rhs_scale = 1.0 / min(max(1.0, rhs_norm), 1e3)
    bs = rhs_scale * bs
    hs = rhs_scale * hs
    cost_norm = float(np.linalg.norm(d_col * reduced.c, ord=np.inf)) if n else 0.0
    cost_scale = 1.0 / min(max(1.0, cost_norm), 1e3)
    cs = cost_scale * d_col * reduced.c

    AsT = As.T.tocsr()
    GsT = Gs.T.tocsr()

    e = cone_identity(spec)
    x = np.zeros(n)
    y = np.zeros(p)
    z = e.copy()
    s = e.copy()
    tau, kappa = 1.0, 1.0
    nu = spec.degree + 1

    history: list[dict] = []
    stalls = 0
    certificate = None
    if presolve.ray is not None:
        # conflicting pins are checked like any certificate; one that
        # passes leaves nothing to iterate
        certificate = _check_primal_infeasibility_certificate(form, presolve.ray, np.zeros(form.G.shape[0]), tol)
    status = MAX_ITERATIONS if certificate is None else PRIMAL_INFEASIBLE
    max_iter = MAX_ITER if certificate is None else 0
    last_residuals: dict = {}
    iteration = 0

    def unscaled_point():
        xs = d_col * x / rhs_scale
        ys = d_eq * y / cost_scale
        zs = d_in * z / cost_scale
        ss = s / d_in / rhs_scale
        return xs, ys, zs, ss

    def lifted_point():
        """The iterate divided by tau, on the original columns and rows."""
        return presolve.lift(*(v / tau for v in unscaled_point()), 1.0)

    kkt = _KKTSystem(As, Gs, spec)

    def solve3(vx, vy, vz, refine=True):
        rhs = np.concatenate([vx, vy, vz])
        out = kkt.refined_solve(rhs) if refine else kkt.solve(rhs)
        return out[:n], out[n : n + p], out[n + p :]

    for iteration in range(1, max_iter + 1):
        try:
            scal = Scaling(spec, s, z)
        except FloatingPointError:
            status = NUMERICAL_FAILURE
            break
        lam = scal.apply(z)
        mu = (_dot(s, z) + tau * kappa) / nu

        # The scaling is folded in as W^{-1}G with an identity third block
        # rather than G with a W^2 block: W^2 squares the boundary-induced
        # dynamic range and makes the factorization unusable at small mu.
        kkt.refill(scal.w_inv_matrix())
        try:
            kkt.factor()
        except RuntimeError:
            status = NUMERICAL_FAILURE
            break

        # residuals of the homogeneous model (scaled data)
        rx = AsT @ y + GsT @ z + cs * tau
        ry = As @ x - bs * tau
        rz = Gs @ x + s - hs * tau
        rtau = _dot(cs, x) + _dot(bs, y) + _dot(hs, z) + kappa

        # The z parts of both solves stay in scaled form (W z): W^{-1} is
        # symmetric, so h'z = (W^{-1} h)'(W z), and dz needs one W^{-1}.
        hs_t = scal.apply_inverse(hs)
        u1x, u1y, u1zt = solve3(-cs, bs, hs_t)
        denom_tau = _dot(cs, u1x) + _dot(bs, u1y) + _dot(hs_t, u1zt) - kappa / tau
        rz_t = scal.apply_inverse(rz)

        def direction(sigma, comp_t, dkappa_extra, refine=True):
            """Build (dx, dy, dz, ds, dtau, dkappa, W dz) for given centering.

            comp_t solves lam o comp_t = d_s, where d_s is the right-hand side
            of the complementarity row lam o (W^{-1} ds + W dz) = d_s.
            With refine=False the solve is one plain triangular solve.
            """
            d_k = sigma * mu - tau * kappa + dkappa_extra
            fac = 1.0 - sigma
            # third row in scaled variables: W^{-1}G dx - (W dz) = W^{-1}vz
            rhs_zt = -fac * rz_t - comp_t
            u2x, u2y, u2zt = solve3(-fac * rx, -fac * ry, rhs_zt, refine)
            num = -fac * rtau - d_k / tau - (_dot(cs, u2x) + _dot(bs, u2y) + _dot(hs_t, u2zt))
            dtau = num / denom_tau
            dx = u2x + dtau * u1x
            dy = u2y + dtau * u1y
            dz_t = u2zt + dtau * u1zt
            dz = scal.apply_inverse(dz_t)
            # ds via the slack feasibility row, not the complementarity row:
            # the latter multiplies dz's solve error by W^2, which is huge for
            # blocks pinched on the cone boundary
            ds = -fac * rz - Gs @ dx + hs * dtau
            dkappa = (d_k - kappa * dtau) / tau
            return dx, dy, dz, ds, dtau, dkappa, dz_t

        # predictor: d_s = -lam o lam, so comp_t = -lam.  It only sizes
        # sigma and the second-order term, so its solve is not refined.
        dxa, dya, dza, dsa, dtaua, dkappaa, dza_t = direction(0.0, -lam, 0.0, refine=False)
        alpha_a = min(1.0, max_step(spec, s, dsa), max_step(spec, z, dza))
        if dtaua < 0.0:
            alpha_a = min(alpha_a, -tau / dtaua)
        if dkappaa < 0.0:
            alpha_a = min(alpha_a, -kappa / dkappaa)
        mu_aff = (
            _dot(s + alpha_a * dsa, z + alpha_a * dza) + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
        ) / nu
        sigma = float(np.clip((mu_aff / mu) ** 3, 0.0, 1.0))

        # corrector
        corr = -jordan_product(spec, scal.apply_inverse(dsa), dza_t)
        d_s = sigma * mu * e - jordan_product(spec, lam, lam) + corr
        dx, dy, dz, ds, dtau, dkappa, _ = direction(sigma, jordan_solve(spec, lam, d_s), -dtaua * dkappaa)

        alpha = min(
            1.0,
            STEP_FRACTION * max_step(spec, s, ds),
            STEP_FRACTION * max_step(spec, z, dz),
        )
        if dtau < 0.0:
            alpha = min(alpha, STEP_FRACTION * (-tau / dtau))
        if dkappa < 0.0:
            alpha = min(alpha, STEP_FRACTION * (-kappa / dkappa))
        if not np.isfinite(alpha) or alpha <= 0.0:
            status = NUMERICAL_FAILURE
            break

        x = x + alpha * dx
        y = y + alpha * dy
        z = z + alpha * dz
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

        if not (np.all(np.isfinite(x)) and np.isfinite(tau) and tau > 0.0):
            status = NUMERICAL_FAILURE
            break

        rep = verify_kkt(form, *lifted_point())
        last_residuals = rep
        history.append(
            {
                "iteration": iteration,
                "mu": mu,
                "sigma": sigma,
                "alpha": float(alpha),
                "tau": tau,
                "kappa": kappa,
                "pcost": rep["pcost"],
                "dcost": rep["dcost"],
                "primal_eq": rep["primal_eq"],
                "primal_in": rep["primal_in"],
                "dual": rep["dual"],
                "gap": rep["gap"],
            }
        )

        if max(rep["primal_eq"], rep["primal_in"]) <= tol and rep["dual"] <= tol and rep["gap"] <= tol:
            status = OPTIMAL
            break

        # infeasibility: a certificate is tried at every iterate that leans
        # toward a ray (kappa > tau) and is accepted only after an
        # independent check on the original data; a ray not yet accurate
        # enough is refused and the iteration goes on.  Before mu is small
        # or tau has collapsed, the ray must also pass the scale-free test.
        guard = tau < TAU_KAPPA_GUARD * max(1.0, kappa)
        if guard or kappa > tau:
            early = not (guard or mu < tol * 1e-2)
            found = _infeasibility_certificate(form, presolve, *unscaled_point(), tol, early)
            if found is not None:
                status, certificate = found
                break
            if guard:
                status = NUMERICAL_FAILURE
                break

        stalls = stalls + 1 if alpha < STALL_ALPHA else 0
        if stalls >= STALL_LIMIT:
            status = NUMERICAL_FAILURE
            break

    if status in (OPTIMAL, MAX_ITERATIONS) and tau > 0.0:
        xh, yh, zh, sh = lifted_point()
    else:
        xh, yh, zh, sh = presolve.lift(*unscaled_point(), tau)
    objective = _dot(form.c, xh) if status in (OPTIMAL, MAX_ITERATIONS) else math.nan
    return SolveReport(
        status=status,
        x=xh,
        y=yh,
        z=zh,
        s=sh,
        tau=tau,
        kappa=kappa,
        objective=objective,
        iterations=iteration,
        residuals=last_residuals,
        history=history,
        wall_time=time.perf_counter() - t0,
        certificate=certificate,
    )


def solve_conic_program(program, tol: float = TOL):
    """Canonicalize and solve a transcription-level program."""
    form = canonicalize(program)
    report = solve(form, tol)
    solution = program.extract(report.x) if report.status == OPTIMAL else None
    return report, solution
