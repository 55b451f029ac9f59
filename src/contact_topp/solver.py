"""Primal-dual interior-point solver for second-order cone programs.

Standard form:

    minimize    c'x
    subject to  A x = b
                G x + s = h,   s in K

with K a product of a nonnegative orthant and small second-order cones.
The solver embeds the primal-dual pair in the homogeneous self-dual model,
so infeasible problems terminate with a Farkas certificate instead of
diverging.  Search directions come from a Mehrotra predictor-corrector with
Nesterov-Todd scaling.  The KKT system in (x, y, z) is solved by
eliminating its cone block and factoring the (x, y) system that is left,
with static regularization, by SuperLU; z follows from x.  Each iteration
factors once and solves three times with that factor.  The two solves a
step is built from, the tau direction u1 (it enters every dtau) and the
corrector, are refined against the exact full matrix.  The predictor is
one plain solve: it only sets the predictor step length, the centering
sigma and the corrector's second-order term, none of which needs the last
digits.  Cone operations work on groups of equal-size cones at once, and
the KKT matrices keep one sparsity pattern per solve, whose values each
iteration refills.

`solve` runs in named phases.  Once per solve: `_Scaled` (equilibration
and the scalar normalization of the data), `_KKTSystem` (the fixed KKT
patterns and the ordering of the factored one) and `_row_conflict`
(below).  Each iteration: `Scaling` at the iterate; `_KKTSystem.refill`
and `factor`; `_Newton`, the residuals and the tau direction u1 at the
iterate; its `direction` for the predictor and then the corrector, each
sized by `_step_length`; `_Point.step`; and the convergence and
certificate checks on the unscaled iterate.

Before iterating, `solve` looks for two equality rows with the same
pattern and proportional values that disagree: they give a Farkas ray
before any iteration, which the iteration would otherwise have to find
through a rank-deficient A.  The pattern of the factored matrix is
relabelled once per solve by reverse Cuthill-McKee, which gives the
path-structured matrix a narrow band, and factored in that order with
partial pivoting.

Convergence and infeasibility decisions are made on the original problem
data, from the unscaled iterate.  Ruiz equilibration (uniform across each
cone block, so cone geometry is preserved) is applied internally only.
A certificate is tried at every iterate with kappa > tau and accepted only
when the unscaled ray passes its check; until mu < tol * 1e-2 or tau
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
# floor of each x diagonal entry of the factored reduced matrix, relative to
# that entry: REG alone rounds away next to a large one (see `_KKTSystem`)
REG_COLUMN = 1e-14
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
    the second-order cone slices of (G, h).  Each section's matrix is used
    as it is; `solve` checks the sizes of the form.
    """
    eq, bounds, cones = program.equalities, program.bounds, program.cones
    A, B, C = eq.matrix, bounds.matrix, cones.matrix

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
        """Sparse W^{-1}, used to fold the scaling into the KKT matrices.

        The full matrix holds W^{-1}G and an identity (3,3) block instead
        of G and W^2, which halves its exponent range: refinement residuals
        on it stay accurate when the barrier parameter gets small.  The
        factored reduced matrix holds (W^{-1}G)'(W^{-1}G) = G'W^{-2}G, with
        the full range; refinement against the full matrix recovers what
        its factor loses.  The pattern is the same at every iterate, so
        `data` lines up with the maps that `_KKTSystem` builds once per
        solve.
        """
        indptr, indices, _, positions = self.spec.block_diag
        data = np.empty(indices.size)
        data[: self.spec.orthant] = 1.0 / self.w_orth
        for (_, _, w_inv), at in zip(self.soc, positions):
            data[at] = w_inv
        m = self.spec.total
        return sp.csc_matrix((data, indices, indptr), shape=(m, m))


class _KKTSystem:
    """The KKT system of one solve, factored with the cone block eliminated.

    The full matrix of a Newton step is

            [ 0        A'   (W^{-1}G)' ]
        M = [ A        0    0          ]
            [ W^{-1}G  0    -I         ]

    and the factored one is what is left of M + diag(REG, -REG, -REG) once
    its third block row, dz = (W^{-1}G dx - r_z) / (1 + REG), is
    substituted into the others:

        R = [ H + diag(max(REG, REG_COLUMN h_jj))  A'   ]
            [ A                                    -REG ]

    with H = (W^{-1}G)'(W^{-1}G) / (1 + REG) and h_jj its diagonal.  This
    is the system CVXOPT's `chol2` factors (Vandenberghe, "The CVXOPT linear
    and quadratic cone program solvers", 2010): it has n + p rows instead
    of n + p + m, and its factor about half the fill.  The diagonal floor
    is relative because REG alone rounds away next to a large h_jj: when
    [A; G] lacks full column rank, R would then be singular to working
    precision.  Refinement stays on M, as ECOS refines against its expanded
    system (Domahidi, Chu & Boyd, ECC 2013): R holds G'W^{-2}G, whose
    exponent range is twice that of W^{-1}G, and the residuals on the
    exact M give back the digits that its factor loses.

    Row i of W^{-1}G combines the rows of G in the block of i, so its
    pattern is, per cone, the union of the columns its rows touch; H's
    pattern is the union of the column pairs within each row of W^{-1}G.
    The constructor records each product W^{-1}[i, k] G[k, j] as a (W^{-1}
    data position, G value, W^{-1}G entry) triple, and each pair of entries
    of one W^{-1}G row as an H entry.  `refill` then writes only those
    values, in place, into `exact` (M in extended precision, for refinement
    residuals) and `reduced` (R, the matrix that is factored).  Every sum
    is an `np.bincount`, whose order is fixed and which never reaches BLAS.

    Only R is stored permuted: R[i, j] holds the entry of rows perm[i] and
    perm[j] of the (x, y) system, with perm the reverse Cuthill-McKee order
    of R's fixed pattern (George & Liu, 1981).  Each grid interval couples
    only to its neighbours, so in that order R is narrowly banded and
    SuperLU factors it as it stands (natural column order, partial pivoting
    kept), with no fill-reducing ordering recomputed per factor.  M, W^{-1}G
    and every (x, y, z) vector stay in the problem's own order; the
    permutation is applied only around the triangular solves.
    """

    def __init__(self, A: sp.csr_matrix, G: sp.csr_matrix, spec: ConeSpec):
        p, n = A.shape
        m = G.shape[0]
        R = self._R = n + p
        w_indptr, _, first, _ = spec.block_diag
        row = np.repeat(np.arange(m), np.diff(G.indptr))
        size = np.diff(w_indptr)[row]
        entry = np.repeat(np.arange(G.nnz), size)
        offset = np.arange(entry.size) - np.repeat(np.cumsum(size) - size, size)
        k = row[entry]
        self._w_at = (w_indptr[k] + offset).astype(np.int32)
        self._g_vals = G.data[entry]
        keys, target = np.unique((first[k] + offset) * n + G.indices[entry], return_inverse=True)
        # keys sort by row, then column: W^{-1}G's CSR order
        wg_row, wg_col = keys // n, keys % n
        self._target = target.astype(np.int32)
        del row, size, entry, offset, k, keys, target

        # each W^{-1}G entry pairs with itself and the entries after it in
        # its row; H's diagonal is in the pattern whether a pair reaches it
        # or not
        count = np.searchsorted(wg_row, wg_row, side="right") - np.arange(wg_row.size)
        a = np.repeat(np.arange(wg_row.size), count)
        b = a + np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
        diag = np.arange(n) * (n + 1)
        h_keys, h_target = np.unique(np.concatenate((wg_col[a] * n + wg_col[b], diag)), return_inverse=True)
        self._h_a, self._h_b = a.astype(np.int32), b.astype(np.int32)
        self._h_target = h_target[: a.size].astype(np.int32)
        self._h_diag = np.searchsorted(h_keys, diag).astype(np.int32)
        h_row, h_col = h_keys // n, h_keys % n
        off = np.flatnonzero(h_row != h_col)
        self._h_off = off.astype(np.int32)
        del count, a, b, h_target, diag

        A = A.tocoo()
        y_diag = n + np.arange(p)
        rows = np.concatenate((h_row, h_col[off], y_diag, n + A.row, A.col))
        cols = np.concatenate((h_col, h_row[off], y_diag, A.col, n + A.row))
        if R:
            # imported here: the package is imported by `topp verify` too,
            # which never solves, and csgraph adds about 1.3 MB to its RSS
            from scipy.sparse.csgraph import reverse_cuthill_mckee

            pattern = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(R, R))
            self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
            del pattern
        else:
            self.perm = np.zeros(0, dtype=np.intp)
        label = np.empty(R, dtype=np.intp)
        label[self.perm] = np.arange(R)
        values = np.concatenate((np.zeros(h_keys.size + off.size), np.full(p, -REG), A.data, A.data))
        arrays, slot = _csc_arrays(label[rows], label[cols], values, R)
        self.reduced = sp.csc_matrix(arrays, shape=(R, R))
        self._h_slots = slot[: h_keys.size]
        self._h_mirror = slot[h_keys.size : h_keys.size + off.size]
        del h_keys, h_row, h_col, off, rows, cols, values, slot, label

        self._wg = sp.csr_matrix(
            (np.zeros(wg_row.size), wg_col, np.searchsorted(wg_row, np.arange(m + 1))), shape=(m, R)
        )
        self._wg_t = self._wg.T  # shares the data array
        # M is symmetric, so its CSC arrays read as CSR are M again; the
        # row-wise CSR product is the faster one
        z_diag = R + np.arange(m)
        rows = np.concatenate((R + wg_row, wg_col, z_diag, n + A.row, A.col))
        cols = np.concatenate((wg_col, R + wg_row, z_diag, A.col, n + A.row))
        values = np.concatenate((np.zeros(2 * wg_row.size), -np.ones(m), A.data, A.data))
        arrays, slot = _csc_arrays(rows, cols, values.astype(np.longdouble), R + m)
        self.exact = sp.csr_matrix(arrays, shape=(R + m, R + m))
        self._wg_slots = slot[: 2 * wg_row.size]

    def refill(self, w_inv: sp.csc_matrix):
        """Write the W^{-1}G values of the current scaling into M, and the
        values they give into R."""
        wg = np.bincount(self._target, weights=w_inv.data[self._w_at] * self._g_vals, minlength=self._wg.nnz)
        self._wg.data[:] = wg
        self.exact.data[self._wg_slots] = np.concatenate((wg, wg))
        pairs = wg[self._h_a] * wg[self._h_b]
        h = np.bincount(self._h_target, weights=pairs, minlength=self._h_slots.size) / (1.0 + REG)
        diag = h[self._h_diag]
        h[self._h_diag] = diag + np.maximum(REG, REG_COLUMN * diag)
        self.reduced.data[self._h_slots] = h
        self.reduced.data[self._h_mirror] = h[self._h_off]

    def factor(self):
        """Factor R; SuperLU raises RuntimeError when it is singular."""
        # One-column panels: on these narrowly banded matrices the default
        # multi-column panel fills dense work arrays it barely uses, which
        # costs a quarter of the factor time.
        self._lu = splu(self.reduced, permc_spec="NATURAL", panel_size=1)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """The regularized system's solution through the factor of R."""
        R = self._R
        rz = rhs[R:]
        xy = np.empty(R)
        xy[self.perm] = self._lu.solve((rhs[:R] + self._wg_t @ rz / (1.0 + REG))[self.perm])
        return np.concatenate((xy, (self._wg @ xy - rz) / (1.0 + REG)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M v = rhs by one solve with the last factor, unrefined."""
        return self._solve(rhs)

    def refined_solve(self, rhs: np.ndarray) -> np.ndarray:
        """M v = rhs by the last factor, refined against the exact M.

        Near convergence mu falls toward the regularization level and the
        raw solve is too inaccurate to step with.  Residuals are formed on
        the full M in extended precision: the refinement plateau sits at
        the residual roundoff times the KKT condition number, and the
        handful of extra digits is what lets the gap reach tolerance on
        problems whose cones are all active at the optimum.  Each step
        corrects the whole (x, y, z).  The iteration refines the two
        directions a step is made of, u1 and the corrector; the predictor,
        which only sizes the centering, takes the plain `_KKTSystem.solve`.
        """
        rhs_ld = rhs.astype(np.longdouble)
        sol = self._solve(rhs).astype(np.longdouble)
        resid = rhs_ld - self.exact @ sol
        best, best_res = sol, _norm(resid.astype(np.float64))
        floor = 1e-16 * (_norm(rhs) + 1.0)
        for _ in range(REFINE_STEPS):
            if best_res <= floor:
                break
            sol = sol + self._solve(resid.astype(np.float64))
            resid = rhs_ld - self.exact @ sol
            res = _norm(resid.astype(np.float64))
            if res < best_res:
                best, best_res = sol, res
            else:
                break
        return best.astype(np.float64)


def _csc_arrays(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, size: int) -> tuple:
    """((data, indices, indptr), slot): the CSC arrays of the size x size
    matrix with entries (rows, cols, values), none repeated, and the data
    position of each entry."""
    order = np.argsort(cols * size + rows)
    slot = np.empty(order.size, dtype=np.int32)
    slot[order] = np.arange(order.size)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=size))))
    return (values[order], rows[order], indptr), slot


def _inverse_sqrt(v: np.ndarray) -> np.ndarray:
    """1 / sqrt(v), with 1 where v is not positive."""
    return 1.0 / np.sqrt(np.where(v > 0, v, 1.0))


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
    for _ in range(iters):
        mag = np.abs(M.data)
        col_max = np.zeros(n)
        np.maximum.at(col_max, M.indices, mag)
        row_max = np.zeros(M.shape[0])
        np.maximum.at(row_max, row, mag)
        col_scale = _inverse_sqrt(col_max)
        row_scale = _inverse_sqrt(row_max)
        for g in spec.groups:
            row_scale[p + g.index] = _inverse_sqrt(row_max[p + g.index].max(axis=1))[:, None]
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


def _infeasibility_certificate(form, x, y, z, s, tol, relative) -> tuple | None:
    """(status, certificate) when the homogeneous point, read as a ray,
    passes the primal and then the dual certificate check on the unscaled
    data (`relative` as in those checks)."""
    cert = _check_primal_infeasibility_certificate(form, y, z, tol, relative)
    if cert is not None:
        return PRIMAL_INFEASIBLE, cert
    cert = _check_dual_infeasibility_certificate(form, x, s, tol, relative)
    if cert is not None:
        return DUAL_INFEASIBLE, cert
    return None


class _Point(NamedTuple):
    """A point (x, y, z, s, tau, kappa) of the homogeneous model, or a
    direction from one."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray
    tau: float
    kappa: float

    def step(self, alpha: float, d: _Point) -> _Point:
        return _Point(*(v + alpha * dv for v, dv in zip(self, d)))

    def mu(self, nu: int) -> float:
        """(s'z + tau kappa) / nu, nu the degree of the cone plus one."""
        return (_dot(self.s, self.z) + self.tau * self.kappa) / nu


class _Scaled:
    """The problem as the iteration sees it: Ruiz-equilibrated
    (`_ruiz_equilibrate`), with its right-hand sides and its cost divided by
    clamped scalars.

    The scalars keep the initial homogeneous residuals O(1).  The divisor
    is clamped: every decade of scaling spent here is a decade lost from
    the achievable unscaled duality gap, so outlier data (say a 1e6 box
    limit on an O(1) problem) is tamed only partially rather than at the
    expense of the 1e-8 gap target.
    """

    def __init__(self, form: StandardConicForm):
        self.A, self.G, self.d_col, self.d_eq, self.d_in = _ruiz_equilibrate(form)
        self.AT, self.GT = self.A.T.tocsr(), self.G.T.tocsr()
        bs = self.d_eq * form.b
        hs = self.d_in * form.h
        rhs_norm = float(np.abs(np.concatenate((bs, hs))).max(initial=0.0))
        self.rhs_scale = 1.0 / min(max(1.0, rhs_norm), 1e3)
        self.b = self.rhs_scale * bs
        self.h = self.rhs_scale * hs
        cost_norm = float(np.abs(self.d_col * form.c).max(initial=0.0))
        self.cost_scale = 1.0 / min(max(1.0, cost_norm), 1e3)
        self.c = self.cost_scale * self.d_col * form.c

    def unscale(self, point: _Point) -> tuple:
        """(x, y, z, s) of a point, on the problem's own data."""
        return (
            self.d_col * point.x / self.rhs_scale,
            self.d_eq * point.y / self.cost_scale,
            self.d_in * point.z / self.cost_scale,
            point.s / self.d_in / self.rhs_scale,
        )


class _Newton:
    """The Newton systems of the homogeneous model at one iterate.

    Built once the KKT matrix of the iterate's scaling is factored.  It
    holds the residuals of the model, the tau direction u1 (the solve with
    right-hand side (-c, b, W^{-1} h), which enters every dtau) and dtau's
    denominator; `direction` then costs one more solve.  The z parts of
    the solves stay in scaled form (W z): W^{-1} is symmetric, so
    h'z = (W^{-1} h)'(W z), and dz needs one W^{-1}.
    """

    def __init__(self, data: _Scaled, kkt: _KKTSystem, scal: Scaling, point: _Point, mu: float):
        self.data, self.kkt, self.scal, self.point, self.mu = data, kkt, scal, point, mu
        x, y, z, s, tau, kappa = point
        self.rx = data.AT @ y + data.GT @ z + data.c * tau
        self.ry = data.A @ x - data.b * tau
        self.rz = data.G @ x + s - data.h * tau
        self.rtau = _dot(data.c, x) + _dot(data.b, y) + _dot(data.h, z) + kappa
        self.h_t = scal.apply_inverse(data.h)
        self.u1 = self._solve(-data.c, data.b, self.h_t)
        self.denom_tau = self._potential(self.u1) - kappa / tau
        self.rz_t = scal.apply_inverse(self.rz)

    def _solve(self, vx, vy, vz, refine=True) -> tuple:
        rhs = np.concatenate([vx, vy, vz])
        out = self.kkt.refined_solve(rhs) if refine else self.kkt.solve(rhs)
        n, p = self.data.c.size, self.data.b.size
        return out[:n], out[n : n + p], out[n + p :]

    def _potential(self, u: tuple) -> float:
        data = self.data
        return _dot(data.c, u[0]) + _dot(data.b, u[1]) + _dot(self.h_t, u[2])

    def direction(self, sigma: float, comp_t: np.ndarray, dkappa_extra: float, refine: bool = True) -> tuple:
        """(d, W dz) for centering sigma, d a `_Point` direction.

        comp_t solves lam o comp_t = d_s, where d_s is the right-hand side
        of the complementarity row lam o (W^{-1} ds + W dz) = d_s.  With
        refine=False the solve is one plain triangular solve.
        """
        data, tau, kappa = self.data, self.point.tau, self.point.kappa
        d_k = sigma * self.mu - tau * kappa + dkappa_extra
        fac = 1.0 - sigma
        # third row in scaled variables: W^{-1}G dx - (W dz) = W^{-1}vz
        u2 = self._solve(-fac * self.rx, -fac * self.ry, -fac * self.rz_t - comp_t, refine)
        dtau = (-fac * self.rtau - d_k / tau - self._potential(u2)) / self.denom_tau
        dx, dy, dz_t = (v2 + dtau * v1 for v2, v1 in zip(u2, self.u1))
        # ds via the slack feasibility row, not the complementarity row:
        # the latter multiplies dz's solve error by W^2, which is huge for
        # blocks pinched on the cone boundary
        ds = -fac * self.rz - data.G @ dx + data.h * dtau
        dkappa = (d_k - kappa * dtau) / tau
        return _Point(dx, dy, self.scal.apply_inverse(dz_t), ds, dtau, dkappa), dz_t


def _step_length(spec: ConeSpec, point: _Point, d: _Point, fraction: float) -> float:
    """The longest step along d, at most 1, that covers at most `fraction`
    of the distance from point to the boundary of K x K x R+ x R+."""
    alpha = min(1.0, fraction * max_step(spec, point.s, d.s), fraction * max_step(spec, point.z, d.z))
    if d.tau < 0.0:
        alpha = min(alpha, fraction * (-point.tau / d.tau))
    if d.kappa < 0.0:
        alpha = min(alpha, fraction * (-point.kappa / d.kappa))
    return alpha


def _check_form(form: StandardConicForm) -> None:
    """Raise ValueError naming the first field of form whose size disagrees
    with the size of c or with the row counts of A and G."""
    n, p, m = form.c.size, form.A.shape[0], form.G.shape[0]
    for size, want, message in (
        (form.A.shape[1], n, "A has {} columns, c has {} entries"),
        (form.b.size, p, "b has {} entries, A has {} rows"),
        (form.G.shape[1], n, "G has {} columns, c has {} entries"),
        (form.h.size, m, "h has {} entries, G has {} rows"),
        (form.cones.total, m, "the cones span {} rows, G has {} rows"),
    ):
        if size != want:
            raise ValueError(message.format(size, want))


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
    _check_form(form)
    # every decision reads the unscaled iterate on the original data
    spec = form.cones
    data = _Scaled(form)
    kkt = _KKTSystem(data.A, data.G, spec)
    e = cone_identity(spec)
    point = _Point(np.zeros(data.c.size), np.zeros(data.b.size), e, e, 1.0, 1.0)
    nu = spec.degree + 1

    history: list[dict] = []
    stalls = 0
    certificate = None
    # a stored zero is no coefficient: it must never become a pivot
    A = form.A.tocsr(copy=True)
    A.eliminate_zeros()
    ray = _row_conflict(A, form.b, tol)
    if ray is not None:
        # conflicting rows are checked like any certificate; one that
        # passes leaves nothing to iterate
        certificate = _check_primal_infeasibility_certificate(form, ray, np.zeros(form.G.shape[0]), tol)
    status = MAX_ITERATIONS if certificate is None else PRIMAL_INFEASIBLE
    last_residuals: dict = {}
    iteration = 0

    for iteration in range(1, (MAX_ITER if certificate is None else 0) + 1):
        try:
            scal = Scaling(spec, point.s, point.z)
        except FloatingPointError:
            status = NUMERICAL_FAILURE
            break
        lam = scal.apply(point.z)
        mu = point.mu(nu)
        # The scaling is folded in as W^{-1}G.  The factored reduced matrix
        # holds G'W^{-2}G, whose range W^2 squares near the cone boundary,
        # so the directions that steps are made of are refined against the
        # full matrix, where W^{-1}G and an identity block keep that range
        # halved.
        kkt.refill(scal.w_inv_matrix())
        try:
            kkt.factor()
        except RuntimeError:
            status = NUMERICAL_FAILURE
            break
        newton = _Newton(data, kkt, scal, point, mu)

        # predictor: d_s = -lam o lam, so comp_t = -lam.  It only sizes
        # sigma and the second-order term, so its solve is not refined.
        pred, pred_z_t = newton.direction(0.0, -lam, 0.0, refine=False)
        mu_aff = point.step(_step_length(spec, point, pred, 1.0), pred).mu(nu)
        sigma = float(np.clip((mu_aff / mu) ** 3, 0.0, 1.0))

        # corrector
        corr = -jordan_product(spec, scal.apply_inverse(pred.s), pred_z_t)
        d_s = sigma * mu * e - jordan_product(spec, lam, lam) + corr
        d, _ = newton.direction(sigma, jordan_solve(spec, lam, d_s), -pred.tau * pred.kappa)
        alpha = _step_length(spec, point, d, STEP_FRACTION)
        if not np.isfinite(alpha) or alpha <= 0.0:
            status = NUMERICAL_FAILURE
            break
        point = point.step(alpha, d)
        tau, kappa = point.tau, point.kappa
        if not (np.all(np.isfinite(point.x)) and np.isfinite(tau) and tau > 0.0):
            status = NUMERICAL_FAILURE
            break

        rep = verify_kkt(form, *(v / tau for v in data.unscale(point)))
        last_residuals = rep
        step = {"iteration": iteration, "mu": mu, "sigma": sigma, "alpha": float(alpha), "tau": tau, "kappa": kappa}
        history.append({**step, **{k: rep[k] for k in ("pcost", "dcost", "primal_eq", "primal_in", "dual", "gap")}})

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
            found = _infeasibility_certificate(form, *data.unscale(point), tol, early)
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

    x, y, z, s = data.unscale(point)
    if status in (OPTIMAL, MAX_ITERATIONS) and point.tau > 0.0:
        x, y, z, s = (v / point.tau for v in (x, y, z, s))
    objective = _dot(form.c, x) if status in (OPTIMAL, MAX_ITERATIONS) else math.nan
    return SolveReport(
        status, x, y, z, s, point.tau, point.kappa, objective, iteration, last_residuals, history,
        wall_time=time.perf_counter() - t0,
        certificate=certificate,
    )


def solve_conic_program(program, tol: float = TOL):
    """Canonicalize and solve a transcription-level program."""
    form = canonicalize(program)
    report = solve(form, tol)
    solution = program.extract(report.x) if report.status == OPTIMAL else None
    return report, solution
