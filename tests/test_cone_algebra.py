"""Batched cone algebra and the fixed-pattern KKT build against a per-cone oracle.

The oracle below is the scalar, one-cone-at-a-time implementation the
solver used before its cone layer was batched by cone size.  It is kept
here only as an independent reference: every batched operation must agree
with it to 1e-12 relative on random specs (orthant 0-4, cone sizes 1-5 in
any order) at strictly interior points, including points close to the
cone boundary.  The KKT system factors the reduced matrix left after the
cone block is eliminated, in its own ordering, so a dense reduced oracle is
permuted by that ordering before comparing; the full exact matrix, kept in
the problem's order, is held to the block-by-block oracle, and the plain and
refined solves through the permuted factor are held to dense solves in the
original order.

The equilibration is checked the same way against the loop it replaced,
which rebuilt the stacked matrix and rescaled it by sparse products on every
pass: scalings and scaled matrices must agree exactly.
"""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact_topp import solver
from contact_topp.solver import (
    EQUILIBRATE_ITERS,
    REG,
    REG_COLUMN,
    ConeSpec,
    Scaling,
    StandardConicForm,
    _KKTSystem,
    _ruiz_equilibrate,
    cone_identity,
    cone_residual,
    jordan_product,
    jordan_solve,
    max_step,
    solve,
)
from contact_topp.scenario import assemble_scenario, load_scenario
from contact_topp.solver import canonicalize
from contact_topp.transcription import build_grid
from test_solver import form

RTOL = 1e-12
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# -- oracle: one Python iteration per cone ------------------------------------


def oracle_blocks(spec):
    at = spec.orthant
    for d in spec.socs:
        yield at, d
        at += d


def oracle_cone_residual(spec, v):
    worst = 0.0
    if spec.orthant:
        worst = max(worst, float(np.max(-v[: spec.orthant], initial=0.0)))
    for at, d in oracle_blocks(spec):
        worst = max(worst, float(np.linalg.norm(v[at + 1 : at + d]) - v[at]))
    return worst


def oracle_jordan_product(spec, u, v):
    out = np.empty(spec.total)
    o = spec.orthant
    out[:o] = u[:o] * v[:o]
    for at, d in oracle_blocks(spec):
        u0, u1 = u[at], u[at + 1 : at + d]
        v0, v1 = v[at], v[at + 1 : at + d]
        out[at] = u0 * v0 + u1 @ v1
        out[at + 1 : at + d] = u0 * v1 + v0 * u1
    return out


def oracle_jordan_solve(spec, lam, v):
    out = np.empty(spec.total)
    o = spec.orthant
    out[:o] = v[:o] / lam[:o]
    for at, d in oracle_blocks(spec):
        l0, l1 = lam[at], lam[at + 1 : at + d]
        v0, v1 = v[at], v[at + 1 : at + d]
        nl1 = float(np.linalg.norm(l1))
        det = (l0 - nl1) * (l0 + nl1)
        u0 = (l0 * v0 - l1 @ v1) / det
        out[at] = u0
        out[at + 1 : at + d] = (v1 - u0 * l1) / l0
    return out


def oracle_max_step(spec, v, dv):
    t = np.inf
    o = spec.orthant
    neg = dv[:o] < 0.0
    if np.any(neg):
        t = min(t, float(np.min(-v[:o][neg] / dv[:o][neg])))
    for at, d in oracle_blocks(spec):
        v0, v1 = v[at], v[at + 1 : at + d]
        d0, d1 = dv[at], dv[at + 1 : at + d]
        a = d0 * d0 - d1 @ d1
        bq = v0 * d0 - v1 @ d1
        nv1 = float(np.linalg.norm(v1))
        cq = (v0 - nv1) * (v0 + nv1)
        if abs(a) < 1e-300:
            if bq < 0.0:
                t = min(t, -cq / (2.0 * bq))
            continue
        disc = bq * bq - a * cq
        if disc < 0.0:
            if a < 0.0:
                disc = 0.0
            else:
                continue
        root = math.sqrt(max(disc, 0.0))
        for cand in ((-bq - root) / a, (-bq + root) / a):
            if cand > 0.0 and v0 + cand * d0 >= 0.0:
                t = min(t, cand)
    return t


class OracleScaling:
    def __init__(self, spec, s, z):
        self.spec = spec
        o = spec.orthant
        self.w_orth = np.sqrt(s[:o] / z[:o])
        self.soc = []
        for at, d in oracle_blocks(spec):
            s0, s1 = s[at], s[at + 1 : at + d]
            z0, z1 = z[at], z[at + 1 : at + d]
            ns1 = float(np.linalg.norm(s1))
            nz1 = float(np.linalg.norm(z1))
            s_res = (s0 - ns1) * (s0 + ns1)
            z_res = (z0 - nz1) * (z0 + nz1)
            sbar = np.concatenate(([s0], s1)) / math.sqrt(s_res)
            zbar = np.concatenate(([z0], z1)) / math.sqrt(z_res)
            gamma = math.sqrt((1.0 + sbar @ zbar) / 2.0)
            wbar = np.empty(d)
            wbar[0] = (sbar[0] + zbar[0]) / (2.0 * gamma)
            wbar[1:] = (sbar[1:] - zbar[1:]) / (2.0 * gamma)
            eta = (s_res / z_res) ** 0.25
            self.soc.append((at, d, eta, wbar))

    @staticmethod
    def soc_matrix(eta, wbar):
        d = wbar.size
        W = np.empty((d, d))
        W[0, 0] = wbar[0]
        W[0, 1:] = wbar[1:]
        W[1:, 0] = wbar[1:]
        W[1:, 1:] = np.eye(d - 1) + np.outer(wbar[1:], wbar[1:]) / (1.0 + wbar[0])
        return eta * W

    def apply(self, v):
        out = np.empty(self.spec.total)
        o = self.spec.orthant
        out[:o] = self.w_orth * v[:o]
        for at, d, eta, wbar in self.soc:
            out[at : at + d] = self.soc_matrix(eta, wbar) @ v[at : at + d]
        return out

    def apply_inverse(self, v):
        out = np.empty(self.spec.total)
        o = self.spec.orthant
        out[:o] = v[:o] / self.w_orth
        for at, d, eta, wbar in self.soc:
            Wb = self.soc_matrix(1.0, wbar)
            block = v[at : at + d].copy()
            block[1:] *= -1.0
            block = Wb @ block
            block[1:] *= -1.0
            out[at : at + d] = block / eta
        return out

    def w_inv_dense(self):
        out = np.zeros((self.spec.total, self.spec.total))
        o = self.spec.orthant
        out[range(o), range(o)] = 1.0 / self.w_orth
        for at, d, eta, wbar in self.soc:
            sign = np.ones(d)
            sign[1:] = -1.0
            out[at : at + d, at : at + d] = sign[:, None] * self.soc_matrix(1.0, wbar) * sign[None, :] / eta
        return out


def oracle_kkt(A, G, w_inv):
    """The exact KKT matrix, assembled block by block."""
    n, p, m = A.shape[1], A.shape[0], G.shape[0]
    Gt = sp.csr_matrix(w_inv) @ G
    return sp.bmat(
        [
            [sp.csc_matrix((n, n)), A.T, Gt.T],
            [A, sp.csc_matrix((p, p)), None],
            [Gt, None, -sp.identity(m)],
        ],
        format="csc",
    ).toarray()


def oracle_reduced(A, G, w_inv, reg):
    """The reduced matrix [[H + diag(max(reg, REG_COLUMN h_jj)), A'], [A, -reg I]],
    H = (W^{-1}G)'(W^{-1}G) / (1 + reg): the regularized KKT matrix with its
    cone block eliminated, plus the per-column diagonal floor."""
    n, p = A.shape[1], A.shape[0]
    Gt = w_inv @ G.toarray()
    H = Gt.T @ Gt / (1.0 + reg)
    d = np.diag(H).copy()
    H[range(n), range(n)] = d + np.maximum(reg, REG_COLUMN * d)
    return np.block([[H, A.toarray().T], [A.toarray(), -reg * np.eye(p)]])


# -- random instances ---------------------------------------------------------


@st.composite
def specs(draw):
    orthant = draw(st.integers(0, 4))
    socs = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=7)))
    return ConeSpec(orthant=orthant, socs=socs)


def interior_point(spec, rng, near_boundary):
    """A strictly interior point; with near_boundary, some coordinates or
    cones sit within a relative 1e-3..1e-7 of the boundary."""
    v = np.empty(spec.total)
    o = spec.orthant
    v[:o] = rng.uniform(0.1, 3.0, o)
    if near_boundary and o:
        v[:o][rng.random(o) < 0.5] *= 1e-5
    for at, d in oracle_blocks(spec):
        tail = rng.normal(size=d - 1) * rng.uniform(0.1, 3.0)
        norm = float(np.linalg.norm(tail))
        if near_boundary and d > 1 and rng.random() < 0.5:
            margin = 10.0 ** rng.uniform(-7.0, -3.0)
        else:
            margin = rng.uniform(0.05, 2.0)
        v[at] = norm * (1.0 + margin) + (margin if norm == 0.0 else 0.0)
        v[at + 1 : at + d] = tail
    return v


cases = st.tuples(specs(), st.integers(0, 2**32 - 1), st.booleans())


def assert_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def assert_step_close(got, want):
    if math.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= RTOL * abs(want)


# -- properties -----------------------------------------------------------------


class TestAgainstOracle:
    @settings(max_examples=150)
    @given(cases)
    def test_jordan_product(self, case):
        spec, seed, _ = case
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=(2, spec.total))
        assert_close(jordan_product(spec, u, v), oracle_jordan_product(spec, u, v))

    @settings(max_examples=150)
    @given(cases)
    def test_jordan_solve(self, case):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        lam = interior_point(spec, rng, near)
        v = rng.normal(size=spec.total)
        assert_close(jordan_solve(spec, lam, v), oracle_jordan_solve(spec, lam, v))

    @pytest.mark.parametrize("head", [1.0, 0.5, 0.0])
    def test_jordan_solve_refuses_a_boundary_point(self, head):
        # a determinant that is zero or negative has no inverse: the solve
        # raises, as Scaling does, rather than divide by it
        spec = ConeSpec(orthant=1, socs=(3,))
        lam = np.array([1.0, head, 0.6, 0.8])
        with pytest.raises(FloatingPointError, match="cone interior"):
            jordan_solve(spec, lam, np.ones(4))

    @settings(max_examples=200)
    @given(cases)
    def test_max_step(self, case):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        v = interior_point(spec, rng, near)
        dv = rng.normal(size=spec.total) * 10.0 ** rng.uniform(-2.0, 2.0)
        assert_step_close(max_step(spec, v, dv), oracle_max_step(spec, v, dv))

    @settings(max_examples=150)
    @given(cases)
    def test_cone_residual(self, case):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        inside = interior_point(spec, rng, near)
        anywhere = rng.normal(size=spec.total)
        for v in (inside, anywhere):
            got, want = cone_residual(spec, v), oracle_cone_residual(spec, v)
            assert abs(got - want) <= RTOL * max(1.0, float(np.max(np.abs(v), initial=0.0)))
        assert cone_residual(spec, inside) == 0.0

    @settings(max_examples=150)
    @given(cases)
    def test_scaling(self, case):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        s = interior_point(spec, rng, near)
        z = interior_point(spec, rng, near)
        v = rng.normal(size=spec.total)
        scal, ref = Scaling(spec, s, z), OracleScaling(spec, s, z)
        assert_close(scal.apply(v), ref.apply(v))
        assert_close(scal.apply_inverse(v), ref.apply_inverse(v))
        w_inv = scal.w_inv_matrix()
        assert w_inv.format == "csc" and w_inv.shape == (spec.total, spec.total)
        assert_close(w_inv.toarray(), ref.w_inv_dense())

    @settings(max_examples=150)
    @given(cases)
    def test_nesterov_todd_identities(self, case):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        s = interior_point(spec, rng, near)
        z = interior_point(spec, rng, near)
        v = rng.normal(size=spec.total)
        scal = Scaling(spec, s, z)
        # W z = W^{-1} s (the scaled point lambda), and W^{-1} undoes W; W
        # has condition number up to ~1e7 at the near-boundary points, which
        # is what the tolerance allows for
        tol = 1e-12 if not near else 1e-8
        lam = scal.apply(z)
        np.testing.assert_allclose(lam, scal.apply_inverse(s), rtol=tol, atol=tol * np.max(np.abs(lam), initial=1.0))
        np.testing.assert_allclose(scal.w_inv_matrix() @ scal.apply(v), v, rtol=tol, atol=tol * np.max(np.abs(v), initial=1.0))

    @settings(max_examples=60)
    @given(cases, st.integers(0, 3), st.integers(1, 6))
    # p + m < n: [A; G] lacks full column rank, and only the diagonal floor
    # keeps the reduced matrix's x block from being singular
    @example((ConeSpec(orthant=1, socs=(2,)), 7, False), 1, 6)
    @example((ConeSpec(orthant=1, socs=(2,)), 8, True), 1, 6)
    def test_kkt_refill(self, case, p, n):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        A = sp.random(p, n, density=0.6, random_state=rng, format="csr")
        G = sp.random(spec.total, n, density=0.5, random_state=rng, format="csr")
        assert_kkt_matches_oracle(spec, A, G, rng, near)

    @settings(max_examples=60)
    @given(cases, st.integers(0, 3), st.integers(1, 6))
    @example((ConeSpec(orthant=1, socs=(2,)), 7, False), 1, 6)  # p + m < n
    def test_kkt_plain_solve(self, case, p, n):
        spec, seed, near = case
        rng = np.random.default_rng(seed)
        A = sp.random(p, n, density=0.6, random_state=rng, format="csr")
        G = sp.random(spec.total, n, density=0.5, random_state=rng, format="csr")
        got, want, reduced = plain_solve_and_dense(spec, A, G, rng, near)
        # the forward error is at most cond(R) times the backward error; a
        # rank-deficient A or [A; G] (as in the p + m < n example) or a
        # scaling near the cone boundary takes cond(R) to 1e11 and beyond,
        # where only refinement against M gives the last digits back
        if np.linalg.cond(reduced) < 1e6:
            assert_solve_close(got, want)


def plain_solve_and_dense(spec, A, G, rng, near=False):
    """(got, want, R): `solve` after refill and factor on a random
    right-hand side, and the dense reference in the original order, (x, y)
    from the dense reduced matrix R and z = (W^{-1}G x - r_z) / (1 + REG).

    Whatever R's conditioning, got solves the dense reduced system to a
    backward error of 1e-12, and its z follows from its x.
    """
    n, p = A.shape[1], A.shape[0]
    kkt = _KKTSystem(A, G, spec)
    w_inv = Scaling(spec, interior_point(spec, rng, near), interior_point(spec, rng, near)).w_inv_matrix()
    kkt.refill(w_inv)
    kkt.factor()
    wg = w_inv.toarray() @ G.toarray()
    rhs = rng.normal(size=n + p + G.shape[0])
    rx, ry, rz = np.split(rhs, [n, n + p])
    reduced = oracle_reduced(A, G, w_inv.toarray(), REG)
    b = np.concatenate((rx + wg.T @ rz / (1.0 + REG), ry))
    xy = np.linalg.solve(reduced, b)
    want = np.concatenate((xy, (wg @ xy[:n] - rz) / (1.0 + REG)))
    got = kkt.solve(rhs)
    assert_backward(reduced, got[: n + p], b)
    assert_backward(wg, got[:n], rz + (1.0 + REG) * got[n + p :])  # z follows from x
    return got, want, reduced


def assert_backward(matrix, v, r):
    """matrix v = r to a backward error of 1e-12."""
    scale = np.max(np.abs(matrix), initial=0.0) * np.max(np.abs(v), initial=0.0) + np.max(np.abs(r), initial=0.0)
    assert np.max(np.abs(matrix @ v - r), initial=0.0) <= 1e-12 * scale


def assert_solve_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))


def assert_kkt_matches_oracle(spec, A, G, rng, near=False):
    """The refilled matrices equal an assembly around the same W^{-1}
    (test_scaling checks W^{-1} itself against the oracle): the exact full
    matrix the block-by-block one, in the problem's order, and the factored
    reduced matrix the dense reduced one, permuted symmetrically by the
    system's recorded ordering of its n + p rows."""
    kkt = _KKTSystem(A, G, spec)
    R = A.shape[1] + A.shape[0]
    assert np.array_equal(np.sort(kkt.perm), np.arange(R))
    for _ in range(2):  # the second refill writes over the first
        w_inv = Scaling(spec, interior_point(spec, rng, near), interior_point(spec, rng, near)).w_inv_matrix()
        kkt.refill(w_inv)
        assert_close(kkt.exact.toarray().astype(float), oracle_kkt(A, G, w_inv.toarray()))
        reduced = oracle_reduced(A, G, w_inv.toarray(), 1e-11)
        assert_close(kkt.reduced.toarray(), reduced[np.ix_(kkt.perm, kkt.perm)])


def bandwidth(M):
    rows, cols = np.nonzero(M)
    return int(np.max(np.abs(rows - cols)))


def test_refined_solve_in_original_order():
    """On a path-structured KKT (pivoting at K=10), the factor of the
    permuted reduced matrix, refined against the full matrix and mapped
    back, solves M v = rhs as a dense solve in the original order does; the
    factored matrix has a far narrower band than M."""
    prob = canonicalize(assemble_scenario(load_scenario(SCENARIOS / "pivoting.json"), build_grid(10)))
    spec = prob.cones
    rng = np.random.default_rng(4)
    kkt = _KKTSystem(prob.A, prob.G, spec)
    w_inv = Scaling(spec, interior_point(spec, rng, False), interior_point(spec, rng, False)).w_inv_matrix()
    kkt.refill(w_inv)
    kkt.factor()
    M0 = oracle_kkt(prob.A, prob.G, w_inv.toarray())
    rhs = rng.normal(size=M0.shape[0])
    want = np.linalg.solve(M0, rhs)
    got = kkt.refined_solve(rhs, 0.0)  # mu = 0: refined to the floor alone
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))
    assert 4 * bandwidth(kkt.reduced.toarray()) < bandwidth(M0)


def test_plain_solve_in_original_order():
    """The unrefined solve through the permuted factor, on the
    path-structured KKT of pivoting at K=10, against the dense one."""
    prob = canonicalize(assemble_scenario(load_scenario(SCENARIOS / "pivoting.json"), build_grid(10)))
    got, want, _ = plain_solve_and_dense(prob.cones, prob.A, prob.G, np.random.default_rng(5))
    assert_solve_close(got, want)


# -- the order of the factored matrix: reverse Cuthill-McKee, leaves paired ----


def test_leaf_pairs_on_a_small_pattern():
    # 0 - 1 - 2 - 3 - 4 - 5 and 6 - 7, 8 alone: 0 and 5 are leaves of 1 and
    # 4, and 6 and 7 are leaves of each other
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)]
    rows = [i for e in edges for i in e] + [i for e in edges for i in e[::-1]] + list(range(9))
    cols = [i for e in edges for i in e[::-1]] + [i for e in edges for i in e] + list(range(9))
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(9, 9))
    order = np.array([8, 0, 2, 7, 4, 6, 3, 1, 5])
    # 1 moves up to just after its leaf 0, and 5 to just before its
    # neighbour 4; 6 and 7 keep their places
    assert solver._leaf_pairs(pattern, order).tolist() == [8, 0, 1, 2, 7, 5, 4, 6, 3]
    # two leaves of one neighbour go together, in order, at the earliest place
    star = sp.csr_matrix((np.ones(7), ([0, 1, 2, 0, 0, 1, 2], [0, 1, 2, 1, 2, 0, 0])), shape=(3, 3))
    assert solver._leaf_pairs(star, np.array([2, 0, 1])).tolist() == [2, 1, 0]


def rcm_alone():
    """A patch that leaves the reverse Cuthill-McKee order as it is."""
    return mock.patch.object(solver, "_leaf_pairs", lambda pattern, order: order)


@pytest.mark.parametrize("name", ["pivoting", "pickup", "arm_7dof"])
def test_each_leaf_is_factored_just_before_its_neighbour(name):
    prob = canonicalize(assemble_scenario(load_scenario(SCENARIOS / f"{name}.json"), build_grid(16)))
    kkt = _KKTSystem(prob.A, prob.G, prob.cones)
    with rcm_alone():
        rcm = _KKTSystem(prob.A, prob.G, prob.cones).perm
    # in the factored order, row i is row perm[i] of the (x, y) system
    pattern = kkt.reduced
    degree = np.diff(pattern.indptr) - 1
    leaf = np.flatnonzero(degree == 1)
    nbr = pattern.indices[pattern.indptr[leaf]] + pattern.indices[pattern.indptr[leaf] + 1] - leaf
    assert leaf.size >= 16 and (degree[nbr] > 1).all()
    assert (nbr == leaf + 1).all()
    # every other row keeps its RCM order, a neighbour taking the earlier
    # of its own RCM place and its leaf's
    where = np.empty_like(rcm)
    where[rcm] = np.arange(rcm.size)
    place = where[kkt.perm]
    place[nbr] = np.minimum(place[nbr], place[leaf])
    rest = np.setdiff1d(np.arange(rcm.size), leaf)
    assert (np.diff(place[rest]) > 0).all()


def most_lu_fill(form):
    """The largest L + U count of the factors of a solve of form."""
    counts = []
    factor = _KKTSystem.factor

    def counting(kkt):
        factor(kkt)
        counts.append(kkt._lu.L.nnz + kkt._lu.U.nnz)

    with mock.patch.object(_KKTSystem, "factor", counting):
        assert solve(form).status == "Optimal"
    return max(counts)


@pytest.mark.parametrize("name", ["pivoting", "pickup", "arm_7dof"])
def test_leaf_pairs_take_less_fill_than_rcm(name):
    # exact counts; at K=40 the leaf pairs' most fill over a solve is
    # 19 562 / 24 930 / 7 216 against RCM's 20 315 / 27 998 / 11 626.  At
    # the first iterate (s = z = e) it is not lower everywhere: pickup's
    # first factor takes 21 437 against 20 961
    form = canonicalize(assemble_scenario(load_scenario(SCENARIOS / f"{name}.json"), build_grid(40)))
    paired = most_lu_fill(form)
    with rcm_alone():
        rcm = most_lu_fill(form)
    assert paired < rcm


# -- edge shapes ------------------------------------------------------------------


class TestEdgeShapes:
    def test_kkt_without_equalities(self):
        spec = ConeSpec(orthant=2, socs=(3, 2))
        rng = np.random.default_rng(1)
        G = sp.random(spec.total, 4, density=0.6, random_state=rng, format="csr")
        assert_kkt_matches_oracle(spec, sp.csr_matrix((0, 4)), G, rng)

    def test_kkt_pure_lp(self):
        spec = ConeSpec(orthant=5, socs=())
        rng = np.random.default_rng(2)
        A = sp.random(2, 3, density=0.7, random_state=rng, format="csr")
        G = sp.random(5, 3, density=0.6, random_state=rng, format="csr")
        assert_kkt_matches_oracle(spec, A, G, rng)

    def test_kkt_without_inequalities(self):
        spec = ConeSpec(orthant=0, socs=())
        A = sp.csr_matrix(np.array([[1.0, 2.0]]))
        assert_kkt_matches_oracle(spec, A, sp.csr_matrix((0, 2)), np.random.default_rng(3))

    def test_solve_without_equalities(self):
        # min t s.t. ||(3, 4)|| <= t and t <= 10, no A rows
        prob = form([1.0], G=[[1.0], [-1.0], [0.0], [0.0]], h=[10.0, 0.0, 3.0, 4.0], orthant=1, socs=(3,))
        assert prob.A.shape[0] == 0
        report = solve(prob)
        assert report.status == "Optimal"
        assert abs(report.objective - 5.0) <= 1e-7

    def test_solve_pure_lp(self):
        prob = form([1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], G=-np.eye(2), h=[0.0, 0.0], orthant=2)
        assert prob.cones.groups == ()
        report = solve(prob)
        assert report.status == "Optimal"
        assert np.allclose(report.x, [1.0, 0.0], atol=5e-6)

    def test_solve_without_inequalities(self):
        # x0 + x1 = 3, x0 - x1 = 1 pins x = (2, 1); no G rows, empty cone
        prob = form([1.0, 2.0], A=[[1.0, 1.0], [1.0, -1.0]], b=[3.0, 1.0])
        assert prob.G.shape[0] == 0
        report = solve(prob)
        assert report.status == "Optimal"
        assert np.allclose(report.x, [2.0, 1.0], atol=5e-6)

    def test_pure_lp_cone_ops(self):
        spec = ConeSpec(orthant=3, socs=())
        v, dv = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 1.0, -6.0])
        assert max_step(spec, v, dv) == oracle_max_step(spec, v, dv) == 0.5
        assert_close(jordan_solve(spec, v, dv), oracle_jordan_solve(spec, v, dv))
        assert_close(Scaling(spec, v, v[::-1]).w_inv_matrix().toarray(), OracleScaling(spec, v, v[::-1]).w_inv_dense())

    def test_max_step_linear_branch(self):
        # d0^2 = |d1|^2: the quadratic degenerates to 2 bq t + cq = 0
        spec = ConeSpec(orthant=0, socs=(3,))
        v, dv = np.array([2.0, 0.0, 0.0]), np.array([-1.0, 1.0, 0.0])
        assert max_step(spec, v, dv) == oracle_max_step(spec, v, dv) == 1.0

    def test_max_step_negative_discriminant_downward(self):
        # disc < 0 arises only by rounding at interior points; a point a
        # hair outside the cone reaches the branch deterministically, and
        # with a < 0 the discriminant is clamped to 0
        spec = ConeSpec(orthant=1, socs=(3,))
        v, dv = np.array([1.0, 1.0, 1.001, 0.0]), np.array([0.0, 0.0, -0.01, 1.0])
        b = v[1:]
        d = dv[1:]
        a = d[0] ** 2 - d[1:] @ d[1:]
        bq = b[0] * d[0] - b[1:] @ d[1:]
        cq = (b[0] - np.linalg.norm(b[1:])) * (b[0] + np.linalg.norm(b[1:]))
        assert a < 0.0 and bq * bq - a * cq < 0.0
        got = max_step(spec, v, dv)
        assert got == oracle_max_step(spec, v, dv)
        assert math.isclose(got, -bq / a, rel_tol=1e-15)

    def test_max_step_direction_never_leaves(self):
        spec = ConeSpec(orthant=2, socs=(3, 1))
        v = np.array([1.0, 1.0, 2.0, 0.0, 0.0, 1.0])
        dv = np.array([0.0, 3.0, 1.0, 0.5, 0.0, 2.0])
        assert max_step(spec, v, dv) == oracle_max_step(spec, v, dv) == np.inf

    def test_cone_identity_interleaved(self):
        spec = ConeSpec(orthant=2, socs=(3, 1, 2, 3))
        assert np.array_equal(cone_identity(spec), [1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0])

    def test_groups_and_block_pattern(self):
        spec = ConeSpec(orthant=1, socs=(2, 3, 2))
        g2, g3 = spec.groups
        assert (g2.size, g3.size) == (2, 3)
        assert g2.index.tolist() == [[1, 2], [6, 7]] and g3.index.tolist() == [[3, 4, 5]]
        assert g3.tail.tolist() == [[4, 5]] and g2.columns.tolist() == [[1, 6], [2, 7]]
        assert g2.head.tolist() == [1, 6] and g3.head.tolist() == [3]
        assert not g2.index.flags.writeable and not g2.head.flags.writeable and not g3.head.flags.writeable
        indptr, indices, first, _ = spec.block_diag
        assert first.tolist() == [0, 1, 1, 3, 3, 3, 6, 6]
        pattern = sp.csc_matrix((np.ones(indices.size), indices, indptr)).toarray()
        blocks = [np.ones((1, 1)), np.ones((2, 2)), np.ones((3, 3)), np.ones((2, 2))]
        assert np.array_equal(pattern, sp.block_diag(blocks).toarray())

    @pytest.mark.parametrize("orthant,socs", [(-1, ()), (0, (3, 0)), (1, (2, -1))])
    def test_bad_spec_rejected(self, orthant, socs):
        with pytest.raises(ValueError, match="cone spec"):
            ConeSpec(orthant=orthant, socs=socs)

    def test_equilibration_shares_scale_per_cone(self, monkeypatch):
        spec = ConeSpec(orthant=1, socs=(2, 3, 2))
        G = sp.csr_matrix(np.diag([1.0, 4.0, 0.01, 9.0, 1.0, 0.25, 100.0, 1.0]))
        prob = form(np.ones(8), G=G.toarray(), h=np.ones(8), orthant=1, socs=spec.socs)
        # one pass, whose scales are the closed-form inverse square roots
        monkeypatch.setattr(solver, "EQUILIBRATE_ITERS", 1)
        _, _, _, _, d_in = _ruiz_equilibrate(prob)
        for at, d in oracle_blocks(spec):
            assert np.all(d_in[at : at + d] == d_in[at])
        assert d_in[1] == 0.5 and d_in[3] == 1.0 / 3.0 and d_in[6] == 0.1


# -- oracle: the equilibration loop with a fresh stack and products per pass --


def oracle_ruiz_equilibrate(form, iters):
    A, G = form.A.tocsr(), form.G.tocsr()
    p, m, n = A.shape[0], G.shape[0], A.shape[1]
    d_col = np.ones(n)
    d_eq = np.ones(p)
    d_in = np.ones(m)
    spec = form.cones

    def inverse_sqrt(v):
        return 1.0 / np.sqrt(np.where(v > 0, v, 1.0))

    for _ in range(iters):
        Mabs = abs(sp.vstack([A, G], format="csc"))
        col_scale = inverse_sqrt(Mabs.max(axis=0).toarray().ravel())
        row_max = Mabs.tocsr().max(axis=1).toarray().ravel()
        eq_scale = inverse_sqrt(row_max[:p])
        in_scale = inverse_sqrt(row_max[p:])
        for at, d in oracle_blocks(spec):
            in_scale[at : at + d] = inverse_sqrt(row_max[p + at : p + at + d].max())
        A = sp.diags(eq_scale) @ A @ sp.diags(col_scale)
        G = sp.diags(in_scale) @ G @ sp.diags(col_scale)
        d_col *= col_scale
        d_eq *= eq_scale
        d_in *= in_scale
        if (
            np.all(np.abs(1.0 - col_scale) < 1e-4)
            and np.all(np.abs(1.0 - eq_scale) < 1e-4)
            and np.all(np.abs(1.0 - in_scale) < 1e-4)
        ):
            break
    return A.tocsr(), G.tocsr(), d_col, d_eq, d_in


def assert_same_equilibration(prob, iters):
    # hypothesis runs many examples per test call, so the pass count is set here rather than by a fixture
    with mock.patch.object(solver, "EQUILIBRATE_ITERS", iters):
        got = _ruiz_equilibrate(prob)
    want = oracle_ruiz_equilibrate(prob, iters)
    for g, w in zip(got[2:], want[2:]):
        assert g.tobytes() == w.tobytes()
    for g, w in zip(got[:2], want[:2]):
        assert g.shape == w.shape
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)
        assert g.data.tobytes() == w.data.tobytes()


SHIPPED = sorted(SCENARIOS.rglob("*.json"))


class TestEquilibrationOracle:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_scenarios(self, path):
        prob = canonicalize(assemble_scenario(load_scenario(path), build_grid(6)))
        assert_same_equilibration(prob, EQUILIBRATE_ITERS)

    @settings(max_examples=40)
    @given(spec=specs(), data=st.data())
    def test_random_sparse(self, spec, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, p, m = int(rng.integers(1, 7)), int(rng.integers(0, 4)), spec.total

        def sparse(rows):
            M = rng.lognormal(0.0, 3.0, size=(rows, n)) * rng.choice([-1.0, 0.0, 1.0], size=(rows, n))
            mat = sp.csr_matrix(M)
            # an explicit zero
            if mat.nnz:
                mat.data[0] = 0.0
            return mat

        prob = StandardConicForm(
            c=np.ones(n), A=sparse(p), b=np.ones(p), G=sparse(m), h=np.ones(m), cones=spec
        )
        assert_same_equilibration(prob, data.draw(st.integers(1, 10)))

