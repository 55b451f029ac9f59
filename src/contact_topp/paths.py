"""Joint-space geometric paths q(s) on the unit interval.

numpy only: the spline's tridiagonal system is solved here in the order of
operations of LAPACK's dgtsv, so the slopes are those of
`scipy.linalg.solve_banded` bit for bit, and a process that loads and
verifies a scenario never imports scipy.
"""
from __future__ import annotations

import numpy as np

BOUNDARY_KINDS = ("clamped", "natural")

# at np.linspace's breakpoint j (1 / (m - 1)), s (m - 1) is within 1.5 eps of j
_SNAP = 4 * np.finfo(float).eps


class JointPath:
    """C2 cubic-spline path through joint waypoints on s in [0, 1].

    Breakpoints are uniform. `boundary` picks the end conditions:
    "clamped" asks for q'(0) = q'(1) = 0, "natural" pins the second
    derivative instead (two waypoints then give an exactly linear path).
    Each cubic piece is kept in power form about its own left breakpoint,
    and the last one also about s = 1, so every breakpoint is evaluated at
    a zero offset: q there is the waypoint bit for bit, and a clamped
    path has q'(0) and q'(1) exactly 0.
    """

    def __init__(self, waypoints, boundary: str = "clamped"):
        W = np.asarray(waypoints, dtype=float)
        if W.ndim != 2 or W.shape[0] < 2:
            raise ValueError("waypoints must be an (m >= 2, n) array")
        if not np.isfinite(W).all():
            raise ValueError("waypoints must be finite")
        if boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {boundary!r}")
        self.waypoints = W
        self.boundary = boundary
        self.breakpoints = np.linspace(0.0, 1.0, W.shape[0])
        # row i of each table holds the coefficients of piece i in powers of
        # t = s (m - 1) - i, from its end values and slopes; row m - 1 is the
        # last piece again, expanded about s = 1
        D = _slopes(W, boundary == "clamped")
        step = np.diff(W, axis=0)
        C2 = np.concatenate([3.0 * step - 2.0 * D[:-1] - D[1:], D[-2:-1] + 2.0 * D[-1:] - 3.0 * step[-1:]])
        C3 = D[:-1] + D[1:] - 2.0 * step
        C3 = np.concatenate([C3, C3[-1:]])
        n = W.shape[0] - 1
        self._q = np.array([W, D, C2, C3])
        self._dq = n * np.array([D, 2.0 * C2, 3.0 * C3])
        self._ddq = n * n * np.array([2.0 * C2, 6.0 * C3])

    @property
    def dof(self) -> int:
        return self.waypoints.shape[1]

    def _check(self, s):
        """s clipped to [0, 1]; ValueError if it, or any entry of it, is NaN or more than 1e-12 outside."""
        # a float stays off numpy here and in `_piece`: the scalar oracle
        # passes one s at a time, and without it verify-k500 ran 13 % slower
        # (2-vCPU Xeon)
        if isinstance(s, float):
            if not -1e-12 <= s <= 1.0 + 1e-12:
                raise ValueError(f"path parameter {s} outside [0, 1]")
            return min(max(s, 0.0), 1.0)
        s = np.asarray(s, dtype=float)
        bad = ~((s >= -1e-12) & (s <= 1.0 + 1e-12))
        if np.any(bad):
            raise ValueError(f"path parameter {s[bad].flat[0]} outside [0, 1]")
        return np.clip(s, 0.0, 1.0)

    def _piece(self, s):
        """Piece index i and offset t = s (m - 1) - i in [0, 1); an s within rounding of a breakpoint has t = 0."""
        x = self._check(s) * (self.waypoints.shape[0] - 1)
        if isinstance(x, float):
            j = round(x)
            if abs(x - j) <= _SNAP * j:
                return j, 0.0
            i = int(x)
            return i, x - i
        j = np.rint(x)
        on = np.abs(x - j) <= _SNAP * j
        i = np.where(on, j, x).astype(np.intp)
        return i, np.where(on, 0.0, x - i)[..., None]

    def position(self, s):
        return _horner(self._q, *self._piece(s))

    def derivative(self, s):
        return _horner(self._dq, *self._piece(s))

    def second_derivative(self, s):
        return _horner(self._ddq, *self._piece(s))


def _slopes(W, clamped: bool):
    """dq/dt at each waypoint, t in breakpoint steps: the C2 cubic's tridiagonal system (de Boor, ch. IV).

    Elimination without row swaps, then back substitution, each operation
    as LAPACK's dgtsv does it, one waypoint at a time and all joints at
    once.  The matrix is diagonally dominant, so dgtsv swaps no rows either:
    it swaps only where |diagonal| < |subdiagonal|, and the closest case is
    the clamped first row, where both are 1.
    """
    m = W.shape[0]
    # the end rows: clamped, q' = 0; natural, q'' = 0
    end, edge = (1.0, 0.0) if clamped else (2.0, 1.0)
    diag = [end] + [4.0] * (m - 2) + [end]
    upper = [edge] + [1.0] * (m - 2)
    lower = [1.0] * (m - 2) + [edge]
    x = np.empty_like(W)
    x[1:-1] = 3.0 * (W[2:] - W[:-2])
    if clamped:
        x[[0, -1]] = 0.0
    else:
        x[0] = 3.0 * (W[1] - W[0])
        x[-1] = 3.0 * (W[-1] - W[-2])
    for i in range(m - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        x[i + 1] -= fact * x[i]
    x[-1] /= diag[-1]
    x[-2] = (x[-2] - upper[-1] * x[-1]) / diag[-2]
    for i in range(m - 3, -1, -1):
        # dgtsv still subtracts its second superdiagonal, zero without swaps:
        # 0 * x[i + 2] can turn a -0.0 into +0.0
        x[i] = (x[i] - upper[i] * x[i + 1] - 0.0 * x[i + 2]) / diag[i]
    return x


def _horner(table, i, t):
    """The sum over k of table[k, i] t**k, by Horner's rule."""
    c = table[:, i]
    out = c[-1]
    for k in range(len(c) - 2, -1, -1):
        out = c[k] + t * out
    return out
