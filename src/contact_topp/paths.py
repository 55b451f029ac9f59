"""Joint-space geometric paths q(s) on the unit interval."""
from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

BOUNDARY_KINDS = ("clamped", "natural")


class JointPath:
    """C2 cubic-spline path through joint waypoints on s in [0, 1].

    Breakpoints are uniform. `boundary` picks the end conditions:
    "clamped" asks for q'(0) = q'(1) = 0, "natural" pins the second
    derivative instead (two waypoints then give an exactly linear path).
    A clamped path gives q'(0) exactly 0, but q'(1) only to rounding: the
    last cubic piece is evaluated a full step from its own breakpoint, and
    on waypoints in [-pi, pi] entries up to about 1e-13 remain.
    """

    def __init__(self, waypoints, boundary: str = "clamped"):
        W = np.asarray(waypoints, dtype=float)
        if W.ndim != 2 or W.shape[0] < 2:
            raise ValueError("waypoints must be an (m >= 2, n) array")
        if boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {boundary!r}")
        self.waypoints = W
        self.boundary = boundary
        self.breakpoints = np.linspace(0.0, 1.0, W.shape[0])
        bc = ((1, np.zeros(W.shape[1])), (1, np.zeros(W.shape[1]))) if boundary == "clamped" else "natural"
        self._spline = CubicSpline(self.breakpoints, W, axis=0, bc_type=bc)
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)

    @property
    def dof(self) -> int:
        return self.waypoints.shape[1]

    def _check(self, s):
        """s clipped to [0, 1]; ValueError if it, or any entry of it, is NaN or more than 1e-12 outside."""
        if isinstance(s, float):
            if not -1e-12 <= s <= 1.0 + 1e-12:
                raise ValueError(f"path parameter {s} outside [0, 1]")
            return min(max(s, 0.0), 1.0)
        s = np.asarray(s, dtype=float)
        bad = ~((s >= -1e-12) & (s <= 1.0 + 1e-12))
        if np.any(bad):
            raise ValueError(f"path parameter {s[bad].flat[0]} outside [0, 1]")
        return np.clip(s, 0.0, 1.0)

    def position(self, s):
        return self._spline(self._check(s))

    def derivative(self, s):
        return self._d1(self._check(s))

    def second_derivative(self, s):
        return self._d2(self._check(s))
