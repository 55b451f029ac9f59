"""Friction cone models for point and patch contacts.

Wrenches live in the contact frame, [fx, fy, fz, tx, ty, tz], with z the
inward normal.  The normal force fz heads every cone; `CONE_TAILS` lists,
per model, the components under the norm and the `FrictionParams` field
that scales each:

  "pcwf": point contact with friction,
          sqrt((fx/ex)^2 + (fy/ey)^2) / mu <= fz.
  "sfce": soft finger patch; torsion about the normal enters with its own
          scale, sqrt((fx/ex)^2 + (fy/ey)^2 + (tz/ez)^2) / mu <= fz.

Every component that no cone reads is pinned (not transmitted).  The
transcription gives a pinned component no variable, so a solved wrench
holds an exact zero there; `verification.audit` checks the pinned
components of a profile read from a file.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liegroup import Pose

CONE_HEAD = 2  # fz
CONE_TAILS = {
    "pcwf": ((0, "ex"), (1, "ey")),
    "sfce": ((0, "ex"), (1, "ey"), (5, "ez")),
}
CONE_MODELS = tuple(CONE_TAILS)


@dataclass(frozen=True)
class FrictionParams:
    mu: float
    ex: float = 1.0
    ey: float = 1.0
    ez: float = 1.0

    def __post_init__(self):
        for name in ("mu", "ex", "ey", "ez"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ConeDescriptor:
    """One second-order cone over selected wrench components.

    head_index carries the normal force; each (index, weight) tail entry
    contributes (weight * F[index])^2 under the norm; pinned components are
    not transmitted and enter no cone.
    """

    model: str
    head_index: int
    tail: tuple[tuple[int, float], ...]
    pinned: tuple[int, ...]


def emit_cone(model: str, params: FrictionParams) -> ConeDescriptor:
    """Cone descriptor for a friction model tag."""
    if model not in CONE_TAILS:
        raise ValueError(f"unknown friction model {model!r}")
    tail = tuple((i, 1.0 / (params.mu * getattr(params, scale))) for i, scale in CONE_TAILS[model])
    read = {CONE_HEAD, *(i for i, _ in tail)}
    return ConeDescriptor(model, CONE_HEAD, tail, tuple(i for i in range(6) if i not in read))


def cone_margin(descriptor: ConeDescriptor, wrench) -> float | np.ndarray:
    """Slack of the cone constraint: fz minus the weighted tangential norm.

    Nonnegative iff the wrench is inside the cone; the pinned components
    are not read.  One wrench (6 entries) gives a float, a (..., 6) array
    of them an array of shape (...).
    """
    F = np.asarray(wrench, dtype=float)
    if F.shape[-1:] != (6,):
        F = F.reshape(6)
    # components first: parts[i] is component i of every wrench
    parts = F.transpose(-1, *range(F.ndim - 1))
    acc = 0.0
    for idx, weight in descriptor.tail:
        # float_power calls the C library's pow, as the ** of one float
        # does, so a batch keeps the bits of one wrench at a time
        acc = acc + np.float_power(weight * parts[idx], 2.0)
    margin = parts[descriptor.head_index] - np.sqrt(acc)
    return float(margin) if np.ndim(margin) == 0 else margin


CONTACT_KINDS = ("manipulator", "environment", "object")
FRAME_MODES = ("body_fixed", "world_normal")


@dataclass(frozen=True)
class ContactSpec:
    """One contact attached to an object.

    kind "manipulator" couples the owning object to a robot chain (through
    `robot`), "environment" couples it to the static world, and "object"
    couples it to another object in the scene (`against`), the reaction
    entering that body through `pose_in_other`.
    """

    name: str
    kind: str
    model: str
    pose: Pose  # contact frame in the owning object's frame
    params: FrictionParams
    fz_max: float | None = None
    robot: int = 0
    against: str | None = None
    pose_in_other: Pose | None = None
    frame_mode: str = "body_fixed"
    world_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if self.kind not in CONTACT_KINDS:
            raise ValueError(f"unknown contact kind {self.kind!r}")
        if self.model not in CONE_MODELS:
            raise ValueError(f"unknown friction model {self.model!r}")
        if self.frame_mode not in FRAME_MODES:
            raise ValueError(f"unknown frame mode {self.frame_mode!r}")
        if self.fz_max is not None and not self.fz_max > 0.0:
            raise ValueError(f"fz_max must be positive when given, got {self.fz_max}")
        if self.kind == "object" and self.frame_mode != "body_fixed":
            raise ValueError("object-object contacts must be body_fixed")
        axis = np.asarray(self.world_axis, dtype=float).reshape(3)
        if not (np.isfinite(axis).all() and axis.any()):
            raise ValueError(f"world_axis must be finite and nonzero, got {axis}")
        object.__setattr__(self, "world_axis", axis)

    def descriptor(self) -> ConeDescriptor:
        return emit_cone(self.model, self.params)
