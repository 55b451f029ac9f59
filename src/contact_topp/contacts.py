"""Friction cone models for point and patch contacts.

Wrenches live in the contact frame, [fx, fy, fz, tx, ty, tz], with z the
inward normal. Two models are supported:

  "pcwf": point contact with friction; moments transmit nothing, so
          components 3, 4, 5 are pinned to zero and the cone reads
          sqrt((fx/ex)^2 + (fy/ey)^2) / mu <= fz.
  "sfce": soft finger patch; tangential moments pin (components 3, 4) while
          torsion about the normal enters the cone with its own scale,
          sqrt((fx/ex)^2 + (fy/ey)^2 + (tz/ez)^2) / mu <= fz.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liegroup import Pose

CONE_MODELS = ("pcwf", "sfce")
PIN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FrictionParams:
    mu: float
    ex: float = 1.0
    ey: float = 1.0
    ez: float = 1.0

    def __post_init__(self):
        for name in ("mu", "ex", "ey", "ez"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ConeDescriptor:
    """One second-order cone over selected wrench components.

    head_index carries the normal force; each (index, weight) tail entry
    contributes (weight * F[index])^2 under the norm; pinned components must
    vanish identically.
    """

    model: str
    head_index: int
    tail: tuple[tuple[int, float], ...]
    pinned: tuple[int, ...]

    @property
    def dim(self) -> int:
        return 1 + len(self.tail)


def emit_cone(model: str, params: FrictionParams) -> ConeDescriptor:
    """Cone descriptor for a friction model tag."""
    if model == "pcwf":
        return ConeDescriptor(
            model=model,
            head_index=2,
            tail=((0, 1.0 / (params.mu * params.ex)), (1, 1.0 / (params.mu * params.ey))),
            pinned=(3, 4, 5),
        )
    if model == "sfce":
        return ConeDescriptor(
            model=model,
            head_index=2,
            tail=(
                (0, 1.0 / (params.mu * params.ex)),
                (1, 1.0 / (params.mu * params.ey)),
                (5, 1.0 / (params.mu * params.ez)),
            ),
            pinned=(3, 4),
        )
    raise ValueError(f"unknown friction model {model!r}")


def cone_margin(descriptor: ConeDescriptor, wrench, pin_tol: float = PIN_TOLERANCE) -> float:
    """Slack of the cone constraint: fz minus the weighted tangential norm.

    Nonnegative iff the wrench is inside the cone. Raises if a pinned
    component is nonzero beyond pin_tol (scaled by the wrench magnitude).
    """
    F = np.asarray(wrench, dtype=float).reshape(6)
    scale = max(1.0, float(np.max(np.abs(F))))
    for idx in descriptor.pinned:
        if abs(F[idx]) > pin_tol * scale:
            raise ValueError(
                f"pinned wrench component {idx} is {F[idx]:.3e}, beyond tolerance"
            )
    acc = 0.0
    for idx, weight in descriptor.tail:
        acc += (weight * F[idx]) ** 2
    return float(F[descriptor.head_index] - np.sqrt(acc))


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
        if self.fz_max is not None and self.fz_max <= 0.0:
            raise ValueError("fz_max must be positive when given")
        if self.kind == "object" and self.frame_mode != "body_fixed":
            raise ValueError("object-object contacts must be body_fixed")
        object.__setattr__(self, "world_axis", np.asarray(self.world_axis, dtype=float).reshape(3))

    def descriptor(self) -> ConeDescriptor:
        return emit_cone(self.model, self.params)
