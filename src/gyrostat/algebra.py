"""Three-vector and configuration primitives shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "as_vec3",
    "ConfigurationPoint",
]

ROTATION_TOL = 1e-12


def as_vec3(v) -> np.ndarray:
    """A read-only copy of the input as a finite float vector of shape (3,),
    so that no later write to the caller's array reaches the checked one."""
    a = np.array(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError(f"3-vector components must be finite, got {a}")
    a.flags.writeable = False
    return a


def _as_integer(name: str, value, ok, rule: str) -> int:
    """`value` as an int, the one check of every integer setting: ValueError
    unless a Python or numpy integer, not a bool, for which `ok` holds."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not ok(int(value)):
        raise ValueError(f"{name} must be an integer {rule}, got {value!r}")
    return int(value)


@dataclass
class ConfigurationPoint:
    """Unreduced configuration: carrier attitude and rotor angle.

    The attitude matrix must be orthonormal with unit determinant to
    within ``ROTATION_TOL`` in each part; the point keeps a read-only copy
    of it.  Reduced fields and residual reports are evaluated at
    configuration points like this one.  Neither model's energy depends on
    the carrier's position, so the point carries none.
    """

    rotation: np.ndarray
    rotor_angle: float = 0.0

    def __post_init__(self):
        self.rotation = np.array(self.rotation, dtype=float)
        self.rotation.flags.writeable = False
        if self.rotation.shape != (3, 3):
            raise ValueError(
                f"rotation must be 3x3, got shape {self.rotation.shape}"
            )
        defect = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        # Written so that a NaN defect fails the check too.
        if not defect <= ROTATION_TOL:
            raise ValueError(
                f"rotation is not orthonormal: max|R^T R - I| = {defect:.3e}"
            )
        det_defect = abs(np.linalg.det(self.rotation) - 1.0)
        if not det_defect <= ROTATION_TOL:
            raise ValueError(
                f"rotation must have determinant 1: |det - 1| = {det_defect:.3e}"
            )
        self.rotor_angle = float(self.rotor_angle)
        if not np.isfinite(self.rotor_angle):
            raise ValueError("rotor_angle must be finite")
