"""Three-vector and configuration primitives shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_vec3",
    "ConfigurationPoint",
]

ROTATION_TOL = 1e-12


def as_vec3(v) -> np.ndarray:
    """Coerce input to a finite float vector of shape (3,)."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"3-vector components must be finite, got {a}")
    return a


@dataclass
class ConfigurationPoint:
    """Unreduced configuration: carrier attitude, position, rotor angle.

    The attitude matrix must be orthonormal with unit determinant to
    within ``ROTATION_TOL`` in each part.  Reduced fields and residual
    reports are evaluated at configuration points like this one; the
    translation slot is kept for models where position matters and is
    simply carried along otherwise.
    """

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotor_angle: float = 0.0

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
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
        self.translation = as_vec3(self.translation)
        self.rotor_angle = float(self.rotor_angle)
        if not np.isfinite(self.rotor_angle):
            raise ValueError("rotor_angle must be finite")
