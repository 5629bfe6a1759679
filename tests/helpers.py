"""Shared test utilities: seeded random fields and states, a rotation, and
the controlled field on ndarrays."""

import numpy as np

from gyrostat.dynamics import _flat_system
from gyrostat.poisson import ScalarField
from gyrostat.rng import SplitMix64


class QuadraticField:
    """Random quadratic polynomial with an analytic gradient.

    f(x) = c + b.x + x.A x / 2 with A symmetric.  Quadratics are exactly
    differentiated by central differences (up to rounding), which makes
    them good probes for the finite-difference bracket path.
    """

    def __init__(self, dim: int, rng: SplitMix64):
        raw = np.array(
            [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)]
        )
        self.dim = dim
        self.A = 0.5 * (raw + raw.T)
        self.b = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
        self.c = rng.uniform(-1.0, 1.0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.c + self.b @ x + 0.5 * (x @ self.A @ x))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.b + self.A @ x

    def field(self, with_grad: bool = False) -> ScalarField:
        grad = self.grad if with_grad else None
        return ScalarField(dim=self.dim, value=self.value, grad=grad)

    def times(self, other: "QuadraticField") -> ScalarField:
        """Value-only product field, for Leibniz-rule checks."""
        return ScalarField(
            dim=self.dim, value=lambda x: self.value(x) * other.value(x)
        )


def random_point(rng: SplitMix64, dim: int, low: float = -5.0, high: float = 5.0):
    return np.array([rng.uniform(low, high) for _ in range(dim)])


def rot_z(angle: float) -> np.ndarray:
    """Rotation by `angle` about the third body axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def ndarray_field(kind, params, grav, control):
    """The package's controlled field on flat ndarrays, for the ndarray
    references and the public step adapters; validates as the field
    builder does."""
    field, _jac = _flat_system(kind, params, grav, control)
    return lambda y: np.array(field(y.tolist()))
