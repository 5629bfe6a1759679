"""Poisson brackets on the reduced phase spaces and a derivative oracle.

Five bracket evaluators share one interface.  Scalar observables are
wrapped as :class:`ScalarField` objects over flattened phase vectors, in
the package-wide coordinate order (see :mod:`gyrostat.model`); gradients
come from an attached analytic rule when present and central finite
differences otherwise.  Coordinate fields carry exact gradients; the
energy fields (:func:`gyrostat.model.kinetic_energy`, plus the potential
for se3) carry none, so reconstructing a Hamiltonian vector field
componentwise through the bracket checks the field table's equations
of motion in :mod:`gyrostat.dynamics` from energy values alone.

The Jacobi identity is not asserted anywhere in the test suite; the
bracket forms are fixed expressions whose structure is covered by the
antisymmetry, Leibniz, Casimir, and vector-field equivalence checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import GravityParams, InertiaParams, ModelKind, kinetic_energy, model_layout

__all__ = [
    "FD_SCALE",
    "BracketKind",
    "ScalarField",
    "coordinate_field",
    "fd_steps",
    "fd_gradient",
    "bracket",
    "hamiltonian_vector_field_via_bracket",
    "hamiltonian_field_so3",
    "hamiltonian_field_se3",
]

FD_SCALE = 6e-6

_DIM_SO3 = model_layout(ModelKind.SO3).dim
_DIM_SE3 = model_layout(ModelKind.SE3).dim


class BracketKind(enum.Enum):
    """The bracket structures used by the reduced models."""

    RIGID_BODY_SO3 = "rigid_body_so3"
    CANONICAL_R = "canonical_r"
    PRODUCT_SO3 = "product_so3"
    HEAVY_TOP_SE3 = "heavy_top_se3"
    PRODUCT_SE3 = "product_se3"


# Dimension each kind insists on; None means either phase space works
# (the canonical pair (alpha, l) sits in the last two slots of both).
_KIND_DIM = {
    BracketKind.RIGID_BODY_SO3: _DIM_SO3,
    BracketKind.CANONICAL_R: None,
    BracketKind.PRODUCT_SO3: _DIM_SO3,
    BracketKind.HEAVY_TOP_SE3: _DIM_SE3,
    BracketKind.PRODUCT_SE3: _DIM_SE3,
}


@dataclass
class ScalarField:
    """Scalar observable on a flattened phase space.

    Parameters
    ----------
    dim : int
        Phase-space dimension, 5 or 8.
    value : callable
        Maps a phase vector of length `dim` to a float.  The energy fields
        also map a ``(dim, m)`` block, one point per column, to m values;
        block callers rely on that and on the result not being a view of
        the argument.  :func:`fd_gradient` calls it twice per ``(dim, n)``
        block, each time on a ``(dim, dim * n)`` block of probes that it
        rewrites between the calls.
    grad : callable, optional
        Analytic gradient, same input, returns a vector of length `dim`.
        When absent, bracket evaluations fall back to finite differences.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim not in (_DIM_SO3, _DIM_SE3):
            raise ValueError(f"field dimension must be 5 or 8, got {self.dim}")


def coordinate_field(dim: int, index: int) -> ScalarField:
    """The i-th coordinate function, with its exact gradient."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    basis = np.zeros(dim)
    basis[index] = 1.0
    return ScalarField(
        dim=dim,
        value=lambda x, _i=index: float(x[_i]),
        grad=lambda x, _e=basis: _e.copy(),
    )


def fd_steps(x: np.ndarray) -> np.ndarray:
    """Componentwise step sizes ``FD_SCALE * max(1, |x_i|)``."""
    return FD_SCALE * np.maximum(1.0, np.abs(x))


def fd_gradient(f: ScalarField, x) -> np.ndarray:
    """Central-difference gradient of a scalar field, on the steps of
    :func:`fd_steps`.

    Exact for affine fields up to rounding; for the quadratic energies in
    this package the truncation term vanishes too, so agreement with the
    analytic gradient is limited only by cancellation in the quotient.

    `x` is one point of shape ``(dim,)`` or a block of shape ``(dim, n)``,
    one column per point, and the gradient has the shape of `x`.  Every
    probe of every column is stacked into one ``(dim, dim * n)`` block,
    column ``i * n + j`` being point j with coordinate i moved, first up
    and then down by its step.  A block costs two field calls, so it needs
    a field whose ``value`` maps each row to a row of values (the energy
    fields do), and gives, column for column, exactly the gradients of n
    single-point calls.  A point costs ``2 * dim``: ``value`` gets the
    ``dim`` columns of its probe block one at a time, each as a
    contiguous vector, so a field of single points serves.

    Raises
    ------
    ValueError
        If the field returns a non-finite value at a probe point, naming
        the lowest coordinate whose probes gave one.  This error is the one
        report of such a probe: the probes, both field calls and the
        quotient run with numpy's overflow and invalid-value warnings off.
    """
    x = np.asarray(x, dtype=float)
    steps = fd_steps(x)
    value = f.value if x.ndim > 1 else lambda block: [f.value(p) for p in block.T.copy()]
    dim = x.shape[0]
    # probe[:, i] is x with row i moved, through the view `moved` of the
    # rows probe[i, i]; the field reads the + probes before the - probes
    # overwrite them.
    probe = np.repeat(x[:, np.newaxis], dim, axis=1)
    stacked = probe.reshape(dim, -1)
    moved = probe.reshape(dim * dim, *x.shape[1:])[:: dim + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(x, steps, out=moved)
        fp = np.reshape(value(stacked), x.shape)
        np.subtract(x, steps, out=moved)
        fm = np.reshape(value(stacked), x.shape)
        # Checked before the quotient, which would turn inf - inf into a NaN.
        finite = (np.isfinite(fp) & np.isfinite(fm)).reshape(dim, -1).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"non-finite field value near x while probing component {i}")
        return (fp - fm) / (2.0 * steps)


def _gradient_of(f: ScalarField, x: np.ndarray) -> np.ndarray:
    return fd_gradient(f, x) if f.grad is None else np.asarray(f.grad(x), dtype=float)


def _combine(kind: BracketKind, gf: np.ndarray, gk: np.ndarray, x: np.ndarray) -> float:
    """Evaluate the bracket's bilinear form on two gradients at x.

    Every operand may also be a ``(dim, n)`` block (or a ``(dim,)`` vector
    shared by all columns); the form is then a row of n values.  `gf` may
    be a coordinate covector of exact 0 and 1 markers, as
    :func:`hamiltonian_vector_field_via_bracket` passes it.
    """
    dim = len(x)

    def rigid() -> float:
        # -Pi . (grad_Pi f x grad_Pi k)
        p1, p2, p3 = x[0], x[1], x[2]
        a1, a2, a3 = gf[0], gf[1], gf[2]
        b1, b2, b3 = gk[0], gk[1], gk[2]
        c1 = a2 * b3 - a3 * b2
        c2 = a3 * b1 - a1 * b3
        c3 = a1 * b2 - a2 * b1
        return -(p1 * c1 + p2 * c2 + p3 * c3)

    def canonical() -> float:
        # d_alpha f d_l k - d_alpha k d_l f, with (alpha, l) in the last slots
        return gf[dim - 2] * gk[dim - 1] - gk[dim - 2] * gf[dim - 1]

    def heavy_top() -> float:
        # rigid part minus Gamma . (grad_Pi f x grad_Gamma k - grad_Pi k x grad_Gamma f)
        g1, g2, g3 = x[3], x[4], x[5]
        a1, a2, a3 = gf[0], gf[1], gf[2]
        u1, u2, u3 = gf[3], gf[4], gf[5]
        b1, b2, b3 = gk[0], gk[1], gk[2]
        v1, v2, v3 = gk[3], gk[4], gk[5]
        w1 = (a2 * v3 - a3 * v2) - (b2 * u3 - b3 * u2)
        w2 = (a3 * v1 - a1 * v3) - (b3 * u1 - b1 * u3)
        w3 = (a1 * v2 - a2 * v1) - (b1 * u2 - b2 * u1)
        return rigid() - (g1 * w1 + g2 * w2 + g3 * w3)

    if kind == BracketKind.RIGID_BODY_SO3:
        return rigid()
    if kind == BracketKind.CANONICAL_R:
        return canonical()
    if kind == BracketKind.PRODUCT_SO3:
        return rigid() + canonical()
    if kind == BracketKind.HEAVY_TOP_SE3:
        return heavy_top()
    return heavy_top() + canonical()


def _check_dims(kind: BracketKind, dim: int, x: np.ndarray) -> None:
    if not isinstance(kind, BracketKind):
        raise ValueError(f"unknown bracket kind {kind!r}")
    want = _KIND_DIM[kind]
    if want is not None and dim != want:
        raise ValueError(
            f"bracket {kind.value} needs dimension {want}, got fields of dimension {dim}"
        )
    if dim not in (_DIM_SO3, _DIM_SE3):
        raise ValueError(f"field dimension must be 5 or 8, got {dim}")
    if x.ndim not in (1, 2) or x.shape[0] != dim:
        raise ValueError(f"point has shape {x.shape}, fields have dimension {dim}")


def bracket(kind: BracketKind, f: ScalarField, k: ScalarField, x) -> float:
    """Poisson bracket {f, k} at the phase point x.

    Uses analytic gradients where a field carries one and central finite
    differences otherwise.

    Raises
    ------
    ValueError
        On a `kind` that is not a BracketKind, or on dimension mismatch
        between `kind`, the fields, and `x`.
    """
    if f.dim != k.dim:
        raise ValueError(f"field dimensions differ: {f.dim} vs {k.dim}")
    x = np.asarray(x, dtype=float)
    _check_dims(kind, f.dim, x)
    if x.ndim != 1:
        raise ValueError(f"bracket takes one point of shape ({f.dim},), got {x.shape}")
    gf = _gradient_of(f, x)
    gk = _gradient_of(k, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_combine(kind, gf, gk, x))


class _Zero:
    """An exact 0 in a coordinate covector: a product with it is zero and
    a sum keeps the other operand, so the bracket terms it zeroes out are
    never evaluated.  ``__array_ufunc__ = None`` makes ndarrays and numpy
    scalars defer to the reflected operators."""

    __slots__ = ()
    __array_ufunc__ = None

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __sub__(self, other):
        return -other

    def __rsub__(self, other):
        return other

    def __neg__(self):
        return self


class _One:
    """An exact 1 in a coordinate covector: a product with it is the other
    operand."""

    __slots__ = ()
    __array_ufunc__ = None

    def __mul__(self, other):
        return other

    __rmul__ = __mul__


_ZERO = _Zero()
_ONE = _One()


def hamiltonian_vector_field_via_bracket(
    kind: BracketKind, h: ScalarField, x
) -> np.ndarray:
    """Reconstruct the Hamiltonian vector field of h componentwise.

    Component i is the bracket of the i-th coordinate function with h.
    The gradient of h is evaluated once and reused, so the cost is one
    gradient plus the bracket's nonzero terms: the coordinate covector e_i
    goes to :func:`_combine` as exact 0 and 1 markers, which skip every
    term e_i zeroes out and keep the others, in their order and rounding.

    `x` is one point of shape ``(dim,)`` or a block of shape ``(dim, n)``,
    one column per point (see :func:`fd_gradient`); the field has the
    shape of `x`, column j exactly the field at point j.
    """
    x = np.asarray(x, dtype=float)
    _check_dims(kind, h.dim, x)
    gh = _gradient_of(h, x)
    out = np.empty_like(x)
    covector = [_ZERO] * h.dim
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(h.dim):
            covector[i] = _ONE
            form = _combine(kind, covector, gh, x)
            covector[i] = _ZERO
            out[i] = 0.0 if form is _ZERO else form
    return out


def hamiltonian_field_so3(params: InertiaParams) -> ScalarField:
    """The symmetric model's energy as a scalar field on 5-vectors:
    :func:`gyrostat.model.kinetic_energy` of ``(Pi, l)``.

    No gradient is attached: brackets of the energy take it by finite
    differences, which keeps bracket-based reconstructions independent of
    the field table in :mod:`gyrostat.dynamics` and its Jacobians.
    """
    c = model_layout(ModelKind.SO3).constants(params, None)
    return ScalarField(dim=_DIM_SO3, value=lambda x: kinetic_energy(x[0], x[1], x[2], x[4], *c))


def hamiltonian_field_se3(params: InertiaParams, grav: GravityParams) -> ScalarField:
    """The restoring-torque model's energy on 8-vectors, with no gradient;
    ValueError if `grav` is None."""
    i1, i2, i3, j3, mgh, c1, c2, c3 = model_layout(ModelKind.SE3).constants(params, grav)

    def value(x) -> float:
        kinetic = kinetic_energy(x[0], x[1], x[2], x[7], i1, i2, i3, j3)
        return kinetic + mgh * (x[3] * c1 + x[4] * c2 + x[5] * c3)

    return ScalarField(dim=_DIM_SE3, value=value)
