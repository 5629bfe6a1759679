"""Parameters, states, control lifts, Hamiltonians, and momentum relations.

Two reduced models of a rigid carrier with a single internal rotor spinning
about the third body axis are supported:

* the symmetric model on ``so(3)* x R x R`` with phase point
  ``(Pi, alpha, l)``, where ``Pi`` is the total angular momentum in body
  coordinates, ``alpha`` the rotor relative angle, and ``l`` the rotor
  momentum conjugate to it;
* the restoring-torque model on ``se(3)* x R x R`` with phase point
  ``(Pi, Gamma, alpha, l)``, where ``Gamma`` is the gravity direction
  advected to the body frame.  The torque arises from an offset ``chi``
  between the reference center and the center of gravity, with strength
  ``mgh``.

All flattened coordinate vectors, CSV columns, and residual indices use one
fixed ordering: ``(Pi1, Pi2, Pi3, alpha, l)`` for the symmetric model and
``(Pi1, Pi2, Pi3, Gamma1, Gamma2, Gamma3, alpha, l)`` for the restoring one.
That layout is written once, in the :class:`ModelLayout` that
:func:`model_layout` returns for each :class:`ModelKind`; the other modules
read it from there instead of branching on the kind.

Locked inertias ``i_bar = (I1 + J1, I2 + J2, I3)`` combine carrier inertia
``I`` with the rotor's transverse inertia; ``j3`` is the rotor's axial
moment.  The raw carrier/rotor moments may be supplied alongside ``i_bar``
for bookkeeping, in which case they must be consistent with it.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import as_vec3

__all__ = [
    "ModelKind",
    "InertiaParams",
    "GravityParams",
    "So3RotorState",
    "Se3RotorState",
    "AngularVelocities",
    "OrbitLabel",
    "omega_from_momenta",
    "hamiltonian_so3",
    "hamiltonian_se3",
    "kinetic_energy",
    "grad_h",
    "HamiltonianGradient",
    "casimirs",
    "so3_state_to_vector",
    "so3_state_from_vector",
    "se3_state_to_vector",
    "se3_state_from_vector",
    "ModelLayout",
    "model_layout",
]

RAW_INERTIA_TOL = 1e-12
CHI_NORM_WARN_TOL = 1e-9
CHI_NORM_REJECT_TOL = 1e-6


class ModelKind(enum.Enum):
    """Which reduced phase space a state or trajectory lives on."""

    SO3 = "so3"
    SE3 = "se3"


@dataclass(frozen=True)
class InertiaParams:
    """Locked inertia parameters of the carrier-rotor pair.

    Parameters
    ----------
    i_bar : array_like, shape (3,)
        Locked principal moments.  The first two include the rotor's
        transverse inertia; the third is the carrier's alone.
    j3 : float
        Axial moment of the rotor about its spin axis.
    i_carrier : array_like, shape (3,), optional
        Raw carrier principal moments, kept for bookkeeping only.
    j_rotor_transverse : tuple of two floats, optional
        Raw rotor transverse moments about the first two axes.

    Raises
    ------
    ValueError
        If any moment is non-positive or not finite, or the raw moments are
        present but inconsistent with ``i_bar``.
    """

    i_bar: np.ndarray
    j3: float
    i_carrier: Optional[np.ndarray] = None
    j_rotor_transverse: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "i_bar", as_vec3(self.i_bar))
        object.__setattr__(self, "j3", float(self.j3))
        if np.any(self.i_bar <= 0.0):
            raise ValueError(f"locked moments must be positive, got {self.i_bar}")
        if not np.isfinite(self.j3):
            raise ValueError(f"rotor axial moment must be finite, got {self.j3}")
        if self.j3 <= 0.0:
            raise ValueError(f"rotor axial moment must be positive, got {self.j3}")
        if (self.i_carrier is None) != (self.j_rotor_transverse is None):
            raise ValueError(
                "raw moments i_carrier and j_rotor_transverse must be given together"
            )
        if self.i_carrier is not None:
            object.__setattr__(self, "i_carrier", as_vec3(self.i_carrier))
            jt = tuple(float(j) for j in self.j_rotor_transverse)
            if len(jt) != 2:
                raise ValueError("j_rotor_transverse must hold exactly two moments")
            object.__setattr__(self, "j_rotor_transverse", jt)
            # A NaN moment is not > 0.0.
            if np.any(self.i_carrier <= 0.0) or not (jt[0] > 0.0 and jt[1] > 0.0):
                raise ValueError("raw moments must be positive")
            locked = np.array(
                [
                    self.i_carrier[0] + jt[0],
                    self.i_carrier[1] + jt[1],
                    self.i_carrier[2],
                ]
            )
            defect = np.max(np.abs(locked - self.i_bar))
            if defect > RAW_INERTIA_TOL:
                raise ValueError(
                    "raw moments inconsistent with locked moments: "
                    f"max deviation {defect:.3e}"
                )


@dataclass(frozen=True)
class GravityParams:
    """Restoring-torque parameters for the se(3)* model.

    ``chi`` is the body-frame direction from the reference center to the
    center of gravity and is stored normalized.  A norm off unity by more
    than ``CHI_NORM_WARN_TOL`` triggers renormalization with a warning;
    norms below ``CHI_NORM_REJECT_TOL`` are rejected as direction-free.
    ``mgh`` is the restoring coefficient (weight times moment arm) and may
    be zero, which decouples the advected direction from the momenta.
    """

    mgh: float
    chi: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        object.__setattr__(self, "mgh", float(self.mgh))
        if not np.isfinite(self.mgh) or self.mgh < 0.0:
            raise ValueError(f"mgh must be finite and non-negative, got {self.mgh}")
        chi = as_vec3(self.chi)
        norm = float(np.linalg.norm(chi))
        if norm < CHI_NORM_REJECT_TOL:
            raise ValueError(f"chi norm {norm:.3e} is too small to define a direction")
        if abs(norm - 1.0) > CHI_NORM_WARN_TOL:
            warnings.warn(
                f"chi norm {norm:.12g} differs from 1; renormalizing",
                stacklevel=2,
            )
            chi = chi / norm
        object.__setattr__(self, "chi", chi)


def _set_finite_floats(obj, *names):
    """Store the named fields of a frozen dataclass as floats; ValueError
    unless all of them are finite."""
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))
    if not all(math.isfinite(getattr(obj, name)) for name in names):
        raise ValueError(f"{' and '.join(names)} must be finite")


@dataclass(frozen=True)
class So3RotorState:
    """Phase point (Pi, alpha, l) of the symmetric model."""

    pi: np.ndarray
    alpha: float = 0.0
    l: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pi", as_vec3(self.pi))
        _set_finite_floats(self, "alpha", "l")


@dataclass(frozen=True)
class Se3RotorState:
    """Phase point (Pi, Gamma, alpha, l) of the restoring-torque model.

    ``Gamma`` is not normalized here: its norm is a conserved label of the
    orbit and any drift in it is a diagnostic of integration quality, so
    the state stores whatever it is given.
    """

    pi: np.ndarray
    gamma: np.ndarray
    alpha: float = 0.0
    l: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pi", as_vec3(self.pi))
        object.__setattr__(self, "gamma", as_vec3(self.gamma))
        _set_finite_floats(self, "alpha", "l")


@dataclass(frozen=True)
class ControlLiftSo3:
    """Additive control entries for the symmetric model's equations."""

    u_pi: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_alpha: float = 0.0
    u_l: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u_pi", as_vec3(self.u_pi))
        _set_finite_floats(self, "u_alpha", "u_l")


@dataclass(frozen=True)
class ControlLiftSe3:
    """Additive control entries for the restoring-torque model's equations."""

    u_pi: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_gamma: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_alpha: float = 0.0
    u_l: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u_pi", as_vec3(self.u_pi))
        object.__setattr__(self, "u_gamma", as_vec3(self.u_gamma))
        _set_finite_floats(self, "u_alpha", "u_l")


@dataclass(frozen=True)
class AngularVelocities:
    """Carrier angular velocity and rotor relative rate."""

    omega: np.ndarray
    alpha_dot: float


@dataclass(frozen=True)
class OrbitLabel:
    """Values of the conserved orbit labels for one state.

    Only the fields of the active kind are meaningful: ``pi_norm`` for the
    symmetric model, ``pi_dot_gamma`` and ``gamma_norm`` for the restoring
    one.  Inactive fields are ``None``.
    """

    kind: ModelKind
    pi_norm: Optional[float] = None
    pi_dot_gamma: Optional[float] = None
    gamma_norm: Optional[float] = None


def omega_from_momenta(state, params: InertiaParams) -> AngularVelocities:
    """Invert the momentum relations for body rates.

    Works for either model kind since both carry ``(pi, l)``.

    Returns
    -------
    AngularVelocities
        ``omega = (Pi1/i1, Pi2/i2, (Pi3 - l)/i3)`` and the rotor relative
        rate ``alpha_dot = l/j3 - (Pi3 - l)/i3``.
    """
    i1, i2, i3 = params.i_bar
    p = state.pi
    omega3 = (p[2] - state.l) / i3
    omega = np.array([p[0] / i1, p[1] / i2, omega3])
    alpha_dot = state.l / params.j3 - omega3
    return AngularVelocities(omega=omega, alpha_dot=alpha_dot)


def kinetic_energy(p1, p2, p3, l, i1, i2, i3, j3):
    """``(Pi1^2/i1 + Pi2^2/i2 + (Pi3 - l)^2/i3 + l^2/j3) / 2`` on scalars.

    An overflowing square gives ``inf``, on Python floats as on numpy ones.
    """
    try:
        return 0.5 * (p1**2 / i1 + p2**2 / i2 + (p3 - l) ** 2 / i3 + l**2 / j3)
    except OverflowError:
        return math.inf


def hamiltonian_so3(state: So3RotorState, params: InertiaParams) -> float:
    """Reduced energy of the symmetric model.

    ``H = (Pi1^2/i1 + Pi2^2/i2 + (Pi3 - l)^2/i3 + l^2/j3) / 2``; the
    rotor angle is cyclic and does not enter.
    """
    return kinetic_energy(*state.pi, state.l, *params.i_bar, params.j3)


def hamiltonian_se3(
    state: Se3RotorState, params: InertiaParams, grav: GravityParams
) -> float:
    """Reduced energy of the restoring-torque model.

    The kinetic part coincides with :func:`hamiltonian_so3` on ``(Pi, l)``;
    the potential adds ``mgh * Gamma . chi``.
    """
    return kinetic_energy(*state.pi, state.l, *params.i_bar, params.j3) + grav.mgh * float(
        np.dot(state.gamma, grav.chi)
    )


@dataclass(frozen=True)
class HamiltonianGradient:
    """Partial derivatives of the reduced energy at one state.

    ``d_gamma`` is ``None`` for the symmetric model.  ``d_alpha`` is always
    zero because the rotor angle is cyclic; it is kept explicit so callers
    can assemble full-dimension gradients without special cases.
    """

    d_pi: np.ndarray
    d_alpha: float
    d_l: float
    d_gamma: Optional[np.ndarray] = None


def grad_h(
    state, params: InertiaParams, grav: Optional[GravityParams] = None
) -> HamiltonianGradient:
    """Gradient of the reduced energy with respect to the phase variables.

    ``d_pi = (Pi1/i1, Pi2/i2, (Pi3 - l)/i3)``, ``d_l = l/j3 - (Pi3 - l)/i3``
    and, when a gravity model is attached, ``d_gamma = mgh * chi``.

    Raises
    ------
    ValueError
        If `state` is not a model state, or carries an advected direction
        but no `grav` is given.
    """
    lay = _state_layout(state)
    lay.constants(params, grav)  # ValueError if the model needs grav
    vel = omega_from_momenta(state, params)
    d_gamma = grav.mgh * grav.chi if lay.gravity else None
    return HamiltonianGradient(
        d_pi=vel.omega, d_alpha=0.0, d_l=vel.alpha_dot, d_gamma=d_gamma
    )


def casimirs(state, kind: ModelKind) -> OrbitLabel:
    """Conserved orbit labels of the bracket geometry.

    ``|Pi|`` for the symmetric model; ``Pi . Gamma`` and ``|Gamma|`` for
    the restoring-torque model.  These are constants of motion for every
    Hamiltonian and every control lift acting along the reduced equations'
    geometric directions, so their drift measures integrator error.

    Raises
    ------
    ValueError
        If `kind` is not a :class:`ModelKind` or the state type does not
        match it.
    """
    lay = model_layout(kind)
    if not isinstance(state, lay.state_type):
        raise ValueError(f"kind {kind.value} requires an {lay.state_type.__name__}")
    labels = lay.casimirs(lay.to_vector(state)[np.newaxis])
    return OrbitLabel(
        kind=kind,
        **{name: float(v[0]) for name, v in zip(lay.casimir_names, labels)},
    )


def so3_state_to_vector(state: So3RotorState) -> np.ndarray:
    """Flatten to the canonical (Pi1, Pi2, Pi3, alpha, l) order."""
    return np.array([*state.pi, state.alpha, state.l])


def so3_state_from_vector(y) -> So3RotorState:
    y = np.asarray(y, dtype=float)
    if y.shape != (5,):
        raise ValueError(f"expected a 5-vector, got shape {y.shape}")
    return So3RotorState(pi=y[:3], alpha=y[3], l=y[4])


def se3_state_to_vector(state: Se3RotorState) -> np.ndarray:
    """Flatten to the canonical (Pi, Gamma, alpha, l) order."""
    return np.array([*state.pi, *state.gamma, state.alpha, state.l])


def se3_state_from_vector(y) -> Se3RotorState:
    y = np.asarray(y, dtype=float)
    if y.shape != (8,):
        raise ValueError(f"expected an 8-vector, got shape {y.shape}")
    return Se3RotorState(pi=y[:3], gamma=y[3:6], alpha=y[6], l=y[7])


@dataclass(frozen=True)
class ModelLayout:
    """How the phase point of one model is laid out, as a flat vector.

    The fields of ``state_type`` and of ``lift_type``, taken in declaration
    order, fill ``columns`` in order.  ``casimirs`` maps stacked
    ``(n, dim)`` states to one length-n array per name in
    ``casimir_names``.  ``gravity`` tells whether the model has the
    advected direction ``Gamma`` and so needs a :class:`GravityParams`,
    whose potential ``mgh * Gamma . chi`` then adds to the energy.

    The equilibrium search borders its Newton system with the smooth
    Casimirs, one per name and with the same level sets: ``|Pi|^2 / 2``
    for so3, ``Pi . Gamma`` and ``|Gamma|^2 / 2`` for se3.
    ``casimir_values`` and ``casimir_gradients`` take a flat point and
    return one value, and one dim-long gradient, per Casimir.  The
    Hessians are constant: ``casimir_hessians`` holds, per Casimir, its
    nonzero entries as ``(row, column, value)``.
    """

    kind: ModelKind
    state_type: type
    lift_type: type
    to_vector: Callable[[object], np.ndarray]
    from_vector: Callable[[object], object]
    columns: tuple
    casimir_names: tuple
    gravity: bool
    casimirs: Callable[[np.ndarray], list]
    casimir_values: Callable[[list], list]
    casimir_gradients: Callable[[list], list]
    casimir_hessians: tuple

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def csv_header(self) -> str:
        return ",".join(("t", *self.columns, "energy", *self.casimir_names))

    def constants(self, params: InertiaParams, grav: Optional[GravityParams]) -> list:
        """The constants of the field kernels, as floats in their order:
        ``i1, i2, i3, j3``, then ``mgh, c1, c2, c3`` (``chi``) with gravity.
        ValueError if the model needs `grav` and it is None."""
        consts = [*params.i_bar.tolist(), params.j3]
        if self.gravity:
            if grav is None:
                raise ValueError(f"gravity parameters required for the {self.kind.value} model")
            consts += [grav.mgh, *grav.chi.tolist()]
        return consts


# np.vecdot is BLAS ddot per row, bit for bit np.dot and np.linalg.norm.
_LAYOUTS = {
    ModelKind.SO3: ModelLayout(
        kind=ModelKind.SO3,
        state_type=So3RotorState,
        lift_type=ControlLiftSo3,
        to_vector=so3_state_to_vector,
        from_vector=so3_state_from_vector,
        columns=("Pi1", "Pi2", "Pi3", "alpha", "l"),
        casimir_names=("pi_norm",),
        gravity=False,
        casimirs=lambda s: [np.sqrt(np.vecdot(s[:, :3], s[:, :3]))],
        casimir_values=lambda y: [(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) / 2],
        casimir_gradients=lambda y: [[y[0], y[1], y[2], 0.0, 0.0]],
        casimir_hessians=(((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)),),
    ),
    ModelKind.SE3: ModelLayout(
        kind=ModelKind.SE3,
        state_type=Se3RotorState,
        lift_type=ControlLiftSe3,
        to_vector=se3_state_to_vector,
        from_vector=se3_state_from_vector,
        columns=("Pi1", "Pi2", "Pi3", "Gamma1", "Gamma2", "Gamma3", "alpha", "l"),
        casimir_names=("pi_dot_gamma", "gamma_norm"),
        gravity=True,
        casimirs=lambda s: [
            np.vecdot(s[:, :3], s[:, 3:6]),
            np.sqrt(np.vecdot(s[:, 3:6], s[:, 3:6])),
        ],
        casimir_values=lambda y: [
            y[0] * y[3] + y[1] * y[4] + y[2] * y[5],
            (y[3] * y[3] + y[4] * y[4] + y[5] * y[5]) / 2,
        ],
        casimir_gradients=lambda y: [
            [y[3], y[4], y[5], y[0], y[1], y[2], 0.0, 0.0],
            [0.0, 0.0, 0.0, y[3], y[4], y[5], 0.0, 0.0],
        ],
        casimir_hessians=(
            ((0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0), (3, 0, 1.0), (4, 1, 1.0), (5, 2, 1.0)),
            ((3, 3, 1.0), (4, 4, 1.0), (5, 5, 1.0)),
        ),
    ),
}


def model_layout(kind: ModelKind) -> ModelLayout:
    """The layout of `kind`; ValueError if `kind` is not a ModelKind."""
    if not isinstance(kind, ModelKind):
        raise ValueError(f"unknown model kind {kind!r}")
    return _LAYOUTS[kind]


def _state_layout(state) -> ModelLayout:
    for lay in _LAYOUTS.values():
        if isinstance(state, lay.state_type):
            return lay
    raise ValueError(f"expected a model state, got {type(state).__name__}")
