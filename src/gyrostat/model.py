"""Parameters, states, control lifts, Hamiltonians, and Casimirs.

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
moment.  These four numbers are the whole inertia input: the body rate
``Omega = (Pi1/i1, Pi2/i2, (Pi3 - l)/i3)`` is written once, as the rates
``_RATES`` of the field table in :mod:`gyrostat.dynamics`.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .algebra import as_vec3

__all__ = [
    "ModelKind",
    "InertiaParams",
    "GravityParams",
    "So3RotorState",
    "Se3RotorState",
    "hamiltonian_so3",
    "hamiltonian_se3",
    "kinetic_energy",
    "casimirs",
    "ModelLayout",
    "model_layout",
]

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

    Raises
    ------
    ValueError
        If any moment is non-positive or not finite.
    """

    i_bar: np.ndarray
    j3: float

    def __post_init__(self):
        object.__setattr__(self, "i_bar", as_vec3(self.i_bar))
        object.__setattr__(self, "j3", float(self.j3))
        # as_vec3 has rejected non-finite moments, so min() sees no NaN.
        if min(self.i_bar.tolist()) <= 0.0:
            raise ValueError(f"locked moments must be positive, got {self.i_bar}")
        if not math.isfinite(self.j3):
            raise ValueError(f"rotor axial moment must be finite, got {self.j3}")
        if self.j3 <= 0.0:
            raise ValueError(f"rotor axial moment must be positive, got {self.j3}")


@dataclass(frozen=True)
class GravityParams:
    """Restoring-torque parameters for the se(3)* model.

    ``chi`` is the body-frame direction from the reference center to the
    center of gravity, stored normalized and read-only.  A norm off unity
    by more than ``CHI_NORM_WARN_TOL`` triggers renormalization with a
    warning; norms below ``CHI_NORM_REJECT_TOL`` (taken without overflow)
    are rejected as direction-free.
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
        norm = float(_row_norms(chi[np.newaxis])[0])
        if norm < CHI_NORM_REJECT_TOL:
            raise ValueError(f"chi norm {norm:.3e} is too small to define a direction")
        if abs(norm - 1.0) > CHI_NORM_WARN_TOL:
            warnings.warn(
                f"chi norm {norm:.12g} differs from 1; renormalizing",
                stacklevel=3,
            )
            chi = chi / norm
            chi.flags.writeable = False
        object.__setattr__(self, "chi", chi)


@functools.cache
def _flat_fields(cls: type) -> tuple:
    """``(name, vector, required)`` per field of a state or lift type, in
    declaration order: a field with no plain default is a 3-vector, every
    other one a float, and one with no default at all is required."""
    return tuple(
        (f.name, f.default is MISSING, f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


class _Flat:
    """Base of the state and lift types, whose fields follow one rule: a
    vector field is stored as a read-only finite copy by ``as_vec3``, the
    others as floats, and ValueError unless all the floats are finite."""

    def __post_init__(self):
        floats = []
        for name, vector, _ in _flat_fields(type(self)):
            if vector:
                object.__setattr__(self, name, as_vec3(getattr(self, name)))
            else:
                object.__setattr__(self, name, float(getattr(self, name)))
                floats.append(name)
        if not all(math.isfinite(getattr(self, name)) for name in floats):
            raise ValueError(f"{' and '.join(floats)} must be finite")


@dataclass(frozen=True)
class So3RotorState(_Flat):
    """Phase point (Pi, alpha, l) of the symmetric model."""

    pi: np.ndarray
    alpha: float = 0.0
    l: float = 0.0


@dataclass(frozen=True)
class Se3RotorState(_Flat):
    """Phase point (Pi, Gamma, alpha, l) of the restoring-torque model.

    ``Gamma`` is not normalized here: its norm is a conserved label of the
    orbit and any drift in it is a diagnostic of integration quality, so
    the state stores whatever it is given.
    """

    pi: np.ndarray
    gamma: np.ndarray
    alpha: float = 0.0
    l: float = 0.0


@dataclass(frozen=True)
class ControlLiftSo3(_Flat):
    """Additive control entries for the symmetric model's equations."""

    u_pi: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_alpha: float = 0.0
    u_l: float = 0.0


@dataclass(frozen=True)
class ControlLiftSe3(_Flat):
    """Additive control entries for the restoring-torque model's equations."""

    u_pi: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_gamma: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_alpha: float = 0.0
    u_l: float = 0.0


def kinetic_energy(p1, p2, p3, l, i1, i2, i3, j3):
    """``(Pi1^2/i1 + Pi2^2/i2 + (Pi3 - l)^2/i3 + l^2/j3) / 2`` on scalars or
    arrays, squared as products as numpy squares an array (``x**2`` on a
    float is libm ``pow``, which may round otherwise); overflow is ``inf``."""
    d = p3 - l
    return 0.5 * (p1 * p1 / i1 + p2 * p2 / i2 + d * d / i3 + l * l / j3)


def hamiltonian_so3(state: So3RotorState, params: InertiaParams) -> float:
    """Reduced energy of the symmetric model.

    ``H = (Pi1^2/i1 + Pi2^2/i2 + (Pi3 - l)^2/i3 + l^2/j3) / 2``; the
    rotor angle is cyclic and does not enter.  ValueError unless `state`
    is a :class:`So3RotorState`.
    """
    lay = model_layout(ModelKind.SO3)
    return float(lay.energy(lay.to_vector(state)[np.newaxis], params, None)[0])


def hamiltonian_se3(
    state: Se3RotorState, params: InertiaParams, grav: GravityParams
) -> float:
    """Reduced energy of the restoring-torque model.

    The kinetic part coincides with :func:`hamiltonian_so3` on ``(Pi, l)``;
    the potential adds ``mgh * Gamma . chi``.  ValueError unless `state`
    is a :class:`Se3RotorState`, or if `grav` is None.
    """
    lay = model_layout(ModelKind.SE3)
    return float(lay.energy(lay.to_vector(state)[np.newaxis], params, grav)[0])


def casimirs(state, kind: ModelKind) -> dict:
    """Conserved orbit labels of the bracket geometry, ``{name: value}`` as
    the CSV's Casimir columns: ``pi_norm`` (``|Pi|``) for the symmetric
    model; ``pi_dot_gamma`` and ``gamma_norm`` for the restoring-torque
    model.  These are constants of motion for every Hamiltonian and every
    control lift acting along the reduced equations' geometric directions,
    so their drift measures integrator error.

    Raises
    ------
    ValueError
        If `kind` is not a :class:`ModelKind` or the state type does not
        match it.
    """
    lay = model_layout(kind)
    labels = lay.casimirs(lay.to_vector(state)[np.newaxis])
    return {name: float(v[0]) for name, v in zip(lay.casimir_names, labels)}


@dataclass(frozen=True)
class ModelLayout:
    """How the phase point of one model is laid out, as a flat vector.

    Four fields describe a model; the rest is read off them once.  The
    fields of ``state_type`` and of ``lift_type``, taken in declaration
    order, fill the slots in order, 3 per vector and 1 per float, and the
    ``columns`` name the state's: ``V1, V2, V3`` for a vector ``v``, the
    name for a float.  :meth:`to_vector`, :meth:`from_vector` and
    :meth:`lift_floats` are the package's only conversions between those
    types and floats, and its only check that a state or lift is the
    model's.  :meth:`energy` gives the energies of stacked ``(n, dim)``
    states, with the potential of a :class:`GravityParams` where
    ``gravity`` (the state has a ``gamma`` field).

    Each Casimir is written once, in ``casimir_slots``: the start slots
    ``(a, b)`` of the two 3-vectors it pairs, named ``<a>_norm`` where
    ``a == b`` and ``<a>_dot_<b>`` otherwise by the state fields there.
    :meth:`casimirs` labels stacked states with ``v_a . v_b``, or ``|v_a|``
    where ``a == b``; the search's ``casimir_values`` (``v_a . v_b`` or
    ``|v_a|^2 / 2``) and ``casimir_gradients`` of a flat point are
    compiled from the slots.
    """

    kind: ModelKind
    state_type: type
    lift_type: type
    casimir_slots: tuple

    def __post_init__(self):
        columns, at = [], {}
        for name, vector, _ in _flat_fields(self.state_type):
            at[len(columns)] = name
            columns += [f"{name.capitalize()}{k}" for k in (1, 2, 3)] if vector else [name]
        object.__setattr__(self, "columns", tuple(columns))
        names = (f"{at[a]}_" + ("norm" if a == b else f"dot_{at[b]}") for a, b in self.casimir_slots)
        object.__setattr__(self, "casimir_names", tuple(names))
        object.__setattr__(self, "gravity", "gamma" in at.values())
        values, gradients = [], []
        for a, b in self.casimir_slots:
            dot = " + ".join(f"y[{a + k}] * y[{b + k}]" for k in range(3))
            values.append(f"({dot}) / 2" if a == b else f"({dot})")
            grad = ["0.0"] * self.dim
            for k in range(3):
                grad[a + k], grad[b + k] = f"y[{b + k}]", f"y[{a + k}]"
            gradients.append(f"[{', '.join(grad)}]")
        for name, forms in (("casimir_values", values), ("casimir_gradients", gradients)):
            object.__setattr__(self, name, eval(f"lambda y: [{', '.join(forms)}]", {}))

    def casimirs(self, states: np.ndarray) -> list:
        """Per Casimir, the labels of the stacked ``(n, dim)`` `states`."""
        labels = []
        for a, b in self.casimir_slots:
            u, v = states[:, a : a + 3], states[:, b : b + 3]
            labels.append(_row_norms(u) if a == b else _row_dots(u, v))
        return labels

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def csv_header(self) -> str:
        return ",".join(("t", *self.columns, "energy", *self.casimir_names))

    def _floats(self, obj, want: type, what: str) -> list:
        """The fields of `obj` in declaration order, as floats; ValueError
        unless `obj` is a `want`, e.g. a `what` of the other model."""
        if not isinstance(obj, want):
            got = type(obj).__name__
            raise ValueError(f"{self.kind.value} model needs a {want.__name__} {what}, got {got}")
        # _Flat makes the scalar fields floats and the others ndarrays.
        return [x for v in vars(obj).values() for x in ((v,) if type(v) is float else v.tolist())]

    def to_vector(self, state) -> np.ndarray:
        """`state` as a flat vector; ValueError unless a ``state_type``."""
        return np.array(self._floats(state, self.state_type, "state"))

    def from_vector(self, y):
        """The ``state_type`` at `y`; ValueError unless a flat ``dim``-vector."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise ValueError(f"expected a {self.dim}-vector, got shape {y.shape}")
        values, i = {}, 0
        for name, vector, _ in _flat_fields(self.state_type):
            values[name], i = (y[i : i + 3], i + 3) if vector else (y[i], i + 1)
        return self.state_type(**values)

    def lift_floats(self, lift) -> list:
        """`lift` as a flat list of floats; ValueError unless a ``lift_type``."""
        return self._floats(lift, self.lift_type, "lift")

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

    def energy(
        self, states: np.ndarray, params: InertiaParams, grav: Optional[GravityParams]
    ) -> np.ndarray:
        """The energy of each stacked ``(n, dim)`` state: :func:`kinetic_energy`,
        plus ``mgh * Gamma . chi`` with gravity (np.vecdot, bit for bit np.dot).
        ValueError as :meth:`constants`; an overflow is inf or NaN, unwarned."""
        c = self.constants(params, grav)
        s = states.T
        with np.errstate(over="ignore", invalid="ignore"):
            kinetic = kinetic_energy(s[0], s[1], s[2], s[-1], *c[:4])
            return kinetic + c[4] * np.vecdot(states[:, 3:6], c[5:]) if self.gravity else kinetic


_TINY = np.finfo(float).tiny


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the ``(n, 3)`` array `v`.

    ``sqrt(v . v)``, np.vecdot being BLAS ddot per row, bit for bit np.dot
    and np.linalg.norm.  A finite row whose sum of squares overflows, or
    falls below the smallest normal double while the row is nonzero, is
    divided by its largest magnitude first, so its norm is the double it
    is, not inf or 0; every other row keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.vecdot(v, v)
        norms = np.sqrt(sq)
        out_of_range = ((sq == np.inf) | (sq < _TINY)).nonzero()[0]
        if out_of_range.size:
            w = v[out_of_range]
            top = np.max(np.abs(w), axis=1)
            keep = (top > 0.0) & (top < np.inf)
            w = w[keep] / top[keep, np.newaxis]
            norms[out_of_range[keep]] = top[keep] * np.sqrt(np.vecdot(w, w))
    return norms


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a . b`` per row of the ``(n, 3)`` arrays `a` and `b`, by np.vecdot.
    A finite pair of rows whose product overflows is divided by their
    largest magnitudes, which are then multiplied back one at a time, the
    smaller first, so a zero stays zero; every other row keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.vecdot(a, b)
        rows = np.flatnonzero(~np.isfinite(dots))
        if rows.size:
            ta, tb = np.max(np.abs(a[rows]), axis=1), np.max(np.abs(b[rows]), axis=1)
            keep = (ta < np.inf) & (tb < np.inf)
            rows, ta, tb = rows[keep], ta[keep], tb[keep]
            d = np.vecdot(a[rows] / ta[:, np.newaxis], b[rows] / tb[:, np.newaxis])
            dots[rows] = d * np.minimum(ta, tb) * np.maximum(ta, tb)
    return dots


_LAYOUTS = {
    ModelKind.SO3: ModelLayout(ModelKind.SO3, So3RotorState, ControlLiftSo3, ((0, 0),)),
    ModelKind.SE3: ModelLayout(ModelKind.SE3, Se3RotorState, ControlLiftSe3, ((0, 3), (3, 3))),
}


def model_layout(kind: ModelKind) -> ModelLayout:
    """The layout of `kind`; ValueError if `kind` is not a ModelKind."""
    if not isinstance(kind, ModelKind):
        raise ValueError(f"unknown model kind {kind!r}")
    return _LAYOUTS[kind]

