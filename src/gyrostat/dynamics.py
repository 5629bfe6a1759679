"""Reduced equations of motion, fixed-step integrators, and diagnostics.

The controlled equations for the symmetric model are

    dPi/dt    = Pi x Omega            + u_pi
    dalpha/dt = l/j3 - (Pi3 - l)/i3   + u_alpha
    dl/dt     =                         u_l

and the restoring-torque model adds the advected direction

    dPi/dt    = Pi x Omega + mgh * Gamma x chi  + u_pi
    dGamma/dt = Gamma x Omega                   + u_gamma

with ``Omega`` recovered from the momenta as in
:func:`gyrostat.model.omega_from_momenta`.  Control lifts enter additively,
one slot per equation.

Integration is fixed-step on the flattened phase vector: classical
fourth-order Runge-Kutta by default, with an implicit midpoint rule as the
structure-friendlier alternative.  Feedback control laws are evaluated at
every integrator substep state.  Step size never adapts; conserved-label
drift is the accuracy diagnostic, not an error controller.

:func:`integrate` steps and records on lists of Python floats in numpy's
operation order, so it equals ndarray arithmetic bit for bit without its
per-call cost on 5 or 8 slots.  The potential and the Casimirs are computed
once per run over the stacked states.  The public :func:`controlled_rhs`,
:func:`step_rk4` and :func:`step_midpoint` are ndarray adapters over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from operator import add
from typing import Callable, Optional, Union

import numpy as np

from .algebra import as_vec3, cross
from .model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    kinetic_energy,
    omega_from_momenta,
    se3_state_from_vector,
    se3_state_to_vector,
    so3_state_from_vector,
    so3_state_to_vector,
)

__all__ = [
    "ControlLiftSo3",
    "ControlLiftSe3",
    "ControlLaw",
    "ZeroControl",
    "ConstantControl",
    "FeedbackControl",
    "IntegrationError",
    "reduced_rhs_so3",
    "reduced_rhs_se3",
    "so3_field_kernel",
    "se3_field_kernel",
    "step_rk4",
    "step_midpoint",
    "integrate",
    "Trajectory",
    "DriftStats",
    "DiagnosticsSummary",
    "diagnostics",
]

MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_ITER = 50


@dataclass(frozen=True)
class ControlLiftSo3:
    """Additive control entries for the symmetric model's equations."""

    u_pi: np.ndarray = field(default_factory=lambda: np.zeros(3))
    u_alpha: float = 0.0
    u_l: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u_pi", as_vec3(self.u_pi))
        object.__setattr__(self, "u_alpha", float(self.u_alpha))
        object.__setattr__(self, "u_l", float(self.u_l))


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
        object.__setattr__(self, "u_alpha", float(self.u_alpha))
        object.__setattr__(self, "u_l", float(self.u_l))


class ControlLaw:
    """Maps a reduced state to a control lift (or None for no control)."""

    def lift_at(self, state):
        raise NotImplementedError


class ZeroControl(ControlLaw):
    """No control anywhere; the fast path for conservative runs."""

    def lift_at(self, state):
        return None


@dataclass
class ConstantControl(ControlLaw):
    """A fixed lift applied at every state."""

    lift: Union[ControlLiftSo3, ControlLiftSe3]

    def lift_at(self, state):
        return self.lift


@dataclass
class FeedbackControl(ControlLaw):
    """State-dependent lift; `law` is called at each integrator substep."""

    law: Callable[[object], Union[ControlLiftSo3, ControlLiftSe3]]

    def lift_at(self, state):
        return self.law(state)


class IntegrationError(RuntimeError):
    """A step failed; carries the failure time and the partial trajectory."""

    def __init__(self, message, time=None, partial=None):
        super().__init__(message)
        self.time = time
        self.partial = partial


def reduced_rhs_so3(
    state: So3RotorState,
    params: InertiaParams,
    lift: Optional[ControlLiftSo3] = None,
) -> np.ndarray:
    """Controlled equations of the symmetric model.

    Returns the time derivative as a flat 5-vector in the canonical
    (Pi1, Pi2, Pi3, alpha, l) order.
    """
    vel = omega_from_momenta(state, params)
    dpi = cross(state.pi, vel.omega)
    dalpha = vel.alpha_dot
    dl = 0.0
    if lift is not None:
        dpi = dpi + lift.u_pi
        dalpha = dalpha + lift.u_alpha
        dl = dl + lift.u_l
    return np.array([dpi[0], dpi[1], dpi[2], dalpha, dl])


def reduced_rhs_se3(
    state: Se3RotorState,
    params: InertiaParams,
    grav: GravityParams,
    lift: Optional[ControlLiftSe3] = None,
) -> np.ndarray:
    """Controlled equations of the restoring-torque model.

    Returns the time derivative as a flat 8-vector in the canonical
    (Pi, Gamma, alpha, l) order.
    """
    vel = omega_from_momenta(state, params)
    dpi = cross(state.pi, vel.omega) + grav.mgh * cross(state.gamma, grav.chi)
    dgamma = cross(state.gamma, vel.omega)
    dalpha = vel.alpha_dot
    dl = 0.0
    if lift is not None:
        dpi = dpi + lift.u_pi
        dgamma = dgamma + lift.u_gamma
        dalpha = dalpha + lift.u_alpha
        dl = dl + lift.u_l
    return np.array(
        [dpi[0], dpi[1], dpi[2], dgamma[0], dgamma[1], dgamma[2], dalpha, dl]
    )


@dataclass
class Trajectory:
    """Sampled output of one integration run.

    ``states`` has one row per sample in the canonical flat order;
    ``casimirs`` has one column per conserved label, named by
    ``casimir_names``.  ``steps`` counts completed integrator steps.
    """

    kind: ModelKind
    params: InertiaParams
    grav: Optional[GravityParams]
    times: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    casimirs: np.ndarray
    casimir_names: tuple
    steps: int


def so3_field_kernel(y, i1, i2, i3, j3):
    """Uncontrolled ``(dPi1, dPi2, dPi3, dalpha)`` of the symmetric model.

    ``dl`` is identically zero and left out.  `y` unpacks into
    ``(Pi1, Pi2, Pi3, alpha, l)``: either a flat sequence of floats, giving
    floats, or a ``(5, n)`` block with one point per column, giving rows
    of n values.  The expressions are those of :func:`reduced_rhs_so3`, so
    both forms agree with it bit for bit.
    """
    p1, p2, p3, _alpha, l = y
    w1 = p1 / i1
    w2 = p2 / i2
    w3 = (p3 - l) / i3
    return (
        p2 * w3 - p3 * w2,
        p3 * w1 - p1 * w3,
        p1 * w2 - p2 * w1,
        l / j3 - w3,
    )


def se3_field_kernel(y, i1, i2, i3, j3, mgh, c1, c2, c3):
    """Uncontrolled ``(dPi, dGamma, dalpha)`` of the restoring-torque model.

    As :func:`so3_field_kernel`, for ``(Pi, Gamma, alpha, l)`` with an
    8-row block, and the expressions of :func:`reduced_rhs_se3`.
    """
    p1, p2, p3, g1, g2, g3, _alpha, l = y
    w1 = p1 / i1
    w2 = p2 / i2
    w3 = (p3 - l) / i3
    return (
        (p2 * w3 - p3 * w2) + mgh * (g2 * c3 - g3 * c2),
        (p3 * w1 - p1 * w3) + mgh * (g3 * c1 - g1 * c3),
        (p1 * w2 - p2 * w1) + mgh * (g1 * c2 - g2 * c1),
        g2 * w3 - g3 * w2,
        g3 * w1 - g1 * w3,
        g1 * w2 - g2 * w1,
        l / j3 - w3,
    )


def _lift_floats(lift, lift_type, kind) -> list:
    """The entries of `lift` as floats in the flat order; ValueError if
    it is not a `lift_type`, e.g. a lift of the other model."""
    if not isinstance(lift, lift_type):
        raise ValueError(
            f"{kind.value} model needs a {lift_type.__name__} lift, "
            f"got {type(lift).__name__}"
        )
    gamma = lift.u_gamma.tolist() if lift_type is ControlLiftSe3 else []
    return [*lift.u_pi.tolist(), *gamma, lift.u_alpha, lift.u_l]


def _flat_field(kind, params, grav, control):
    """The controlled field as a function from a list of floats to one.

    Validates as :func:`controlled_rhs`.  The control enters as one
    addition per slot, the lift's entries turned into floats once for a
    ``ConstantControl`` and at every call for a ``FeedbackControl``.
    """
    i1, i2, i3 = params.i_bar.tolist()
    j3 = params.j3
    if kind == ModelKind.SO3:
        lift_type, from_vec = ControlLiftSo3, so3_state_from_vector

        def free(y):
            return [*so3_field_kernel(y, i1, i2, i3, j3), 0.0]

    elif kind == ModelKind.SE3:
        if grav is None:
            raise ValueError("gravity parameters required for the se3 model")
        lift_type, from_vec = ControlLiftSe3, se3_state_from_vector
        mgh, (c1, c2, c3) = grav.mgh, grav.chi.tolist()

        def free(y):
            return [*se3_field_kernel(y, i1, i2, i3, j3, mgh, c1, c2, c3), 0.0]

    else:
        raise ValueError(f"unknown model kind {kind!r}")
    control = control if control is not None else ZeroControl()
    if isinstance(control, ConstantControl) and control.lift is None:
        control = ZeroControl()

    if isinstance(control, ZeroControl):
        return free
    # free(y) ends in dl = 0.0, so a lift adds u_l to 0.0 as reduced_rhs_*
    # do: a -0.0 entry gives 0.0 there.
    if isinstance(control, ConstantControl):
        u = _lift_floats(control.lift, lift_type, kind)
        return lambda y: list(map(add, free(y), u))

    def rhs(y):
        d = free(y)
        lift = control.lift_at(from_vec(y))
        if lift is None:
            return d
        return list(map(add, d, _lift_floats(lift, lift_type, kind)))

    return rhs


def controlled_rhs(
    kind: ModelKind,
    params: InertiaParams,
    grav: Optional[GravityParams],
    control: Optional[ControlLaw],
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side on flat vectors, with the control law folded in.

    Produces the same floating-point values as the state-based
    :func:`reduced_rhs_so3` / :func:`reduced_rhs_se3`, expression for
    expression, so cross-checks against those functions are exact.
    ``ConstantControl(None)`` is no control, as is ``ZeroControl``.

    Raises
    ------
    ValueError
        On a missing gravity block for se3, or a lift that belongs to the
        other model: up front for a ``ConstantControl``, at the call for a
        ``FeedbackControl``.
    """
    rhs = _flat_field(kind, params, grav, control)
    return lambda y: np.array(rhs(y.tolist()))


def _rk4(rhs, y: list, dt: float) -> list:
    # The operation order of ndarray RK4, one slot at a time.
    h = 0.5 * dt
    k1 = rhs(y)
    k2 = rhs([a + h * k for a, k in zip(y, k1)])
    k3 = rhs([a + h * k for a, k in zip(y, k2)])
    k4 = rhs([a + dt * k for a, k in zip(y, k3)])
    w = dt / 6.0
    out = [
        a + w * (((p + 2.0 * q) + 2.0 * r) + s)
        for a, p, q, r, s in zip(y, k1, k2, k3, k4)
    ]
    if not all(map(isfinite, out)):
        raise IntegrationError("non-finite value in Runge-Kutta stage")
    return out


def _midpoint(rhs, y: list, dt: float, tol: float, max_iter: int) -> list:
    z = y
    for _ in range(max_iter):
        k = rhs([0.5 * (a + b) for a, b in zip(y, z)])
        z_new = [a + dt * b for a, b in zip(y, k)]
        if not all(map(isfinite, z_new)):
            raise IntegrationError("non-finite value in midpoint iteration")
        if max([abs(a - b) for a, b in zip(z_new, z)]) <= tol:
            return z_new
        z = z_new
    raise IntegrationError(
        f"implicit midpoint failed to converge in {max_iter} iterations "
        f"(dt={dt:g} likely too large)"
    )


def step_rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step.

    Raises
    ------
    IntegrationError
        If any stage produces a non-finite value.
    """
    y = np.asarray(y, dtype=float).tolist()
    return np.array(_rk4(lambda v: rhs(np.array(v)).tolist(), y, dt))


def step_midpoint(
    rhs: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    dt: float,
    tol: float = MIDPOINT_TOL,
    max_iter: int = MIDPOINT_MAX_ITER,
) -> np.ndarray:
    """One implicit midpoint step, solved by fixed-point iteration.

    The iteration map is ``z -> y + dt * rhs((y + z)/2)`` and converges when
    the update falls below `tol` in max norm.  The midpoint rule preserves
    quadratic invariants of linear flows exactly, up to this tolerance.

    Raises
    ------
    IntegrationError
        On non-convergence (step too large for the local contraction) or a
        non-finite iterate.
    """
    y = np.asarray(y, dtype=float).tolist()
    return np.array(
        _midpoint(lambda v: rhs(np.array(v)).tolist(), y, dt, tol, max_iter)
    )


def integrate(
    kind: ModelKind,
    params: InertiaParams,
    initial,
    *,
    grav: Optional[GravityParams] = None,
    control: Optional[ControlLaw] = None,
    dt: float = 1e-3,
    t_end: float = 1.0,
    sample_every: int = 10,
    method: str = "rk4",
    midpoint_tol: float = MIDPOINT_TOL,
    midpoint_max_iter: int = MIDPOINT_MAX_ITER,
) -> Trajectory:
    """Fixed-step integration with per-sample conserved-label recording.

    The run takes ``round(t_end / dt)`` steps of exactly `dt`; sample times
    are exact step multiples.  Samples always include the initial state and
    the final step, plus every `sample_every`-th step in between.

    Raises
    ------
    IntegrationError
        Propagated from a failing step, with ``time`` set to the failure
        time and ``partial`` holding the samples collected so far.
    ValueError
        On bad step parameters, a state that does not match `kind`, or a
        control lift of the other model.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if method not in ("rk4", "midpoint"):
        raise ValueError(f"method must be 'rk4' or 'midpoint', got {method!r}")

    if kind == ModelKind.SO3:
        if not isinstance(initial, So3RotorState):
            raise ValueError("so3 model requires an So3RotorState initial state")
        y = so3_state_to_vector(initial).tolist()
        casimir_names = ("pi_norm",)
    elif kind == ModelKind.SE3:
        if not isinstance(initial, Se3RotorState):
            raise ValueError("se3 model requires an Se3RotorState initial state")
        y = se3_state_to_vector(initial).tolist()
        casimir_names = ("pi_dot_gamma", "gamma_norm")
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    rhs = _flat_field(kind, params, grav, control)
    n_steps = max(1, int(round(t_end / dt)))
    i1, i2, i3 = params.i_bar.tolist()

    times = []
    rows = []
    kinetic = []

    def record(t, y):
        times.append(t)
        rows.append(y)
        kinetic.append(kinetic_energy(y[0], y[1], y[2], y[-1], i1, i2, i3, params.j3))

    def build(steps_done):
        # np.vecdot is BLAS ddot per row, as np.dot and np.linalg.norm
        # are in hamiltonian_se3 and casimirs.
        states = np.array(rows)
        energy = np.array(kinetic)
        pi = states[:, :3]
        if kind == ModelKind.SO3:
            labels = [np.sqrt(np.vecdot(pi, pi))]
        else:
            gamma = states[:, 3:6]
            energy = energy + grav.mgh * np.vecdot(gamma, grav.chi)
            labels = [np.vecdot(pi, gamma), np.sqrt(np.vecdot(gamma, gamma))]
        return Trajectory(
            kind=kind,
            params=params,
            grav=grav,
            times=np.array(times),
            states=states,
            energy=energy,
            casimirs=np.column_stack(labels),
            casimir_names=casimir_names,
            steps=steps_done,
        )

    record(0.0, y)
    for step in range(1, n_steps + 1):
        try:
            if method == "rk4":
                y = _rk4(rhs, y, dt)
            else:
                y = _midpoint(rhs, y, dt, midpoint_tol, midpoint_max_iter)
        except IntegrationError as err:
            err.time = step * dt
            err.partial = build(step - 1)
            raise
        if step % sample_every == 0 or step == n_steps:
            record(step * dt, y)
    return build(n_steps)


@dataclass(frozen=True)
class DriftStats:
    """Drift of one conserved quantity relative to its initial value.

    Relative figures divide by ``max(1, |initial value|)`` so that labels
    crossing zero do not blow up the report.
    """

    max_abs: float
    mean_abs: float
    max_rel: float
    mean_rel: float


@dataclass(frozen=True)
class DiagnosticsSummary:
    """Conservation drift and state extent over one trajectory."""

    energy: DriftStats
    casimirs: dict
    state_min: np.ndarray
    state_max: np.ndarray


def _drift_stats(series: np.ndarray) -> DriftStats:
    ref = series[0]
    dev = np.abs(series - ref)
    denom = max(1.0, abs(float(ref)))
    return DriftStats(
        max_abs=float(dev.max()),
        mean_abs=float(dev.mean()),
        max_rel=float(dev.max() / denom),
        mean_rel=float(dev.mean() / denom),
    )


def diagnostics(traj: Trajectory) -> DiagnosticsSummary:
    """Summarize conserved-label drift and per-component state range."""
    cas = {
        name: _drift_stats(traj.casimirs[:, j])
        for j, name in enumerate(traj.casimir_names)
    }
    return DiagnosticsSummary(
        energy=_drift_stats(traj.energy),
        casimirs=cas,
        state_min=traj.states.min(axis=0),
        state_max=traj.states.max(axis=0),
    )
