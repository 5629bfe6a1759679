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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .algebra import as_vec3, cross
from .model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    casimirs,
    hamiltonian_se3,
    hamiltonian_so3,
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


def step_rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step.

    Raises
    ------
    IntegrationError
        If any stage produces a non-finite value.
    """
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError("non-finite value in Runge-Kutta stage")
    return out


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
    z = y.copy()
    for _ in range(max_iter):
        z_new = y + dt * rhs(0.5 * (y + z))
        if not np.all(np.isfinite(z_new)):
            raise IntegrationError("non-finite value in midpoint iteration")
        if np.max(np.abs(z_new - z)) <= tol:
            return z_new
        z = z_new
    raise IntegrationError(
        f"implicit midpoint failed to converge in {max_iter} iterations "
        f"(dt={dt:g} likely too large)"
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


def _so3_rhs_vec(params, control):
    i1, i2, i3 = (float(v) for v in params.i_bar)
    j3 = params.j3
    fast = isinstance(control, ZeroControl)
    const_lift = control.lift if isinstance(control, ConstantControl) else None

    def rhs(y: np.ndarray) -> np.ndarray:
        d0, d1, d2, d3 = so3_field_kernel(y.tolist(), i1, i2, i3, j3)
        d4 = 0.0
        if not fast:
            lift = const_lift if const_lift is not None else control.lift_at(
                so3_state_from_vector(y)
            )
            if lift is not None:
                d0 += lift.u_pi[0]
                d1 += lift.u_pi[1]
                d2 += lift.u_pi[2]
                d3 += lift.u_alpha
                d4 += lift.u_l
        return np.array([d0, d1, d2, d3, d4])

    return rhs


def _se3_rhs_vec(params, grav, control):
    i1, i2, i3 = (float(v) for v in params.i_bar)
    j3 = params.j3
    mgh = grav.mgh
    c1, c2, c3 = (float(v) for v in grav.chi)
    fast = isinstance(control, ZeroControl)
    const_lift = control.lift if isinstance(control, ConstantControl) else None

    def rhs(y: np.ndarray) -> np.ndarray:
        d0, d1, d2, d3, d4, d5, d6 = se3_field_kernel(
            y.tolist(), i1, i2, i3, j3, mgh, c1, c2, c3
        )
        d7 = 0.0
        if not fast:
            lift = const_lift if const_lift is not None else control.lift_at(
                se3_state_from_vector(y)
            )
            if lift is not None:
                d0 += lift.u_pi[0]
                d1 += lift.u_pi[1]
                d2 += lift.u_pi[2]
                d3 += lift.u_gamma[0]
                d4 += lift.u_gamma[1]
                d5 += lift.u_gamma[2]
                d6 += lift.u_alpha
                d7 += lift.u_l
        return np.array([d0, d1, d2, d3, d4, d5, d6, d7])

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
        On a missing gravity block for se3, or a ``ConstantControl`` whose
        lift belongs to the other model.
    """
    if kind == ModelKind.SO3:
        lift_type = ControlLiftSo3
    elif kind == ModelKind.SE3:
        if grav is None:
            raise ValueError("gravity parameters required for the se3 model")
        lift_type = ControlLiftSe3
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    control = control if control is not None else ZeroControl()
    if isinstance(control, ConstantControl):
        if control.lift is None:
            control = ZeroControl()
        elif not isinstance(control.lift, lift_type):
            raise ValueError(
                f"{kind.value} model needs a {lift_type.__name__} lift, "
                f"got {type(control.lift).__name__}"
            )
    if kind == ModelKind.SO3:
        return _so3_rhs_vec(params, control)
    return _se3_rhs_vec(params, grav, control)


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
        On bad step parameters or a state that does not match `kind`.
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
        to_vec, from_vec = so3_state_to_vector, so3_state_from_vector
    elif kind == ModelKind.SE3:
        if not isinstance(initial, Se3RotorState):
            raise ValueError("se3 model requires an Se3RotorState initial state")
        if grav is None:
            raise ValueError("gravity parameters required for the se3 model")
        to_vec, from_vec = se3_state_to_vector, se3_state_from_vector
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    rhs = controlled_rhs(kind, params, grav, control)
    n_steps = max(1, int(round(t_end / dt)))

    def energy_and_labels(y):
        state = from_vec(y)
        if kind == ModelKind.SO3:
            e = hamiltonian_so3(state, params)
            lab = casimirs(state, kind)
            return e, (lab.pi_norm,)
        e = hamiltonian_se3(state, params, grav)
        lab = casimirs(state, kind)
        return e, (lab.pi_dot_gamma, lab.gamma_norm)

    casimir_names = ("pi_norm",) if kind == ModelKind.SO3 else (
        "pi_dot_gamma",
        "gamma_norm",
    )

    times = []
    rows = []
    energies = []
    labels = []

    def record(t, y):
        e, lab = energy_and_labels(y)
        times.append(t)
        rows.append(y.copy())
        energies.append(e)
        labels.append(lab)

    def build(steps_done):
        return Trajectory(
            kind=kind,
            params=params,
            grav=grav,
            times=np.array(times),
            states=np.array(rows),
            energy=np.array(energies),
            casimirs=np.array(labels),
            casimir_names=casimir_names,
            steps=steps_done,
        )

    y = to_vec(initial)
    record(0.0, y)
    for step in range(1, n_steps + 1):
        try:
            if method == "rk4":
                y = step_rk4(rhs, y, dt)
            else:
                y = step_midpoint(rhs, y, dt, midpoint_tol, midpoint_max_iter)
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
