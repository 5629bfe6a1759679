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

These Lie-Poisson equations are written out once, in
:func:`so3_field_kernel` and :func:`se3_field_kernel`: every field and
every steady residual of the package evaluates them, and the state-based
:func:`reduced_rhs_so3` and :func:`reduced_rhs_se3` are wrappers.

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

What differs between the models is looked up, not branched on: the
layout and the constants in :func:`gyrostat.model.model_layout`, and the
kernel and its exact Jacobian by name.  One builder binds the constants
to them and folds in a control law; the integrator,
:func:`controlled_rhs`, the bracket audit, the equilibrium search and the
steady residual each call it once.  The lift types live in :mod:`gyrostat.model` and are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isfinite
from operator import add
from typing import Callable, Optional, Union

import numpy as np

from .model import (
    ControlLiftSe3,
    ControlLiftSo3,
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    kinetic_energy,
    model_layout,
)
from .poisson import FD_SCALE

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

MAX_STEPS = 10**6
"""The most steps one :func:`integrate` run may take; ``round(t_end / dt)``
above it is rejected up front.  A step costs ~11-13 us with RK4 and ~36 us
with the implicit midpoint rule (so3 and se3 runs on one 2-CPU host), so
a run at the ceiling takes up to ~40 s.  Every sample is kept in memory,
~0.5 kB each for se3, so at ``sample_every = 1`` such a run holds ~0.5 GB.
"""


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


def _state_rhs(kind, state, params, grav, lift) -> np.ndarray:
    lay = model_layout(kind)
    if not isinstance(state, lay.state_type):
        raise ValueError(f"{kind.value} model requires an {lay.state_type.__name__}")
    rhs = controlled_rhs(kind, params, grav, ConstantControl(lift))
    return rhs(lay.to_vector(state))


def reduced_rhs_so3(
    state: So3RotorState,
    params: InertiaParams,
    lift: Optional[ControlLiftSo3] = None,
) -> np.ndarray:
    """Controlled equations of the symmetric model at one state, as a flat
    5-vector in the canonical (Pi1, Pi2, Pi3, alpha, l) order.

    A wrapper over :func:`controlled_rhs`; ValueError if `state` or `lift`
    belongs to the other model.
    """
    return _state_rhs(ModelKind.SO3, state, params, None, lift)


def reduced_rhs_se3(
    state: Se3RotorState,
    params: InertiaParams,
    grav: GravityParams,
    lift: Optional[ControlLiftSe3] = None,
) -> np.ndarray:
    """As :func:`reduced_rhs_so3`, for the restoring-torque model: a flat
    8-vector in the canonical (Pi, Gamma, alpha, l) order.  ValueError also
    if `grav` is None."""
    return _state_rhs(ModelKind.SE3, state, params, grav, lift)


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


def so3_field_kernel(i1, i2, i3, j3, y):
    """Uncontrolled ``(dPi1, dPi2, dPi3, dalpha, dl)`` of the symmetric
    model, ``dl = 0.0``, with the constants first in
    :meth:`~gyrostat.model.ModelLayout.constants` order.

    `y` unpacks into ``(Pi1, Pi2, Pi3, alpha, l)``: a flat sequence of
    floats gives floats, and a ``(5, n)`` block with one point per column
    rows of n values.  Every field and steady residual of the package
    evaluates these expressions; ``tests/test_symbolic.py`` derives them
    from the energy and the Lie-Poisson bracket.
    """
    p1, p2, p3, _alpha, l = y
    w1 = p1 / i1
    w2 = p2 / i2
    w3 = (p3 - l) / i3
    return [
        p2 * w3 - p3 * w2,
        p3 * w1 - p1 * w3,
        p1 * w2 - p2 * w1,
        l / j3 - w3,
        0.0,
    ]


def se3_field_kernel(i1, i2, i3, j3, mgh, c1, c2, c3, y):
    """As :func:`so3_field_kernel`, for the restoring-torque model's
    ``(Pi, Gamma, alpha, l)`` and an 8-row block."""
    p1, p2, p3, g1, g2, g3, _alpha, l = y
    w1 = p1 / i1
    w2 = p2 / i2
    w3 = (p3 - l) / i3
    return [
        (p2 * w3 - p3 * w2) + mgh * (g2 * c3 - g3 * c2),
        (p3 * w1 - p1 * w3) + mgh * (g3 * c1 - g1 * c3),
        (p1 * w2 - p2 * w1) + mgh * (g1 * c2 - g2 * c1),
        g2 * w3 - g3 * w2,
        g3 * w1 - g1 * w3,
        g1 * w2 - g2 * w1,
        l / j3 - w3,
        0.0,
    ]


def _so3_field_jacobian(i1, i2, i3, j3, y):
    """Columns ``cols[j][i] = d(field_i)/d(y_j)`` of :func:`so3_field_kernel`,
    each entry linear in `y`.  An entry whose expression never mentions
    the slot, the alpha column and the ``dl`` row among them, is a literal
    ``0.0``; ``tests/test_symbolic.py`` checks them."""
    p1, p2, p3, _alpha, l = y
    w1 = p1 / i1
    w2 = p2 / i2
    w3 = (p3 - l) / i3
    return [
        [0.0, p3 / i1 - w3, w2 - p2 / i1, 0.0, 0.0],
        [w3 - p3 / i2, 0.0, p1 / i2 - w1, 0.0, 0.0],
        [p2 / i3 - w2, w1 - p1 / i3, 0.0, -1 / i3, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [-p2 / i3, p1 / i3, 0.0, 1 / j3 + 1 / i3, 0.0],
    ]


def _se3_field_jacobian(i1, i2, i3, j3, mgh, c1, c2, c3, y):
    """As :func:`_so3_field_jacobian`, for :func:`se3_field_kernel`."""
    p1, p2, p3, g1, g2, g3, _alpha, l = y
    w1 = p1 / i1
    w2 = p2 / i2
    w3 = (p3 - l) / i3
    return [
        [0.0, p3 / i1 - w3, w2 - p2 / i1, 0.0, g3 / i1, -g2 / i1, 0.0, 0.0],
        [w3 - p3 / i2, 0.0, p1 / i2 - w1, -g3 / i2, 0.0, g1 / i2, 0.0, 0.0],
        [p2 / i3 - w2, w1 - p1 / i3, 0.0, g2 / i3, -g1 / i3, 0.0, -1 / i3, 0.0],
        [0.0, -mgh * c3, mgh * c2, 0.0, -w3, w2, 0.0, 0.0],
        [mgh * c3, 0.0, -mgh * c1, w3, 0.0, -w1, 0.0, 0.0],
        [-mgh * c2, mgh * c1, 0.0, -w2, w1, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-p2 / i3, p1 / i3, 0.0, -g2 / i3, g1 / i3, 0.0, 1 / j3 + 1 / i3, 0.0],
    ]


def _lift_floats(lift, lay) -> list:
    """The entries of `lift` as floats in the flat order, which is its
    fields' declaration order; ValueError if it is not the lift type of
    the layout `lay`, e.g. a lift of the other model."""
    if not isinstance(lift, lay.lift_type):
        raise ValueError(
            f"{lay.kind.value} model needs a {lay.lift_type.__name__} lift, "
            f"got {type(lift).__name__}"
        )
    # __post_init__ makes the scalar fields floats and the others ndarrays.
    return [x for v in vars(lift).values() for x in ((v,) if type(v) is float else v.tolist())]


def _flat_system(kind, params, grav, control):
    """The controlled field and its Jacobian, as functions from a list of
    floats to a list of floats and to a list of columns.

    Validates as :func:`controlled_rhs`.  The control enters the field as
    one addition per slot, the lift's entries turned into floats once for
    a ``ConstantControl`` and at every call for a ``FeedbackControl``.
    Without control the field is the model's kernel with its constants
    bound, which also takes a ``(dim, n)`` block.  The Jacobian is exact
    for the free field, nothing is added for a constant lift, and central
    differences of the lift alone are added for a ``FeedbackControl`` (a
    ``None`` lift is zero).
    """
    lay = model_layout(kind)
    consts = lay.constants(params, grav)
    # Looked up by name at each build, so that a wrapper set on the
    # module's attribute sees every call.
    free = partial(globals()[f"{kind.value}_field_kernel"], *consts)
    jac = partial(globals()[f"_{kind.value}_field_jacobian"], *consts)
    control = control if control is not None else ZeroControl()
    if isinstance(control, ConstantControl) and control.lift is None:
        control = ZeroControl()

    if isinstance(control, ZeroControl):
        return free, jac
    # free(y) ends in dl = 0.0, so a lift adds u_l to 0.0: a -0.0 entry
    # gives 0.0 there.
    if isinstance(control, ConstantControl):
        u = _lift_floats(control.lift, lay)
        return (lambda y: list(map(add, free(y), u))), jac

    def rhs(y):
        d = free(y)
        lift = control.lift_at(lay.from_vector(y))
        if lift is None:
            return d
        return list(map(add, d, _lift_floats(lift, lay)))

    def lift(y):
        u = control.lift_at(lay.from_vector(y))
        return [0.0] * lay.dim if u is None else _lift_floats(u, lay)

    # A zero difference leaves the entry as it is, -0.0 included, so a law
    # that returns None gives the free Jacobian bit for bit.
    return rhs, lambda y: [
        [a + b if b else a for a, b in zip(col, du)]
        for col, du in zip(jac(y), _fd_jacobian(lift, y))
    ]


def _fd_jacobian(rhs, y: list) -> list:
    """Central-difference Jacobian of `rhs` at `y` as a list of columns."""
    cols = []
    for j, v in enumerate(y):
        # fd_steps' rule; max(|v|, 1.0) keeps a NaN as np.maximum does.
        h = FD_SCALE * max(abs(v), 1.0)
        probe = y.copy()
        probe[j] = v + h
        f_plus = rhs(probe)
        probe[j] = v - h
        d = 2.0 * h
        cols.append([(a - b) / d for a, b in zip(f_plus, rhs(probe))])
    return cols


def controlled_rhs(
    kind: ModelKind,
    params: InertiaParams,
    grav: Optional[GravityParams],
    control: Optional[ControlLaw],
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side on flat vectors, with the control law folded in.

    The state-based :func:`reduced_rhs_so3` / :func:`reduced_rhs_se3` are
    wrappers over it, not an independent cross-check; the reference for
    the field kernels is the symbolic derivation in the test suite.
    ``ConstantControl(None)`` is no control, as is ``ZeroControl``.

    Raises
    ------
    ValueError
        On a missing gravity block for se3, or a lift that belongs to the
        other model: up front for a ``ConstantControl``, at the call for a
        ``FeedbackControl``.
    """
    rhs, _jac = _flat_system(kind, params, grav, control)
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


def _midpoint(rhs, y: list, dt: float) -> list:
    z = y
    for _ in range(MIDPOINT_MAX_ITER):
        k = rhs([0.5 * (a + b) for a, b in zip(y, z)])
        z_new = [a + dt * b for a, b in zip(y, k)]
        if not all(map(isfinite, z_new)):
            raise IntegrationError("non-finite value in midpoint iteration")
        if max([abs(a - b) for a, b in zip(z_new, z)]) <= MIDPOINT_TOL:
            return z_new
        z = z_new
    raise IntegrationError(
        f"implicit midpoint failed to converge in {MIDPOINT_MAX_ITER} iterations "
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
) -> np.ndarray:
    """One implicit midpoint step, solved by fixed-point iteration.

    The iteration map is ``z -> y + dt * rhs((y + z)/2)`` and converges when
    the update falls below ``MIDPOINT_TOL`` in max norm, within
    ``MIDPOINT_MAX_ITER`` sweeps.  The midpoint rule preserves quadratic
    invariants of linear flows exactly, up to this tolerance.

    Raises
    ------
    IntegrationError
        On non-convergence (step too large for the local contraction) or a
        non-finite iterate.
    """
    y = np.asarray(y, dtype=float).tolist()
    return np.array(_midpoint(lambda v: rhs(np.array(v)).tolist(), y, dt))


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
) -> Trajectory:
    """Fixed-step integration with per-sample conserved-label recording.

    The run takes ``round(t_end / dt)`` steps of exactly `dt`; sample times
    are exact step multiples.  Samples always include the initial state and
    the final step, plus every `sample_every`-th step in between.  A
    ``"midpoint"`` step is solved as in :func:`step_midpoint`.

    Raises
    ------
    IntegrationError
        Propagated from a failing step, with ``time`` set to the failure
        time and ``partial`` holding the samples collected so far.
    ValueError
        On bad step parameters (more than ``MAX_STEPS`` steps among them),
        a state that does not match `kind`, or a control lift of the other
        model.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if not isfinite(t_end / dt):
        raise ValueError(f"t_end / dt must be finite, got {t_end:g} / {dt:g}")
    if round(t_end / dt) > MAX_STEPS:
        raise ValueError(
            f"t_end / dt asks for {t_end / dt:.3g} steps, more than MAX_STEPS = {MAX_STEPS}"
        )
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if method not in ("rk4", "midpoint"):
        raise ValueError(f"method must be 'rk4' or 'midpoint', got {method!r}")

    lay = model_layout(kind)
    if not isinstance(initial, lay.state_type):
        raise ValueError(
            f"{kind.value} model requires an {lay.state_type.__name__} initial state"
        )
    y = lay.to_vector(initial).tolist()
    rhs, _jac = _flat_system(kind, params, grav, control)
    n_steps = max(1, int(round(t_end / dt)))
    i1, i2, i3, j3 = lay.constants(params, grav)[:4]

    times = []
    rows = []
    kinetic = []

    def record(t, y):
        times.append(t)
        rows.append(y)
        kinetic.append(kinetic_energy(y[0], y[1], y[2], y[-1], i1, i2, i3, j3))

    def build(steps_done):
        states = np.array(rows)
        energy = np.array(kinetic)
        if lay.gravity:
            # np.vecdot is BLAS ddot per row, as np.dot is in hamiltonian_se3.
            energy = energy + grav.mgh * np.vecdot(states[:, 3:6], grav.chi)
        return Trajectory(
            kind=kind,
            params=params,
            grav=grav,
            times=np.array(times),
            states=states,
            energy=energy,
            casimirs=np.column_stack(lay.casimirs(states)),
            casimir_names=lay.casimir_names,
            steps=steps_done,
        )

    record(0.0, y)
    for step in range(1, n_steps + 1):
        try:
            if method == "rk4":
                y = _rk4(rhs, y, dt)
            else:
                y = _midpoint(rhs, y, dt)
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
    max_rel: float


@dataclass(frozen=True)
class DiagnosticsSummary:
    """Conservation drift over one trajectory."""

    energy: DriftStats
    casimirs: dict


def _drift_stats(series: np.ndarray) -> DriftStats:
    ref = series[0]
    worst = np.abs(series - ref).max()
    return DriftStats(
        max_abs=float(worst),
        max_rel=float(worst / max(1.0, abs(float(ref)))),
    )


def diagnostics(traj: Trajectory) -> DiagnosticsSummary:
    """Summarize conserved-label drift."""
    cas = {
        name: _drift_stats(traj.casimirs[:, j])
        for j, name in enumerate(traj.casimir_names)
    }
    return DiagnosticsSummary(energy=_drift_stats(traj.energy), casimirs=cas)
