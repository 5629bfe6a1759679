"""Steady-motion residuals for momentum fields, and an equilibrium finder.

A candidate momentum field assigns reduced momenta ``gamma_bar`` to each
configuration.  A constant (configuration-independent) assignment solves
the steady equations exactly when the residual system below vanishes; the
residual components are indexed in the package-wide flat order.

Symmetric model, ``g = (g1..g5) = (Pi1, Pi2, Pi3, alpha, l)`` values::

    r1 = ((i2 - i3) g2 g3 - i2 g2 g5) / (i2 i3)            + u1
    r2 = ((i3 - i1) g3 g1 + i1 g1 g5) / (i3 i1)            + u2
    r3 = ((i1 - i2) g1 g2) / (i1 i2)                       + u3
    r4 = -(g3 - g5)/i3 + g5/j3                             + u4
    r5 =                                                     u5

Restoring-torque model, ``g = (g1..g8) = (Pi, Gamma, alpha, l)`` values::

    r1 = ((i2 - i3) g2 g3 - i2 g2 g8) / (i2 i3) + mgh (g5 x3 - g6 x2) + u1
    r2 = ((i3 - i1) g3 g1 + i1 g1 g8) / (i3 i1) + mgh (g6 x1 - g4 x3) + u2
    r3 = ((i1 - i2) g1 g2) / (i1 i2)            + mgh (g4 x2 - g5 x1) + u3
    r4 = (i2 g5 (g3 - g8) - i3 g6 g2) / (i2 i3)                       + u4
    r5 = (i3 g6 g1 - i1 g4 (g3 - g8)) / (i3 i1)                       + u5
    r6 = (i1 g4 g2 - i2 g5 g1) / (i1 i2)                              + u6
    r7 = -(g3 - g8)/i3 + g8/j3                                        + u7
    r8 =                                                                u8

with ``x = chi``.  The lift-free parts coincide with the equations of
motion evaluated at the same values; ``tests/test_symbolic.py`` derives
them from the energy and the Lie-Poisson bracket.  The rotor-angle value
(g4 for the symmetric model, g7 for the restoring one) never appears
because the angle is cyclic.  The rotor-momentum lines constrain only the
corresponding lift component.

:func:`find_equilibrium` iterates on lists of Python floats from the
guess to the result, on the list field that
:func:`gyrostat.dynamics.integrate` steps.  The exact Jacobian is written
out beside the field kernels (only a feedback lift is differenced), its
structurally zero rows and columns are struck, and the damped line
search and the max-norm stop test run on floats, each in the operation
order of ndarray arithmetic.  Two numpy calls remain, where Python would
round otherwise: ``np.linalg.solve`` (LAPACK ``gesv``) on the reduced
square system, and the line-search 2-norm as the square root of BLAS
``ddot``.

The lift-free lines above are written once per model, as expressions on
plain values in a dict keyed by :class:`ModelKind`; one residual routine
checks the inputs, passes the constants of the layout's
:meth:`~gyrostat.model.ModelLayout.constants` and adds the lift, and
every residual here goes through it.  The functions take a kind (or, for
:func:`solve_lift`, values of one model's length) and read the layout
from :func:`gyrostat.model.model_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .algebra import ConfigurationPoint
from .dynamics import ControlLaw, _flat_system
from .model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    model_layout,
)

__all__ = [
    "hj_residual_so3",
    "hj_residual_se3",
    "solve_lift",
    "GammaBarField",
    "constant_field",
    "FieldReport",
    "residual_field_report",
    "EquilibriumError",
    "NewtonConvergenceError",
    "SingularJacobianError",
    "EquilibriumResult",
    "find_equilibrium",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


def _as_values(g, n: int, what: str) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {g.shape}")
    return g


# Each model's steady lines on plain values (floats, or sympy symbols in
# the test suite), without the lift and the l line, which is its lift
# entry alone.  The arguments are the values, then the layout's constants.
_STEADY_LINES = {
    ModelKind.SO3: lambda g1, g2, g3, _g4, g5, i1, i2, i3, j3: (
        ((i2 - i3) * g2 * g3 - i2 * g2 * g5) / (i2 * i3),
        ((i3 - i1) * g3 * g1 + i1 * g1 * g5) / (i3 * i1),
        ((i1 - i2) * g1 * g2) / (i1 * i2),
        -(g3 - g5) / i3 + g5 / j3,
    ),
    ModelKind.SE3: lambda g1, g2, g3, g4, g5, g6, _g7, g8, i1, i2, i3, j3, mgh, x1, x2, x3: (
        ((i2 - i3) * g2 * g3 - i2 * g2 * g8) / (i2 * i3) + mgh * (g5 * x3 - g6 * x2),
        ((i3 - i1) * g3 * g1 + i1 * g1 * g8) / (i3 * i1) + mgh * (g6 * x1 - g4 * x3),
        ((i1 - i2) * g1 * g2) / (i1 * i2) + mgh * (g4 * x2 - g5 * x1),
        (i2 * g5 * (g3 - g8) - i3 * g6 * g2) / (i2 * i3),
        (i3 * g6 * g1 - i1 * g4 * (g3 - g8)) / (i3 * i1),
        (i1 * g4 * g2 - i2 * g5 * g1) / (i1 * i2),
        -(g3 - g8) / i3 + g8 / j3,
    ),
}


def _residual(kind, gamma_bar, params, grav, lift) -> np.ndarray:
    """The steady residual of model `kind` at the values `gamma_bar`; a
    ``None`` lift is zero.  ValueError on values or a lift of the wrong
    shape, or a missing gravity block for se3."""
    lay = model_layout(kind)
    g = _as_values(gamma_bar, lay.dim, "gamma_bar")
    u = np.zeros(lay.dim) if lift is None else _as_values(lift, lay.dim, "lift")
    lines = _STEADY_LINES[kind](*g.tolist(), *lay.constants(params, grav))
    return np.array([*(r + v for r, v in zip(lines, u)), u[-1]])


def hj_residual_so3(gamma_bar, params: InertiaParams, lift=None) -> np.ndarray:
    """Residual of the symmetric model's steady equations at fixed values.

    Parameters
    ----------
    gamma_bar : array_like, shape (5,)
        Candidate momentum values in (Pi1, Pi2, Pi3, alpha, l) order.
    lift : array_like, shape (5,), optional
        Lift components (u1..u5); omitted means zero.
    """
    return _residual(ModelKind.SO3, gamma_bar, params, None, lift)


def hj_residual_se3(
    gamma_bar, params: InertiaParams, grav: GravityParams, lift=None
) -> np.ndarray:
    """Residual of the restoring-torque model's steady equations.

    Parameters
    ----------
    gamma_bar : array_like, shape (8,)
        Candidate values in (Pi, Gamma, alpha, l) order.
    grav : GravityParams
        Required: None raises ValueError.
    lift : array_like, shape (8,), optional
        Lift components (u1..u8); omitted means zero.
    """
    return _residual(ModelKind.SE3, gamma_bar, params, grav, lift)


def solve_lift(
    gamma_bar, params: InertiaParams, grav: Optional[GravityParams] = None
) -> np.ndarray:
    """The unique lift making the residual vanish at the given values.

    Every residual line is affine in its own lift component with unit
    coefficient, so the solution is the negated lift-free residual and
    resubstitution cancels exactly.

    Raises
    ------
    ValueError
        If `gamma_bar` has length 8 but no gravity parameters are given.
    """
    g = np.asarray(gamma_bar, dtype=float)
    for kind in ModelKind:
        if g.shape == (model_layout(kind).dim,):
            return -_residual(kind, g, params, grav, None)
    shapes = " or ".join(f"({model_layout(kind).dim},)" for kind in ModelKind)
    raise ValueError(f"gamma_bar must have shape {shapes}, got {g.shape}")


def _rule_lift(rule, kind, gamma_bar, params, grav):
    """The lift that `rule` applies at the values `gamma_bar`: None for
    ``"zero"``, the exact annihilating lift for ``"solve"``, and an array
    rule as it is."""
    if not isinstance(rule, str):
        return rule
    if rule == "zero":
        return None
    if rule == "solve":
        return -_residual(kind, gamma_bar, params, grav, None)
    raise ValueError(f"lift must be 'zero', 'solve', or an array, got {rule!r}")


@dataclass
class GammaBarField:
    """Momentum values as a function of configuration."""

    kind: ModelKind
    fn: Callable[[ConfigurationPoint], np.ndarray]


def constant_field(kind: ModelKind, values) -> GammaBarField:
    """A field returning the same values at every configuration."""
    frozen = _as_values(values, model_layout(kind).dim, "values")
    return GammaBarField(kind=kind, fn=lambda _config: frozen.copy())


@dataclass
class FieldReport:
    """Residual max-norms of a momentum field over sampled configurations."""

    per_config: list
    residuals: list
    max_norm: float


def residual_field_report(
    field: GammaBarField,
    configs: Sequence[ConfigurationPoint],
    params: InertiaParams,
    grav: Optional[GravityParams] = None,
    lift: Union[str, np.ndarray, Sequence[float]] = "zero",
) -> FieldReport:
    """Evaluate steady-equation residuals of a field over configurations.

    Parameters
    ----------
    lift : "zero", "solve", or array_like
        ``"zero"`` checks the uncontrolled equations, ``"solve"`` applies
        the per-configuration exact lift (useful as a probe of the solve
        path, since it must annihilate the residual), and an explicit
        array applies one fixed lift everywhere.
    """
    if not configs:
        raise ValueError("at least one configuration is required")
    n = model_layout(field.kind).dim
    residuals = []
    for config in configs:
        g = _as_values(field.fn(config), n, "field values")
        u = _rule_lift(lift, field.kind, g, params, grav)
        residuals.append(_residual(field.kind, g, params, grav, u))
    norms = [float(np.max(np.abs(r))) for r in residuals]
    return FieldReport(per_config=norms, residuals=residuals, max_norm=_max_norm(norms))


class EquilibriumError(RuntimeError):
    """Base class for equilibrium-search failures."""


class NewtonConvergenceError(EquilibriumError):
    """The iteration ran out of budget or the damped step stalled."""

    def __init__(self, message, residual_norm=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


class SingularJacobianError(EquilibriumError):
    """The Newton system has no well-posed solution at the current point."""


@dataclass(frozen=True)
class EquilibriumResult:
    """Converged equilibrium with its residual norm and iteration count."""

    state: Union[So3RotorState, Se3RotorState]
    residual_norm: float
    iterations: int


def _newton_direction(cols: list, f: list) -> list:
    """Solve ``jac @ delta = -f`` with structurally null slots removed.

    A cyclic variable contributes an exactly zero column (it moves
    nothing) and a locally constant equation an exactly zero row (nothing
    moves it); in the exact Jacobian an entry whose expression never
    mentions the slot is a literal 0.0, and an entry may also vanish at
    the current values.  Such slots are struck from the linear system and
    their delta is zero.  Any remaining rank deficiency is a genuine
    failure and is reported rather than regularized away, since a
    least-squares continuation could march toward spurious roots.
    """
    # A float is true unless it is 0.0 or -0.0, so a NaN entry is live.
    live_cols = [j for j, col in enumerate(cols) if any(col)]
    live_rows = [i for i, row in enumerate(zip(*cols)) if any(row)]
    if len(live_rows) != len(live_cols):
        raise SingularJacobianError(
            "Jacobian has unequal counts of structurally zero rows and columns; "
            "the Newton system is not square after reduction"
        )
    delta = [0.0] * len(f)
    if not live_rows:
        return delta
    sub = [[cols[j][i] for j in live_cols] for i in live_rows]
    try:
        delta_live = np.linalg.solve(sub, [-f[i] for i in live_rows])
    except np.linalg.LinAlgError as err:
        raise SingularJacobianError(f"singular Newton Jacobian: {err}") from err
    for j, d in zip(live_cols, delta_live.tolist()):
        delta[j] = d
    return delta


def _max_norm(f: list) -> float:
    """``float(np.max(np.abs(f)))``, which is NaN if an entry is."""
    for v in f:
        if v != v:
            return abs(v)
    return max(map(abs, f))


def _norm(f: list) -> float:
    """``float(np.linalg.norm(f))``: the square root of BLAS ``ddot``."""
    a = np.array(f)
    return sqrt(a.dot(a))


def find_equilibrium(
    kind: ModelKind,
    params: InertiaParams,
    guess,
    *,
    grav: Optional[GravityParams] = None,
    control: Optional[ControlLaw] = None,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> EquilibriumResult:
    """Find a zero of the controlled equations by damped Newton iteration.

    The Jacobian is exact, but for a ``FeedbackControl`` lift, which is
    central-differenced; each step is halved (up to
    ``NEWTON_MAX_HALVINGS`` times) until the residual 2-norm decreases.  Convergence means a finite residual
    max-norm below `tol`.  A guess that already satisfies the tolerance
    returns after zero iterations.

    The steps run on Python floats, bit for bit as on ndarrays.  Only
    ``np.linalg.solve`` (LAPACK ``gesv``) and the line-search 2-norm (the
    square root of BLAS ``ddot``, whose summation order a Python sum of
    squares need not share) stay in numpy, for their rounding.

    Raises
    ------
    NewtonConvergenceError
        If `max_iter` is exhausted, no damped step makes progress, or the
        residual is NaN (where the field's products overflow); the
        exception carries the last residual norm and iteration count.
    SingularJacobianError
        If the reduced Newton system is singular.
    ValueError
        On a `tol` that is not finite and positive, a guess that does not
        match `kind`, a missing gravity block for se3, or a control lift
        of the other model.
    """
    if not (isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    lay = model_layout(kind)
    if not isinstance(guess, lay.state_type):
        raise ValueError(f"{kind.value} search requires an {lay.state_type.__name__} guess")

    rhs, jacobian = _flat_system(kind, params, grav, control)
    y = lay.to_vector(guess).tolist()
    f = rhs(y)
    iterations = 0
    while (norm := _max_norm(f)) >= tol:
        if iterations >= max_iter:
            raise NewtonConvergenceError(
                f"no convergence after {max_iter} iterations; "
                f"last residual max-norm {norm:.3e}",
                residual_norm=norm,
                iterations=iterations,
            )
        delta = _newton_direction(jacobian(y), f)
        base = _norm(f)
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            y_try = [a + scale * d for a, d in zip(y, delta)]
            f_try = rhs(y_try)
            if _norm(f_try) < base:
                break
            scale *= 0.5
        else:
            raise NewtonConvergenceError(
                "damped step failed to reduce the residual "
                f"(last residual max-norm {norm:.3e})",
                residual_norm=norm,
                iterations=iterations,
            )
        y, f = y_try, f_try
        iterations += 1
    # NaN >= tol is false, so a NaN residual ends the loop; inf does not.
    if not isfinite(norm):
        raise NewtonConvergenceError(
            f"residual max-norm is not finite ({norm}) after {iterations} iterations",
            residual_norm=norm,
            iterations=iterations,
        )
    return EquilibriumResult(
        state=lay.from_vector(y), residual_norm=norm, iterations=iterations
    )
