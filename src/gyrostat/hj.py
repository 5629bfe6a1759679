"""Steady-motion residuals for momentum fields, and an equilibrium finder.

A candidate momentum field assigns reduced momenta ``gamma_bar`` to each
configuration.  A constant (configuration-independent) assignment solves
the steady equations exactly when the residual vanishes: the controlled
field of :func:`gyrostat.dynamics.so3_field_kernel` or
:func:`~gyrostat.dynamics.se3_field_kernel` at those values, with the lift
added, indexed in the package-wide flat order.  The rotor-angle value never
enters, because the angle is cyclic, and the rotor-momentum line is its
lift component alone.

:func:`find_equilibrium` iterates on lists of Python floats from the
guess to the result, on the list field that
:func:`gyrostat.dynamics.integrate` steps.  The exact Jacobian is written
out beside the field kernels (only a feedback lift is differenced), its
structurally zero rows and columns are struck, and the damped line
search and the max-norm stop test run on floats, each in the operation
order of ndarray arithmetic.  Two numpy calls remain, where Python would
round otherwise: ``np.linalg.solve`` (LAPACK ``gesv``) on the reduced
square system, and the line-search 2-norm as the square root of BLAS
``ddot``.  A lift tangent to the Casimir levels (no control, or ``u_alpha``
and ``u_l`` alone) is searched on the guess's Casimir leaf: the Newton
system is bordered with the Casimir values, gradients and Hessians of
:class:`gyrostat.model.ModelLayout`, which makes it regular where the
leaf's equilibria are isolated, and a leaf with no equilibrium near the
guess is a failure.

Every residual here goes through one routine, which checks the inputs,
evaluates the field that :func:`gyrostat.dynamics._flat_system` builds
from the kernel, and adds the lift.  The functions take a kind (or, for
:func:`solve_lift`, values of one model's length) and read the layout
from :func:`gyrostat.model.model_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from operator import add, itemgetter
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .algebra import ConfigurationPoint
from .dynamics import ConstantControl, ControlLaw, ZeroControl, _flat_system, _lift_floats
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


def _residual(kind, gamma_bar, params, grav, lift) -> np.ndarray:
    """The steady residual of model `kind` at the values `gamma_bar`; a
    ``None`` lift is zero.  ValueError on values or a lift of the wrong
    shape, or a missing gravity block for se3."""
    lay = model_layout(kind)
    g = _as_values(gamma_bar, lay.dim, "gamma_bar")
    u = np.zeros(lay.dim) if lift is None else _as_values(lift, lay.dim, "lift")
    field, _jac = _flat_system(kind, params, grav, None)
    # The l line is its lift entry alone, so a "solve" lift's -0.0 stays.
    return np.array([*map(add, field(g.tolist())[:-1], u), u[-1]])


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
    rows = list(zip(*cols))
    live_rows = [i for i, row in enumerate(rows) if any(row)]
    if len(live_rows) != len(live_cols):
        raise SingularJacobianError(
            "Jacobian has unequal counts of structurally zero rows and columns; "
            "the Newton system is not square after reduction"
        )
    delta = [0.0] * len(f)
    if not live_rows:
        return delta
    # itemgetter picks a row's live entries in one call; given one index
    # it returns the entry itself, not a 1-tuple.
    pick = itemgetter(*live_cols) if len(live_cols) > 1 else lambda row: (row[live_cols[0]],)
    sub = [pick(rows[i]) for i in live_rows]
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


def _multipliers(control, lay) -> int:
    """How many Casimir multipliers border the search: one per Casimir
    when the lift is tangent to every Casimir level, else none.

    No control and ``ConstantControl(None)`` are tangent.  A constant lift
    is tangent when it is zero on every slot that a Casimir Hessian
    touches: the Casimirs are quadratic forms, so their gradients live on
    those slots alone.  A feedback law is never bordered.
    """
    if isinstance(control, ConstantControl) and control.lift is not None:
        u = _lift_floats(control.lift, lay)
        crossing = any(u[i] for entries in lay.casimir_hessians for i, _j, _v in entries)
        return 0 if crossing else len(lay.casimir_names)
    if control is None or isinstance(control, (ZeroControl, ConstantControl)):
        return len(lay.casimir_names)
    return 0


def _bordered_system(rhs, jacobian, lay, level):
    """The search's system on ``z = y + mu``, one multiplier per entry of
    `level`: the residual ``z -> (F(y), G(z))`` and the Jacobian of ``G``.

    ``G`` is ``F(y) + sum_k mu_k grad C_k(y)`` followed by
    ``C_k(y) - level_k``, with the exact Jacobian
    ``[[J + sum_k mu_k hess C_k, grad C], [grad C^T, 0]]``.  Without
    multipliers ``G`` is ``F`` and the system is the plain one.
    """
    if not level:
        return (lambda z: (rhs(z),) * 2), jacobian
    dim, m = lay.dim, len(level)

    def residual(z):
        y = z[:dim]
        f = g = rhs(y)
        for mu, grad in zip(z[dim:], lay.casimir_gradients(y)):
            g = [a + mu * b for a, b in zip(g, grad)]
        return f, g + [c - c0 for c, c0 in zip(lay.casimir_values(y), level)]

    def bordered_jacobian(z):
        y = z[:dim]
        cols = jacobian(y)
        for mu, entries in zip(z[dim:], lay.casimir_hessians):
            for i, j, v in entries:
                cols[j][i] += mu * v
        grads = lay.casimir_gradients(y)
        for col, border in zip(cols, zip(*grads)):
            col.extend(border)
        return cols + [grad + [0.0] * m for grad in grads]

    return residual, bordered_jacobian


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

    Relative equilibria come in families across the Casimir levels (the
    symplectic leaves), which makes the plain square Newton system
    singular at every solution.  Where the lift is tangent to those
    levels (no control, or a constant lift that is zero on the ``Pi`` and
    ``Gamma`` slots) the search therefore runs on the guess's leaf: the
    system is bordered with one multiplier ``mu_k`` per Casimir ``C_k``,
    as ``F(y) + sum_k mu_k grad C_k(y) = 0`` and ``C_k(y) = C_k(guess)``,
    which is regular at an isolated equilibrium of the leaf.  At a zero of
    it each ``mu_k`` is 0, as ``grad C_k . F`` vanishes.  A leaf with no
    equilibrium near the guess is a failure.  A feedback law, or a
    constant lift with a nonzero ``Pi`` or ``Gamma`` entry, gets the plain
    system.

    The Jacobian is exact, but for a ``FeedbackControl`` lift, which is
    central-differenced; structurally zero rows and columns are struck.
    Each step is halved (up to ``NEWTON_MAX_HALVINGS`` times) until the
    2-norm of the (bordered) residual decreases.  Convergence means a
    finite max-norm of the controlled field ``F(y)`` below `tol`, which is
    the reported ``residual_norm``, and on a bordered search each
    ``C_k(y)`` within ``sqrt(tol) * max(1, |C_k(guess)|)`` of the guess's;
    the multipliers are not read.  A guess that already satisfies it
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
    level = lay.casimir_values(y)[: _multipliers(control, lay)]
    residual, system_jacobian = _bordered_system(rhs, jacobian, lay, level)
    z = y + [0.0] * len(level)
    # The bound on the leaf residuals C_k(y) - C_k(guess), the tail of g.
    slack = [sqrt(tol) * max(1.0, abs(c)) for c in level]
    f, g = residual(z)
    size = None  # the 2-norm of g, taken when a step first needs it
    iterations = 0
    while (norm := _max_norm(f)) >= tol or any(
        abs(r) > s for r, s in zip(g[lay.dim :], slack)
    ):
        if iterations >= max_iter:
            raise NewtonConvergenceError(
                f"no convergence after {max_iter} iterations; "
                f"last residual max-norm {norm:.3e}",
                residual_norm=norm,
                iterations=iterations,
            )
        delta = _newton_direction(system_jacobian(z), g)
        if size is None:
            size = _norm(g)
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            z_try = [a + scale * d for a, d in zip(z, delta)]
            f_try, g_try = residual(z_try)
            if (size_try := _norm(g_try)) < size:
                break
            scale *= 0.5
        else:
            raise NewtonConvergenceError(
                "damped step failed to reduce the residual "
                f"(last residual max-norm {norm:.3e})",
                residual_norm=norm,
                iterations=iterations,
            )
        z, f, g, size = z_try, f_try, g_try, size_try
        iterations += 1
    # NaN >= tol is false, so a NaN residual ends the loop; inf does not.
    if not isfinite(norm):
        raise NewtonConvergenceError(
            f"residual max-norm is not finite ({norm}) after {iterations} iterations",
            residual_norm=norm,
            iterations=iterations,
        )
    return EquilibriumResult(
        state=lay.from_vector(z[: lay.dim]), residual_norm=norm, iterations=iterations
    )
