"""Reduced equations of motion, fixed-step integrators, and diagnostics.

The controlled equations for the symmetric model are

    dPi/dt    = Pi x Omega            + u_pi
    dalpha/dt = l/j3 - (Pi3 - l)/i3   + u_alpha
    dl/dt     =                         u_l

and the restoring-torque model adds the advected direction

    dPi/dt    = Pi x Omega + mgh * Gamma x chi  + u_pi
    dGamma/dt = Gamma x Omega                   + u_gamma

with the body rate ``Omega = (Pi1/i1, Pi2/i2, (Pi3 - l)/i3)`` recovered
from the momenta through the locked inertias ``i_bar``.  Control lifts
enter additively, one slot per equation.

These Lie-Poisson equations are written out once, as one expression
table per model (``_FIELDS``), and compiled from it into
:func:`so3_field_kernel`, :func:`se3_field_kernel`, their exact
Jacobians and the run loops of :func:`integrate`: every field, Jacobian
and steady residual of the package evaluates them, and the state-based
:func:`reduced_rhs_so3` and :func:`reduced_rhs_se3` are wrappers.

Integration is fixed-step on the flattened phase vector: classical
fourth-order Runge-Kutta by default, with an implicit midpoint rule as the
structure-friendlier alternative.  Feedback control laws are evaluated at
every integrator substep state.  Step size never adapts; conserved-label
drift is the accuracy diagnostic, not an error controller.

:func:`integrate` steps and records on Python floats in numpy's operation
order, so it equals ndarray arithmetic bit for bit without its per-call
cost on 5 or 8 slots.  A whole run, RK4 or midpoint, is one loop generated
from one source template and compiled on first use, with every slot
unrolled into local names (as :mod:`dataclasses` writes out its methods).
The control alone picks the loop: without a feedback law it evaluates
the model's table in place and adds a constant lift slot by slot, so a
step calls no Python function; with a law it calls the controlled field,
lift included, at every field stage.  The model's
layout computes the energy and the Casimirs once per run, over the
stacked states.  The public :func:`step_rk4` and :func:`step_midpoint`
run one step of the calling loop on an ndarray field.

What differs between the models is looked up, not branched on: the
layout and the constants in :func:`gyrostat.model.model_layout`, and the
kernel and its exact Jacobian by name.  One routine reads a control, and
one builder binds the constants and folds in the lift; the integrator,
the state wrappers, the bracket audit, the equilibrium search and the
steady residual each call it once.  The lift types live in
:mod:`gyrostat.model` and are re-exported here.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cache, partial
from math import isfinite
from operator import add
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .algebra import _as_integer
from .model import (
    ControlLiftSe3,
    ControlLiftSo3,
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    model_layout,
)
from .poisson import fd_steps

__all__ = [
    "ControlLiftSo3",
    "ControlLiftSe3",
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
above it is rejected up front.  A step costs ~1.7-6 us with RK4 and
~6-11 us with the implicit midpoint rule at five sweeps (so3 and se3 runs
on one 2-CPU host), so a run at the ceiling takes up to ~11 s; a feedback
law adds ~50-60 us per field call (se3, a state built for the law at each).
Every sample is kept in memory, ~0.5 kB each for se3, so at
``sample_every = 1`` such a run holds ~0.5 GB.
"""


@dataclass
class ConstantControl:
    """A fixed lift applied at every state."""

    lift: Union[ControlLiftSo3, ControlLiftSe3]


@dataclass
class FeedbackControl:
    """State-dependent lift; `law` is called at each integrator substep."""

    law: Callable[[object], Union[ControlLiftSo3, ControlLiftSe3]]


class IntegrationError(RuntimeError):
    """A step failed; carries the failure time and the partial trajectory."""

    def __init__(self, message, time=None, partial=None):
        super().__init__(message)
        self.time = time
        self.partial = partial


def _state_rhs(kind, state, params, grav, lift) -> np.ndarray:
    y = model_layout(kind).to_vector(state)
    control = None if lift is None else ConstantControl(lift)
    field, _jac = _flat_system(kind, params, grav, control)
    return np.array(field(y.tolist()))


def reduced_rhs_so3(
    state: So3RotorState,
    params: InertiaParams,
    lift: Optional[ControlLiftSo3] = None,
) -> np.ndarray:
    """Controlled equations of the symmetric model at one state, as a flat
    5-vector in the canonical (Pi1, Pi2, Pi3, alpha, l) order.

    A wrapper over the field of ``_flat_system``; ValueError if `state` or
    `lift` belongs to the other model.
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
    ``casimir_names``.  ``steps`` counts completed integrator steps, and
    ``field_calls`` the field evaluations they took: four per RK4 step,
    one per sweep of a midpoint step.  ``max_sweeps`` is the most sweeps
    one midpoint step took, 0 for RK4.
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
    field_calls: int
    max_sweeps: int


class _FieldTable(NamedTuple):
    """One model's free field as source text: the constants in
    :meth:`~gyrostat.model.ModelLayout.constants` order, the slot names in
    the canonical flat order (a name the field does not read starts with
    ``_``), and one expression per slot over them and the body rates."""

    constants: tuple
    slots: tuple
    values: tuple


# The controlled equations' free field, written once: the body rates both
# models share and one table per model.  The public kernels and the run
# loops of `integrate` are compiled from these lines.
_RATES = ("w1 = p1 / i1", "w2 = p2 / i2", "w3 = (p3 - l) / i3")
_FIELDS = {
    ModelKind.SO3: _FieldTable(
        constants=("i1", "i2", "i3", "j3"),
        slots=("p1", "p2", "p3", "_alpha", "l"),
        values=(
            "p2 * w3 - p3 * w2",
            "p3 * w1 - p1 * w3",
            "p1 * w2 - p2 * w1",
            "l / j3 - w3",
            "0.0",
        ),
    ),
    ModelKind.SE3: _FieldTable(
        constants=("i1", "i2", "i3", "j3", "mgh", "c1", "c2", "c3"),
        slots=("p1", "p2", "p3", "g1", "g2", "g3", "_alpha", "l"),
        values=(
            "(p2 * w3 - p3 * w2) + mgh * (g2 * c3 - g3 * c2)",
            "(p3 * w1 - p1 * w3) + mgh * (g3 * c1 - g1 * c3)",
            "(p1 * w2 - p2 * w1) + mgh * (g1 * c2 - g2 * c1)",
            "g2 * w3 - g3 * w2",
            "g3 * w1 - g1 * w3",
            "g1 * w2 - g2 * w1",
            "l / j3 - w3",
            "0.0",
        ),
    ),
}


def _compile(source: str, name: str, filename: str):
    """The function `name` that `source` defines, with this module's
    globals."""
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[name]


def _jacobian_columns(table: _FieldTable) -> list:
    """The source of each column ``[d(value_i)/d(slot) for i]`` of `table`, by
    the sum, product and quotient rules over names, float literals, ``+``,
    ``-``, ``*`` by a name and ``/`` by a constant (ValueError on any other
    form).  ``x * (+-1 / c)`` is ``+-x / c``, ``a - b`` is ``a + -b``, and no
    term is the literal ``0.0`` that ``hj._newton_direction`` strikes."""
    rates = {a.targets[0].id: a.value for a in (ast.parse(r).body[0] for r in _RATES)}
    unparse = cache(ast.unparse)  # once per compound factor, not per slot

    def derivative(node, slot):
        if isinstance(node, ast.Name) and node.id in rates:
            return derivative(rates[node.id], slot)
        if isinstance(node, ast.Name) and node.id in table.slots + table.constants:
            return [(False, (), ())] if node.id == slot else []
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return []
        if isinstance(node, ast.BinOp):
            a, b, op = node.left, node.right, type(node.op)
            da, db = derivative(a, slot), derivative(b, slot)
            if op in (ast.Add, ast.Sub):
                return da + [(n != (op is ast.Sub), f, d) for n, f, d in db]
            if op is ast.Mult and ast.Name in (type(a), type(b)):
                fa, fb = (x.id if isinstance(x, ast.Name) else f"({unparse(x)})" for x in (a, b))
                return [(n, f + (fb,), d) for n, f, d in da] + [(n, (fa,) + f, d) for n, f, d in db]
            if op is ast.Div and isinstance(b, ast.Name) and b.id in table.constants:
                return [(n, f, d + (b.id,)) for n, f, d in da]
        raise ValueError(f"cannot differentiate {ast.unparse(node)!r} in the field table")

    def source(terms):  # terms (negative, factors, divisors)
        text = ("-" * n + (" * ".join(f) or ("1" if d else "1.0")) + "".join(f" / {c}" for c in d)
                for n, f, d in terms)
        return " + ".join(text) or "0.0"

    nodes = [ast.parse(value, mode="eval").body for value in table.values]
    return [f"[{', '.join(source(derivative(x, slot)) for x in nodes)}]" for slot in table.slots]


def _table_functions(label: str, table: _FieldTable) -> list:
    """`label`'s kernel and exact Jacobian, compiled from `table`, each
    ``f(*constants, y)`` with `y` unpacked into the slots: the list of the
    field's values, and of its columns ``cols[j][i] = d(field_i)/d(y_j)``."""
    names = f"{label}_field_kernel", f"_{label}_field_jacobian"
    functions = []
    for name, values in zip(names, (table.values, _jacobian_columns(table))):
        source = "\n    ".join([
            f"def {name}({', '.join(table.constants)}, y):",
            f"{', '.join(table.slots)} = y",
            *_RATES,
            f"return [{', '.join(values)}]",
        ])
        functions.append(_compile(source, name, f"<{label} field table>"))
    return functions


so3_field_kernel, _so3_field_jacobian = _table_functions("so3", _FIELDS[ModelKind.SO3])
se3_field_kernel, _se3_field_jacobian = _table_functions("se3", _FIELDS[ModelKind.SE3])
so3_field_kernel.__doc__ = """Uncontrolled ``(dPi1, dPi2, dPi3, dalpha, dl)`` of
    the symmetric model, ``dl = 0.0``, as ``so3_field_kernel(i1, i2, i3, j3,
    y)``, the constants first in :meth:`~gyrostat.model.ModelLayout.constants` order.

    `y` unpacks into ``(Pi1, Pi2, Pi3, alpha, l)``: a flat sequence of
    floats gives floats, and a ``(5, n)`` block with one point per column
    rows of n values.  Compiled, as is its exact Jacobian, from the model's
    table in ``_FIELDS``, whose expressions every field and steady residual
    of the package evaluates; ``tests/test_symbolic.py`` checks both
    against the energy and the Lie-Poisson bracket.
    """
se3_field_kernel.__doc__ = """As :func:`so3_field_kernel`, for the
    restoring-torque model's ``(Pi, Gamma, alpha, l)`` and an 8-row block:
    ``se3_field_kernel(i1, i2, i3, j3, mgh, c1, c2, c3, y)``."""


def _read_control(control, lay):
    """``(u, law)``: a ``ConstantControl``'s lift as floats, or a
    ``FeedbackControl``'s law, the other None; both None for no control.
    The one check of a control: ValueError on any other control, a law
    that is not callable, or a lift that is not the model's (the other
    model's, or None)."""
    if control is None:
        return None, None
    if isinstance(control, ConstantControl):
        return lay.lift_floats(control.lift), None
    if not isinstance(control, FeedbackControl):
        is_lift = isinstance(control, (ControlLiftSo3, ControlLiftSe3))
        hint = "; wrap a lift in ConstantControl" if is_lift else ""
        raise ValueError(
            "control must be None, a ConstantControl or a FeedbackControl, "
            f"got {type(control).__name__}{hint}"
        )
    if not callable(control.law):
        raise ValueError(f"a FeedbackControl law must be callable, got {type(control.law).__name__}")
    return None, control.law


def _flat_system(kind, params, grav, control):
    """The controlled field and its Jacobian, as functions from a list of
    floats to a list of floats and to a list of columns.

    The control, read by :func:`_read_control`, enters the field as one
    addition per slot, the lift's entries turned into floats once for a
    ``ConstantControl`` and at every call for a ``FeedbackControl``, whose
    law one closure calls for the field and the Jacobian.  Without control
    the field is the model's kernel with its constants bound, which also
    takes a ``(dim, n)`` block.  The Jacobian is exact for the free field,
    nothing is added for a constant lift, and central differences of the
    lift alone are added for a ``FeedbackControl`` (a ``None`` lift is
    zero, as is the lift at a non-finite point, which has no state and
    whose step fails its own finiteness check).  ValueError on a missing
    gravity block for se3, then as :func:`_read_control`; a feedback lift
    of the other model is one at the call.
    """
    lay = model_layout(kind)
    consts = lay.constants(params, grav)
    # Looked up by name at each build, so that a wrapper set on the
    # module's attribute sees every call of this field; `integrate` builds
    # one only for a law, and otherwise writes the table into its loop.
    free = partial(globals()[f"{kind.value}_field_kernel"], *consts)
    jac = partial(globals()[f"_{kind.value}_field_jacobian"], *consts)
    u, law = _read_control(control, lay)
    # free(y) ends in dl = 0.0, so a lift adds u_l to 0.0: a -0.0 entry
    # gives 0.0 there.
    if u is not None:
        return (lambda y: list(map(add, free(y), u))), jac
    if law is None:
        return free, jac

    def lift(y):
        if not all(map(isfinite, y)):
            return None
        v = law(lay.from_vector(y))
        return None if v is None else lay.lift_floats(v)

    def rhs(y):
        d, v = free(y), lift(y)
        return d if v is None else list(map(add, d, v))

    zero = [0.0] * lay.dim
    # A zero difference leaves the entry as it is, -0.0 included, so a law
    # that returns None gives the free Jacobian bit for bit.
    return rhs, lambda y: [
        [a + b if b else a for a, b in zip(col, du)]
        for col, du in zip(jac(y), _fd_jacobian(lambda p: lift(p) or zero, y))
    ]


def _fd_jacobian(rhs, y: list) -> list:
    """Central-difference Jacobian of `rhs` at `y` as a list of columns."""
    cols = []
    for j, (v, h) in enumerate(zip(y, fd_steps(np.array(y)).tolist())):
        probe = y.copy()
        probe[j] = v + h
        f_plus = rhs(probe)
        probe[j] = v - h
        d = 2.0 * h
        cols.append([(a - b) / d for a, b in zip(f_plus, rhs(probe))])
    return cols


# The run loops on a dim-slot phase point, every slot unrolled into local
# names: `<<e>>` stands for the tuple of `e` with `#` read as each slot
# index in turn, and `<<and: e>>` for their conjunction.  A field stage
# `<<K#>> = f((<<e>>))` is written out by `_stage`, as that call or as the
# model's table in place.  Each slot takes the operations, in the order, of
# ndarray arithmetic; a called field adds its own lift, and the table a
# constant lift `u` to each value, as ConstantControl's field adds it.  A
# run appends each sampled step to
# `times` and `rows`, returns its field calls and most sweeps, and raises
# ``fail(message, step, field_calls, max_sweeps)`` at a failed step with
# the counts of the steps before it.  The tables' lines are written into
# these loops, so no local name here may be a slot, constant or rate name.
_RUN_TEMPLATE = """
def rk4(consts, f, u, y, dt, n_steps, sample_every, times, rows, fail):
    CONSTANTS = consts
    <<Y#>> = y
    if u is not None: <<U#>> = u
    h = 0.5 * dt
    w = dt / 6.0
    field_calls = 0
    for step in range(1, n_steps + 1):
        <<A#>> = f((<<Y#>>))
        <<B#>> = f((<<Y# + h * A#>>))
        <<C#>> = f((<<Y# + h * B#>>))
        <<D#>> = f((<<Y# + dt * C#>>))
        <<Y#>> = <<Y# + w * (((A# + 2.0 * B#) + 2.0 * C#) + D#)>>
        if not (<<and: isfinite(Y#)>>):
            raise fail("non-finite value in Runge-Kutta stage", step, field_calls, 0)
        field_calls += 4
        if step % sample_every == 0 or step == n_steps:
            times.append(step * dt)
            rows.append((<<Y#>>))
    return field_calls, 0


def midpoint(consts, f, u, y, dt, n_steps, sample_every, times, rows, fail):
    CONSTANTS = consts
    <<Y#>> = y
    if u is not None: <<U#>> = u
    tol = MIDPOINT_TOL
    max_iter = MIDPOINT_MAX_ITER
    sweeps = range(1, max_iter + 1)
    field_calls = max_sweeps = 0
    for step in range(1, n_steps + 1):
        <<Z#>> = <<Y#>>
        for sweep in sweeps:
            <<K#>> = f((<<0.5 * (Y# + Z#)>>))
            <<N#>> = <<Y# + dt * K#>>
            if not (<<and: isfinite(N#)>>):
                raise fail("non-finite value in midpoint iteration", step, field_calls, max_sweeps)
            if <<and: abs(N# - Z#) <= tol>>:
                break
            <<Z#>> = <<N#>>
        else:
            raise fail(
                f"implicit midpoint failed to converge in {max_iter} iterations "
                f"(dt={dt:g} likely too large)",
                step, field_calls, max_sweeps,
            )
        <<Y#>> = <<N#>>
        field_calls += sweep
        if sweep > max_sweeps:
            max_sweeps = sweep
        if step % sample_every == 0 or step == n_steps:
            times.append(step * dt)
            rows.append((<<Y#>>))
    return field_calls, max_sweeps
"""


def _stage(indent: str, out: str, arg: str, dim: int, lifted: bool, table) -> str:
    """One field stage ``<<out#>> = f((<<arg>>))`` on `dim` slots: that call,
    which adds any lift itself, or with a `table` its lines in place, the
    slots bound to `arg`, and ``U#`` added to each value when `lifted`."""
    args = [arg.replace("#", str(i)) for i in range(dim)]
    outs = [f"{out}{i}" for i in range(dim)]
    if table is None:
        return f"{indent}{', '.join(outs)}, = f(({', '.join(args)},))\n"
    lines = [f"{slot} = {a}" for slot, a in zip(table.slots, args) if not slot.startswith("_")]
    lift = [f" + U{i}" if lifted else "" for i in range(dim)]
    lines += [*_RATES, *(f"{o} = ({v}){u}" for o, v, u in zip(outs, table.values, lift))]
    return "".join(f"{indent}{line}\n" for line in lines)


@cache
def _run_loop(method: str, dim: int, lifted: bool, kind: Optional[ModelKind]):
    """The `method` run loop on `dim` slots, compiled once per argument
    set: ``run(consts, f, u, y, dt, n_steps, sample_every, times, rows,
    fail)``.  With a `kind` (whose field has `dim` slots) it evaluates that
    model's table in place on the constants `consts`, adding the constant
    lift `u` when `lifted`; without, it calls `f` on a tuple of floats for
    `dim` field values, lift included, and `lifted` is False.  `u` is None
    unless `lifted`, and `y` any `dim`-long sequence of floats.
    """
    if dim < 1:
        raise ValueError(f"a phase point needs at least one slot, got {dim}")
    table = None if kind is None else _FIELDS[kind]

    def slots(match):
        if match[1] == "and: ":
            return " and ".join(match[2].replace("#", str(i)) for i in range(dim))
        return "".join(f"{match[2].replace('#', str(i))}, " for i in range(dim))

    def stage(match):
        return _stage(match[1], match[2], match[3], dim, lifted, table)

    constants = "" if table is None else rf"\1{', '.join(table.constants)}, = consts\n"
    source = re.sub(r"(?m)^( *)CONSTANTS = consts\n", constants, _RUN_TEMPLATE)
    source = re.sub(r"(?m)^( *)<<(\w)#>> = f\(\(<<(.+)>>\)\)\n", stage, source)
    source = re.sub("<<(and: )?(.+?)>>", slots, source)
    return _compile(source, method, f"<{method} run loop, {kind.value if kind else dim}>")


def _no_partial(message, *_counts):
    return IntegrationError(message)


def _one_step(method, rhs, y, dt):
    """One `method` step of the ndarray field `rhs` from `y`, as an ndarray."""
    y = np.asarray(y, dtype=float).tolist()
    rows = []
    run = _run_loop(method, len(y), False, None)
    run(None, lambda v: rhs(np.array(v)).tolist(), None, y, dt, 1, 1, [], rows, _no_partial)
    return np.array(rows[0])


def step_rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step.

    Raises
    ------
    IntegrationError
        If any stage produces a non-finite value.
    """
    return _one_step("rk4", rhs, y, dt)


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
    return _one_step("midpoint", rhs, y, dt)


def _step_count(dt, t_end, sample_every, method) -> int:
    """The number of steps a run of :func:`integrate` takes,
    ``max(1, round(t_end / dt))``; ValueError on settings it cannot run.

    The one check of a run's settings: :mod:`gyrostat.scenario` calls it
    on a config too, so both read ``MAX_STEPS`` at the call.
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
    _as_integer("sample_every", sample_every, lambda n: n >= 1, ">= 1")
    if method not in ("rk4", "midpoint"):
        raise ValueError(f"method must be 'rk4' or 'midpoint', got {method!r}")
    return max(1, int(round(t_end / dt)))


def integrate(
    kind: ModelKind,
    params: InertiaParams,
    initial,
    *,
    grav: Optional[GravityParams] = None,
    control: Optional[Union[ConstantControl, FeedbackControl]] = None,
    dt: float = 1e-3,
    t_end: float = 1.0,
    sample_every: int = 10,
    method: str = "rk4",
) -> Trajectory:
    """Fixed-step integration with per-sample conserved-label recording.

    The run takes ``max(1, round(t_end / dt))`` steps of exactly `dt`, so
    a `t_end` below ``dt / 2`` runs one step of `dt`; sample times are
    exact step multiples.  Samples always include the initial state and
    the final step, plus every `sample_every`-th step in between.  A
    ``"midpoint"`` step is solved as in :func:`step_midpoint`.

    Raises
    ------
    IntegrationError
        Propagated from a failing step, with ``time`` set to the failure
        time and ``partial`` holding the samples collected so far.
    ValueError
        On bad step parameters (more than ``MAX_STEPS`` steps, or a
        `sample_every` that is not an integer >= 1, among them), a state
        that does not match `kind`, a control that is not None, a
        ``ConstantControl`` or a ``FeedbackControl``, or a lift that is
        not the model's (the other model's, or None).
    """
    n_steps = _step_count(dt, t_end, sample_every, method)
    lay = model_layout(kind)
    y = lay.to_vector(initial).tolist()
    consts = lay.constants(params, grav)
    u, law = _read_control(control, lay)
    # Without a law the table is written into the loop, a constant lift
    # added to it, and no field is built; with one the loop calls
    # `_flat_system`'s field, which adds the law's lift.
    f = None if law is None else _flat_system(kind, params, grav, control)[0]
    run = _run_loop(method, lay.dim, u is not None, kind if law is None else None)

    times, rows = [0.0], [tuple(y)]

    def build(steps_done, field_calls, max_sweeps):
        states = np.array(rows)
        return Trajectory(
            kind=kind,
            params=params,
            grav=grav,
            times=np.array(times),
            states=states,
            energy=lay.energy(states, params, grav),
            casimirs=np.column_stack(lay.casimirs(states)),
            casimir_names=lay.casimir_names,
            steps=steps_done,
            field_calls=field_calls,
            max_sweeps=max_sweeps,
        )

    def fail(message, step, field_calls, max_sweeps):
        return IntegrationError(message, step * dt, build(step - 1, field_calls, max_sweeps))

    counts = run(consts, f, u, y, dt, n_steps, sample_every, times, rows, fail)
    return build(n_steps, *counts)


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
    with np.errstate(invalid="ignore"):  # inf - inf
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
