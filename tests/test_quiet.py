"""The library is quiet on overflow.

Moments of inertia down to the smallest subnormal, ``mgh`` up to 1e308
and states up to 1e200 overflow the energy, the field and the norms.  The
public routines either return, with the overflow's inf or NaN where they
report values, or raise their documented error; numpy warns of nothing,
so under an error filter no ``RuntimeWarning`` escapes.  The bare field
kernels on ndarray blocks and user-supplied callables are outside this
contract: they follow numpy's error state.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat.audit import bracket_oracle_audit
from gyrostat.dynamics import (
    IntegrationError,
    diagnostics,
    integrate,
    reduced_rhs_se3,
    reduced_rhs_so3,
)
from gyrostat.hj import (
    EquilibriumError,
    find_equilibrium,
    hj_residual_se3,
    hj_residual_so3,
    solve_lift,
)
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    casimirs,
    hamiltonian_se3,
    hamiltonian_so3,
    model_layout,
)
from gyrostat.poisson import (
    BracketKind,
    bracket,
    coordinate_field,
    fd_gradient,
    hamiltonian_field_se3,
    hamiltonian_field_so3,
    hamiltonian_vector_field_via_bracket,
)

DOCUMENTED = (ValueError, IntegrationError, EquilibriumError)


def _magnitudes(low, high, extremes):
    return st.one_of(
        st.sampled_from(extremes), st.floats(low, high, allow_nan=False, allow_infinity=False)
    )


@st.composite
def overflowing_inputs(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    lay = model_layout(kind)
    moment = _magnitudes(5e-324, 10.0, [5e-324, 1e-308, 1e-300, 1e-150, 1.0, 3.0])
    params = InertiaParams(
        i_bar=draw(st.lists(moment, min_size=3, max_size=3)), j3=draw(moment)
    )
    grav = None
    if lay.gravity:
        chi = draw(st.sampled_from([(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (-1.0, 0.0, 0.0)]))
        mgh = draw(_magnitudes(0.0, 1e308, [0.0, 2.0, 1e150, 1e308]))
        grav = GravityParams(mgh=mgh, chi=chi)
    entry = _magnitudes(-1e200, 1e200, [0.0, -0.0, 1.0, 1e100, -1e155, 1e200])
    y = draw(st.lists(entry, min_size=lay.dim, max_size=lay.dim))
    return kind, params, grav, y


def _calls(kind, params, grav, y):
    """Each public routine on the drawn inputs, as a zero-argument call."""
    lay = model_layout(kind)
    state = lay.from_vector(y)
    so3 = kind == ModelKind.SO3
    h = hamiltonian_field_so3(params) if so3 else hamiltonian_field_se3(params, grav)
    form = BracketKind.PRODUCT_SO3 if so3 else BracketKind.PRODUCT_SE3
    x = np.array(y)

    def run(method):
        traj = integrate(
            kind, params, state, grav=grav, dt=1e-2, t_end=5e-2, sample_every=2, method=method
        )
        return diagnostics(traj)

    def residuals():
        lift = solve_lift(y, params, grav)
        if so3:
            return hj_residual_so3(y, params), hj_residual_so3(y, params, lift=lift)
        return hj_residual_se3(y, params, grav), hj_residual_se3(y, params, grav, lift=lift)

    return {
        "integrate rk4": lambda: run("rk4"),
        "integrate midpoint": lambda: run("midpoint"),
        "find_equilibrium": lambda: find_equilibrium(kind, params, state, grav=grav, max_iter=5),
        "hj_residual": residuals,
        "reduced_rhs": lambda: (
            reduced_rhs_so3(state, params) if so3 else reduced_rhs_se3(state, params, grav)
        ),
        "hamiltonian": lambda: (
            hamiltonian_so3(state, params) if so3 else hamiltonian_se3(state, params, grav)
        ),
        "casimirs": lambda: casimirs(state, kind),
        "fd_gradient point": lambda: fd_gradient(h, x),
        "fd_gradient block": lambda: fd_gradient(h, np.stack([x, -x], axis=1)),
        "bracket": lambda: [
            bracket(form, coordinate_field(lay.dim, i), h, x) for i in range(lay.dim)
        ],
        "vector field": lambda: hamiltonian_vector_field_via_bracket(form, h, x),
        "audit": lambda: bracket_oracle_audit(kind, params, grav=grav, samples=3),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(overflowing_inputs())
def test_public_routines_return_or_raise_their_documented_error(inputs):
    for name, call in _calls(*inputs).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except DOCUMENTED:
                pass
            except Exception as err:
                raise AssertionError(f"{name}: {type(err).__name__}: {err}") from err
