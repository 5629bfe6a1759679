"""The exact Newton Jacobian against central differences of the free field.

`tests/test_symbolic.py` proves the hand-written Jacobians equal sympy's;
this property test checks the bound finite differencing of them obeys on
random finite states and parameters.

The bound, derived from ``FD_SCALE`` before the test was run: a central
difference of a quadratic field is exact in exact arithmetic, so all the
error is rounding.  With ``S = (1 + max|y|)**2 * (1/min(i1, i2, i3, j3) +
mgh)`` bounding every term of the field at the probes:

- each field entry is a sum of at most four terms of at most three
  roundings each, so it is off by at most ~8 eps S, and the difference of
  two of them by 16 eps S;
- dividing by ``2h``, with ``h = FD_SCALE * max(|y_j|, 1) >= FD_SCALE``,
  gives at most 8 eps S / FD_SCALE;
- rounding the probes ``y_j +- h`` changes the effective step by at most
  eps |y_j| <= eps h / FD_SCALE, a relative error of eps / FD_SCALE on an
  entry of size at most S.

So ``|fd - exact| <= 9 eps S / FD_SCALE``; the test allows 16.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat.dynamics import _fd_jacobian, _flat_system
from gyrostat.model import GravityParams, InertiaParams, ModelKind, model_layout
from gyrostat.poisson import FD_SCALE

EPS = np.finfo(float).eps


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def field_points(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    lay = model_layout(kind)
    y = draw(st.lists(_floats(-10.0, 10.0), min_size=lay.dim, max_size=lay.dim))
    params = InertiaParams(
        i_bar=draw(st.lists(_floats(0.5, 5.0), min_size=3, max_size=3)),
        j3=draw(_floats(0.5, 5.0)),
    )
    grav = None
    if lay.gravity:
        chi = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=3, max_size=3)))
        chi = chi if np.linalg.norm(chi) > 0.1 else np.array([0.0, 0.0, 1.0])
        grav = GravityParams(mgh=draw(_floats(0.0, 5.0)), chi=chi / np.linalg.norm(chi))
    return kind, y, params, grav


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field_points())
def test_exact_jacobian_matches_central_differences(point):
    kind, y, params, grav = point
    dim = model_layout(kind).dim
    field, jacobian = _flat_system(kind, params, grav, None)
    exact = jacobian(y)
    fd = _fd_jacobian(field, y)

    # The alpha column and the dl row are exactly zero in both.
    alpha, dl = dim - 2, dim - 1
    for cols in (exact, fd):
        assert cols[alpha] == [0.0] * dim
        assert [col[dl] for col in cols] == [0.0] * dim

    mgh = 0.0 if grav is None else grav.mgh
    smallest = min(*params.i_bar.tolist(), params.j3)
    scale = (1.0 + max(map(abs, y))) ** 2 * (1.0 / smallest + mgh)
    bound = 16.0 * EPS / FD_SCALE * scale
    worst = max(abs(a - b) for ce, cf in zip(exact, fd) for a, b in zip(ce, cf))
    assert math.isfinite(worst) and worst <= bound
