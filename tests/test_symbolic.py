"""Exact reference for the equations of motion.

Both vector fields are derived with sympy from the energy ``H`` and the
Lie-Poisson bracket of so(3)* x R x R and se(3)* x R x R alone,
component i being ``{x_i, H}``:

    dPi/dt    = Pi x dH/dPi + Gamma x dH/dGamma
    dGamma/dt = Gamma x dH/dPi
    dalpha/dt = dH/dl
    dl/dt     = -dH/dalpha

The hand-written field kernels and the lift-free steady lines of
``gyrostat.hj``, called on symbols, must differ from these by exactly 0,
and so must the hand-written Jacobians the equilibrium search uses from
sympy's Jacobian of the reference.  The reference never sees a
hand-written derivative.
"""

import sympy as sp

from gyrostat.dynamics import (
    _se3_field_jacobian,
    _so3_field_jacobian,
    se3_field_kernel,
    so3_field_kernel,
)
from gyrostat.hj import _STEADY_LINES
from gyrostat.model import ModelKind

I1, I2, I3, J3, MGH, C1, C2, C3 = sp.symbols("i1 i2 i3 j3 mgh c1 c2 c3")
PI = sp.Matrix(sp.symbols("p1 p2 p3"))
GAMMA = sp.Matrix(sp.symbols("g1 g2 g3"))
ALPHA, L = sp.symbols("alpha l")
CHI = sp.Matrix([C1, C2, C3])

SO3_COORDS = [*PI, ALPHA, L]
SE3_COORDS = [*PI, *GAMMA, ALPHA, L]


def energy(gravity: bool):
    h = (PI[0] ** 2 / I1 + PI[1] ** 2 / I2 + (PI[2] - L) ** 2 / I3 + L**2 / J3) / 2
    return h + MGH * GAMMA.dot(CHI) if gravity else h


def _grad(f, coords):
    return sp.Matrix([sp.diff(f, c) for c in coords])


def lie_poisson_bracket(f, k, gravity: bool):
    """{f, k} on so(3)* x R x R, or on se(3)* x R x R with `gravity`."""
    fp, kp = _grad(f, PI), _grad(k, PI)
    out = -PI.dot(fp.cross(kp))
    if gravity:
        fg, kg = _grad(f, GAMMA), _grad(k, GAMMA)
        out -= GAMMA.dot(fp.cross(kg) - kp.cross(fg))
    return out + sp.diff(f, ALPHA) * sp.diff(k, L) - sp.diff(k, ALPHA) * sp.diff(f, L)


def reference_field(gravity: bool) -> list:
    h = energy(gravity)
    coords = SE3_COORDS if gravity else SO3_COORDS
    return [lie_poisson_bracket(x, h, gravity) for x in coords]


def exactly_equal(a, b) -> bool:
    return sp.cancel(sp.sympify(a) - b) == 0


def so3_kernel_field() -> list:
    return so3_field_kernel(I1, I2, I3, J3, SO3_COORDS)


def se3_kernel_field(mgh=MGH) -> list:
    return se3_field_kernel(I1, I2, I3, J3, mgh, C1, C2, C3, SE3_COORDS)


def test_so3_kernel_is_the_lie_poisson_field():
    ref = reference_field(gravity=False)
    got = so3_kernel_field()
    assert len(got) == len(ref) == 5
    assert all(exactly_equal(a, b) for a, b in zip(got, ref))


def test_se3_kernel_is_the_lie_poisson_field():
    ref = reference_field(gravity=True)
    got = se3_kernel_field()
    assert len(got) == len(ref) == 8
    assert all(exactly_equal(a, b) for a, b in zip(got, ref))


def test_mgh_zero_degenerates_to_so3():
    # (Pi, alpha, l) rows of the se3 field at mgh = 0 are the so3 field.
    slots = [0, 1, 2, 6, 7]
    ref_se3 = [r.subs(MGH, 0) for r in reference_field(gravity=True)]
    ref_so3 = reference_field(gravity=False)
    assert all(exactly_equal(ref_se3[i], b) for i, b in zip(slots, ref_so3))
    got_se3 = se3_kernel_field(mgh=0)
    got_so3 = so3_kernel_field()
    assert all(exactly_equal(got_se3[i], b) for i, b in zip(slots, got_so3))


def reference_jacobian(gravity: bool) -> sp.Matrix:
    coords = SE3_COORDS if gravity else SO3_COORDS
    return sp.Matrix(reference_field(gravity)).jacobian(coords)


def so3_jacobian() -> sp.Matrix:
    # The hand-written Jacobians are lists of columns.
    return sp.Matrix(_so3_field_jacobian(I1, I2, I3, J3, SO3_COORDS)).T


def se3_jacobian(mgh=MGH) -> sp.Matrix:
    return sp.Matrix(_se3_field_jacobian(I1, I2, I3, J3, mgh, C1, C2, C3, SE3_COORDS)).T


def matrices_exactly_equal(a: sp.Matrix, b: sp.Matrix) -> bool:
    return a.shape == b.shape and all(exactly_equal(x, y) for x, y in zip(a, b))


def test_so3_jacobian_is_the_lie_poisson_jacobian():
    assert matrices_exactly_equal(so3_jacobian(), reference_jacobian(gravity=False))


def test_se3_jacobian_is_the_lie_poisson_jacobian():
    assert matrices_exactly_equal(se3_jacobian(), reference_jacobian(gravity=True))


def test_jacobian_mgh_zero_degenerates_to_so3():
    slots = [0, 1, 2, 6, 7]
    ref_se3 = reference_jacobian(gravity=True).subs(MGH, 0).extract(slots, slots)
    assert matrices_exactly_equal(ref_se3, reference_jacobian(gravity=False))
    assert matrices_exactly_equal(se3_jacobian(mgh=0).extract(slots, slots), so3_jacobian())


def so3_steady_lines() -> list:
    # Without a lift the l line, its lift entry alone, is 0, as dl is.
    return [*_STEADY_LINES[ModelKind.SO3](*SO3_COORDS, I1, I2, I3, J3), 0]


def se3_steady_lines(mgh=MGH) -> list:
    return [*_STEADY_LINES[ModelKind.SE3](*SE3_COORDS, I1, I2, I3, J3, mgh, C1, C2, C3), 0]


def test_so3_steady_lines_are_the_lie_poisson_field():
    ref = reference_field(gravity=False)
    got = so3_steady_lines()
    assert len(got) == len(ref) == 5
    assert all(exactly_equal(a, b) for a, b in zip(got, ref))


def test_se3_steady_lines_are_the_lie_poisson_field():
    ref = reference_field(gravity=True)
    got = se3_steady_lines()
    assert len(got) == len(ref) == 8
    assert all(exactly_equal(a, b) for a, b in zip(got, ref))


def test_steady_lines_mgh_zero_degenerates_to_so3():
    # The se3 Pi and alpha lines at mgh = 0 are the so3 ones.
    slots = [0, 1, 2, 6]
    got_se3 = se3_steady_lines(mgh=0)
    got_so3 = so3_steady_lines()
    assert all(exactly_equal(got_se3[i], b) for i, b in zip(slots, got_so3))
