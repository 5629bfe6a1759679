"""The exact Jacobians come from the field table, and only from it.

``gyrostat.dynamics._table_functions`` compiles a table's kernel and its
Jacobian, whose entries ``_jacobian_columns`` derives by the sum, product
and quotient rules.  A synthetic table that uses every form the rules take
must give sympy's Jacobian of its own kernel exactly, with the literal
``0.0`` where sympy's entry is 0; a form outside the rules is a
``ValueError`` that names it; and each model's kernel and Jacobian are
compiled from its table's text, so that a hand-written copy fails here.
"""

import re

import pytest
import sympy as sp

from gyrostat import dynamics
from gyrostat.dynamics import _FieldTable, _table_functions
from gyrostat.model import ModelKind

SYNTHETIC = _FieldTable(
    constants=("i1", "i2", "i3", "k"),
    slots=("p1", "p2", "p3", "_q", "l", "m"),
    values=(
        "p1 * w2",  # a slot times a rate
        "k * (p1 - p3)",  # a constant times a difference
        "w3 - l",  # a rate of a difference, less a slot
        "(p2 * m) / k",  # a quotient by a constant
        "0.0",  # the literal
        "(p1 + m) * w1 + m",  # a sum times a rate, plus a slot
    ),
)
SYMBOLS = sp.symbols("i1 i2 i3 k")
COORDS = list(sp.symbols("p1 p2 p3 q l m"))


def test_synthetic_jacobian_is_sympys():
    kernel, jacobian = _table_functions("synthetic", SYNTHETIC)
    reference = sp.Matrix(kernel(*SYMBOLS, COORDS)).jacobian(COORDS)
    cols = jacobian(*SYMBOLS, COORDS)
    assert len(cols) == len(COORDS) and all(len(col) == len(SYNTHETIC.values) for col in cols)
    for j, col in enumerate(cols):
        for i, entry in enumerate(col):
            assert sp.cancel(sp.sympify(entry) - reference[i, j]) == 0, (i, j, entry)
            # An entry no term reaches is the float the Newton step strikes.
            if reference[i, j] == 0:
                assert type(entry) is float and entry == 0.0, (i, j, entry)
    # The q column and the literal's row are wholly structural zeros.
    assert cols[3] == [0.0] * 6 and [col[4] for col in cols] == [0.0] * 6


def test_synthetic_jacobian_on_floats():
    # On floats every entry is a float, the lone slot's 1.0 among them.
    _kernel, jacobian = _table_functions("synthetic", SYNTHETIC)
    cols = jacobian(2.0, 4.0, 8.0, 0.5, [1.0, 2.0, 3.0, 7.0, 5.0, 6.0])
    assert all(type(entry) is float for col in cols for entry in col)
    assert cols[5][5] == 1.0 / 2.0 + 1.0
    assert cols[4][2] == -1 / 8.0 + -1.0


@pytest.mark.parametrize(
    "value", ["-p1", "p1 / p2", "(p1 - p2) * (p2 - p3)", "p1 * 2", "w1 + q"],
    ids=["unary minus", "division by a slot", "compound product", "int literal", "unknown name"],
)
def test_form_outside_the_rules_raises_naming_it(value):
    table = SYNTHETIC._replace(values=(*SYNTHETIC.values[:-1], value))
    offending = {"w1 + q": "q", "p1 * 2": "2"}.get(value, value)
    with pytest.raises(ValueError, match=re.escape(f"cannot differentiate {offending!r}")):
        _table_functions("synthetic", table)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_kernel_and_jacobian_are_compiled_from_the_table(kind):
    # A hand-written kernel or Jacobian would be filed under dynamics.py.
    for name in (f"{kind.value}_field_kernel", f"_{kind.value}_field_jacobian"):
        code = getattr(dynamics, name).__code__
        assert code.co_filename == f"<{kind.value} field table>", name
