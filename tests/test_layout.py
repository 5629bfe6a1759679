"""The model layout: one lookup per ModelKind for everything the two
phase spaces differ in."""

import numpy as np
import pytest

from gyrostat.audit import bracket_oracle_audit
from gyrostat.dynamics import _lift_floats, integrate
from gyrostat.hj import (
    GammaBarField,
    constant_field,
    find_equilibrium,
    residual_field_report,
)
from gyrostat.model import (
    ModelKind,
    Se3RotorState,
    So3RotorState,
    casimirs,
    model_layout,
)
from gyrostat.rng import SplitMix64

# The CSV headers as the package wrote them before the layout existed.
HEADERS = {
    ModelKind.SO3: "t,Pi1,Pi2,Pi3,alpha,l,energy,pi_norm",
    ModelKind.SE3: (
        "t,Pi1,Pi2,Pi3,Gamma1,Gamma2,Gamma3,alpha,l,energy,pi_dot_gamma,gamma_norm"
    ),
}
EXPECTED = {
    ModelKind.SO3: (So3RotorState, 5, ("pi_norm",), False),
    ModelKind.SE3: (Se3RotorState, 8, ("pi_dot_gamma", "gamma_norm"), True),
}


@pytest.mark.parametrize("kind", list(ModelKind))
class TestLayout:
    def test_csv_header(self, kind):
        assert model_layout(kind).csv_header == HEADERS[kind]

    def test_shape(self, kind):
        lay = model_layout(kind)
        state_type, dim, names, gravity = EXPECTED[kind]
        assert lay.kind is kind
        assert lay.state_type is state_type
        assert lay.dim == dim == len(lay.columns)
        assert lay.casimir_names == names
        assert lay.gravity is gravity

    def test_vector_round_trip_is_bitwise(self, kind):
        lay = model_layout(kind)
        rng = SplitMix64(11)
        specials = [0.0, -0.0, 5e-324, 1e300, -1e-300]
        for k in range(200):
            y = np.array([rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8.0, 8.0)
                          for _ in range(lay.dim)])
            y[k % lay.dim] = specials[k % len(specials)]
            state = lay.from_vector(y)
            assert isinstance(state, lay.state_type)
            assert lay.to_vector(state).tobytes() == y.tobytes()
            assert lay.to_vector(lay.from_vector(lay.to_vector(state))).tobytes() == y.tobytes()

    def test_lift_floats_follow_the_columns(self, kind):
        # A lift built by column name, every entry distinct but one -0.0,
        # flattens to its entries in column order, sign bit included.
        lay = model_layout(kind)
        for k in range(lay.dim):
            values = [0.25 + j for j in range(lay.dim)]
            values[k] = -0.0
            entries = {}
            for column, v in zip(lay.columns, values):
                name = "u_" + column.rstrip("123").lower()
                if column[-1].isdigit():
                    entries.setdefault(name, []).append(v)
                else:
                    entries[name] = v
            flat = _lift_floats(lay.lift_type(**entries), lay)
            assert all(type(x) is float for x in flat)
            assert np.array(flat).tobytes() == np.array(values).tobytes()

    def test_casimirs_match_the_state_function(self, kind):
        lay = model_layout(kind)
        rng = SplitMix64(12)
        rows = [[rng.uniform(-3.0, 3.0) for _ in range(lay.dim)] for _ in range(50)]
        cols = lay.casimirs(np.array(rows))
        assert len(cols) == len(lay.casimir_names)
        for i, row in enumerate(rows):
            label = casimirs(lay.from_vector(row), kind)
            for name, col in zip(lay.casimir_names, cols):
                assert np.float64(getattr(label, name)).tobytes() == col[i].tobytes()


@pytest.mark.parametrize("bad", ["so3", "se3", None, 3])
class TestUnknownKind:
    def test_lookup(self, bad):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_layout(bad)

    def test_library_entry_points(self, bad, std_params, std_grav, std_so3_state):
        with pytest.raises(ValueError):
            integrate(bad, std_params, std_so3_state, grav=std_grav, t_end=0.01)
        with pytest.raises(ValueError):
            find_equilibrium(bad, std_params, std_so3_state, grav=std_grav)
        with pytest.raises(ValueError):
            bracket_oracle_audit(bad, std_params, grav=std_grav, samples=10)
        with pytest.raises(ValueError):
            casimirs(std_so3_state, bad)
        with pytest.raises(ValueError):
            constant_field(bad, [0.1] * 8)
        with pytest.raises(ValueError):
            constant_field(bad, [0.1] * 5)
        field = GammaBarField(kind=bad, fn=lambda _c: np.full(8, 0.1))
        with pytest.raises(ValueError):
            residual_field_report(field, [None], std_params, std_grav)
