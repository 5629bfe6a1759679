"""The model layout: one lookup per ModelKind for everything the two
phase spaces differ in."""

import dataclasses

import numpy as np
import pytest

from gyrostat.audit import bracket_oracle_audit
from gyrostat.dynamics import (
    ConstantControl,
    FeedbackControl,
    integrate,
    reduced_rhs_se3,
    reduced_rhs_so3,
)
from gyrostat.hj import (
    GammaBarField,
    constant_field,
    find_equilibrium,
    residual_field_report,
)
from gyrostat.model import (
    ControlLiftSe3,
    ControlLiftSo3,
    ModelKind,
    ModelLayout,
    Se3RotorState,
    So3RotorState,
    casimirs,
    hamiltonian_se3,
    hamiltonian_so3,
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

    def test_constants_in_the_kernels_order(self, kind, std_params, std_grav):
        lay = model_layout(kind)
        want = [3.0, 2.0, 1.0, 1.0] + ([2.0, 0.0, 0.0, 1.0] if lay.gravity else [])
        assert lay.constants(std_params, std_grav) == want
        if lay.gravity:
            with pytest.raises(ValueError, match="gravity parameters required for the se3"):
                lay.constants(std_params, None)
        else:
            assert lay.constants(std_params, None) == want

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
            flat = lay.lift_floats(lay.lift_type(**entries))
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
            assert list(label) == list(lay.casimir_names)
            for name, col in zip(lay.casimir_names, cols):
                assert np.float64(label[name]).tobytes() == col[i].tobytes()

    def test_energy_matches_the_state_function(self, kind, std_params, std_grav):
        lay = model_layout(kind)
        rng = SplitMix64(13)
        rows = [[rng.uniform(-3.0, 3.0) for _ in range(lay.dim)] for _ in range(50)]
        energy = lay.energy(np.array(rows), std_params, std_grav)
        for i, row in enumerate(rows):
            e = _hamiltonian(kind, lay.from_vector(row), std_params, std_grav)
            assert np.float64(e).tobytes() == energy[i].tobytes()


def _hamiltonian(kind, state, params, grav):
    if kind is ModelKind.SO3:
        return hamiltonian_so3(state, params)
    return hamiltonian_se3(state, params, grav)


def _reduced_rhs(kind, state, params, grav, lift=None):
    if kind is ModelKind.SO3:
        return reduced_rhs_so3(state, params, lift)
    return reduced_rhs_se3(state, params, grav, lift)


@pytest.mark.parametrize("kind", list(ModelKind))
class TestOtherModel:
    """A state or lift of the other model is a ValueError wherever it goes:
    never an AttributeError, and never a result."""

    @pytest.fixture
    def own_and_other(self, kind, std_so3_state, std_se3_state):
        states = {ModelKind.SO3: std_so3_state, ModelKind.SE3: std_se3_state}
        lifts = {
            ModelKind.SO3: ControlLiftSo3(u_pi=(0.1, 0.0, 0.0), u_alpha=0.2),
            ModelKind.SE3: ControlLiftSe3(u_gamma=(0.1, 0.0, 0.0), u_alpha=0.2),
        }
        other = ModelKind.SE3 if kind is ModelKind.SO3 else ModelKind.SO3
        return states[kind], states[other], lifts[other]

    def test_state(self, kind, own_and_other, std_params, std_grav):
        lay = model_layout(kind)
        _own, state, lift = own_and_other
        calls = [
            lambda: lay.to_vector(state),
            lambda: lay.to_vector(lift),
            lambda: lay.lift_floats(state),
            lambda: integrate(kind, std_params, state, grav=std_grav, t_end=0.01),
            lambda: find_equilibrium(kind, std_params, state, grav=std_grav),
            lambda: _reduced_rhs(kind, state, std_params, std_grav),
            lambda: casimirs(state, kind),
            lambda: casimirs(lift, kind),
            lambda: _hamiltonian(kind, state, std_params, std_grav),
            lambda: _hamiltonian(kind, lift, std_params, std_grav),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_energy_needs_its_gravity(self, kind, own_and_other, std_params):
        # The energy's checks are the layout's: without a gravity block an
        # se3 state's energy is a ValueError, not an AttributeError, and an
        # so3 state's needs none.
        own, _state, _lift = own_and_other
        if model_layout(kind).gravity:
            with pytest.raises(ValueError, match="gravity parameters required"):
                hamiltonian_se3(own, std_params, None)
        else:
            assert hamiltonian_so3(own, std_params) == pytest.approx(53.0 / 12.0, rel=1e-15)

    def test_lift(self, kind, own_and_other, std_params, std_grav):
        lay = model_layout(kind)
        own, _state, lift = own_and_other
        with pytest.raises(ValueError, match="lift"):
            lay.lift_floats(lift)
        for control in (ConstantControl(lift), FeedbackControl(lambda _s: lift)):
            with pytest.raises(ValueError, match="lift"):
                integrate(kind, std_params, own, grav=std_grav, control=control, t_end=0.01)
            with pytest.raises(ValueError, match="lift"):
                find_equilibrium(kind, std_params, own, grav=std_grav, control=control)
        with pytest.raises(ValueError, match="lift"):
            _reduced_rhs(kind, own, std_params, std_grav, lift)

    def test_vector_length(self, kind):
        lay = model_layout(kind)
        for n in (lay.dim - 1, lay.dim + 1, 13 - lay.dim):
            with pytest.raises(ValueError, match=f"{lay.dim}-vector"):
                lay.from_vector([0.5] * n)


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


# Each state and lift type, with its vector fields and its float fields.
_FLAT_TYPES = [
    (So3RotorState, ("pi",), ("alpha", "l")),
    (Se3RotorState, ("pi", "gamma"), ("alpha", "l")),
    (ControlLiftSo3, ("u_pi",), ("u_alpha", "u_l")),
    (ControlLiftSe3, ("u_pi", "u_gamma"), ("u_alpha", "u_l")),
]


@pytest.mark.parametrize("cls, vectors, scalars", _FLAT_TYPES)
class TestOneFieldRule:
    """The state and lift types share one field rule, written in `model`;
    no type checks its own fields, and no layout splits a flat vector by
    a per-model constructor."""

    def test_no_type_writes_its_own_rule(self, cls, vectors, scalars):
        assert "__post_init__" not in vars(cls)
        assert "split" not in {f.name for f in dataclasses.fields(ModelLayout)}

    @pytest.mark.parametrize("value", [2, np.int64(-3), np.float32(0.5), np.float64(-0.0)])
    def test_scalars_are_stored_as_floats(self, cls, vectors, scalars, value):
        block = cls(**{name: [1, 2, 3] for name in vectors}, **{name: value for name in scalars})
        for name in scalars:
            assert type(getattr(block, name)) is float
            assert getattr(block, name) == float(value)
        for name in vectors:
            assert getattr(block, name).dtype == np.float64
            assert getattr(block, name).tolist() == [1.0, 2.0, 3.0]
