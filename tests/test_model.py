import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gyrostat.model import (
    ControlLiftSe3,
    ControlLiftSo3,
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    casimirs,
    grad_h,
    hamiltonian_se3,
    hamiltonian_so3,
    model_layout,
    omega_from_momenta,
)
from gyrostat.rng import SplitMix64


class TestInertiaParams:
    def test_basic(self, std_params):
        assert np.array_equal(std_params.i_bar, (3.0, 2.0, 1.0))
        assert std_params.j3 == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            InertiaParams(i_bar=(0.0, 2.0, 1.0), j3=1.0)
        with pytest.raises(ValueError):
            InertiaParams(i_bar=(3.0, 2.0, 1.0), j3=-1.0)

    @pytest.mark.parametrize("j3", [float("inf"), float("nan")])
    def test_rejects_non_finite_rotor_moment(self, j3):
        with pytest.raises(ValueError, match="finite"):
            InertiaParams(i_bar=(3.0, 2.0, 1.0), j3=j3)

    def test_raw_decomposition_consistent(self):
        # Locked transverse moments are carrier plus rotor-transverse;
        # the axial one is the carrier's alone.
        p = InertiaParams(
            i_bar=(3.0, 2.0, 1.0),
            j3=1.0,
            i_carrier=(2.5, 1.5, 1.0),
            j_rotor_transverse=(0.5, 0.5),
        )
        assert np.array_equal(p.i_bar, (3.0, 2.0, 1.0))

    @pytest.mark.parametrize("jt", [(float("nan"), 0.5), (0.5, float("nan"))])
    def test_rejects_nan_raw_rotor_moment(self, jt):
        # NaN <= 0 and NaN > RAW_INERTIA_TOL are both false.
        with pytest.raises(ValueError, match="raw moments must be positive"):
            InertiaParams(
                i_bar=(3.0, 2.0, 1.0),
                j3=1.0,
                i_carrier=(2.5, 1.5, 1.0),
                j_rotor_transverse=jt,
            )

    def test_raw_decomposition_inconsistent(self):
        with pytest.raises(ValueError):
            InertiaParams(
                i_bar=(3.0, 2.0, 1.0),
                j3=1.0,
                i_carrier=(2.5, 1.5, 1.1),
                j_rotor_transverse=(0.5, 0.5),
            )


class TestGravityParams:
    def test_unit_chi_kept(self):
        g = GravityParams(mgh=2.0, chi=(0.0, 0.0, 1.0))
        assert np.array_equal(g.chi, [0.0, 0.0, 1.0])
        assert g.mgh == 2.0

    def test_slightly_off_chi_renormalized_with_warning(self):
        with pytest.warns(UserWarning):
            g = GravityParams(mgh=1.0, chi=(0.0, 0.0, 1.0 + 2e-8))
        assert abs(np.linalg.norm(g.chi) - 1.0) < 1e-15

    def test_far_off_chi_renormalized_with_warning(self):
        with pytest.warns(UserWarning):
            g = GravityParams(mgh=1.0, chi=(0.0, 0.0, 0.9))
        assert np.array_equal(g.chi, [0.0, 0.0, 1.0])

    def test_near_zero_chi_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            GravityParams(mgh=1.0, chi=(0.0, 0.0, 1e-9))

    def test_negative_mgh_rejected(self):
        with pytest.raises(ValueError):
            GravityParams(mgh=-1.0, chi=(0.0, 0.0, 1.0))


class TestStates:
    def test_so3_defaults(self):
        s = So3RotorState(pi=(1.0, 2.0, 3.0))
        assert s.alpha == 0.0 and s.l == 0.0

    def test_se3_requires_gamma3(self):
        with pytest.raises(ValueError):
            Se3RotorState(pi=(1.0, 2.0, 3.0), gamma=(1.0, 0.0))

    def test_so3_rejects_bad_pi(self):
        with pytest.raises(ValueError):
            So3RotorState(pi=(1.0, 2.0))

    def test_flatten_round_trip_so3(self, std_so3_state):
        lay = model_layout(ModelKind.SO3)
        v = lay.to_vector(std_so3_state)
        assert np.array_equal(v, [1.0, 2.0, 3.0, 0.0, 0.5])
        assert np.array_equal(lay.to_vector(lay.from_vector(v)), v)

    def test_flatten_round_trip_se3(self, std_se3_state):
        lay = model_layout(ModelKind.SE3)
        v = lay.to_vector(std_se3_state)
        assert np.array_equal(v, [1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.5])
        assert np.array_equal(lay.to_vector(lay.from_vector(v)), v)


# One finite value per field; each vector entry and each scalar below is
# replaced in turn by a non-finite value, which must be rejected.
_FINITE = [
    (So3RotorState, {"pi": (1.0, 2.0, 3.0), "alpha": 0.1, "l": 0.5}),
    (Se3RotorState, {"pi": (1.0, 2.0, 3.0), "gamma": (0.0, 0.6, 0.8), "alpha": 0.1, "l": 0.5}),
    (ControlLiftSo3, {"u_pi": (0.1, -0.2, 0.3), "u_alpha": 0.4, "u_l": -0.5}),
    (
        ControlLiftSe3,
        {"u_pi": (0.1, -0.2, 0.3), "u_gamma": (0.01, 0.02, -0.03), "u_alpha": 0.4, "u_l": -0.5},
    ),
]
_NON_FINITE_SLOTS = [
    (cls, kw, name, i, bad)
    for cls, kw in _FINITE
    for name, v in kw.items()
    for i in (range(3) if isinstance(v, tuple) else (None,))
    for bad in (float("nan"), float("inf"), float("-inf"))
]


@pytest.mark.parametrize("cls, kw, name, i, bad", _NON_FINITE_SLOTS)
def test_non_finite_slot_is_rejected(cls, kw, name, i, bad):
    assert cls(**kw) is not None
    if i is None:
        scalars = [n for n, v in kw.items() if not isinstance(v, tuple)]
        message = f"^{' and '.join(scalars)} must be finite$"
        value = bad
    else:
        message = "^3-vector components must be finite, got "
        value = tuple(bad if j == i else x for j, x in enumerate(kw[name]))
    with pytest.raises(ValueError, match=message):
        cls(**{**kw, name: value})


class TestVelocities:
    def test_omega_oracle(self, std_so3_state, std_params):
        # Pi=(1,2,3), l=0.5, i_bar=(3,2,1), j3=1:
        # omega = (1/3, 1, 2.5), alpha_dot = 0.5 - 2.5 = -2.
        vel = omega_from_momenta(std_so3_state, std_params)
        assert vel.omega[0] == pytest.approx(1.0 / 3.0, abs=0)
        assert vel.omega[1] == 1.0
        assert vel.omega[2] == 2.5
        assert vel.alpha_dot == -2.0

    def test_works_for_se3_states(self, std_se3_state, std_params):
        vel = omega_from_momenta(std_se3_state, std_params)
        assert vel.omega[2] == 2.5


class TestHamiltonian:
    def test_so3_value(self, std_so3_state, std_params):
        # (1/3 + 4/2 + 6.25/1 + 0.25/1) / 2 = 53/12
        assert hamiltonian_so3(std_so3_state, std_params) == pytest.approx(
            53.0 / 12.0, rel=1e-15
        )

    def test_se3_adds_potential(self, std_params, std_grav):
        s = Se3RotorState(
            pi=(1.0, 2.0, 3.0), gamma=(0.6, 0.0, 0.8), alpha=0.0, l=0.5
        )
        expected = 53.0 / 12.0 + 2.0 * 0.8
        assert hamiltonian_se3(s, std_params, std_grav) == pytest.approx(
            expected, rel=1e-15
        )

    def test_alpha_is_cyclic(self, std_params):
        a = So3RotorState(pi=(1.0, 2.0, 3.0), alpha=0.0, l=0.5)
        b = So3RotorState(pi=(1.0, 2.0, 3.0), alpha=17.3, l=0.5)
        assert hamiltonian_so3(a, std_params) == hamiltonian_so3(b, std_params)


class TestGradH:
    def test_so3_gradient(self, std_so3_state, std_params):
        g = grad_h(std_so3_state, std_params)
        vel = omega_from_momenta(std_so3_state, std_params)
        assert np.array_equal(g.d_pi, vel.omega)
        assert g.d_alpha == 0.0
        assert g.d_l == vel.alpha_dot
        assert g.d_gamma is None

    def test_se3_gradient(self, std_se3_state, std_params, std_grav):
        g = grad_h(std_se3_state, std_params, std_grav)
        assert np.array_equal(g.d_gamma, [0.0, 0.0, 2.0])

    def test_se3_without_gravity_rejected(self, std_se3_state, std_params):
        with pytest.raises(ValueError, match="gravity parameters required for the se3 model"):
            grad_h(std_se3_state, std_params)

    def test_non_state_rejected(self, std_params, std_grav):
        # The model is read from the state type, not guessed from attributes.
        duck = SimpleNamespace(pi=np.array([1.0, 2.0, 3.0]), gamma=np.zeros(3), alpha=0.0, l=0.5)
        with pytest.raises(ValueError, match="model state"):
            grad_h(duck, std_params, std_grav)


class TestCasimirs:
    def test_so3(self, std_so3_state):
        lab = casimirs(std_so3_state, ModelKind.SO3)
        assert lab.pi_norm == pytest.approx(np.sqrt(14.0), rel=1e-15)
        assert lab.pi_dot_gamma is None

    def test_se3(self, std_se3_state):
        lab = casimirs(std_se3_state, ModelKind.SE3)
        assert lab.pi_dot_gamma == 1.0
        assert lab.gamma_norm == 1.0

    # Vectors whose norm is a finite nonzero double although the plain sum
    # of their squares overflows or underflows.
    EXTREME = [
        (1e160, 2.0, 3.0),
        (-1e300, 1e300, 0.0),
        (1.7976931348623157e308, 0.0, 0.0),
        (1e-170, 0.0, 0.0),
        (3e-160, 4e-160, 0.0),
        (5e-324, -5e-324, 5e-324),
    ]

    @pytest.mark.parametrize("v", EXTREME)
    def test_norms_do_not_overflow_or_underflow(self, v):
        want = math.hypot(*v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            so3 = casimirs(So3RotorState(pi=v), ModelKind.SO3)
            se3 = casimirs(Se3RotorState(pi=(1.0, 2.0, 3.0), gamma=v), ModelKind.SE3)
        assert so3.pi_norm == pytest.approx(want, rel=4e-16, abs=0.0)
        assert se3.gamma_norm == pytest.approx(want, rel=4e-16, abs=0.0)

    def test_norm_rows_keep_their_bits(self):
        # Only the rows whose sum of squares is out of range are rescaled:
        # the others stay sqrt(Pi . Pi), and a zero row stays 0.
        rng = SplitMix64(5)
        rows = np.array(
            [[rng.uniform(-1e3, 1e3) for _ in range(5)] for _ in range(20)]
            + [[0.0] * 5, [*self.EXTREME[0], 0.0, 0.0]]
        )
        (norms,) = model_layout(ModelKind.SO3).casimirs(rows)
        plain = np.sqrt(np.vecdot(rows[:21, :3], rows[:21, :3]))
        assert norms[:21].tobytes() == plain.tobytes()
        assert norms[21] == 1e160

    def test_kind_mismatch(self, std_so3_state, std_se3_state):
        with pytest.raises(ValueError):
            casimirs(std_so3_state, ModelKind.SE3)
        with pytest.raises(ValueError):
            casimirs(std_se3_state, ModelKind.SO3)
