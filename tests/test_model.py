import math
import warnings

import numpy as np
import pytest

from gyrostat.dynamics import integrate
from gyrostat.model import (
    ControlLiftSe3,
    ControlLiftSo3,
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    casimirs,
    hamiltonian_se3,
    hamiltonian_so3,
    model_layout,
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


class TestGravityParams:
    def test_unit_chi_kept(self):
        g = GravityParams(mgh=2.0, chi=(0.0, 0.0, 1.0))
        assert np.array_equal(g.chi, [0.0, 0.0, 1.0])
        assert g.mgh == 2.0

    def test_slightly_off_chi_renormalized_with_warning(self):
        with pytest.warns(UserWarning):
            g = GravityParams(mgh=1.0, chi=(0.0, 0.0, 1.0 + 2e-8))
        assert abs(np.linalg.norm(g.chi) - 1.0) < 1e-15

    def test_renormalization_warning_names_the_caller(self):
        # The warning points at the line that built the block, not at the
        # __init__ that @dataclass generates.
        with pytest.warns(UserWarning, match="renormalizing") as record:
            GravityParams(mgh=1.0, chi=(0, 0, 2))
        assert record[0].filename == __file__

    def test_far_off_chi_renormalized_with_warning(self):
        with pytest.warns(UserWarning):
            g = GravityParams(mgh=1.0, chi=(0.0, 0.0, 0.9))
        assert np.array_equal(g.chi, [0.0, 0.0, 1.0])

    def test_chi_whose_square_overflows_keeps_its_direction(self):
        # |chi|^2 overflows while |chi| is a double: chi / |chi| is the unit
        # vector, not chi / inf = 0, and numpy need not warn of the square.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            g = GravityParams(mgh=1.0, chi=(1e200, 0.0, 0.0))
        assert g.chi.tolist() == [1.0, 0.0, 0.0]

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


class TestReadOnlyCopies:
    """A validated block keeps its own read-only copy of each vector, so a
    change to the caller's array after the check reaches nothing."""

    def test_inertia(self):
        i = np.array([3.0, 2.0, 1.0])
        p = InertiaParams(i_bar=i, j3=1.0)
        i[0] = -5.0
        assert p.i_bar.tolist() == [3.0, 2.0, 1.0]
        assert not p.i_bar.flags.writeable

    @pytest.mark.parametrize("chi", [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    def test_gravity(self, chi):
        c = np.array(chi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            g = GravityParams(mgh=1.0, chi=c)
        c[2] = float("nan")
        assert g.chi.tolist() == [0.0, 0.0, 1.0]
        assert not g.chi.flags.writeable

    @pytest.mark.parametrize("cls, kw", [
        (So3RotorState, {"pi": [1.0, 2.0, 3.0]}),
        (Se3RotorState, {"pi": [1.0, 2.0, 3.0], "gamma": [0.0, 0.6, 0.8]}),
        (ControlLiftSo3, {"u_pi": [0.1, -0.2, 0.3]}),
        (ControlLiftSe3, {"u_pi": [0.1, -0.2, 0.3], "u_gamma": [0.01, 0.02, -0.03]}),
    ])
    def test_states_and_lifts(self, cls, kw):
        arrays = {name: np.array(v) for name, v in kw.items()}
        block = cls(**arrays)
        for name, a in arrays.items():
            a[0] = float("nan")
            assert getattr(block, name).tolist() == kw[name]
            assert not getattr(block, name).flags.writeable

    def test_integrate_runs_with_the_checked_moments(self, std_so3_state):
        i = np.array([3.0, 2.0, 1.0])
        p = InertiaParams(i_bar=i, j3=1.0)
        before = integrate(ModelKind.SO3, p, std_so3_state, t_end=0.01).states
        i[0] = -5.0
        after = integrate(ModelKind.SO3, p, std_so3_state, t_end=0.01).states
        assert np.array_equal(before, after)


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


class TestCasimirs:
    def test_so3(self, std_so3_state):
        lab = casimirs(std_so3_state, ModelKind.SO3)
        assert list(lab) == ["pi_norm"]
        assert lab["pi_norm"] == pytest.approx(np.sqrt(14.0), rel=1e-15)

    def test_se3(self, std_se3_state):
        assert casimirs(std_se3_state, ModelKind.SE3) == {"pi_dot_gamma": 1.0, "gamma_norm": 1.0}

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
        assert so3["pi_norm"] == pytest.approx(want, rel=4e-16, abs=0.0)
        assert se3["gamma_norm"] == pytest.approx(want, rel=4e-16, abs=0.0)

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

    @pytest.mark.parametrize(
        "pi, gamma, want",
        [
            ((1e200, -1e200, 0.0), (1e200, 1e200, 0.0), 0.0),
            ((1e200, 1e200, 1e100), (1e200, -1e200, 1e100), 1e200),
            ((-1e300, 0.0, 0.0), (1e300, 0.0, 0.0), -math.inf),
            ((1.7976931348623157e308, 1.0, 0.0), (4.0, 1e-300, 0.0), math.inf),
        ],
    )
    def test_pi_dot_gamma_terms_overflowing(self, pi, gamma, want):
        # The terms of Pi . Gamma overflow; the dot product is the double
        # it is (a zero stays zero), without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            label = casimirs(Se3RotorState(pi=pi, gamma=gamma), ModelKind.SE3)
        assert label["pi_dot_gamma"] == pytest.approx(want, rel=4e-16, abs=0.0)

    def test_dot_rows_keep_their_bits(self):
        # Only the finite rows whose Pi . Gamma is not finite are rescaled;
        # the others, and a row holding an infinity, stay np.vecdot's.
        rng = SplitMix64(6)
        rows = np.array(
            [[rng.uniform(-1e3, 1e3) for _ in range(8)] for _ in range(20)]
            + [[1e200, -1e200, 0.0, 1e200, 1e200, 0.0, 0.0, 0.0]]
            + [[math.inf, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]]
        )
        dots, _norms = model_layout(ModelKind.SE3).casimirs(rows)
        plain = np.vecdot(rows[:20, :3], rows[:20, 3:6])
        assert dots[:20].tobytes() == plain.tobytes()
        assert dots[20] == 0.0 and dots[21] == math.inf

    def test_kind_mismatch(self, std_so3_state, std_se3_state):
        with pytest.raises(ValueError):
            casimirs(std_so3_state, ModelKind.SE3)
        with pytest.raises(ValueError):
            casimirs(std_se3_state, ModelKind.SO3)
