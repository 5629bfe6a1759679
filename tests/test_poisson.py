import numpy as np
import pytest

from gyrostat.dynamics import reduced_rhs_se3, reduced_rhs_so3
from gyrostat.model import ModelKind, grad_h, model_layout
from gyrostat.poisson import (
    FD_SCALE,
    BracketKind,
    ScalarField,
    bracket,
    coordinate_field,
    fd_gradient,
    fd_steps,
    hamiltonian_field_se3,
    hamiltonian_field_so3,
    hamiltonian_vector_field_via_bracket,
)
from gyrostat.rng import SplitMix64

from helpers import QuadraticField, random_point

RIGID = BracketKind.RIGID_BODY_SO3
CANONICAL = BracketKind.CANONICAL_R
PROD5 = BracketKind.PRODUCT_SO3
HEAVY = BracketKind.HEAVY_TOP_SE3
PROD8 = BracketKind.PRODUCT_SE3


def test_fd_steps_rule():
    x = np.array([0.0, 0.5, -3.0, 10.0, -0.2])
    assert np.array_equal(fd_steps(x), 6e-6 * np.array([1.0, 1.0, 3.0, 10.0, 1.0]))
    assert FD_SCALE == 6e-6


def test_fd_gradient_cubic_monomial():
    f = ScalarField(dim=5, value=lambda x: x[0] ** 2 * x[1])
    g = fd_gradient(f, np.array([1.0, 2.0, 3.0, 0.0, 0.0]))
    assert np.allclose(g, [4.0, 1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-9)


def test_fd_gradient_matches_analytic_quadratic():
    rng = SplitMix64(5)
    for _ in range(20):
        q = QuadraticField(8, rng)
        x = random_point(rng, 8)
        assert np.allclose(
            fd_gradient(q.field(), x), q.grad(x), rtol=0, atol=1e-8
        )


def test_fd_gradient_rejects_non_finite():
    f = ScalarField(dim=5, value=lambda x: float("nan"))
    with pytest.raises(ValueError):
        fd_gradient(f, np.zeros(5))


def test_scalar_field_dimension_checked():
    with pytest.raises(ValueError):
        ScalarField(dim=4, value=lambda x: 0.0)


def test_coordinate_field_bounds():
    with pytest.raises(ValueError):
        coordinate_field(5, 5)


class TestStructureRelations:
    """Coordinate brackets reproduce the defining relations."""

    def test_rigid_cyclic(self):
        x = np.array([1.0, 2.0, 3.0, 0.7, 0.5])
        p1, p2, p3 = (coordinate_field(5, i) for i in range(3))
        assert bracket(RIGID, p1, p2, x) == pytest.approx(-3.0, abs=1e-14)
        assert bracket(RIGID, p2, p3, x) == pytest.approx(-1.0, abs=1e-14)
        assert bracket(RIGID, p3, p1, x) == pytest.approx(-2.0, abs=1e-14)

    def test_rigid_value_only_route(self):
        # Same relation through finite differences instead of the exact
        # coordinate gradients.
        x = np.array([1.0, 2.0, 3.0, 0.0, 0.5])
        p1 = ScalarField(dim=5, value=lambda v: float(v[0]))
        p2 = ScalarField(dim=5, value=lambda v: float(v[1]))
        assert bracket(RIGID, p1, p2, x) == pytest.approx(-3.0, abs=1e-10)

    def test_canonical_pair(self):
        x5 = np.array([1.0, 2.0, 3.0, 0.7, 0.5])
        a, l = coordinate_field(5, 3), coordinate_field(5, 4)
        assert bracket(CANONICAL, a, l, x5) == pytest.approx(1.0, abs=1e-14)
        assert bracket(CANONICAL, l, a, x5) == pytest.approx(-1.0, abs=1e-14)
        x8 = random_point(SplitMix64(3), 8)
        a8, l8 = coordinate_field(8, 6), coordinate_field(8, 7)
        assert bracket(CANONICAL, a8, l8, x8) == pytest.approx(1.0, abs=1e-14)

    def test_canonical_ignores_momentum_slots(self):
        x = np.array([1.0, 2.0, 3.0, 0.7, 0.5])
        p1, l = coordinate_field(5, 0), coordinate_field(5, 4)
        assert bracket(CANONICAL, p1, l, x) == pytest.approx(0.0, abs=1e-14)

    def test_heavy_top_mixed(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.5])
        p1 = coordinate_field(8, 0)
        g2 = coordinate_field(8, 4)
        assert bracket(HEAVY, p1, g2, x) == pytest.approx(-6.0, abs=1e-14)

    def test_heavy_top_gamma_gamma_vanishes(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.5])
        g1, g2 = coordinate_field(8, 3), coordinate_field(8, 4)
        assert bracket(HEAVY, g1, g2, x) == pytest.approx(0.0, abs=1e-14)

    def test_product_is_exact_sum_of_parts(self):
        rng = SplitMix64(17)
        for _ in range(25):
            f = QuadraticField(5, rng).field(with_grad=True)
            k = QuadraticField(5, rng).field(with_grad=True)
            x = random_point(rng, 5)
            assert bracket(PROD5, f, k, x) == bracket(RIGID, f, k, x) + bracket(
                CANONICAL, f, k, x
            )
        for _ in range(25):
            f = QuadraticField(8, rng).field(with_grad=True)
            k = QuadraticField(8, rng).field(with_grad=True)
            x = random_point(rng, 8)
            assert bracket(PROD8, f, k, x) == bracket(HEAVY, f, k, x) + bracket(
                CANONICAL, f, k, x
            )


class TestBracketProperties:
    def test_antisymmetry_is_exact(self):
        rng = SplitMix64(101)
        for _ in range(50):
            for dim, kinds in ((5, (RIGID, CANONICAL, PROD5)), (8, (HEAVY, PROD8))):
                f = QuadraticField(dim, rng).field()
                k = QuadraticField(dim, rng).field()
                x = random_point(rng, dim)
                for kind in kinds:
                    assert bracket(kind, f, k, x) + bracket(kind, k, f, x) == 0.0

    def test_leibniz(self):
        rng = SplitMix64(102)
        for _ in range(50):
            for dim, kind in ((5, PROD5), (8, PROD8)):
                f = QuadraticField(dim, rng)
                k = QuadraticField(dim, rng)
                g = QuadraticField(dim, rng).field()
                x = random_point(rng, dim)
                lhs = bracket(kind, f.times(k), g, x)
                t1 = f.value(x) * bracket(kind, k.field(), g, x)
                t2 = k.value(x) * bracket(kind, f.field(), g, x)
                assert abs(lhs - t1 - t2) <= 1e-6 * max(1.0, abs(t1) + abs(t2))

    def test_casimir_annihilation_analytic_gradient(self):
        pi_sq = ScalarField(
            dim=5,
            value=lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2,
            grad=lambda x: np.array([2 * x[0], 2 * x[1], 2 * x[2], 0.0, 0.0]),
        )
        rng = SplitMix64(103)
        for _ in range(50):
            f = QuadraticField(5, rng).field()
            x = random_point(rng, 5)
            assert abs(bracket(RIGID, pi_sq, f, x)) < 1e-10

    def test_casimir_annihilation_heavy_top(self):
        pi_dot_gamma = ScalarField(
            dim=8,
            value=lambda x: x[0] * x[3] + x[1] * x[4] + x[2] * x[5],
            grad=lambda x: np.array(
                [x[3], x[4], x[5], x[0], x[1], x[2], 0.0, 0.0]
            ),
        )
        gamma_sq = ScalarField(
            dim=8,
            value=lambda x: x[3] ** 2 + x[4] ** 2 + x[5] ** 2,
            grad=lambda x: np.array(
                [0.0, 0.0, 0.0, 2 * x[3], 2 * x[4], 2 * x[5], 0.0, 0.0]
            ),
        )
        rng = SplitMix64(104)
        for _ in range(50):
            f = QuadraticField(8, rng).field()
            x = random_point(rng, 8)
            assert abs(bracket(HEAVY, pi_dot_gamma, f, x)) < 1e-10
            assert abs(bracket(HEAVY, gamma_sq, f, x)) < 1e-10

    def test_casimir_annihilation_all_fd_is_noisier(self):
        # Without the closed-form gradient the check still passes, only at
        # the cancellation noise floor of the difference scheme.
        pi_sq = ScalarField(dim=5, value=lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        rng = SplitMix64(105)
        worst = 0.0
        for _ in range(50):
            f = QuadraticField(5, rng).field()
            x = random_point(rng, 5)
            worst = max(worst, abs(bracket(RIGID, pi_sq, f, x)))
        assert worst < 1e-6


class TestDimensionChecks:
    def test_rigid_rejects_eight(self):
        f = coordinate_field(8, 0)
        with pytest.raises(ValueError):
            bracket(RIGID, f, f, np.zeros(8))

    def test_heavy_rejects_five(self):
        f = coordinate_field(5, 0)
        with pytest.raises(ValueError):
            bracket(HEAVY, f, f, np.zeros(5))

    def test_field_point_mismatch(self):
        f = coordinate_field(5, 0)
        with pytest.raises(ValueError):
            bracket(RIGID, f, f, np.zeros(8))


class TestHamiltonianField:
    @pytest.mark.parametrize("kind", [ModelKind.SO3, ModelKind.SE3])
    def test_fd_gradient_matches_grad_h(self, std_params, std_grav, kind):
        # The energy fields carry no gradient; their finite-difference
        # gradient agrees with the analytic one in gyrostat.model.
        lay = model_layout(kind)
        if lay.gravity:
            h, grav = hamiltonian_field_se3(std_params, std_grav), std_grav
        else:
            h, grav = hamiltonian_field_so3(std_params), None
        assert h.grad is None
        rng = SplitMix64(31)
        for _ in range(50):
            x = random_point(rng, lay.dim)
            g = grad_h(lay.from_vector(x), std_params, grav)
            d_gamma = g.d_gamma.tolist() if lay.gravity else []
            exact = [*g.d_pi.tolist(), *d_gamma, g.d_alpha, g.d_l]
            assert np.allclose(fd_gradient(h, x), exact, rtol=0, atol=1e-8)

    def test_reconstructed_field_matches_rhs_so3(self, std_params, std_so3_state):
        x = np.array([1.0, 2.0, 3.0, 0.0, 0.5])
        recon = hamiltonian_vector_field_via_bracket(
            PROD5, hamiltonian_field_so3(std_params), x
        )
        direct = reduced_rhs_so3(std_so3_state, std_params)
        assert np.allclose(recon, direct, rtol=1e-7, atol=1e-7)

    def test_reconstructed_field_matches_rhs_se3(
        self, std_params, std_grav, std_se3_state
    ):
        x = np.array([1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.5])
        recon = hamiltonian_vector_field_via_bracket(
            PROD8, hamiltonian_field_se3(std_params, std_grav), x
        )
        direct = reduced_rhs_se3(std_se3_state, std_params, std_grav)
        assert np.allclose(recon, direct, rtol=1e-7, atol=1e-7)


class TestBlocks:
    """A (dim, n) block, one point per column, gives each column exactly
    what the single-point call gives."""

    @staticmethod
    def _cases(params, grav):
        return [
            (PROD5, hamiltonian_field_so3(params)),
            (PROD8, hamiltonian_field_se3(params, grav)),
        ]

    @staticmethod
    def _block(seed, dim, n):
        # Laid out as the audit draws it: sample-major, then transposed.
        return SplitMix64(seed).uniforms(n * dim, -5.0, 5.0).reshape(n, dim).T

    def test_fd_gradient_is_columnwise_exact(self, std_params, std_grav):
        for _, h in self._cases(std_params, std_grav):
            x = self._block(11, h.dim, 37)
            g = fd_gradient(h, x)
            assert g.shape == x.shape
            for j in range(x.shape[1]):
                assert np.array_equal(g[:, j], fd_gradient(h, x[:, j]))

    def test_vector_field_is_columnwise_exact(self, std_params, std_grav):
        for kind, h in self._cases(std_params, std_grav):
            x = self._block(12, h.dim, 37)
            v = hamiltonian_vector_field_via_bracket(kind, h, x)
            assert v.shape == x.shape
            for j in range(x.shape[1]):
                assert np.array_equal(
                    v[:, j], hamiltonian_vector_field_via_bracket(kind, h, x[:, j])
                )

    def test_fd_gradient_leaves_the_block_alone(self, std_params):
        h = hamiltonian_field_so3(std_params)
        x = self._block(13, 5, 9)
        before = x.copy()
        fd_gradient(h, x)
        assert np.array_equal(x, before)

    def test_fd_gradient_rejects_non_finite_in_one_column(self):
        f = ScalarField(dim=5, value=lambda v: np.where(v[2] > 4.0, np.inf, v[2] ** 2))
        x = np.zeros((5, 4))
        x[2, 3] = 4.5
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(f, x)
        assert np.array_equal(fd_gradient(f, x[:, :3]), np.zeros((5, 3)))

    def test_block_shapes_checked(self, std_params):
        h = hamiltonian_field_so3(std_params)
        with pytest.raises(ValueError):
            hamiltonian_vector_field_via_bracket(PROD5, h, np.zeros((8, 3)))
        with pytest.raises(ValueError):
            hamiltonian_vector_field_via_bracket(PROD5, h, np.zeros((5, 3, 2)))
        f = coordinate_field(5, 0)
        with pytest.raises(ValueError):
            bracket(RIGID, f, f, np.zeros((5, 3)))
