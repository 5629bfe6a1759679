import warnings

import numpy as np
import pytest

from gyrostat import audit
from gyrostat.dynamics import _flat_system, reduced_rhs_se3, reduced_rhs_so3
from gyrostat.model import InertiaParams, ModelKind, model_layout
from gyrostat.poisson import (
    FD_SCALE,
    BracketKind,
    ScalarField,
    _combine,
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


@pytest.mark.parametrize("dim", [5, 8])
def test_fd_gradient_of_a_point_probes_one_coordinate_at_a_time(dim):
    # A point goes through the block code, its probe block handed to a
    # field of single points one contiguous column at a time: every + probe,
    # then every - probe, with the bits of the coordinate-at-a-time quotient.
    rng = SplitMix64(21)
    for _ in range(20):
        q = QuadraticField(dim, rng)
        x = random_point(rng, dim, -50.0, 50.0)
        seen = []

        def value(p):
            assert p.shape == (dim,) and p.flags.c_contiguous
            seen.append(p.copy())
            return q.value(p)

        g = fd_gradient(ScalarField(dim=dim, value=value), x)
        steps = fd_steps(x)
        want = []
        for sign in (1.0, -1.0):
            for i in range(dim):
                probe = x.copy()
                probe[i] = x[i] + sign * steps[i]
                want.append(probe)
        assert np.array(seen).tobytes() == np.array(want).tobytes()
        quotient = [
            (q.value(want[i]) - q.value(want[dim + i])) / (2.0 * steps[i]) for i in range(dim)
        ]
        assert g.tobytes() == np.array(quotient).tobytes()


def test_fd_gradient_rejects_non_finite():
    f = ScalarField(dim=5, value=lambda x: float("nan"))
    with pytest.raises(ValueError):
        fd_gradient(f, np.zeros(5))


class TestQuietOnOverflow:
    """Where a tiny moment of inertia overflows the energy, the public
    routines raise their documented ValueError or return, and numpy warns
    of nothing."""

    H = hamiltonian_field_so3(InertiaParams(i_bar=(1e-308, 2.0, 1.0), j3=1.0))

    @pytest.mark.parametrize("shape", [(5,), (5, 1)], ids=["point", "block"])
    def test_fd_gradient_reports_the_overflowing_probe(self, shape):
        x = np.reshape([2.0, 2.0, 3.0, 0.0, 0.5], shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="^non-finite field value near x while probing component 0$"
            ):
                fd_gradient(self.H, x)

    @pytest.mark.parametrize("route", ["vector_field", "bracket"])
    def test_bracket_forms_overflow_quietly(self, route):
        # The gradient is finite (~1e308) at this point; its products with
        # Pi overflow in the bracket's form, whose value is as numpy's.
        x = [1.0, 2.0, 3.0, 0.0, 0.5]

        def run():
            if route == "bracket":
                return np.float64(bracket(PROD5, coordinate_field(5, 2), self.H, x))
            return hamiltonian_vector_field_via_bracket(PROD5, self.H, x)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run()
        assert got.tobytes() == want.tobytes()
        assert not np.isfinite(got).all()


def test_scalar_field_dimension_checked():
    with pytest.raises(ValueError):
        ScalarField(dim=4, value=lambda x: 0.0)


def test_coordinate_field_bounds():
    with pytest.raises(ValueError):
        coordinate_field(5, 5)


@pytest.mark.parametrize(
    "index", [True, False, np.True_, 1.0, np.float64(1.0), 1.5, "1", None, -1, 5], ids=repr
)
def test_coordinate_field_index_is_an_integer_in_range(index):
    # True used to build a gradient of all ones (numpy reads basis[True]
    # as every entry), and 1.0 raised numpy's IndexError.
    with pytest.raises(ValueError, match=r"^index must be an integer in \[0, 5\), got "):
        coordinate_field(5, index)


@pytest.mark.parametrize(
    "dim", [True, 5.0, np.float64(8.0), "5", None, 4, 6, np.int64(6)], ids=repr
)
def test_field_dimension_is_an_integer_5_or_8(dim):
    # ScalarField(dim=5.0) used to be accepted and to fail later, in
    # hamiltonian_vector_field_via_bracket, with a TypeError.
    match = r"^field dimension must be an integer 5 or 8, got "
    with pytest.raises(ValueError, match=match):
        ScalarField(dim=dim, value=lambda x: 0.0)
    with pytest.raises(ValueError, match=match):
        coordinate_field(dim, 0)


@pytest.mark.parametrize("dim, index", [(np.int64(5), np.int64(1)), (np.uint8(8), np.int32(1))])
def test_numpy_integer_settings_are_their_values(dim, index):
    f = coordinate_field(dim, index)
    assert type(f.dim) is int and f.dim == int(dim)
    assert f.grad(np.zeros(f.dim)).tolist() == coordinate_field(int(dim), 1).grad(None).tolist()
    x = [1.0, 2.0, 3.0, 0.0, 0.5]
    h = hamiltonian_field_so3(InertiaParams([3.0, 2.0, 1.0], 1.0))
    got = bracket(PROD5, coordinate_field(np.int64(5), index), h, x)
    assert got == bracket(PROD5, coordinate_field(5, 1), h, x) == pytest.approx(-1.5)


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

    def test_field_dimensions_differ(self):
        with pytest.raises(ValueError, match="field dimensions differ: 5 vs 8"):
            bracket(CANONICAL, coordinate_field(5, 0), coordinate_field(8, 0), np.zeros(5))

    def test_canonical_takes_only_the_two_model_dimensions(self):
        # The canonical bracket has no dimension of its own, so the fields'
        # dimension is checked against the two models'.
        f, k = coordinate_field(5, 0), coordinate_field(5, 1)
        f.dim = k.dim = 6
        with pytest.raises(ValueError, match="^field dimension must be 5 or 8, got 6$"):
            bracket(CANONICAL, f, k, np.zeros(6))

    @pytest.mark.parametrize("kind", ["product_so3", None, ModelKind.SO3], ids=repr)
    def test_unknown_kind(self, kind):
        # Not a KeyError from the kind table: the documented ValueError.
        f = coordinate_field(5, 0)
        with pytest.raises(ValueError, match="unknown bracket kind"):
            bracket(kind, f, f, np.zeros(5))
        with pytest.raises(ValueError, match="unknown bracket kind"):
            hamiltonian_vector_field_via_bracket(kind, f, np.zeros(5))


class TestHamiltonianField:
    @pytest.mark.parametrize("kind", [ModelKind.SO3, ModelKind.SE3])
    def test_fd_gradient_matches_grad_h(self, std_params, std_grav, kind):
        # The energy fields carry no gradient; their finite-difference
        # gradient agrees with the exact one, written out here: dH/dPi is
        # Omega, dH/dGamma is mgh * chi, dH/dalpha is 0, dH/dl is l/j3 - Omega3.
        lay = model_layout(kind)
        if lay.gravity:
            h = hamiltonian_field_se3(std_params, std_grav)
        else:
            h = hamiltonian_field_so3(std_params)
        assert h.grad is None
        (i1, i2, i3), j3 = std_params.i_bar, std_params.j3
        d_gamma = (std_grav.mgh * std_grav.chi).tolist() if lay.gravity else []
        rng = SplitMix64(31)
        for _ in range(50):
            x = random_point(rng, lay.dim)
            omega = [x[0] / i1, x[1] / i2, (x[2] - x[-1]) / i3]
            exact = [*omega, *d_gamma, 0.0, x[-1] / j3 - omega[2]]
            assert np.allclose(fd_gradient(h, x), exact, rtol=0, atol=1e-8)

    def test_se3_energy_requires_gravity(self, std_params):
        with pytest.raises(ValueError, match="gravity parameters required for the se3 model"):
            hamiltonian_field_se3(std_params, None)

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

    @staticmethod
    def _counted(h):
        """`h` with a value that records the shape of every argument."""
        shapes = []

        def value(x):
            shapes.append(np.shape(x))
            return h.value(x)

        return ScalarField(dim=h.dim, value=value), shapes

    def test_fd_gradient_is_columnwise_exact(self, std_params, std_grav):
        # A block is two field calls, on every + probe and then every -
        # probe of every column; a point is one call per probe.
        for n in (1, 2, 37):
            for _, h in self._cases(std_params, std_grav):
                f, shapes = self._counted(h)
                x = self._block(11, h.dim, n)
                g = fd_gradient(f, x)
                assert g.shape == x.shape
                assert shapes == [(h.dim, h.dim * n)] * 2
                for j in range(n):
                    shapes.clear()
                    assert g[:, j].tobytes() == fd_gradient(f, x[:, j]).tobytes()
                    assert shapes == [(h.dim,)] * (2 * h.dim)

    def test_block_bytes_do_not_depend_on_its_memory_layout(self, std_params, std_grav):
        for kind, h in self._cases(std_params, std_grav):
            x = self._block(14, h.dim, 37)
            assert not x.flags.c_contiguous
            c = np.ascontiguousarray(x)
            assert fd_gradient(h, x).tobytes() == fd_gradient(h, c).tobytes()
            v = hamiltonian_vector_field_via_bracket(kind, h, x)
            assert v.tobytes() == hamiltonian_vector_field_via_bracket(kind, h, c).tobytes()

    @pytest.mark.parametrize("seed", [42, 7, 99])
    def test_fd_gradient_is_columnwise_exact_on_audit_blocks(self, std_params, std_grav, seed):
        # The energy squares as a product on floats and on blocks alike,
        # so every column of a full audit block is its own call, bit for bit.
        for _, h in self._cases(std_params, std_grav):
            x = self._block(seed, h.dim, 1000)
            g = fd_gradient(h, x)
            for j in range(x.shape[1]):
                assert g[:, j].tobytes() == fd_gradient(h, x[:, j]).tobytes()

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

    def test_fd_gradient_names_the_lowest_non_finite_component(self):
        # Column 0 goes non-finite only at the + probe of component 3,
        # column 2 only at the - probe of component 1.
        f = ScalarField(
            dim=5, value=lambda v: np.where((v[3] > 4.0) | (v[1] < -4.0), np.inf, v[1] * v[3])
        )
        x = np.zeros((5, 3))
        x[3, 0] = 4.0
        x[1, 2] = -4.0
        with pytest.raises(ValueError, match="probing component 1$"):
            fd_gradient(f, x)
        with pytest.raises(ValueError, match="probing component 3$"):
            fd_gradient(f, x[:, :2])
        with pytest.raises(ValueError, match="probing component 3$"):
            fd_gradient(f, x[:, 0])

    def test_overflowing_block_raises_without_a_warning(self):
        # Pi1^2 / i1 overflows at every probe of most columns; the quotient
        # of two infinities would warn "invalid value", so it is never taken.
        h = hamiltonian_field_so3(InertiaParams(i_bar=(1e-308, 2.0, 1.0), j3=1.0))
        x = self._block(15, h.dim, 37)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="probing component 0$"):
                fd_gradient(h, x)

    def test_block_shapes_checked(self, std_params):
        h = hamiltonian_field_so3(std_params)
        with pytest.raises(ValueError):
            hamiltonian_vector_field_via_bracket(PROD5, h, np.zeros((8, 3)))
        with pytest.raises(ValueError):
            hamiltonian_vector_field_via_bracket(PROD5, h, np.zeros((5, 3, 2)))
        f = coordinate_field(5, 0)
        with pytest.raises(ValueError):
            bracket(RIGID, f, f, np.zeros((5, 3)))


def _dense_vector_field(kind, h, x):
    """Reference: the bilinear form on the dense coordinate basis e_i,
    every term of the bracket evaluated, zeros included."""
    x = np.asarray(x, dtype=float)
    gh = fd_gradient(h, x) if h.grad is None else np.asarray(h.grad(x), dtype=float)
    out = np.empty_like(x)
    basis = np.zeros(h.dim)
    for i in range(h.dim):
        basis[:] = 0.0
        basis[i] = 1.0
        out[i] = _combine(kind, basis, gh, x)
    return out


def _block_quadratic(q):
    """A quadratic field with an analytic gradient on points and blocks."""
    return ScalarField(
        dim=q.dim,
        value=q.value,
        grad=lambda x: (q.b if x.ndim == 1 else q.b[:, None]) + q.A @ x,
    )


class TestSparseCovectors:
    """The oracle equals the dense-basis evaluation of the same bracket
    form bit for bit (up to the sign of an exact zero, which == ignores)."""

    @staticmethod
    def _fields(params, grav):
        rng = SplitMix64(71)
        so3, se3 = hamiltonian_field_so3(params), hamiltonian_field_se3(params, grav)
        quad5, quad8 = (_block_quadratic(QuadraticField(dim, rng)) for dim in (5, 8))
        return [
            (RIGID, so3),
            (RIGID, quad5),
            (CANONICAL, so3),
            (CANONICAL, se3),
            (CANONICAL, quad8),
            (PROD5, so3),
            (PROD5, quad5),
            (HEAVY, se3),
            (HEAVY, quad8),
            (PROD8, se3),
            (PROD8, quad8),
        ]

    @staticmethod
    def _block(seed, dim, n):
        # SplitMix64 samples, some slots exactly +-0 and one all-zero column.
        x = SplitMix64(seed).uniforms(n * dim, -5.0, 5.0).reshape(n, dim).T.copy()
        x[0, ::3] = 0.0
        x[dim - 1, 1::4] = -0.0
        x[dim - 2, ::5] = 0.0
        x[:, 7] = 0.0
        return x

    def test_every_kind_equals_the_dense_basis(self, std_params, std_grav):
        cases = self._fields(std_params, std_grav)
        assert {kind for kind, _ in cases} == set(BracketKind)
        for seed, (kind, h) in enumerate(cases, start=200):
            x = self._block(seed, h.dim, 40)
            v = hamiltonian_vector_field_via_bracket(kind, h, x)
            assert v.dtype == np.float64 and v.shape == x.shape
            assert np.array_equal(v, _dense_vector_field(kind, h, x)), kind
            for j in (0, 1, 3, 7, 20):
                point = hamiltonian_vector_field_via_bracket(kind, h, x[:, j])
                assert point.dtype == np.float64 and point.shape == (h.dim,)
                assert np.array_equal(point, _dense_vector_field(kind, h, x[:, j])), kind

    def test_structurally_zero_rows_are_float_zeros(self, std_params, std_grav):
        # Rows a coordinate covector zeroes out entirely: the momentum rows
        # of the canonical bracket, (alpha, l) of the rigid body, and
        # (alpha, l) of the heavy top.
        zero_rows = {RIGID: [3, 4], CANONICAL: None, HEAVY: [6, 7]}
        for kind, h in self._fields(std_params, std_grav):
            if kind not in zero_rows:
                continue
            rows = zero_rows[kind] or list(range(h.dim - 2))
            x = self._block(300, h.dim, 9)
            for v in (
                hamiltonian_vector_field_via_bracket(kind, h, x),
                hamiltonian_vector_field_via_bracket(kind, h, x[:, 2]),
            ):
                assert v.dtype == np.float64
                assert np.array_equal(v[rows], np.zeros_like(v[rows]))
                assert np.any(np.delete(v, rows, axis=0) != 0.0)

    def test_structural_zero_is_a_positive_zero(self, std_params):
        # The dense basis left -0.0 where a zero met a negative gradient.
        h, x = hamiltonian_field_so3(std_params), self._block(301, 5, 9)
        assert np.signbit(_dense_vector_field(CANONICAL, h, x)[:3]).any()
        assert not np.signbit(hamiltonian_vector_field_via_bracket(CANONICAL, h, x)[:3]).any()

    @pytest.mark.parametrize("kind", [ModelKind.SO3, ModelKind.SE3])
    def test_audit_discrepancy_is_bit_for_bit(self, monkeypatch, std_params, std_grav, kind):
        grav = std_grav if model_layout(kind).gravity else None
        bracket_kind, energy = audit._ORACLES[kind]
        h = energy(std_params, grav)
        field, _jac = _flat_system(kind, std_params, grav, None)
        x = self._block(400, h.dim, 64)
        rel = audit._worst_relative_discrepancy(field, bracket_kind, h, x.copy())
        monkeypatch.setattr(audit, "hamiltonian_vector_field_via_bracket", _dense_vector_field)
        dense = audit._worst_relative_discrepancy(field, bracket_kind, h, x.copy())
        assert rel.tobytes() == dense.tobytes()
