import warnings

import numpy as np
import pytest

from gyrostat import hj
from gyrostat.algebra import ConfigurationPoint
from gyrostat.dynamics import (
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    FeedbackControl,
    reduced_rhs_se3,
    reduced_rhs_so3,
)
from gyrostat.hj import (
    GammaBarField,
    NewtonConvergenceError,
    SingularJacobianError,
    constant_field,
    find_equilibrium,
    hj_residual_se3,
    hj_residual_so3,
    residual_field_report,
    solve_lift,
)
from gyrostat.model import (
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    model_layout,
)
from gyrostat.rng import SplitMix64

from helpers import random_point, rot_z


def _so3_state(g):
    return So3RotorState(pi=tuple(g[:3]), alpha=g[3], l=g[4])


def _se3_state(g):
    return Se3RotorState(pi=tuple(g[:3]), gamma=tuple(g[3:6]), alpha=g[6], l=g[7])


def some_configs():
    return [
        ConfigurationPoint(rotation=np.eye(3)),
        ConfigurationPoint(rotation=rot_z(0.8), rotor_angle=2.0),
        ConfigurationPoint(rotation=rot_z(-1.3), rotor_angle=-0.5),
    ]


class TestResiduals:
    def test_zero_lift_equals_rhs_so3(self, std_params):
        rng = SplitMix64(7)
        for _ in range(200):
            g = random_point(rng, 5)
            r = hj_residual_so3(g, std_params)
            rhs = reduced_rhs_so3(_so3_state(g), std_params)
            assert np.array_equal(r, rhs)

    def test_zero_lift_equals_rhs_se3(self, std_params, std_grav):
        rng = SplitMix64(8)
        for _ in range(200):
            g = random_point(rng, 8)
            r = hj_residual_se3(g, std_params, std_grav)
            rhs = reduced_rhs_se3(_se3_state(g), std_params, std_grav)
            assert np.array_equal(r, rhs)

    def test_alpha_slot_value_is_irrelevant(self, std_params, std_grav):
        # The rotor angle is cyclic: only its conjugate momentum enters.
        g = np.array([1.0, 2.0, 3.0, 0.7, 0.5])
        g2 = g.copy()
        g2[3] = -42.0
        assert np.array_equal(
            hj_residual_so3(g, std_params), hj_residual_so3(g2, std_params)
        )
        h = np.array([1.0, 2.0, 3.0, 0.6, 0.0, 0.8, 0.7, 0.5])
        h2 = h.copy()
        h2[6] = 99.0
        assert np.array_equal(
            hj_residual_se3(h, std_params, std_grav),
            hj_residual_se3(h2, std_params, std_grav),
        )

    def test_momentum_equation_line(self, std_params):
        # The last line reads du = u_l, so it vanishes without a lift and
        # copies the lift component with one.
        g = np.array([1.0, 2.0, 3.0, 0.0, 0.5])
        assert hj_residual_so3(g, std_params)[4] == 0.0
        u = np.array([0.0, 0.0, 0.0, 0.0, 0.7])
        assert hj_residual_so3(g, std_params, lift=u)[4] == 0.7

    def test_rotor_rate_line(self, std_params):
        g = np.array([1.0, 2.0, 3.0, 0.0, 0.5])
        u = np.array([0.0, 0.0, 0.0, 0.3, 0.0])
        r = hj_residual_so3(g, std_params, lift=u)
        # alpha_dot = l/j3 - (Pi3 - l)/i3 = -2, plus the lift component.
        assert r[3] == pytest.approx(-2.0 + 0.3, abs=1e-15)

    def test_shape_validation(self, std_params, std_grav):
        with pytest.raises(ValueError):
            hj_residual_so3(np.zeros(8), std_params)
        with pytest.raises(ValueError):
            hj_residual_se3(np.zeros(5), std_params, std_grav)

    def test_se3_needs_gravity(self, std_params):
        with pytest.raises(ValueError, match="gravity"):
            hj_residual_se3(np.zeros(8), std_params, None)


class TestSolveLift:
    def test_cancellation_is_exact_so3(self, std_params):
        rng = SplitMix64(11)
        for _ in range(200):
            g = random_point(rng, 5)
            u = solve_lift(g, std_params)
            assert np.max(np.abs(hj_residual_so3(g, std_params, lift=u))) == 0.0

    def test_cancellation_is_exact_se3(self, std_params, std_grav):
        rng = SplitMix64(12)
        for _ in range(200):
            g = random_point(rng, 8)
            u = solve_lift(g, std_params, grav=std_grav)
            assert (
                np.max(np.abs(hj_residual_se3(g, std_params, std_grav, lift=u)))
                == 0.0
            )

    def test_overflowing_lift_adds_without_a_warning(self, std_params):
        # The solved lift is +-inf where the field overflows; adding it back
        # gives NaN, which the residual reports and numpy need not warn of.
        g = [1e200] * 3 + [0.0, 1e200]
        u = solve_lift(g, std_params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = hj_residual_so3(g, std_params, lift=u)
        assert np.isnan(r[:3]).all()
        assert r[3] == 0.0 and np.signbit(r[4])

    def test_se3_needs_gravity(self, std_params):
        with pytest.raises(ValueError):
            solve_lift(np.zeros(8), std_params)

    def test_bad_shape(self, std_params):
        with pytest.raises(ValueError):
            solve_lift(np.zeros(6), std_params)


class TestFieldReport:
    def test_solve_rule_annihilates(self, std_params):
        field = constant_field(ModelKind.SO3, [1.0, 2.0, 3.0, 0.0, 0.5])
        rep = residual_field_report(
            field, some_configs(), std_params, lift="solve"
        )
        assert rep.max_norm == 0.0
        assert len(rep.per_config) == 3

    def test_zero_rule_reports_rhs_size(self, std_params):
        g = np.array([1.0, 2.0, 3.0, 0.0, 0.5])
        field = constant_field(ModelKind.SO3, g)
        rep = residual_field_report(field, some_configs(), std_params)
        expect = np.max(np.abs(reduced_rhs_so3(_so3_state(g), std_params)))
        assert rep.max_norm == pytest.approx(expect, rel=1e-13)

    def test_explicit_lift(self, std_params, std_grav):
        g = np.array([1.0, 2.0, 3.0, 0.6, 0.0, 0.8, 0.0, 0.5])
        u = solve_lift(g, std_params, grav=std_grav)
        field = constant_field(ModelKind.SE3, g)
        rep = residual_field_report(
            field, some_configs(), std_params, grav=std_grav, lift=u
        )
        assert rep.max_norm == 0.0

    def test_se3_needs_gravity(self, std_params):
        field = constant_field(ModelKind.SE3, np.zeros(8))
        with pytest.raises(ValueError):
            residual_field_report(field, some_configs(), std_params)

    def test_nan_in_a_later_config_is_reported(self, std_params):
        # Python's max keeps its first operand against a NaN.
        values = iter([[0.0, 0.0, 3.0, 0.0, 1.5], [np.nan, 0.0, 3.0, 0.0, 1.5]])
        field = GammaBarField(kind=ModelKind.SO3, fn=lambda _config: next(values))
        rep = residual_field_report(field, some_configs()[:2], std_params)
        assert rep.per_config[0] == 0.0 and np.isnan(rep.per_config[1])
        assert np.isnan(rep.max_norm)

    def test_empty_configs_rejected(self, std_params):
        field = constant_field(ModelKind.SO3, np.zeros(5))
        with pytest.raises(ValueError):
            residual_field_report(field, [], std_params)

    def test_bad_lift_string(self, std_params):
        field = constant_field(ModelKind.SO3, np.zeros(5))
        with pytest.raises(ValueError):
            residual_field_report(
                field, some_configs(), std_params, lift="exact"
            )


class TestFindEquilibrium:
    def test_exact_guess_zero_iterations(self, std_params):
        # Axis-3 spin with the rotor rate matched: an equilibrium on the
        # nose, so the search returns immediately.
        guess = So3RotorState(pi=(0.0, 0.0, 3.0), l=1.5)
        res = find_equilibrium(ModelKind.SO3, std_params, guess)
        assert res.iterations == 0
        assert res.residual_norm == 0.0
        lay = model_layout(ModelKind.SO3)
        assert np.array_equal(lay.to_vector(res.state), lay.to_vector(guess))

    def test_nan_residual_at_the_guess_takes_no_norm(self, std_params):
        # The line search's 2-norm is taken when a step first needs it: here
        # the residual is NaN at the guess, and its norm would overflow.
        guess = So3RotorState(pi=(1e155, 2e155, 3.0), l=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonConvergenceError, match="not finite") as info:
                find_equilibrium(ModelKind.SO3, std_params, guess)
        assert info.value.iterations == 0
        assert info.value.residual_norm != info.value.residual_norm

    def test_overflowing_step_norm_gives_no_warning(self, std_params):
        # A trial step's 2-norm overflows on the way to a converged state,
        # which keeps the bits of a run with numpy's warnings ignored.
        guess = So3RotorState(pi=(1e154, 2.0, 3.0), l=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = find_equilibrium(ModelKind.SO3, std_params, guess)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_equilibrium(ModelKind.SO3, std_params, guess)
        lay = model_layout(ModelKind.SO3)
        assert lay.to_vector(res.state).tobytes() == lay.to_vector(quiet.state).tobytes()
        assert (res.residual_norm, res.iterations) == (quiet.residual_norm, quiet.iterations)
        assert res.residual_norm < 1e-12

    def test_a_singular_system_carries_no_counts(self):
        err = SingularJacobianError("singular")
        assert (err.residual_norm, err.iterations) == (None, None)

    def test_perturbed_axis_spin(self):
        # With the axial rotor moment matching the spread between the
        # first and third locked moments, the equation set is linear in
        # the directions Newton must correct, so the perturbed axis spin
        # snaps back in one step.
        params = InertiaParams(i_bar=(3.0, 2.0, 1.0), j3=2.0)
        guess = So3RotorState(pi=(2.0, 1e-3, 1e-3), alpha=0.0, l=0.0)
        res = find_equilibrium(ModelKind.SO3, params, guess)
        assert res.residual_norm < 1e-12
        v = model_layout(ModelKind.SO3).to_vector(res.state)
        assert abs(v[0] - 2.0) < 1e-2
        assert abs(v[1]) < 1e-10
        assert abs(v[2]) < 1e-2
        assert abs(v[4]) < 1e-2
        rep = residual_field_report(
            constant_field(ModelKind.SO3, v),
            some_configs(),
            params,
        )
        assert rep.max_norm < 1e-10

    def test_se3_steady_spin_with_rotor_drive(self, std_params, std_grav):
        # An upright spin is steady only if a constant rotor torque holds
        # the relative rate; the required drive is (Pi3-l)/i3 - l/j3.
        p, l0 = 3.0, 1.0
        ua = (p - l0) / 1.0 - l0 / 1.0
        ctrl = ConstantControl(ControlLiftSe3(u_alpha=ua))
        eps = 1e-4
        guess = Se3RotorState(
            pi=(eps, -2 * eps, p), gamma=(2 * eps, eps, 0.8), alpha=0.0, l=l0
        )
        res = find_equilibrium(
            ModelKind.SE3, std_params, guess, grav=std_grav, control=ctrl
        )
        assert res.residual_norm < 1e-12
        v = model_layout(ModelKind.SE3).to_vector(res.state)
        lift = np.zeros(8)
        lift[6] = ua
        rep = residual_field_report(
            constant_field(ModelKind.SE3, v),
            some_configs(),
            std_params,
            grav=std_grav,
            lift=lift,
        )
        assert rep.max_norm < 1e-10

    def test_non_convergence_reports_progress(self, std_params, std_grav, std_se3_state):
        # This guess needs more than one Newton step, so a budget of one
        # runs out.
        with pytest.raises(NewtonConvergenceError) as exc:
            find_equilibrium(ModelKind.SE3, std_params, std_se3_state, grav=std_grav, max_iter=1)
        assert exc.value.iterations == 1
        assert exc.value.residual_norm is not None

    def test_singular_jacobian_detected(self, std_params):
        # A pure axis-3 state with an unbalanced rotor rate: two residual
        # rows are structurally zero but only the cyclic column is, so
        # the reduced system cannot be square.  The u_pi entry makes the
        # lift cross the Casimir levels, so the system is not bordered (a
        # bordered one is square here) and the constant lift leaves the
        # Jacobian as it is.
        guess = So3RotorState(pi=(0.0, 0.0, 2.0), l=0.3)
        pinned = ConstantControl(ControlLiftSo3(u_pi=(0.0, 0.0, 0.01)))
        with pytest.raises(SingularJacobianError, match="unequal counts"):
            find_equilibrium(ModelKind.SO3, std_params, guess, control=pinned)

    def test_all_struck_system_takes_a_zero_step(self, monkeypatch):
        # At Pi = 0 the Pi rows vanish, and the law's central differences
        # cancel the alpha row exactly: every row and column is struck.
        # The zero step cannot reduce the residual, so the search fails
        # with its own error, not numpy's LinAlgError on an empty system.
        seen, newton_direction = [], hj._newton_direction
        monkeypatch.setattr(
            hj, "_newton_direction", lambda cols, f: seen.append(cols) or newton_direction(cols, f)
        )
        law = FeedbackControl(lambda s: ControlLiftSo3(u_alpha=(s.pi[2] - s.l) - s.l, u_l=0.5))
        with pytest.raises(NewtonConvergenceError) as exc:
            find_equilibrium(
                ModelKind.SO3, InertiaParams((1, 1, 1), 1), So3RotorState(pi=(0, 0, 0)), control=law
            )
        assert str(exc.value) == (
            "damped step failed to reduce the residual (last residual max-norm 5.000e-01)"
        )
        assert exc.value.residual_norm == 0.5
        assert exc.value.iterations == 0
        assert len(seen) == 1 and not any(any(col) for col in seen[0])

    @pytest.mark.parametrize("max_iter", [-1, 0, 2.5, True, "5", None])
    def test_max_iter_must_be_a_positive_integer(self, std_params, std_so3_state, max_iter):
        # -1, 2.5 and True used to end in "no convergence after ... iterations".
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            find_equilibrium(ModelKind.SO3, std_params, std_so3_state, max_iter=max_iter)

    def test_numpy_integer_max_iter_is_accepted(self, std_params, std_se3_state, std_grav):
        with pytest.raises(NewtonConvergenceError) as exc:
            find_equilibrium(
                ModelKind.SE3, std_params, std_se3_state, grav=std_grav, max_iter=np.int64(1)
            )
        assert exc.value.iterations == 1

    def test_guess_type_checked(self, std_params, std_se3_state):
        with pytest.raises(ValueError):
            find_equilibrium(ModelKind.SO3, std_params, std_se3_state)

    def test_se3_needs_gravity(self, std_params, std_se3_state):
        with pytest.raises(ValueError):
            find_equilibrium(ModelKind.SE3, std_params, std_se3_state)
