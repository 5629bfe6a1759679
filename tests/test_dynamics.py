import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat import dynamics
from gyrostat.dynamics import (
    MAX_STEPS,
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    FeedbackControl,
    IntegrationError,
    diagnostics,
    integrate,
    reduced_rhs_se3,
    reduced_rhs_so3,
    step_midpoint,
    step_rk4,
)
from gyrostat.hj import find_equilibrium
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    hamiltonian_so3,
    model_layout,
)
from gyrostat.rng import SplitMix64

from helpers import ndarray_field, random_point


class TestReducedRhs:
    def test_so3_oracle(self, std_so3_state, std_params):
        # Pi=(1,2,3), l=0.5: Omega=(1/3,1,2.5); Pi x Omega = (2,-1.5,1/3);
        # alpha_dot = -2; l constant.
        got = reduced_rhs_so3(std_so3_state, std_params)
        expect = np.array([2.0, -1.5, 1.0 - 2.0 / 3.0, -2.0, 0.0])
        assert np.allclose(got, expect, rtol=0, atol=1e-15)
        assert got[3] == -2.0 and got[4] == 0.0

    def test_se3_oracle(self, std_se3_state, std_params, std_grav):
        # Gravity adds mgh Gamma x chi = (0,-2,0) to the Pi block and the
        # Gamma block advects: Gamma x Omega = (0,-2.5,1).
        got = reduced_rhs_se3(std_se3_state, std_params, std_grav)
        expect = np.array(
            [2.0, -3.5, 1.0 - 2.0 / 3.0, 0.0, -2.5, 1.0, -2.0, 0.0]
        )
        assert np.allclose(got, expect, rtol=0, atol=1e-15)

    def test_constant_lift_adds_componentwise(self, std_so3_state, std_params):
        lift = ControlLiftSo3(u_pi=(0.1, -0.2, 0.3), u_alpha=0.4, u_l=-0.5)
        base = reduced_rhs_so3(std_so3_state, std_params)
        lifted = reduced_rhs_so3(std_so3_state, std_params, lift=lift)
        assert np.array_equal(
            lifted, base + np.array([0.1, -0.2, 0.3, 0.4, -0.5])
        )

    def test_se3_lift(self, std_se3_state, std_params, std_grav):
        lift = ControlLiftSe3(
            u_pi=(0.1, -0.2, 0.3), u_gamma=(0.01, 0.02, -0.03), u_alpha=0.4, u_l=-0.5
        )
        base = reduced_rhs_se3(std_se3_state, std_params, std_grav)
        lifted = reduced_rhs_se3(std_se3_state, std_params, std_grav, lift=lift)
        assert np.array_equal(
            lifted,
            base + np.array([0.1, -0.2, 0.3, 0.01, 0.02, -0.03, 0.4, -0.5]),
        )

    def test_lift_validation(self):
        with pytest.raises(ValueError):
            ControlLiftSo3(u_pi=(1.0, 2.0))
        with pytest.raises(ValueError):
            ControlLiftSe3(u_gamma=(1.0,))

    @pytest.mark.parametrize("lift_type", [ControlLiftSo3, ControlLiftSe3])
    @pytest.mark.parametrize(
        "scalars",
        [{"u_alpha": np.nan}, {"u_alpha": -np.inf}, {"u_l": np.inf},
         {"u_alpha": np.nan, "u_l": np.inf}],
    )
    def test_non_finite_scalar_is_rejected(self, lift_type, scalars):
        # As a non-finite u_pi is: up front, not at the first step.
        with pytest.raises(ValueError, match="finite"):
            lift_type(**scalars)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, g, s5, s8: reduced_rhs_so3(s8, p),
            lambda p, g, s5, s8: reduced_rhs_so3(
                s5, p, lift=ControlLiftSe3(u_gamma=(0.1, 0.0, 0.0))
            ),
            lambda p, g, s5, s8: reduced_rhs_se3(s8, p, None),
            lambda p, g, s5, s8: reduced_rhs_se3(s5, p, g),
            lambda p, g, s5, s8: reduced_rhs_se3(s8, p, g, lift=ControlLiftSo3()),
        ],
        ids=["so3-on-se3-state", "so3-se3-lift", "se3-no-gravity",
             "se3-on-so3-state", "se3-so3-lift"],
    )
    def test_mismatched_input_is_rejected(
        self, std_params, std_grav, std_so3_state, std_se3_state, call
    ):
        with pytest.raises(ValueError):
            call(std_params, std_grav, std_so3_state, std_se3_state)


class TestControlledRhs:
    """The field builder's field on flat vectors must agree bitwise with
    the state-based right-hand side, which wraps it; the independent
    reference for the field kernels is tests/test_symbolic.py."""

    def test_bitwise_agreement(self, std_params, std_grav):
        rng = SplitMix64(99)
        ctrl_s = ConstantControl(
            ControlLiftSo3(u_pi=(0.1, -0.2, 0.3), u_alpha=0.4, u_l=-0.5)
        )
        ctrl_e = ConstantControl(
            ControlLiftSe3(
                u_pi=(0.1, -0.2, 0.3),
                u_gamma=(0.01, 0.02, -0.03),
                u_alpha=0.4,
                u_l=-0.5,
            )
        )
        fns = [
            (ndarray_field(ModelKind.SO3, std_params, None, None), None),
            (ndarray_field(ModelKind.SO3, std_params, None, ctrl_s), ctrl_s),
        ]
        fns_e = [
            (ndarray_field(ModelKind.SE3, std_params, std_grav, None), None),
            (ndarray_field(ModelKind.SE3, std_params, std_grav, ctrl_e), ctrl_e),
        ]
        for _ in range(100):
            x5 = random_point(rng, 5)
            x8 = random_point(rng, 8)
            s5 = So3RotorState(pi=tuple(x5[:3]), alpha=x5[3], l=x5[4])
            s8 = Se3RotorState(
                pi=tuple(x8[:3]), gamma=tuple(x8[3:6]), alpha=x8[6], l=x8[7]
            )
            for fn, ctrl in fns:
                lift = ctrl.lift if ctrl is not None else None
                assert np.array_equal(
                    fn(x5), reduced_rhs_so3(s5, std_params, lift=lift)
                )
            for fn, ctrl in fns_e:
                lift = ctrl.lift if ctrl is not None else None
                assert np.array_equal(
                    fn(x8), reduced_rhs_se3(s8, std_params, std_grav, lift=lift)
                )

    def test_feedback_law_receives_state(self, std_params):
        seen = []

        def law(state):
            seen.append(state)
            return ControlLiftSo3(u_l=0.1)

        fn = ndarray_field(ModelKind.SO3, std_params, None, FeedbackControl(law))
        out = fn(np.array([1.0, 2.0, 3.0, 0.0, 0.5]))
        assert out[4] == 0.1
        assert isinstance(seen[0], So3RotorState)

    def test_se3_requires_gravity(self, std_params):
        with pytest.raises(ValueError):
            ndarray_field(ModelKind.SE3, std_params, None, None)

    @pytest.mark.parametrize(
        "kind, lift",
        [
            (ModelKind.SO3, ControlLiftSe3(u_gamma=(0.1, 0.0, 0.0))),
            (ModelKind.SE3, ControlLiftSo3(u_alpha=0.2)),
        ],
    )
    def test_lift_of_the_other_model_is_rejected_before_the_run(
        self, std_params, std_grav, std_so3_state, std_se3_state, kind, lift
    ):
        control = ConstantControl(lift)
        with pytest.raises(ValueError, match="lift"):
            ndarray_field(kind, std_params, std_grav, control)
        initial = std_so3_state if kind == ModelKind.SO3 else std_se3_state
        with pytest.raises(ValueError, match="lift"):
            integrate(kind, std_params, initial, grav=std_grav, control=control)

    @pytest.mark.parametrize(
        "kind, law",
        [
            (ModelKind.SO3, lambda state: ControlLiftSe3(u_gamma=(0.1, 0.0, 0.0))),
            (ModelKind.SE3, lambda state: ControlLiftSo3(u_alpha=0.2)),
        ],
    )
    def test_feedback_lift_of_the_other_model_is_rejected(
        self, std_params, std_grav, std_so3_state, std_se3_state, kind, law
    ):
        # A feedback lift is known only at the call: the run stops at the
        # first one, naming both lift types.
        control = FeedbackControl(law)
        initial = std_so3_state if kind == ModelKind.SO3 else std_se3_state
        both = "ControlLiftSo3.*ControlLiftSe3|ControlLiftSe3.*ControlLiftSo3"
        with pytest.raises(ValueError, match=both):
            integrate(
                kind, std_params, initial, grav=std_grav, control=control, t_end=0.01
            )
        rhs = ndarray_field(kind, std_params, std_grav, control)
        with pytest.raises(ValueError, match="lift"):
            rhs(random_point(SplitMix64(5), 5 if kind == ModelKind.SO3 else 8))

    @pytest.mark.parametrize("kind, dim", [(ModelKind.SO3, 5), (ModelKind.SE3, 8)])
    def test_empty_constant_lift_is_rejected(
        self, std_params, std_grav, std_so3_state, std_se3_state, kind, dim
    ):
        # No control is None; a ConstantControl holds a lift of the model.
        lift_type = model_layout(kind).lift_type.__name__
        message = f"{kind.value} model needs a {lift_type} lift, got NoneType"
        control = ConstantControl(None)
        with pytest.raises(ValueError, match=message):
            ndarray_field(kind, std_params, std_grav, control)
        initial = std_so3_state if dim == 5 else std_se3_state
        with pytest.raises(ValueError, match=message):
            integrate(kind, std_params, initial, grav=std_grav, control=control)


class TestSteppers:
    def test_rk4_one_step_vs_rotation(self, axisym_params):
        # With equal transverse moments and l=0 the transverse momentum
        # pair rotates rigidly at rate (Pi3 - l)/i3 - Pi3/i1 = 1.
        rhs = ndarray_field(ModelKind.SO3, axisym_params, None, None)
        y0 = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
        dt = 1e-2
        y1 = step_rk4(rhs, y0, dt)
        expect = np.array([np.cos(dt), -np.sin(dt)])
        assert np.max(np.abs(y1[:2] - expect)) < 1e-11
        assert y1[2] == 2.0

    @pytest.mark.parametrize("stepper", [step_rk4, step_midpoint])
    def test_empty_point_is_rejected(self, stepper):
        with pytest.raises(ValueError, match="at least one slot, got 0"):
            stepper(lambda y: y, np.array([]), 0.1)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rk4_non_finite_raises(self):
        rhs = lambda y: y * 1e308  # noqa: E731
        with pytest.raises(IntegrationError):
            step_rk4(rhs, np.ones(5), 10.0)

    def test_midpoint_conserves_quadratic_invariants(self, std_params):
        rhs = ndarray_field(ModelKind.SO3, std_params, None, None)
        y = np.array([1.0, 2.0, 3.0, 0.0, 0.5])
        h0 = hamiltonian_so3(
            So3RotorState(pi=tuple(y[:3]), alpha=y[3], l=y[4]), std_params
        )
        n0 = np.linalg.norm(y[:3])
        for _ in range(1000):
            y = step_midpoint(rhs, y, 1e-3)
        h1 = hamiltonian_so3(
            So3RotorState(pi=tuple(y[:3]), alpha=y[3], l=y[4]), std_params
        )
        assert abs(h1 - h0) < 1e-12
        assert abs(np.linalg.norm(y[:3]) - n0) < 1e-12

    def test_midpoint_fixes_equilibrium(self, std_params):
        # Axis-3 spin with the rotor rate matched so alpha is steady.
        rhs = ndarray_field(ModelKind.SO3, std_params, None, None)
        y = np.array([0.0, 0.0, 3.0, 0.0, 1.5])
        assert np.array_equal(step_midpoint(rhs, y, 1e-2), y)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_midpoint_reports_non_convergence(self, std_params):
        rhs = ndarray_field(ModelKind.SO3, std_params, None, None)
        with pytest.raises(IntegrationError, match="^non-finite value in midpoint iteration$"):
            step_midpoint(rhs, np.array([1.0, 2.0, 3.0, 0.0, 0.5]), 50.0)


class TestIntegrate:
    def test_sampling_includes_ends(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=1.0
        )
        assert traj.steps == 1000
        assert len(traj.times) == 101
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_final_step_recorded_when_not_multiple(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3,
            std_params,
            std_so3_state,
            dt=1e-3,
            t_end=1.0,
            sample_every=7,
        )
        # 0, 7, ..., 994 (143 samples) then the closing step 1000.
        assert traj.steps == 1000
        assert len(traj.times) == 144
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_single_step_run(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=1e-3
        )
        assert traj.steps == 1
        assert list(traj.times) == [0.0, 1e-3]

    def test_step_count_rounds(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=np.pi / 2
        )
        assert traj.steps == round(np.pi / 2 / 1e-3)

    def test_methods_agree_closely(self, std_params, std_so3_state):
        kw = dict(dt=1e-3, t_end=1e-3)
        a = integrate(ModelKind.SO3, std_params, std_so3_state, method="rk4", **kw)
        b = integrate(
            ModelKind.SO3, std_params, std_so3_state, method="midpoint", **kw
        )
        assert np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-9

    def test_refinement_self_consistency(self, std_params, std_so3_state):
        a = integrate(ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=1e-3)
        b = integrate(ModelKind.SO3, std_params, std_so3_state, dt=1e-4, t_end=1e-3)
        assert np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-12

    def test_validation(self, std_params, std_so3_state, std_se3_state, std_grav):
        with pytest.raises(ValueError):
            integrate(ModelKind.SO3, std_params, std_so3_state, dt=0.0)
        with pytest.raises(ValueError):
            integrate(ModelKind.SO3, std_params, std_so3_state, t_end=-1.0)
        with pytest.raises(ValueError):
            integrate(ModelKind.SO3, std_params, std_so3_state, sample_every=0)
        with pytest.raises(ValueError):
            integrate(ModelKind.SO3, std_params, std_so3_state, method="euler")
        with pytest.raises(ValueError):
            integrate(ModelKind.SO3, std_params, std_se3_state)
        with pytest.raises(ValueError):
            integrate(ModelKind.SE3, std_params, std_se3_state)  # no gravity

    @pytest.mark.parametrize(
        "step, value",
        [("t_end", np.inf), ("t_end", np.nan), ("dt", np.nan), ("dt", np.inf)],
    )
    def test_non_finite_step_parameters(self, std_params, std_so3_state, step, value):
        with pytest.raises(ValueError, match=f"{step} must be finite"):
            integrate(ModelKind.SO3, std_params, std_so3_state, **{step: value})

    def test_step_count_overflow_is_rejected(self, std_params, std_so3_state):
        # Both are finite, but t_end / dt is inf, which round() cannot take.
        with pytest.raises(ValueError, match="t_end / dt must be finite"):
            integrate(ModelKind.SO3, std_params, std_so3_state, dt=1e-300, t_end=1e10)

    @pytest.mark.parametrize("dt, t_end", [(1e-300, 1e-200), (1.0, MAX_STEPS + 1.0)])
    def test_step_count_above_the_ceiling_is_rejected(self, std_params, std_so3_state, dt, t_end):
        # Finite, but more steps than a run may take: fail up front instead
        # of running without end.
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate(ModelKind.SO3, std_params, std_so3_state, dt=dt, t_end=t_end)

    def test_step_count_at_the_ceiling_is_accepted(self, std_params, std_so3_state, monkeypatch):
        # round(t_end / dt) == MAX_STEPS passes the check; a small ceiling
        # keeps the run short.
        monkeypatch.setattr(dynamics, "MAX_STEPS", 20)
        traj = integrate(ModelKind.SO3, std_params, std_so3_state, dt=0.5, t_end=10.0)
        assert traj.steps == 20
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate(ModelKind.SO3, std_params, std_so3_state, dt=0.5, t_end=10.5)

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "10", None])
    def test_sample_every_must_be_an_integer(self, std_params, std_so3_state, value):
        # 2.5 used to sample at steps 5 and 10, and True counted as 1.
        with pytest.raises(ValueError, match="sample_every must be an integer >= 1"):
            integrate(ModelKind.SO3, std_params, std_so3_state, t_end=0.01, sample_every=value)

    def test_numpy_integer_sample_every_is_accepted(self, std_params, std_so3_state):
        a = integrate(ModelKind.SO3, std_params, std_so3_state, t_end=0.01, sample_every=4)
        b = integrate(ModelKind.SO3, std_params, std_so3_state, t_end=0.01, sample_every=np.int64(4))
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)

    def test_non_positive_step_messages(self, std_params, std_so3_state):
        with pytest.raises(ValueError, match="dt must be positive, got -1.0"):
            integrate(ModelKind.SO3, std_params, std_so3_state, dt=-1.0)
        with pytest.raises(ValueError, match="t_end must be positive, got 0.0"):
            integrate(ModelKind.SO3, std_params, std_so3_state, t_end=0.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failure_carries_partial_trajectory(self, std_params, std_so3_state):
        with pytest.raises(IntegrationError) as exc:
            integrate(
                ModelKind.SO3,
                std_params,
                std_so3_state,
                dt=50.0,
                t_end=500.0,
                method="midpoint",
            )
        err = exc.value
        # The first sweep at dt = 50 already overflows.
        assert str(err) == "non-finite value in midpoint iteration"
        assert err.time == 50.0
        assert err.partial.steps == 0
        assert err.partial.states.shape[0] == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "method, dt, control, step, message",
        [
            # RK4 is unstable at this step size; the state overflows.
            ("rk4", 2.0, None, 5, "non-finite value in Runge-Kutta stage"),
            # u_l drives l, and with it the spin rate, up until the
            # fixed-point iteration no longer contracts.
            (
                "midpoint", 0.2, ConstantControl(ControlLiftSo3(u_l=1.0)), 36,
                "implicit midpoint failed to converge in 50 iterations (dt=0.2 likely too large)",
            ),
        ],
    )
    def test_failure_time_and_partial_are_exact(
        self, std_params, std_so3_state, method, dt, control, step, message
    ):
        with pytest.raises(IntegrationError) as exc:
            integrate(
                ModelKind.SO3, std_params, std_so3_state, control=control,
                dt=dt, t_end=100 * dt, sample_every=1, method=method,
            )
        err = exc.value
        assert str(err) == message
        assert err.time == step * dt
        assert err.partial.steps == step - 1
        assert len(err.partial.states) == step
        assert err.partial.times.tolist() == [k * dt for k in range(step)]
        # The public steppers fail the same way from the last good state.
        rhs = ndarray_field(ModelKind.SO3, std_params, None, control)
        stepper = step_rk4 if method == "rk4" else step_midpoint
        with pytest.raises(IntegrationError) as exc:
            stepper(rhs, err.partial.states[-1], dt)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_partial_trajectory_counts_the_completed_steps(self, std_params, std_so3_state, method):
        # A failed run counts the steps it completed, as a run that ends
        # after them does: RK4 overflows here, midpoint stops contracting.
        control = ConstantControl(ControlLiftSo3(u_l=1.0))
        kw = dict(control=control, dt=0.2, sample_every=1, method=method)
        with pytest.raises(IntegrationError) as exc:
            integrate(ModelKind.SO3, std_params, std_so3_state, t_end=20.0, **kw)
        partial = exc.value.partial
        whole = integrate(ModelKind.SO3, std_params, std_so3_state, t_end=0.2 * partial.steps, **kw)
        assert whole.steps == partial.steps > 0
        assert (whole.field_calls, whole.max_sweeps) == (partial.field_calls, partial.max_sweeps)
        if method == "rk4":
            assert (partial.field_calls, partial.max_sweeps) == (4 * partial.steps, 0)
        else:
            assert partial.steps < partial.field_calls <= 50 * partial.steps
            assert partial.max_sweeps * partial.steps >= partial.field_calls

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_feedback_run_that_overflows_fails_its_step(self, std_params, kind, method):
        # A stage past the float range reaches the law as a non-finite
        # point: the step fails as it does with no control, not the state
        # built for the law.
        pi = (1e154, 2e154, 3e154)
        if kind is ModelKind.SO3:
            state, grav = So3RotorState(pi=pi, l=0.5), None
        else:
            state, grav = Se3RotorState(pi=pi, gamma=(0.6, 0.0, 0.8), l=0.5), GravityParams(mgh=2.0)
        fb = FeedbackControl(lambda s: None)
        with pytest.raises(IntegrationError) as exc:
            integrate(kind, std_params, state, grav=grav, control=fb, dt=0.1, t_end=10.0, method=method)
        assert exc.value.time == 0.1
        assert exc.value.partial.steps == 0
        assert exc.value.partial.states.tolist() == [model_layout(kind).to_vector(state).tolist()]

    def test_zero_feedback_matches_zero_control(self, std_params, std_so3_state):
        fb = FeedbackControl(lambda state: ControlLiftSo3())
        a = integrate(ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=0.1)
        b = integrate(
            ModelKind.SO3,
            std_params,
            std_so3_state,
            control=fb,
            dt=1e-3,
            t_end=0.1,
        )
        assert np.array_equal(a.states, b.states)


NOT_A_CONTROL = [ControlLiftSo3(u_alpha=0.1), "zero", 0.0]
NOT_A_CONTROL_MESSAGE = "control must be None, a ConstantControl or a FeedbackControl, got "


@pytest.fixture
def no_field_call(monkeypatch):
    def trap(*args):
        raise AssertionError("field called or run started before the control was checked")

    monkeypatch.setattr(dynamics, "so3_field_kernel", trap)
    monkeypatch.setattr(dynamics, "_run_loop", trap)


@pytest.mark.usefixtures("no_field_call")
class TestControlType:
    """Anything but None, a ConstantControl or a FeedbackControl fails up
    front, not with an AttributeError at the first field call."""

    @staticmethod
    def _check(call, control):
        name = type(control).__name__
        with pytest.raises(ValueError, match=NOT_A_CONTROL_MESSAGE + name + "($|;)") as exc:
            call()
        assert ("wrap a lift in ConstantControl" in str(exc.value)) == (name == "ControlLiftSo3")

    @pytest.mark.parametrize("control", NOT_A_CONTROL)
    def test_integrate(self, std_params, std_so3_state, control):
        self._check(
            lambda: integrate(ModelKind.SO3, std_params, std_so3_state, control=control, t_end=0.01),
            control,
        )

    @pytest.mark.parametrize("control", NOT_A_CONTROL)
    def test_flat_system(self, std_params, control):
        self._check(lambda: dynamics._flat_system(ModelKind.SO3, std_params, None, control), control)

    @pytest.mark.parametrize("control", NOT_A_CONTROL)
    def test_find_equilibrium(self, std_params, std_so3_state, control):
        self._check(
            lambda: find_equilibrium(ModelKind.SO3, std_params, std_so3_state, control=control),
            control,
        )


NO_LIFT = [
    pytest.param(
        ControlLiftSo3(u_alpha=0.1),
        NOT_A_CONTROL_MESSAGE + "ControlLiftSo3; wrap a lift in ConstantControl",
        id="bare_lift",
    ),
    pytest.param("zero", NOT_A_CONTROL_MESSAGE + "str$", id="str"),
    pytest.param(0.0, NOT_A_CONTROL_MESSAGE + "float$", id="float"),
    pytest.param(
        ConstantControl(None), "so3 model needs a ControlLiftSo3 lift, got NoneType", id="constant_none"
    ),
    pytest.param(
        ConstantControl(ControlLiftSe3(u_alpha=0.1)),
        "so3 model needs a ControlLiftSo3 lift, got ControlLiftSe3",
        id="other_model_lift",
    ),
    pytest.param(FeedbackControl(3), "FeedbackControl law must be callable, got int", id="feedback_int"),
]


@pytest.mark.usefixtures("no_field_call")
class TestLawWithoutLift:
    """A control that cannot give a lift of the model fails up front with
    ValueError, one message per case, not with an AttributeError or
    TypeError at the first field call."""

    @pytest.mark.parametrize("control, message", NO_LIFT)
    def test_integrate(self, std_params, std_so3_state, control, message):
        with pytest.raises(ValueError, match=message):
            integrate(ModelKind.SO3, std_params, std_so3_state, control=control, t_end=0.01)

    @pytest.mark.parametrize("control, message", NO_LIFT)
    def test_find_equilibrium(self, std_params, std_so3_state, control, message):
        with pytest.raises(ValueError, match=message):
            find_equilibrium(ModelKind.SO3, std_params, std_so3_state, control=control)

    @pytest.mark.parametrize("control, message", NO_LIFT)
    def test_flat_system(self, std_params, control, message):
        with pytest.raises(ValueError, match=message):
            dynamics._flat_system(ModelKind.SO3, std_params, None, control)


class TestKernelLookup:
    """The fields look the kernels up by name when they are built, so a
    wrapper set on the module attribute sees every call of a field: the
    Newton search's and a feedback run's.  A run without a law writes the
    table into its loop and calls no field."""

    @staticmethod
    def _count_calls(monkeypatch, kind) -> list:
        name = f"{kind.value}_field_kernel"
        kernel = getattr(dynamics, name)
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(dynamics, name, counted)
        return calls

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_rk4_calls_the_kernel_four_times_a_step(
        self, monkeypatch, std_params, std_grav, std_so3_state, std_se3_state, kind
    ):
        state = std_se3_state if kind is ModelKind.SE3 else std_so3_state
        calls = self._count_calls(monkeypatch, kind)
        laws = []
        control = FeedbackControl(laws.append)  # returns None: no lift
        traj = integrate(kind, std_params, state, grav=std_grav, control=control, dt=1e-3, t_end=0.01)
        assert traj.steps == 10
        assert len(calls) == len(laws) == 4 * traj.steps == traj.field_calls
        assert traj.max_sweeps == 0

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_midpoint_under_a_lift_calls_the_kernel_once_a_sweep(
        self, monkeypatch, std_params, std_grav, std_so3_state, std_se3_state, kind
    ):
        from test_simulate import _ref_midpoint

        state = std_se3_state if kind is ModelKind.SE3 else std_so3_state
        lift = model_layout(kind).lift_type(u_alpha=0.2, u_l=-0.05)
        # Built before the wrapper goes in, so these calls are not counted.
        rhs = ndarray_field(kind, std_params, std_grav, ConstantControl(lift))
        calls, laws = self._count_calls(monkeypatch, kind), []
        control = FeedbackControl(lambda s: laws.append(s) or lift)
        traj = integrate(
            kind, std_params, state, grav=std_grav, control=control,
            dt=1e-3, t_end=0.01, method="midpoint",
        )
        sweeps = []

        def counted(y):
            sweeps.append(y)
            return rhs(y)

        y = model_layout(kind).to_vector(state)
        for _ in range(traj.steps):
            y = _ref_midpoint(counted, y, 1e-3)
        assert traj.steps == 10
        assert len(calls) == len(laws) == len(sweeps) == traj.field_calls > 2 * traj.steps

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("lifted", [False, True])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_run_without_a_law_writes_the_table_in(
        self, monkeypatch, std_params, std_grav, std_so3_state, std_se3_state, kind, lifted, method
    ):
        # A wrapper on the kernel attribute changes neither the loop nor
        # its bytes, and sees none of its field evaluations.
        state = std_se3_state if kind is ModelKind.SE3 else std_so3_state
        lift = model_layout(kind).lift_type(u_alpha=0.2, u_l=-0.05)
        kw = dict(grav=std_grav, control=ConstantControl(lift) if lifted else None,
                  dt=1e-2, t_end=0.5, sample_every=3, method=method)
        plain = integrate(kind, std_params, state, **kw)
        loops = _spy_run_loop(monkeypatch)
        calls = self._count_calls(monkeypatch, kind)
        traj = integrate(kind, std_params, state, **kw)
        assert loops == [(method, model_layout(kind).dim, lifted, kind)]
        assert calls == []
        counts = lambda t: (t.steps, t.field_calls, t.max_sweeps)  # noqa: E731
        assert counts(traj) == counts(plain)
        for name in ("times", "states", "energy", "casimirs"):
            assert getattr(traj, name).tobytes() == getattr(plain, name).tobytes()

    @pytest.mark.parametrize("control", ["none", "constant", "feedback"])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_integrate_builds_a_field_only_for_a_law(
        self, monkeypatch, std_params, std_grav, std_so3_state, std_se3_state, kind, control
    ):
        state = std_se3_state if kind is ModelKind.SE3 else std_so3_state
        lift = model_layout(kind).lift_type(u_alpha=0.2, u_l=-0.05)
        control = {
            "none": None,
            "constant": ConstantControl(lift),
            "feedback": FeedbackControl(lambda s: lift),
        }[control]
        flat_system, built = dynamics._flat_system, []
        monkeypatch.setattr(
            dynamics, "_flat_system", lambda *args: built.append(args) or flat_system(*args)
        )
        integrate(kind, std_params, state, grav=std_grav, control=control, dt=1e-3, t_end=0.01)
        assert [args[-1] for args in built] == [control] * isinstance(control, FeedbackControl)

    @pytest.mark.parametrize(
        "kind, guess",
        [
            # Not l = 0.5: that guess runs toward a family crossing, where
            # the bordered system is singular (tests/test_steady.py case
            # so3_family_crossing).
            (ModelKind.SO3, [0.001, -0.002, 2.0, 0.0, 0.7]),
            (ModelKind.SE3, [0.001, -0.002, 3.0, 0.002, 0.001, 0.8, 0.0, 1.0]),
        ],
    )
    def test_newton_search_calls_the_kernel(
        self, monkeypatch, std_params, std_grav, kind, guess
    ):
        lay = model_layout(kind)
        guess = lay.from_vector(guess)
        calls = self._count_calls(monkeypatch, kind)
        result = find_equilibrium(kind, std_params, guess, grav=std_grav)
        # One call at the guess and at least one trial per iteration.
        assert result.iterations >= 1
        assert len(calls) >= result.iterations + 1
        assert calls[0] == lay.to_vector(guess).tolist()


def _spy_run_loop(mp) -> list:
    """The arguments of every `_run_loop` call while `mp` holds."""
    run_loop, loops = dynamics._run_loop, []
    mp.setattr(dynamics, "_run_loop", lambda *args: loops.append(args) or run_loop(*args))
    return loops


def _outcome(expansion, kind, params, grav, initial, **kw):
    """What `integrate` gives with the table written into its run loop
    (``"inline"``) or with the field called at each field stage (``"call"``,
    by a feedback law that returns the constant lift, or None for no
    control): a trajectory's bytes and counters, or a failure's message,
    time and partial trajectory."""
    laws = []
    if expansion == "call":
        lift = None if kw["control"] is None else kw["control"].lift
        kw = dict(kw, control=FeedbackControl(lambda state: laws.append(state) or lift))
    with pytest.MonkeyPatch.context() as mp:
        loops = _spy_run_loop(mp)
        try:
            traj, failure = integrate(kind, params, initial, grav=grav, **kw), ()
        except IntegrationError as err:
            traj, failure = err.partial, (str(err), err.time)
    # The loop evaluated the table in place, or called the law at every
    # field stage of the completed steps (and of a failed one).
    if expansion == "inline":
        assert loops[0][-1] is kind
    else:
        assert loops[0][-1] is None
        assert len(laws) > traj.field_calls if failure else len(laws) == traj.field_calls
    arrays = (traj.times, traj.states, traj.energy, traj.casimirs)
    return failure, [a.tobytes() for a in arrays], (traj.steps, traj.field_calls, traj.max_sweeps)


@st.composite
def run_cases(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    lay = model_layout(kind)
    # Signed zeros in the state and the lift: 0.0 + -0.0 is 0.0.
    zeros = st.sampled_from([0.0, -0.0])
    initial = lay.from_vector([draw(zeros | st.floats(-2.0, 2.0)) for _ in range(lay.dim)])
    control = None
    if draw(st.booleans()):
        u = [draw(zeros | st.floats(-0.3, 0.3)) for _ in range(lay.dim)]
        vectors = [f.name for f in dataclasses.fields(lay.lift_type)][:-2]
        lift = dict(zip(vectors, (u[0:3], u[3:6])), u_alpha=u[-2], u_l=u[-1])
        control = ConstantControl(lay.lift_type(**lift))
    dt = draw(st.floats(1e-3, 0.05))
    return kind, initial, dict(
        control=control,
        dt=dt,
        t_end=draw(st.integers(1, 40)) * dt,
        sample_every=draw(st.integers(1, 12)),
        method=draw(st.sampled_from(["rk4", "midpoint"])),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_cases())
def test_inline_and_call_expansions_agree(case):
    # The table written into the run loop and a law's field called from it
    # give the same bytes and counts, lifts with -0.0 entries included.
    kind, initial, kw = case
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    grav = GravityParams(mgh=1.3, chi=(0.48, 0.6, 0.64)) if kind is ModelKind.SE3 else None
    inline = _outcome("inline", kind, params, grav, initial, **kw)
    assert inline == _outcome("call", kind, params, grav, initial, **kw)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "method, dt, control, message",
    [
        ("rk4", 2.0, None, "non-finite value in Runge-Kutta stage"),
        (
            "midpoint", 0.2, ConstantControl(ControlLiftSo3(u_l=1.0)),
            "implicit midpoint failed to converge in 50 iterations (dt=0.2 likely too large)",
        ),
    ],
)
def test_inline_and_call_expansions_fail_alike(std_params, std_so3_state, method, dt, control, message):
    kw = dict(control=control, dt=dt, t_end=100 * dt, sample_every=1, method=method)
    inline = _outcome("inline", ModelKind.SO3, std_params, None, std_so3_state, **kw)
    assert inline[0][0] == message
    assert inline == _outcome("call", ModelKind.SO3, std_params, None, std_so3_state, **kw)


class TestDiagnostics:
    def test_conservation_run(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=1.0
        )
        diag = diagnostics(traj)
        assert diag.energy.max_rel < 1e-12
        assert diag.casimirs["pi_norm"].max_rel < 1e-12

    def test_se3_casimir_names(self, std_params, std_grav):
        s = Se3RotorState(pi=(1.0, 2.0, 3.0), gamma=(0.6, 0.0, 0.8), l=0.5)
        traj = integrate(
            ModelKind.SE3, std_params, s, grav=std_grav, dt=1e-3, t_end=0.1
        )
        assert traj.casimir_names == ("pi_dot_gamma", "gamma_norm")
        diag = diagnostics(traj)
        assert set(diag.casimirs) == {"pi_dot_gamma", "gamma_norm"}

    def test_drift_relative_floor(self, std_params):
        # Drift denominators clamp at one so near-zero labels do not blow
        # up the relative figure.
        s = So3RotorState(pi=(1e-8, 0.0, 0.0))
        traj = integrate(ModelKind.SO3, std_params, s, dt=1e-3, t_end=0.1)
        diag = diagnostics(traj)
        assert diag.casimirs["pi_norm"].max_rel <= diag.casimirs["pi_norm"].max_abs
