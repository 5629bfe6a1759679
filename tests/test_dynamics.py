import numpy as np
import pytest

from gyrostat import dynamics
from gyrostat.dynamics import (
    MAX_STEPS,
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    FeedbackControl,
    IntegrationError,
    ZeroControl,
    controlled_rhs,
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

from helpers import random_point


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
    """The flat-vector right-hand side must agree bitwise with the
    state-based one, which wraps it; the independent reference for the
    field kernels is tests/test_symbolic.py."""

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
            (controlled_rhs(ModelKind.SO3, std_params, None, ZeroControl()), None),
            (controlled_rhs(ModelKind.SO3, std_params, None, ctrl_s), ctrl_s),
        ]
        fns_e = [
            (controlled_rhs(ModelKind.SE3, std_params, std_grav, ZeroControl()), None),
            (controlled_rhs(ModelKind.SE3, std_params, std_grav, ctrl_e), ctrl_e),
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

        fn = controlled_rhs(ModelKind.SO3, std_params, None, FeedbackControl(law))
        out = fn(np.array([1.0, 2.0, 3.0, 0.0, 0.5]))
        assert out[4] == 0.1
        assert isinstance(seen[0], So3RotorState)

    def test_se3_requires_gravity(self, std_params):
        with pytest.raises(ValueError):
            controlled_rhs(ModelKind.SE3, std_params, None, ZeroControl())

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
            controlled_rhs(kind, std_params, std_grav, control)
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
        rhs = controlled_rhs(kind, std_params, std_grav, control)
        with pytest.raises(ValueError, match="lift"):
            rhs(random_point(SplitMix64(5), 5 if kind == ModelKind.SO3 else 8))

    @pytest.mark.parametrize("kind, dim", [(ModelKind.SO3, 5), (ModelKind.SE3, 8)])
    def test_empty_constant_lift_is_no_control(self, std_params, std_grav, kind, dim):
        class NoLiftAt(ConstantControl):
            def lift_at(self, state):
                raise AssertionError("lift looked up on the no-control path")

        rhs = controlled_rhs(kind, std_params, std_grav, NoLiftAt(lift=None))
        free = controlled_rhs(kind, std_params, std_grav, ZeroControl())
        x = random_point(SplitMix64(7), dim)
        assert np.array_equal(rhs(x), free(x))


class TestSteppers:
    def test_rk4_one_step_vs_rotation(self, axisym_params):
        # With equal transverse moments and l=0 the transverse momentum
        # pair rotates rigidly at rate (Pi3 - l)/i3 - Pi3/i1 = 1.
        rhs = controlled_rhs(ModelKind.SO3, axisym_params, None, ZeroControl())
        y0 = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
        dt = 1e-2
        y1 = step_rk4(rhs, y0, dt)
        expect = np.array([np.cos(dt), -np.sin(dt)])
        assert np.max(np.abs(y1[:2] - expect)) < 1e-11
        assert y1[2] == 2.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rk4_non_finite_raises(self):
        rhs = lambda y: y * 1e308  # noqa: E731
        with pytest.raises(IntegrationError):
            step_rk4(rhs, np.ones(5), 10.0)

    def test_midpoint_conserves_quadratic_invariants(self, std_params):
        rhs = controlled_rhs(ModelKind.SO3, std_params, None, ZeroControl())
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
        rhs = controlled_rhs(ModelKind.SO3, std_params, None, ZeroControl())
        y = np.array([0.0, 0.0, 3.0, 0.0, 1.5])
        assert np.array_equal(step_midpoint(rhs, y, 1e-2), y)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_midpoint_reports_non_convergence(self, std_params):
        rhs = controlled_rhs(ModelKind.SO3, std_params, None, ZeroControl())
        with pytest.raises(IntegrationError):
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
        assert err.time is not None
        assert err.partial is not None
        assert err.partial.states.shape[0] >= 1

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


class TestKernelLookup:
    """The fields look the kernels up by name when they are built, so a
    wrapper set on the module attribute sees every call."""

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
        traj = integrate(kind, std_params, state, grav=std_grav, dt=1e-3, t_end=0.01)
        assert traj.steps == 10
        assert len(calls) == 4 * traj.steps

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
