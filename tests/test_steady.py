"""`equilibrium` and `hj-check`: pinned bytes, and the Newton search
against the ndarray search it replaced.

The SHA-256 pins were recorded with the exact Newton Jacobian.
`_ref_find_equilibrium` below is a copy of the package's first, ndarray
search with its central-difference Jacobian.  It stays the reference for
every outcome: the same outcome type on each guess (the guesses whose type
changes are listed with their reasons), a converged state that
`hj_residual_*` under the lift puts below `tol`, and a converged state
within `STATE_REL_BOUND` of the reference's.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gyrostat.cli import main
from gyrostat.dynamics import (
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    FeedbackControl,
    ZeroControl,
    _lift_floats,
    controlled_rhs,
)
from gyrostat.hj import (
    NEWTON_MAX_HALVINGS,
    EquilibriumError,
    NewtonConvergenceError,
    SingularJacobianError,
    _max_norm,
    _norm,
    _residual,
    find_equilibrium,
)
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    model_layout,
    se3_state_from_vector,
    se3_state_to_vector,
    so3_state_from_vector,
    so3_state_to_vector,
)
from gyrostat.poisson import fd_steps
from gyrostat.rng import SplitMix64

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SO3_INERTIA = {"i_bar": [2.7, 1.9, 1.3], "j3": 0.7}
SE3_GRAVITY = {"mgh": 1.3, "chi": [0.48, 0.6, 0.64]}

CASES = {
    "so3_controlled": ("equilibrium", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "control": {"kind": "constant", "u_alpha": 0.3},
        "guess": [0.001, -0.002, 2.0, 0.0, 0.5],
    }),
    "so3_full_lift": ("equilibrium", {
        "model": "so3", "inertia": SO3_INERTIA,
        "control": {"kind": "constant", "u_pi": [0.01, -0.02, 0.0], "u_alpha": 0.2},
        "guess": [0.1, -0.1, 2.0, 0.0, 0.4],
    }),
    "se3_upright": ("equilibrium", {
        "model": "se3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
        "guess": [0.001, -0.002, 3.0, 0.002, 0.001, 0.8, 0.0, 1.0],
    }),
    "se3_tilted_controlled": ("equilibrium", {
        "model": "se3", "inertia": SO3_INERTIA, "gravity": SE3_GRAVITY,
        "control": {"kind": "constant", "u_pi": [0.01, 0.0, -0.01],
                    "u_gamma": [0.0, 0.001, 0.0], "u_alpha": 0.2},
        "guess": [0.5, 0.6, 2.0, 0.48, 0.6, 0.64, 0.0, 0.5],
    }),
    # One exact Newton step reaches a residual of 1.2e-15 here, so the
    # search converges within its budget of 1.
    "so3_max_iter_1": ("equilibrium", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "guess": [1.0, 2.0, 3.0, 0.0, 0.5], "max_iter": 1,
    }),
    "se3_max_iter_2": ("equilibrium", {
        "model": "se3", "inertia": SO3_INERTIA, "gravity": SE3_GRAVITY,
        "guess": [0.5, 0.6, 2.0, 0.48, 0.6, 0.64, 0.0, 0.5], "max_iter": 2,
    }),
    "so3_singular": ("equilibrium", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "guess": [0.0, 0.0, 2.0, 0.0, 0.3],
    }),
    "hj_so3_controlled_solve": ("hj-check", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "control": {"kind": "constant", "u_alpha": 0.3},
        "gamma": "equilibrium", "guess": [0.001, -0.002, 2.0, 0.0, 0.5],
        "lift": "solve",
    }),
    "hj_se3_given": ("hj-check", {
        "model": "se3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
        "control": {"kind": "constant", "u_alpha": 0.3},
        "gamma": "equilibrium",
        "guess": [0.001, -0.001, 2.0, 0.001, -0.001, 1.0, 0.0, 0.5],
        "lift": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0],
    }),
    "hj_so3_singular": ("hj-check", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "gamma": "equilibrium", "guess": [0.0, 0.0, 2.0, 0.0, 0.3],
    }),
    # The intermediate-axis spin the benchmark probes as a known defect.
    "so3_runs_off": ("equilibrium", {
        "model": "so3",
        "inertia": {"i_bar": [2.773154396566401, 1.8405412398875405,
                              1.0197509935557527], "j3": 2.063828388655467},
        "control": {"kind": "constant", "u_alpha": 0.4169959576127765},
        "guess": [0.0005779452094510674, -2.5549278730191416,
                  0.0013425082165132646, 0.0, 0.0007673312420319376],
        "tol": 1e-12, "max_iter": 100,
    }),
}

# (exit code, SHA-256 of stdout, SHA-256 of stderr)
PINNED_CLI = {
    "equilibrium_axis_spin.json": (0, "4cdf11a23f94928733f0944882874de157e3cd8400c59882e1b61c611ce66bc5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_check_axis_spin.json": (0, "fc8786921d08f084d81762f3cf1eb9331be1703291ae17bd319b6405dd42237f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_controlled": (0, "02d6b69a121faed1b985cf590b680dc281822abe326aab026223d5dbaa079589", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_full_lift": (2, "1f84298050a66188697a0db3c9075bec2306681ab47f13b8957d39b2f4da24f0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "se3_upright": (0, "305df87e4a5bc771e8d362830505079620ce9e78fc579d7f35dff5ee1abfc5aa", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "se3_tilted_controlled": (0, "4198aec9840bce3b110c4b26a5c4ad5b6324a5e294a1deb4dd3011762d947d5d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_max_iter_1": (0, "d44be636fe659905d1f876597b953d491d2824db336f20925e019469d97d0762", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "se3_max_iter_2": (2, "6f96525f55f8f407419813a3b4c185f4012c94dc63757dacd8c9506a5393a8bd", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_singular": (2, "f62934069954c0658797457725a3b4eaea66490f4434d8d0ac66de26f8aa04e7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_so3_controlled_solve": (0, "275d14ac890d3867fa7675036ce4a7e7319f7e79ade7d8142629d71fb477e9f4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_se3_given": (0, "01c5df9946fc841e3eb84969055e57aaf1ceff14e484729ddb3126a480866968", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_so3_singular": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f603677438af85f8506963c3585e8febecd44bbe6507817ebff4c1f17f143580"),
    "so3_runs_off": (0, "2333f03dd82a678ec025fb563a19e866bddfda3821b9dd6b3f9a067dd9e7035b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(tmp_path, capsys, name):
    if name.endswith(".json"):
        command = "equilibrium" if name.startswith("equilibrium") else "hj-check"
        path = CONFIGS / name
    else:
        command, doc = CASES[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--config", str(path)])
    out = capsys.readouterr()
    return code, _sha(out.out), _sha(out.err)


@pytest.mark.parametrize("name", sorted(PINNED_CLI))
def test_steady_bytes_are_pinned(tmp_path, capsys, name):
    assert _run(tmp_path, capsys, name) == PINNED_CLI[name]


def _ref_fd_jacobian(rhs, y):
    steps = fd_steps(y)
    n = len(y)
    jac = np.empty((n, n))
    for j in range(n):
        h = steps[j]
        yp = y.copy()
        yp[j] += h
        ym = y.copy()
        ym[j] -= h
        jac[:, j] = (rhs(yp) - rhs(ym)) / (2.0 * h)
    return jac


def _ref_newton_direction(jac, f):
    row_live = np.any(jac != 0.0, axis=1)
    col_live = np.any(jac != 0.0, axis=0)
    if int(row_live.sum()) != int(col_live.sum()):
        raise SingularJacobianError(
            "Jacobian has unequal counts of structurally zero rows and columns; "
            "the Newton system is not square after reduction"
        )
    delta = np.zeros_like(f)
    if not row_live.any():
        return delta
    sub = jac[np.ix_(row_live, col_live)]
    try:
        delta_live = np.linalg.solve(sub, -f[row_live])
    except np.linalg.LinAlgError as err:
        raise SingularJacobianError(f"singular Newton Jacobian: {err}") from err
    delta[col_live] = delta_live
    return delta


def _ref_find_equilibrium(kind, params, guess, grav=None, control=None, tol=1e-12, max_iter=100):
    # The ndarray search of the package's first version, with its
    # central-difference Jacobian, kept as the reference.
    if kind == ModelKind.SO3:
        to_vec, from_vec = so3_state_to_vector, so3_state_from_vector
    else:
        to_vec, from_vec = se3_state_to_vector, se3_state_from_vector
    rhs = controlled_rhs(kind, params, grav, control)
    y = to_vec(guess)
    f = rhs(y)
    iterations = 0
    while float(np.max(np.abs(f))) >= tol:
        if iterations >= max_iter:
            raise NewtonConvergenceError(
                f"no convergence after {max_iter} iterations; "
                f"last residual max-norm {np.max(np.abs(f)):.3e}",
                residual_norm=float(np.max(np.abs(f))),
                iterations=iterations,
            )
        jac = _ref_fd_jacobian(rhs, y)
        delta = _ref_newton_direction(jac, f)
        base = float(np.linalg.norm(f))
        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            y_try = y + scale * delta
            f_try = rhs(y_try)
            if float(np.linalg.norm(f_try)) < base:
                break
            scale *= 0.5
        else:
            raise NewtonConvergenceError(
                "damped step failed to reduce the residual "
                f"(last residual max-norm {np.max(np.abs(f)):.3e})",
                residual_norm=float(np.max(np.abs(f))),
                iterations=iterations,
            )
        y, f = y_try, f_try
        iterations += 1
    return from_vec(y), float(np.max(np.abs(f))), iterations


def _outcome(search, kind, params, guess, grav, control, max_iter=100):
    """Everything a search reports, as comparable bytes and values."""
    try:
        result = search(kind, params, guess, grav=grav, control=control, max_iter=max_iter)
    except EquilibriumError as err:
        return (type(err).__name__, str(err), getattr(err, "residual_norm", None),
                getattr(err, "iterations", None))
    if isinstance(result, tuple):
        state, norm, iterations = result
    else:
        state, norm, iterations = result.state, result.residual_norm, result.iterations
    to_vec = so3_state_to_vector if kind == ModelKind.SO3 else se3_state_to_vector
    return to_vec(state).tobytes(), np.float64(norm).tobytes(), iterations


def _outcome_type(outcome) -> str:
    return outcome[0] if isinstance(outcome[0], str) else "converged"


# Fixed before the exact-Jacobian search was first compared with the
# reference: the max-norm distance of two converged states, relative to
# max(1, max-norm of the reference state).  A central difference of a
# quadratic field is exact up to rounding, but the equilibria come in
# degenerate families (ROADMAP Direction 4), and the two searches may stop
# at different points of one.
STATE_REL_BOUND = 1e-4


def _agrees_with_reference(kind, params, guess, grav, control, max_iter=100, changed_to=None):
    """Run both searches on one guess and check the search against the
    reference; `changed_to` is the outcome type where it differs on
    purpose.  Returns the search's outcome."""
    ref = _outcome(_ref_find_equilibrium, kind, params, guess, grav, control, max_iter)
    got = _outcome(find_equilibrium, kind, params, guess, grav, control, max_iter)
    assert _outcome_type(got) == (changed_to or _outcome_type(ref))
    if _outcome_type(got) == "converged":
        lay = model_layout(kind)
        y = np.frombuffer(got[0])
        lift = None if control is None else control.lift_at(lay.from_vector(y))
        u = None if lift is None else _lift_floats(lift, lay)
        residual = _residual(kind, y, params, grav, u)
        assert float(np.max(np.abs(residual))) < 1e-12
        if _outcome_type(ref) == "converged":
            y_ref = np.frombuffer(ref[0])
            distance = np.max(np.abs(y - y_ref)) / max(1.0, np.max(np.abs(y_ref)))
            assert distance < STATE_REL_BOUND
    return got


def _axis_spin(rng, kind):
    """An axis spin, every slot but alpha nudged by up to 2e-3."""

    def nudge():
        return rng.uniform(-2e-3, 2e-3)

    if kind == ModelKind.SO3:
        axis = int(rng.uniform(0.0, 3.0))
        pi = [nudge(), nudge(), nudge()]
        pi[axis] = rng.uniform(1.0, 3.0)
        l = rng.uniform(0.2, 1.0) if axis == 2 else 0.0
        return So3RotorState(pi=pi, alpha=rng.uniform(-1.0, 1.0), l=l + nudge())
    pi = [nudge(), nudge(), rng.uniform(1.0, 3.0)]
    gamma = [nudge(), nudge(), rng.uniform(0.8, 1.2)]
    return Se3RotorState(pi=pi, gamma=gamma, alpha=rng.uniform(-1.0, 1.0),
                         l=rng.uniform(0.2, 1.0) + nudge())


def _feedback_so3(state):
    return ControlLiftSo3(u_pi=(-0.01 * state.pi[0], 0.0, 0.0), u_alpha=0.3 - 0.1 * state.l)


def _feedback_se3(state):
    return ControlLiftSe3(u_gamma=(0.0, 0.0, 0.01 * state.gamma[2]), u_alpha=0.2 + 0.05 * state.pi[2])


CONTROLS = {
    ModelKind.SO3: [
        ZeroControl(),
        ConstantControl(ControlLiftSo3(u_alpha=0.3)),
        ConstantControl(ControlLiftSo3(u_pi=(0.001, -0.002, 0.0), u_alpha=-0.2, u_l=-0.0)),
        FeedbackControl(_feedback_so3),
    ],
    ModelKind.SE3: [
        ZeroControl(),
        ConstantControl(ControlLiftSe3(u_alpha=0.3)),
        ConstantControl(ControlLiftSe3(u_pi=(0.001, 0.0, -0.002), u_gamma=(0.0, 0.001, 0.0), u_alpha=0.2)),
        FeedbackControl(_feedback_se3),
    ],
}


@pytest.mark.parametrize("kind, chi", [
    (ModelKind.SO3, None),
    (ModelKind.SE3, (0.0, 0.0, 1.0)),
    (ModelKind.SE3, (0.48, 0.6, 0.64)),
])
def test_search_equals_the_ndarray_search(kind, chi):
    # No guess here changes its outcome type.
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    grav = None if chi is None else GravityParams(mgh=1.3, chi=chi)
    rng = SplitMix64(31 if chi is None else 32)
    outcomes = set()
    for control in CONTROLS[kind]:
        for _ in range(25):
            guess = _axis_spin(rng, kind)
            max_iter = 100 if rng.uniform(0.0, 1.0) < 0.8 else 2
            got = _agrees_with_reference(kind, params, guess, grav, control, max_iter)
            outcomes.add(_outcome_type(got))
    # The draws reach both a converged search and an exhausted budget.
    assert {"converged", "NewtonConvergenceError"} <= outcomes


# Overflowing guesses whose outcome type differs from the reference's, by
# (size, case index), with the reason.
OVERFLOW_OUTCOME_CHANGES = {
    # The residual 2-norm at the guess overflows (entries ~1.5e300), so
    # only a trial with finite squares is accepted.  The exact step cancels
    # the 1e300-sized products down to a residual 2-norm of 3.7e134 and
    # converges in 2 iterations.  The reference's step is off by ~1e-11
    # relative, leaves entries of ~1e289, and fails at 0 iterations.
    (1e150, 1): "converged",
    # The reference lost the O(1) entries below the ulp of 1e155-sized
    # field values (and the Gamma x Omega row to inf - inf), so it struck
    # unequal counts of rows and columns: SingularJacobianError.  The exact
    # entries keep the system square and solvable, and the line search
    # then fails, the residual at the guess being already infinite.
    (1e155, 2): "NewtonConvergenceError",
    (1e160, 2): "NewtonConvergenceError",
    (1e200, 2): "NewtonConvergenceError",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("size", [1e150, 1e155, 1e160, 1e200])
def test_overflowing_field_equals_the_ndarray_search(std_params, std_grav, size):
    # Where the field's products overflow, inf and NaN take the paths
    # they took through the ndarray search, except for the changes listed
    # above, and that a non-finite residual is a failure where the ndarray
    # search reported convergence.
    cases = [
        (ModelKind.SO3, None, So3RotorState(pi=(size, 2 * size, 3.0), l=0.5)),
        (ModelKind.SO3, None, So3RotorState(pi=(1.0, size, -size), l=size)),
        (ModelKind.SE3, std_grav, Se3RotorState(pi=(size, 1.0, 2.0), gamma=(0.0, size, 1.0), l=0.5)),
    ]
    for k, (kind, grav, guess) in enumerate(cases):
        ref = _outcome(_ref_find_equilibrium, kind, std_params, guess, grav, None)
        if isinstance(ref[0], bytes) and not math.isfinite(np.frombuffer(ref[1])[0]):
            _, message, norm, iterations = _agrees_with_reference(
                kind, std_params, guess, grav, None, changed_to="NewtonConvergenceError"
            )
            assert "not finite" in message
            assert math.isnan(norm)
            assert iterations == ref[2]
        else:
            _agrees_with_reference(
                kind, std_params, guess, grav, None,
                changed_to=OVERFLOW_OUTCOME_CHANGES.get((size, k)),
            )


def test_norms_equal_the_ndarray_norms():
    # A Python sum of squares rounds otherwise than BLAS ddot on about one
    # such vector in ten, so the line search must keep the ndarray 2-norm.
    rng = SplitMix64(5)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for k in range(4000):
        f = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, 2.0) for _ in range(5 + 3 * (k % 2))]
        if k % 10 == 0:
            f[int(rng.uniform(0.0, len(f)))] = specials[k // 10 % len(specials)]
        a = np.array(f)
        assert np.float64(_norm(f)).tobytes() == np.linalg.norm(a).tobytes()
        assert np.float64(_max_norm(f)).tobytes() == np.max(np.abs(a)).tobytes()


class TestFeedbackOnTheSearch:
    def test_other_models_lift_is_rejected(self, std_params, std_grav, std_so3_state, std_se3_state):
        so3_law = FeedbackControl(lambda s: ControlLiftSe3(u_alpha=0.1))
        with pytest.raises(ValueError, match="ControlLiftSo3.*ControlLiftSe3"):
            find_equilibrium(ModelKind.SO3, std_params, std_so3_state, control=so3_law)
        se3_law = FeedbackControl(lambda s: ControlLiftSo3(u_alpha=0.1))
        with pytest.raises(ValueError, match="ControlLiftSe3.*ControlLiftSo3"):
            find_equilibrium(
                ModelKind.SE3, std_params, std_se3_state, grav=std_grav, control=se3_law
            )

    def test_none_lift_is_no_control(self, std_params, std_grav):
        rng = SplitMix64(77)
        for kind, grav in ((ModelKind.SO3, None), (ModelKind.SE3, std_grav)):
            for _ in range(5):
                guess = _axis_spin(rng, kind)
                free = _outcome(find_equilibrium, kind, std_params, guess, grav, None)
                none = _outcome(
                    find_equilibrium, kind, std_params, guess, grav,
                    FeedbackControl(lambda s: None),
                )
                assert none == free


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-12])
def test_tolerance_must_be_finite_and_positive(std_params, std_so3_state, tol):
    with pytest.raises(ValueError, match="tol"):
        find_equilibrium(ModelKind.SO3, std_params, std_so3_state, tol=tol)
