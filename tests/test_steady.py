"""`equilibrium` and `hj-check`: pinned bytes, and the Newton search
against the ndarray search it replaced.

The SHA-256 pins were recorded when the search began bordering its Newton
system with the Casimirs; the two cases with a pinned ``u_pi``/``u_gamma``
lift (`so3_full_lift`, `se3_tilted_controlled`) keep the pins of the exact
Newton Jacobian, as the plain system is unchanged.
`_ref_find_equilibrium` below is a copy of the package's first, ndarray
search with its central-difference Jacobian.  It stays the reference for
feedback laws and pinned lifts: the same outcome type on each guess, a
converged state that `hj_residual_*` under the lift puts below `tol`, and
a converged state within `STATE_REL_BOUND` of the reference's.  Where the
lift is tangent to the Casimir levels (no control, or ``u_alpha`` and
``u_l`` alone) the search stays on the guess's leaf, which the reference
does not: there a converged state is checked by the re-check and by the
guess's Casimirs instead, and every guess whose outcome type differs from
the reference's is listed with its reason.
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat.cli import EXIT_OK, main
from gyrostat.dynamics import (
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    FeedbackControl,
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
    hj_residual_se3,
    hj_residual_so3,
)
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    casimirs,
    model_layout,
)
from gyrostat.poisson import fd_steps
from gyrostat.rng import SplitMix64
from gyrostat.scenario import parse_equilibrium_config, parse_hj_check_config

from helpers import ndarray_field

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
    # With i3 = j3 one exact step of the plain system reached a residual of
    # 1.2e-15 here.  The bordered search keeps |Pi| = sqrt(14), and its
    # budget of 1 runs out.
    "so3_max_iter_1": ("equilibrium", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "guess": [1.0, 2.0, 3.0, 0.0, 0.5], "max_iter": 1,
    }),
    "se3_max_iter_2": ("equilibrium", {
        "model": "se3", "inertia": SO3_INERTIA, "gravity": SE3_GRAVITY,
        "guess": [0.5, 0.6, 2.0, 0.48, 0.6, 0.64, 0.0, 0.5], "max_iter": 2,
    }),
    # Named for the plain system, which strikes two rows but one column
    # here.  The bordered system is square and reaches Pi = (0, 0, 2),
    # l = 1 in one step.
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
    # As so3_singular, through hj-check.
    "hj_so3_singular": ("hj-check", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "gamma": "equilibrium", "guess": [0.0, 0.0, 2.0, 0.0, 0.3],
    }),
    # The intermediate-axis spin the benchmark probes as a known defect.
    # The plain search slid along the family Pi1 = 0, Pi3 = i2 l / (i2 - i3)
    # to Pi2 = -7442.66; the bordered one stops where that family meets
    # the guess's sphere |Pi| = 2.5549.
    "so3_runs_off": ("equilibrium", {
        "model": "so3",
        "inertia": {"i_bar": [2.773154396566401, 1.8405412398875405,
                              1.0197509935557527], "j3": 2.063828388655467},
        "control": {"kind": "constant", "u_alpha": 0.4169959576127765},
        "guess": [0.0005779452094510674, -2.5549278730191416,
                  0.0013425082165132646, 0.0, 0.0007673312420319376],
        "tol": 1e-12, "max_iter": 100,
    }),
    # Pi = (0, 0, 2), l = 1 is an equilibrium where two families cross on
    # the leaf |Pi| = 2; the bordered system becomes singular there (its
    # Pi1 row and Pi2 column vanish), so Newton converges only linearly
    # toward it and the budget of 100 runs out.
    "so3_family_crossing": ("equilibrium", {
        "model": "so3", "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "guess": [0.001, -0.002, 2.0, 0.0, 0.5],
    }),
}

# (exit code, SHA-256 of stdout, SHA-256 of stderr)
PINNED_CLI = {
    "equilibrium_axis_spin.json": (0, "feda8b24231023045406634e0ed5c187c1fa4da1ccb18c32a1f60dda0049d72b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_check_axis_spin.json": (0, "31a829549bb254fa52e288a5b639ec5803c8e9fc303cccd62a4ac6d2bab8d657", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_se3_given": (0, "593c6211b0d9411ef7b7cb7dd6dff4e50af162f857cee1b0fad0e458c5d63624", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_so3_controlled_solve": (0, "798e22558689d1b9da4810a8ef024df3c88a431356ca32b6521c7d238b4c1c0a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hj_so3_singular": (0, "b4233dee7ab2b1bee24c08deed21b735d020aba998e7f505344811a294bb8c41", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "se3_max_iter_2": (2, "2ae51dd54726c7598d2b420fd744a7910f8f4ca15a03c34eefc2d897ba058703", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "se3_tilted_controlled": (0, "4198aec9840bce3b110c4b26a5c4ad5b6324a5e294a1deb4dd3011762d947d5d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "se3_upright": (0, "80b5444e025e17d21a18ec36104cff9b59dd1ee1f91a2449ce7efac9bb199f27", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_controlled": (0, "3ac9d5b1a907358d19cd6f92e5109814922377beef7dc64c71a2906d76e81220", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_family_crossing": (2, "01fcc6da9a9fe89c0545f4aee38f561ca269e838fcef17b07c4276d290f5bd2c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_full_lift": (2, "1f84298050a66188697a0db3c9075bec2306681ab47f13b8957d39b2f4da24f0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_max_iter_1": (2, "b0f87ad3117f6271cb4c535c05f0bbf4c0b36b232309e9fd0085acab0b15ee5f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_runs_off": (0, "0f800edb3697369e828bd504599d3da6305eb502678d6c65cde26b755b301e04", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "so3_singular": (0, "af18795cb5717d58a13087d9a7cdd323c5f3532e1d0163fc0d0c462fd6cf2858", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
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


def _lift_values(control, state, lay):
    """The flat lift `control` applies at `state`; None for no lift."""
    if control is None:
        return None
    lift = control.law(state) if isinstance(control, FeedbackControl) else control.lift
    return None if lift is None else lay.lift_floats(lift)


@pytest.mark.parametrize("name", sorted(n for n in CASES if PINNED_CLI[n][0] == EXIT_OK))
def test_recheck_gives_the_search_residual_norm(name):
    # The search and hj_residual_* evaluate one expression, so the residual
    # under the lift at the search's state is the norm it reported.
    command, doc = CASES[name]
    text = json.dumps(doc)
    if command == "equilibrium":
        cfg = parse_equilibrium_config(text)
        guess, limits = cfg.guess, {"tol": cfg.tol, "max_iter": cfg.max_iter}
    else:
        cfg = parse_hj_check_config(text)
        guess, limits = cfg.equilibrium_guess, {}
    result = find_equilibrium(
        cfg.model, cfg.inertia, guess, grav=cfg.gravity, control=cfg.control, **limits
    )
    lay = model_layout(cfg.model)
    u = _lift_values(cfg.control, result.state, lay)
    y = lay.to_vector(result.state)
    if cfg.model == ModelKind.SO3:
        residual = hj_residual_so3(y, cfg.inertia, u)
    else:
        residual = hj_residual_se3(y, cfg.inertia, cfg.gravity, u)
    assert float(np.max(np.abs(residual))) == result.residual_norm


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
    lay = model_layout(kind)
    rhs = ndarray_field(kind, params, grav, control)
    y = lay.to_vector(guess)
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
    return lay.from_vector(y), float(np.max(np.abs(f))), iterations


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
    return model_layout(kind).to_vector(state).tobytes(), np.float64(norm).tobytes(), iterations


def _outcome_type(outcome) -> str:
    return outcome[0] if isinstance(outcome[0], str) else "converged"


# Fixed before the exact-Jacobian search was first compared with the
# reference: the max-norm distance of two converged states, relative to
# max(1, max-norm of the reference state).  A central difference of a
# quadratic field is exact up to rounding, but the equilibria come in
# degenerate families (ROADMAP Direction 4), and the two searches may stop
# at different points of one.
STATE_REL_BOUND = 1e-4


# The search holds each Casimir C_k of a bordered search within
# sqrt(tol) = 1e-6 of the guess's, relative to max(1, |C_k(guess)|).  Here
# C_k is rebuilt from the orbit labels (|Pi|^2 / 2, Pi . Gamma,
# |Gamma|^2 / 2), which reproduce it only up to rounding, so the bound is
# twice that.
LEAF_REL_BOUND = 2e-6


def _leaf(state, kind) -> list:
    labels = casimirs(state, kind)
    if kind == ModelKind.SO3:
        return [labels["pi_norm"] ** 2 / 2]
    return [labels["pi_dot_gamma"], labels["gamma_norm"] ** 2 / 2]


def _assert_equilibrium_on_the_leaf(kind, params, guess, grav, control, state):
    """A converged state whose re-checked residual under its lift is below
    the default `tol`, on the guess's Casimir leaf."""
    lay = model_layout(kind)
    y = lay.to_vector(state)
    u = _lift_values(control, state, lay)
    assert float(np.max(np.abs(_residual(kind, y, params, grav, u)))) < 1e-12
    for before, after in zip(_leaf(guess, kind), _leaf(state, kind)):
        assert abs(after - before) <= LEAF_REL_BOUND * max(1.0, abs(before))


def _agrees_with_reference(
    kind, params, guess, grav, control, max_iter=100, changed_to=None, on_leaf=False
):
    """Run both searches on one guess and check the search against the
    reference; `changed_to` is the outcome type where it differs on
    purpose.  With `on_leaf` (a bordered search) a converged state is held
    to the guess's Casimirs, not to the reference's state.  Returns the
    search's outcome."""
    ref = _outcome(_ref_find_equilibrium, kind, params, guess, grav, control, max_iter)
    got = _outcome(find_equilibrium, kind, params, guess, grav, control, max_iter)
    assert _outcome_type(got) == (changed_to or _outcome_type(ref))
    if _outcome_type(got) == "converged":
        lay = model_layout(kind)
        y = np.frombuffer(got[0])
        if on_leaf:
            _assert_equilibrium_on_the_leaf(kind, params, guess, grav, control, lay.from_vector(y))
        else:
            u = _lift_values(control, lay.from_vector(y), lay)
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


# (bordered, control): no control and a u_alpha-only lift are tangent to
# the Casimir levels and get the bordered search; a pinned u_pi/u_gamma
# lift and a feedback law get the plain one.
CONTROLS = {
    ModelKind.SO3: [
        (True, None),
        (True, ConstantControl(ControlLiftSo3(u_alpha=0.3))),
        (False, ConstantControl(ControlLiftSo3(u_pi=(0.001, -0.002, 0.0), u_alpha=-0.2, u_l=-0.0))),
        (False, FeedbackControl(_feedback_so3)),
    ],
    ModelKind.SE3: [
        (True, None),
        (True, ConstantControl(ControlLiftSe3(u_alpha=0.3))),
        (False, ConstantControl(ControlLiftSe3(u_pi=(0.001, 0.0, -0.002), u_gamma=(0.0, 0.001, 0.0), u_alpha=0.2))),
        (False, FeedbackControl(_feedback_se3)),
    ],
}

# Guesses whose outcome type differs from the reference's, by (chi,
# control index, draw), with the reason.
SEARCH_OUTCOME_CHANGES = {
    # A budget of 2: the bordered search converges in 2 iterations.
    (None, 0, 3): "converged",
    (None, 0, 9): "converged",
    (None, 0, 10): "converged",
    # Spins about the intermediate axis under u_alpha = 0.3.  Every
    # equilibrium with Pi2 != 0 lies on the family Pi1 = 0,
    # Pi3 = i2 l / (i2 - i3), which needs |Pi| >= 3.99 here, so none lies on
    # the guess's leaf (|Pi| 1.5 to 2.4) near the guess.  The reference left
    # the leaf to converge; the bordered search fails.
    (None, 1, 0): "NewtonConvergenceError",
    (None, 1, 4): "NewtonConvergenceError",
    (None, 1, 14): "NewtonConvergenceError",
    (None, 1, 17): "NewtonConvergenceError",
    (None, 1, 19): "NewtonConvergenceError",
    (None, 1, 22): "NewtonConvergenceError",
    # The reference's damped step stalled at a residual of 3e-5 to 5e-5
    # after 7 to 10 iterations; the bordered search converges.
    ((0.48, 0.6, 0.64), 1, 13): "converged",
    ((0.48, 0.6, 0.64), 1, 14): "converged",
}


@pytest.mark.parametrize("kind, chi", [
    (ModelKind.SO3, None),
    (ModelKind.SE3, (0.0, 0.0, 1.0)),
    (ModelKind.SE3, (0.48, 0.6, 0.64)),
])
def test_search_equals_the_ndarray_search(kind, chi):
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    grav = None if chi is None else GravityParams(mgh=1.3, chi=chi)
    rng = SplitMix64(31 if chi is None else 32)
    outcomes = set()
    for c, (bordered, control) in enumerate(CONTROLS[kind]):
        for k in range(25):
            guess = _axis_spin(rng, kind)
            max_iter = 100 if rng.uniform(0.0, 1.0) < 0.8 else 2
            got = _agrees_with_reference(
                kind, params, guess, grav, control, max_iter,
                changed_to=SEARCH_OUTCOME_CHANGES.get((chi, c, k)), on_leaf=bordered,
            )
            outcomes.add((bordered, _outcome_type(got)))
    # The draws reach a converged search and an exhausted budget, bordered
    # and plain.
    assert {(b, t) for b in (True, False) for t in ("converged", "NewtonConvergenceError")} <= outcomes


# Overflowing guesses whose outcome type differs from the reference's, by
# (size, case index), with the reason.
OVERFLOW_OUTCOME_CHANGES = {
    # The reference lost the O(1) entries below the ulp of 1e150- to
    # 1e160-sized field values (and the Gamma x Omega row to inf - inf), so
    # it struck unequal counts of rows and columns: SingularJacobianError.
    # The exact entries keep the system square and solvable, and the line
    # search then fails, the residual 2-norm at the guess being already
    # infinite.
    (1e150, 2): "NewtonConvergenceError",
    (1e155, 2): "NewtonConvergenceError",
    (1e160, 2): "NewtonConvergenceError",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("size", [1e150, 1e155, 1e160, 1e200])
def test_overflowing_field_equals_the_ndarray_search(std_params, std_grav, size):
    # Where the field's products overflow, inf and NaN take the paths
    # they took through the ndarray search, except for the changes listed
    # above, and that a non-finite residual is a failure where the ndarray
    # search reported convergence.  Two outcomes the plain exact search
    # changed are the reference's again with the border: (1e150, 1), whose
    # bordered step leaves a residual entry of ~3e284, so that no trial has
    # a finite 2-norm, and (1e200, 2), where LAPACK finds the bordered
    # system, with 1e200-sized Casimir rows and columns, singular.
    cases = [
        (ModelKind.SO3, None, So3RotorState(pi=(size, 2 * size, 3.0), l=0.5)),
        (ModelKind.SO3, None, So3RotorState(pi=(1.0, size, -size), l=size)),
        (ModelKind.SE3, std_grav, Se3RotorState(pi=(size, 1.0, 2.0), gamma=(0.0, size, 1.0), l=0.5)),
    ]
    for k, (kind, grav, guess) in enumerate(cases):
        ref = _outcome(_ref_find_equilibrium, kind, std_params, guess, grav, None)
        if isinstance(ref[0], bytes) and not math.isfinite(np.frombuffer(ref[1])[0]):
            _, message, norm, iterations = _agrees_with_reference(
                kind, std_params, guess, grav, None, changed_to="NewtonConvergenceError",
                on_leaf=True,
            )
            assert "not finite" in message
            assert math.isnan(norm)
            assert iterations == ref[2]
        else:
            _agrees_with_reference(
                kind, std_params, guess, grav, None,
                changed_to=OVERFLOW_OUTCOME_CHANGES.get((size, k)), on_leaf=True,
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
        # A feedback law is never bordered, even one that returns None, so
        # the plain reference is its reference.
        rng = SplitMix64(77)
        for kind, grav in ((ModelKind.SO3, None), (ModelKind.SE3, std_grav)):
            for _ in range(5):
                guess = _axis_spin(rng, kind)
                _agrees_with_reference(
                    kind, std_params, guess, grav, FeedbackControl(lambda s: None)
                )


def test_norm_is_the_ddot_root_without_a_warning():
    # Vectors of the search's residual lengths (5 to 10 entries, with the
    # Casimir multipliers) and one more, magnitudes 1e-300 to 1e300 with
    # specials mixed in: the norm is math.sqrt of ndarray.dot, bit for bit,
    # and warns of nothing where the sum of squares overflows or is NaN.
    rng = SplitMix64(11)
    specials = [0.0, -0.0, 5e-324, -2.2e-308, 1e308, math.nan, math.inf, -math.inf]
    for k in range(20000):
        f = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(5 + k % 7)]
        if k % 3 == 0:
            f[int(rng.uniform(0.0, len(f)))] = specials[k // 3 % len(specials)]
        a = np.array(f)
        with np.errstate(over="ignore", invalid="ignore"):
            want = math.sqrt(a.dot(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _norm(f)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), f


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-12])
def test_tolerance_must_be_finite_and_positive(std_params, std_so3_state, tol):
    with pytest.raises(ValueError, match="tol"):
        find_equilibrium(ModelKind.SO3, std_params, std_so3_state, tol=tol)


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def tangent_searches(draw):
    """An axis-spin guess, every slot but alpha nudged by up to 2e-3, with
    no control or a u_alpha-only lift: the searches that are bordered.
    The locked moments keep i1 > i2 > i3, as the shipped configs do."""
    kind = draw(st.sampled_from(list(ModelKind)))
    lay = model_layout(kind)
    params = InertiaParams(
        i_bar=(draw(_floats(2.5, 3.5)), draw(_floats(1.5, 2.5)), draw(_floats(0.8, 1.2))),
        j3=draw(_floats(0.2, 2.5)),
    )
    nudge = _floats(-2e-3, 2e-3)
    controlled = draw(st.booleans())
    # Under u_alpha only a 3-axis spin has an equilibrium nearby.
    axis = 2 if controlled or lay.gravity else draw(st.integers(0, 2))
    pi = [draw(nudge) for _ in range(3)]
    pi[axis] = draw(st.sampled_from((-1.0, 1.0))) * draw(_floats(1.0, 3.0))
    gamma = [draw(nudge), draw(nudge), draw(_floats(0.8, 1.2))] if lay.gravity else []
    l = (draw(_floats(0.2, 1.0)) if axis == 2 else 0.0) + draw(nudge)
    guess = lay.from_vector(pi + gamma + [draw(_floats(-1.0, 1.0)), l])
    grav = GravityParams(mgh=draw(_floats(0.0, 3.0))) if lay.gravity else None
    control = ConstantControl(lay.lift_type(u_alpha=draw(_floats(0.1, 0.5)))) if controlled else None
    return kind, params, guess, grav, control


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tangent_searches())
def test_bordered_search_stays_on_the_guess_leaf(case):
    kind, params, guess, grav, control = case
    try:
        result = find_equilibrium(kind, params, guess, grav=grav, control=control)
    except EquilibriumError:
        return  # a leaf may hold no equilibrium near the guess
    _assert_equilibrium_on_the_leaf(kind, params, guess, grav, control, result.state)


def test_runs_off_case_stays_on_the_guess_sphere():
    # The plain search ended at |Pi| = 7442.7; the bordered one keeps the
    # guess's |Pi| = 2.5549 and stops where the family Pi1 = 0,
    # Pi3 = i2 l / (i2 - i3) meets that sphere.
    cfg = parse_equilibrium_config(json.dumps(CASES["so3_runs_off"][1]))
    result = find_equilibrium(
        cfg.model, cfg.inertia, cfg.guess, control=cfg.control, tol=cfg.tol, max_iter=cfg.max_iter
    )
    radius = float(np.linalg.norm(cfg.guess.pi))
    assert radius == pytest.approx(2.5549, abs=1e-4)
    assert abs(float(np.linalg.norm(result.state.pi)) - radius) <= 1e-12
    assert result.state.pi[0] == pytest.approx(0.0, abs=1e-12)
    assert result.state.pi[1] == pytest.approx(-2.2145, abs=1e-4)
    _assert_equilibrium_on_the_leaf(
        cfg.model, cfg.inertia, cfg.guess, None, cfg.control, result.state
    )
