"""`simulate` and `integrate`: pinned bytes, overflow, the public steppers.

The SHA-256 pins were recorded with the ndarray steppers and the
per-sample state records that the float steppers replaced; any change to
the operation order of a stage, an update or a record shows here.  The
``so3_free_spin`` and ``tilted`` CSV pins were recorded again when the
kinetic energy began squaring as products (the energy column moved in
its last bits), and the ``huge_pi1`` summary pin when non-finite drifts
began to be written as null.  Both ``huge_pi1`` pins were recorded again
when ``|Pi|`` stopped overflowing where its square does: the CSV's
``pi_norm`` reads 1e+160, not inf, and the summary's drift 0.0, not null.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gyrostat.cli import EXIT_TOLERANCE, main
from gyrostat.dynamics import (
    ConstantControl,
    ControlLiftSe3,
    ControlLiftSo3,
    FeedbackControl,
    IntegrationError,
    ZeroControl,
    controlled_rhs,
    integrate,
    step_midpoint,
    step_rk4,
)
from gyrostat.model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    Se3RotorState,
    So3RotorState,
    hamiltonian_se3,
    hamiltonian_so3,
    model_layout,
)
from gyrostat.rng import SplitMix64

from helpers import random_point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TILTED = {
    "model": "se3",
    "inertia": {"i_bar": [2.7, 1.9, 1.3], "j3": 0.7},
    "gravity": {"mgh": 1.3, "chi": [0.48, 0.6, 0.64]},
    "initial": {"pi": [0.9, -1.7, 2.3], "gamma": [0.36, -0.48, 0.8], "alpha": 0.1, "l": 0.45},
    "control": {"kind": "constant", "u_pi": [0.01, -0.02, 0.03], "u_gamma": [0.004, 0.0, -0.002], "u_alpha": 0.2, "u_l": -0.05},
    "integrator": {"method": "rk4", "dt": 0.003, "t_end": 1.5, "sample_every": 1},
}
HUGE_PI1 = {
    "model": "so3",
    "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
    "initial": {"pi": [1e160, 2.0, 3.0], "alpha": 0.0, "l": 0.5},
    "integrator": {"method": "rk4", "dt": 0.001, "t_end": 1.0, "sample_every": 10},
}
HUGE_L = {**HUGE_PI1, "initial": {"pi": [1.0, 2.0, 3.0], "alpha": 0.0, "l": 1e160}}

# (exit code, SHA-256 of the CSV, SHA-256 of the summary less wall_time_s)
PINNED_CLI = {
    "so3_free_spin": (0, "410c9e2b0845ce622bd5ba8f8e22bdcd3290a1bc2b813dc1e834998d33e287e1", "4d97ff8c1f320d64f37f8cb8403895e2cf3ed7187838ac2dcf77e7db5093af28"),
    "se3_heavy_top": (0, "8ef2cd23f0bd1486537961ecdb6a3f7bafdd52b57fe30e686fd3deae12ac28ff", "d8e91d7c020da5a3597e475d83c655ca27e37ff4cc9d6c8d277a489b252e6cc2"),
    "se3_driven_rotor": (0, "a1aa7c5716bc93bd26cb42ab6cf4ae5084fc61ad62190ffc61f04d58f93b41de", "4c4f444e9ef469ddc073668450c9b9d1269f96f0a531fdb4c74db1082667578a"),
    "tilted": (0, "e4fbd6582051a515cee89c94213fdfb20161c6d044ebf46641b53a88fd3e9cdb", "ab4c79d02897a81bdad98554374f131050df236d68ee3c358adb4ae704b62f54"),
    "huge_pi1": (2, "b9cdebaa56c77cf4f87d76b47a7610bce49d81c9b45dff5cb6b20c0b4d4819ef", "4e40ce438a4fac148d11327ba3a9d1a084d97bfba81a5ad4fcf518fafa08d200"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _simulate(tmp_path, name):
    if name == "tilted":
        cfg = tmp_path / "tilted.json"
        cfg.write_text(json.dumps(TILTED), encoding="utf-8")
    elif name.startswith("huge"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(HUGE_PI1 if name == "huge_pi1" else HUGE_L))
    else:
        cfg = CONFIGS / f"{name}.json"
    out, summary = tmp_path / "out.csv", tmp_path / "summary.json"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--summary", str(summary)])
    text = summary.read_text(encoding="utf-8")
    doc = json.loads(text)
    del doc["wall_time_s"]
    return code, out.read_text(encoding="utf-8"), doc, text


@pytest.mark.parametrize("name", sorted(PINNED_CLI))
def test_simulate_bytes_are_pinned(tmp_path, name):
    code, csv, doc, written = _simulate(tmp_path, name)
    summary = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert (code, _sha(csv.encode()), _sha(summary.encode())) == PINNED_CLI[name]
    # The pin re-renders the summary; the bytes written must be that form.
    assert written == json.dumps(json.loads(written), sort_keys=True, indent=2) + "\n"


def test_overflowing_rotor_momentum_energy_is_inf(tmp_path):
    # A square beyond the float range is an infinite energy, whichever
    # momentum it comes from: the run fails as a numerical failure with
    # a one-row partial CSV, as a huge Pi1 does.
    code, csv, doc, _ = _simulate(tmp_path, "huge_l")
    assert code == EXIT_TOLERANCE
    rows = csv.strip().split("\n")[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[6] == "inf"
    assert doc["steps"] == 0 and len(doc["failures"]) == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("doc", [HUGE_PI1, HUGE_L], ids=["huge_pi1", "huge_l"])
def test_overflow_summary_is_strict_json(tmp_path, capsys, doc):
    # An infinite energy or Casimir has no finite drift: the summary says
    # null, and numpy warns of nothing on the way.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    summary = tmp_path / "summary.json"
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
            "--summary", str(summary)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert err.startswith("integration failed at t=") and err.count("\n") == 1
    drifts = json.loads(summary.read_text(encoding="utf-8"), parse_constant=_reject_constant)["drifts"]
    assert drifts["energy"] == {"abs": None, "rel": None}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_energy_in_the_library(std_params):
    for pi, l in (((1e160, 2.0, 3.0), 0.5), ((1.0, 2.0, 3.0), 1e160)):
        with pytest.raises(IntegrationError) as exc:
            integrate(ModelKind.SO3, std_params, So3RotorState(pi=pi, l=l), t_end=0.01)
        assert exc.value.partial.energy.tolist() == [np.inf]


def _feedback_se3(state):
    return ControlLiftSe3(
        u_pi=-0.05 * state.pi,
        u_gamma=0.01 * np.cross(state.gamma, state.pi),
        u_alpha=0.1 * state.l,
        u_l=-0.02 * state.pi[2],
    )


def _feedback_so3(state):
    return ControlLiftSo3(u_pi=(0.0, 0.01 * state.pi[0], 0.0), u_alpha=-0.3, u_l=0.01 * state.alpha)


# SHA-256 of times, states, energy and casimirs (float64 bytes, in order).
PINNED_FEEDBACK = {
    ("se3", "rk4"): "fb9b17fdcd82afff25809e2a58b3bee99f0d4aed4dde20bea552522420336bad",
    ("se3", "midpoint"): "fb6290e4f44f28345b8d296c96a4398437770d8c0b568fc36b447f19a07becce",
    ("so3", "rk4"): "ff128c43d4dbdb51a85d60b95721918393c6592781bfef1e3579d91b6b1f9000",
    ("so3", "midpoint"): "7a3dca7a024637eed8b26a45ce8f50165906c074369589629f2f88a3392154ec",
}


@pytest.mark.parametrize("kind, method", sorted(PINNED_FEEDBACK))
def test_feedback_trajectory_is_pinned(kind, method):
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    if kind == "se3":
        grav = GravityParams(mgh=1.3, chi=(0.48, 0.6, 0.64))
        initial = Se3RotorState(pi=(0.9, -1.7, 2.3), gamma=(0.36, -0.48, 0.8), alpha=0.1, l=0.45)
        law = _feedback_se3
    else:
        grav = None
        initial = So3RotorState(pi=(0.9, -1.7, 2.3), alpha=0.1, l=0.45)
        law = _feedback_so3
    traj = integrate(
        ModelKind(kind), params, initial, grav=grav, control=FeedbackControl(law),
        dt=0.002, t_end=0.5, sample_every=3, method=method,
    )
    blob = b"".join(a.tobytes() for a in (traj.times, traj.states, traj.energy, traj.casimirs))
    assert _sha(blob) == PINNED_FEEDBACK[(kind, method)]


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("kind", ["so3", "se3"])
def test_recorded_energy_is_the_hamiltonian_of_each_row(kind, method):
    # integrate adds the potential over the stacked states; each entry must
    # still be the state function of its row, bit for bit.
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    if kind == "se3":
        grav = GravityParams(mgh=1.3, chi=(0.48, 0.6, 0.64))
        initial = Se3RotorState(pi=(0.9, -1.7, 2.3), gamma=(0.36, -0.48, 0.8), alpha=0.1, l=0.45)
        lift = ControlLiftSe3(u_pi=(0.01, -0.02, 0.03), u_gamma=(0.004, 0.0, -0.002), u_alpha=0.2, u_l=-0.05)
        energy = lambda state: hamiltonian_se3(state, params, grav)
    else:
        grav = None
        initial = So3RotorState(pi=(0.9, -1.7, 2.3), alpha=0.1, l=0.45)
        lift = ControlLiftSo3(u_pi=(0.01, -0.02, 0.03), u_alpha=0.2, u_l=-0.05)
        energy = lambda state: hamiltonian_so3(state, params)
    traj = integrate(
        ModelKind(kind), params, initial, grav=grav, control=ConstantControl(lift),
        dt=0.003, t_end=0.6, sample_every=7, method=method,
    )
    lay = model_layout(ModelKind(kind))
    assert len(traj.energy) == len(traj.states) > 2
    for row, e in zip(traj.states, traj.energy):
        assert np.float64(energy(lay.from_vector(row))).tobytes() == e.tobytes()


def _ref_rk4(rhs, y, dt):
    # The ndarray formulas of the steppers' first version, kept as the
    # reference the public adapters must equal bit for bit.
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_midpoint(rhs, y, dt, tol=1e-13, max_iter=50):
    z = y.copy()
    for _ in range(max_iter):
        z_new = y + dt * rhs(0.5 * (y + z))
        if np.max(np.abs(z_new - z)) <= tol:
            return z_new
        z = z_new
    raise AssertionError("reference midpoint did not converge")


def _fields(params, grav):
    lift5 = ControlLiftSo3(u_pi=(0.1, -0.2, 0.3), u_alpha=0.4, u_l=-0.5)
    lift8 = ControlLiftSe3(u_pi=(0.1, -0.2, 0.3), u_gamma=(0.01, 0.02, -0.03), u_alpha=0.4, u_l=-0.5)
    return [
        (5, controlled_rhs(ModelKind.SO3, params, None, ZeroControl())),
        (5, controlled_rhs(ModelKind.SO3, params, None, ConstantControl(lift5))),
        (5, controlled_rhs(ModelKind.SO3, params, None, FeedbackControl(_feedback_so3))),
        (8, controlled_rhs(ModelKind.SE3, params, grav, ZeroControl())),
        (8, controlled_rhs(ModelKind.SE3, params, grav, ConstantControl(lift8))),
        (8, controlled_rhs(ModelKind.SE3, params, grav, FeedbackControl(_feedback_se3))),
    ]


def test_public_steppers_equal_the_ndarray_formulas():
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    grav = GravityParams(mgh=1.3, chi=(0.48, 0.6, 0.64))
    rng = SplitMix64(2024)
    for dim, rhs in _fields(params, grav):
        for _ in range(40):
            y = random_point(rng, dim, -2.0, 2.0)
            dt = rng.uniform(1e-4, 5e-3)
            got = step_rk4(rhs, y, dt)
            assert isinstance(got, np.ndarray)
            assert got.tobytes() == _ref_rk4(rhs, y, dt).tobytes()
            got = step_midpoint(rhs, y, dt)
            assert isinstance(got, np.ndarray)
            assert got.tobytes() == _ref_midpoint(rhs, y, dt).tobytes()


def _path_case(kind, control):
    """Parameters, gravity, initial state and control law of one
    `integrate` path; `control` names the law."""
    params = InertiaParams(i_bar=(2.7, 1.9, 1.3), j3=0.7)
    if kind == "se3":
        grav = GravityParams(mgh=1.3, chi=(0.48, 0.6, 0.64))
        initial = Se3RotorState(pi=(0.9, -1.7, 2.3), gamma=(0.36, -0.48, 0.8), alpha=0.1, l=0.45)
        lift = lambda u_l: ControlLiftSe3(  # noqa: E731
            u_pi=(0.01, -0.02, 0.03), u_gamma=(0.004, -0.001, -0.002), u_alpha=0.2, u_l=u_l
        )
        law = _feedback_se3
    else:
        grav = None
        initial = So3RotorState(pi=(0.9, -1.7, 2.3), alpha=0.1, l=0.45)
        lift = lambda u_l: ControlLiftSo3(u_pi=(0.01, -0.02, 0.03), u_alpha=0.2, u_l=u_l)  # noqa: E731
        law = _feedback_so3
    laws = {
        "zero": ZeroControl(),
        "constant": ConstantControl(lift(-0.05)),
        "negative_zero_u_l": ConstantControl(lift(-0.0)),
        "feedback": FeedbackControl(law),
    }
    return params, grav, initial, laws[control]


@pytest.mark.parametrize("control", ["zero", "constant", "negative_zero_u_l", "feedback"])
@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("kind", ["so3", "se3"])
def test_integrate_equals_the_ndarray_formulas(kind, method, control):
    # Every state of a 250-step run equals the reference step repeated on
    # the public field, bit for bit.
    params, grav, initial, law = _path_case(kind, control)
    dt, n = 0.003, 250
    traj = integrate(
        ModelKind(kind), params, initial, grav=grav, control=law,
        dt=dt, t_end=n * dt, sample_every=1, method=method,
    )
    assert traj.steps == n
    rhs = controlled_rhs(ModelKind(kind), params, grav, law)
    step = _ref_rk4 if method == "rk4" else _ref_midpoint
    y = model_layout(ModelKind(kind)).to_vector(initial)
    expect = [y]
    for _ in range(n):
        y = step(rhs, y, dt)
        expect.append(y)
    assert traj.states.tobytes() == np.array(expect).tobytes()
