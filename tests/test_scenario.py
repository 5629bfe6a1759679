import dataclasses
import json

import numpy as np
import pytest

from gyrostat.dynamics import ConstantControl, ZeroControl, integrate
from gyrostat.model import ModelKind, So3RotorState
from gyrostat.scenario import (
    ScenarioError,
    format_float,
    json_text,
    parse_equilibrium_config,
    parse_hj_check_config,
    parse_scenario,
    trajectory_csv,
)

SO3_CSV_HEADER = "t,Pi1,Pi2,Pi3,alpha,l,energy,pi_norm"
SE3_CSV_HEADER = (
    "t,Pi1,Pi2,Pi3,Gamma1,Gamma2,Gamma3,alpha,l,energy,pi_dot_gamma,gamma_norm"
)

SO3_MINIMAL = {
    "model": "so3",
    "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
    "initial": {"pi": [1.0, 2.0, 3.0]},
}

SE3_FULL = {
    "model": "se3",
    "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
    "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
    "initial": {"pi": [1.0, 2.0, 3.0], "gamma": [0.6, 0.0, 0.8], "l": 0.5},
    "control": {"kind": "constant", "u_alpha": 0.25},
    "integrator": {"method": "midpoint", "dt": 2e-3, "t_end": 0.5,
                   "sample_every": 5},
    "seed": 7,
}


def scen(doc):
    return parse_scenario(json.dumps(doc))


class TestParseScenario:
    def test_minimal_defaults(self):
        s = scen(SO3_MINIMAL)
        assert s.model == ModelKind.SO3
        assert np.array_equal(s.inertia.i_bar, (3.0, 2.0, 1.0))
        assert s.initial.alpha == 0.0 and s.initial.l == 0.0
        assert isinstance(s.control, ZeroControl)
        assert s.method == "rk4"
        assert s.dt == 1e-3 and s.t_end == 1.0 and s.sample_every == 10
        assert s.seed == 42
        assert s.gravity is None

    def test_full_se3(self):
        s = scen(SE3_FULL)
        assert s.model == ModelKind.SE3
        assert s.gravity.mgh == 2.0
        assert np.array_equal(s.initial.gamma, [0.6, 0.0, 0.8])
        assert isinstance(s.control, ConstantControl)
        assert s.control.lift.u_alpha == 0.25
        assert s.method == "midpoint" and s.seed == 7

    def test_gravity_as_product(self):
        doc = dict(SE3_FULL)
        doc["gravity"] = {"m": 2.0, "g": 0.5, "h": 2.0, "chi": [0, 0, 1]}
        assert scen(doc).gravity.mgh == 2.0

    def test_unknown_model_names_alternatives(self):
        doc = dict(SO3_MINIMAL, model="so4")
        with pytest.raises(ScenarioError, match="so3"):
            scen(doc)

    def test_gravity_on_so3_rejected(self):
        doc = dict(SO3_MINIMAL)
        doc["gravity"] = {"mgh": 1.0}
        with pytest.raises(ScenarioError, match="se3"):
            scen(doc)

    def test_se3_without_gravity_rejected(self):
        doc = {k: v for k, v in SE3_FULL.items() if k != "gravity"}
        with pytest.raises(ScenarioError, match="gravity"):
            scen(doc)

    def test_se3_without_gamma_rejected(self):
        doc = dict(SE3_FULL)
        doc["initial"] = {"pi": [1.0, 2.0, 3.0]}
        with pytest.raises(ScenarioError, match="gamma"):
            scen(doc)

    def test_gamma_on_so3_rejected(self):
        doc = dict(SO3_MINIMAL)
        doc["initial"] = {"pi": [1, 2, 3], "gamma": [0, 0, 1]}
        with pytest.raises(ScenarioError, match="gamma"):
            scen(doc)

    def test_missing_inertia(self):
        with pytest.raises(ScenarioError, match="inertia"):
            scen({"model": "so3", "initial": {"pi": [1, 2, 3]}})

    def test_bad_dt(self):
        doc = dict(SO3_MINIMAL)
        doc["integrator"] = {"dt": 0.0}
        with pytest.raises(ScenarioError, match="dt"):
            scen(doc)

    def test_step_count_above_the_ceiling(self):
        doc = dict(SO3_MINIMAL)
        doc["integrator"] = {"dt": 1e-300, "t_end": 1e-200}
        with pytest.raises(ScenarioError, match="MAX_STEPS") as exc:
            scen(doc)
        assert exc.value.field == "integrator"

    def test_bad_sample_every(self):
        doc = dict(SO3_MINIMAL)
        doc["integrator"] = {"sample_every": 0}
        with pytest.raises(ScenarioError):
            scen(doc)

    def test_bad_method(self):
        doc = dict(SO3_MINIMAL)
        doc["integrator"] = {"method": "euler"}
        with pytest.raises(ScenarioError, match="rk4"):
            scen(doc)

    def test_bad_control_kind(self):
        doc = dict(SO3_MINIMAL)
        doc["control"] = {"kind": "pid"}
        with pytest.raises(ScenarioError, match="constant"):
            scen(doc)

    def test_u_gamma_on_so3_rejected(self):
        doc = dict(SO3_MINIMAL)
        doc["control"] = {"kind": "constant", "u_gamma": [1, 0, 0]}
        with pytest.raises(ScenarioError, match="u_gamma"):
            scen(doc)

    def test_negative_seed_rejected(self):
        doc = dict(SO3_MINIMAL, seed=-1)
        with pytest.raises(ScenarioError, match="seed"):
            scen(doc)

    def test_non_object_document(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[]")

    def test_invalid_json(self):
        with pytest.raises(ScenarioError):
            parse_scenario("{not json")

    def test_echo_dict_is_serializable(self):
        s = scen(SE3_FULL)
        text = json.dumps(s.echo_dict())
        assert '"se3"' in text

    def test_echo_dict_constant_control_none_is_zero(self):
        # integrate takes ConstantControl(None) as no control; echo it so.
        s = dataclasses.replace(scen(SO3_MINIMAL), control=ConstantControl(None))
        assert s.echo_dict()["control"] == {"kind": "zero"}


class TestHjCheckConfig:
    def test_explicit_gamma(self):
        cfg = parse_hj_check_config(json.dumps({
            "model": "so3",
            "inertia": {"i_bar": [3, 2, 1], "j3": 1},
            "gamma": [0.0, 0.0, 3.0, 0.0, 1.5],
        }))
        assert np.array_equal(cfg.gamma, [0, 0, 3, 0, 1.5])
        assert cfg.lift == "zero"
        assert cfg.tolerance == 1e-10

    def test_equilibrium_mode(self):
        cfg = parse_hj_check_config(json.dumps({
            "model": "so3",
            "inertia": {"i_bar": [3, 2, 1], "j3": 2},
            "gamma": "equilibrium",
            "guess": [2.0, 1e-3, 1e-3, 0.0, 0.0],
        }))
        assert cfg.gamma is None
        assert isinstance(cfg.equilibrium_guess, So3RotorState)

    def test_lift_array(self):
        cfg = parse_hj_check_config(json.dumps({
            "model": "so3",
            "inertia": {"i_bar": [3, 2, 1], "j3": 1},
            "gamma": [1, 2, 3, 0, 0.5],
            "lift": [0, 0, 0, 2.0, 0],
        }))
        assert cfg.lift[3] == 2.0

    def test_bad_lift(self):
        with pytest.raises(ScenarioError, match="lift"):
            parse_hj_check_config(json.dumps({
                "model": "so3",
                "inertia": {"i_bar": [3, 2, 1], "j3": 1},
                "gamma": [1, 2, 3, 0, 0.5],
                "lift": "exact",
            }))

    def test_gamma_length_checked(self):
        with pytest.raises(ScenarioError, match="gamma"):
            parse_hj_check_config(json.dumps({
                "model": "se3",
                "inertia": {"i_bar": [3, 2, 1], "j3": 1},
                "gravity": {"mgh": 2.0},
                "gamma": [1, 2, 3, 0, 0.5],
            }))


class TestEquilibriumConfig:
    def test_defaults(self):
        cfg = parse_equilibrium_config(json.dumps({
            "model": "so3",
            "inertia": {"i_bar": [3, 2, 1], "j3": 2},
            "guess": [2.0, 1e-3, 1e-3, 0.0, 0.0],
        }))
        assert cfg.tol == 1e-12
        assert cfg.max_iter == 100
        assert isinstance(cfg.guess, So3RotorState)

    def test_guess_required(self):
        with pytest.raises(ScenarioError, match="guess"):
            parse_equilibrium_config(json.dumps({
                "model": "so3",
                "inertia": {"i_bar": [3, 2, 1], "j3": 1},
            }))


class TestSerialization:
    def test_format_float_round_trips(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1e6, 1e6, 200):
            assert float(format_float(float(x))) == float(x)
        assert float(format_float(0.1)) == 0.1
        assert format_float(1.0) == "1"

    def test_csv_headers(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=0.01
        )
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == SO3_CSV_HEADER
        assert len(lines) == 1 + len(traj.times)
        assert SO3_CSV_HEADER.count(",") == 7
        assert SE3_CSV_HEADER.count(",") == 11

    def test_csv_reserialization_is_identical(self, std_params, std_so3_state):
        traj = integrate(
            ModelKind.SO3, std_params, std_so3_state, dt=1e-3, t_end=0.05
        )
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        rebuilt = [lines[0]]
        for line in lines[1:]:
            rebuilt.append(
                ",".join(format_float(float(tok)) for tok in line.split(","))
            )
        assert "\n".join(rebuilt) + "\n" == text

    def test_json_text_sorted_and_newline_terminated(self):
        text = json_text({"b": 1, "a": [1.5, None, True]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text) == {"b": 1, "a": [1.5, None, True]}
