import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat import dynamics
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

    def test_explicit_zero_control(self):
        assert isinstance(scen(dict(SE3_FULL, control={"kind": "zero"})).control, ZeroControl)

    @pytest.mark.parametrize(
        "block, value, field",
        [
            # InertiaParams holds the rules for the moments.
            ("inertia", {"i_bar": [3.0, 2.0, 1.0], "j3": 0.0}, "inertia"),
            ("gravity", {"m": 2.0, "g": 0.5, "chi": [0, 0, 1]}, "gravity"),
            ("gravity", {"chi": [0, 0, 1]}, "gravity"),
            ("control", "constant", "control"),
            ("control", [{"kind": "zero"}], "control"),
            # Lift entries need "kind": "constant"; a zero block that names
            # one, with or without its kind, is an error on that entry.
            ("control", {"u_alpha": 0.3}, "control.u_alpha"),
            ("control", {"kind": "zero", "u_l": 0.1}, "control.u_l"),
            ("control", {"u_alpha": "not a number"}, "control.u_alpha"),
            ("control", {"kind": "zero", "u_pi": [0.1, 0.0, 0.0]}, "control.u_pi"),
            ("control", {"u_gamma": [0.1, 0.0, 0.0]}, "control.u_gamma"),
            # Gravity is mgh or the factors m, g, h, never both.
            ("gravity", {"mgh": 2.0, "m": "abc", "g": None, "h": [1]}, "gravity"),
            # A key no block reads, raw moments and typos included, is an
            # error on that key.
            (
                "inertia",
                {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0,
                 "i_carrier": [2.5, 1.5, 1.0], "j_rotor_transverse": [0.5, 0.5]},
                "inertia.i_carrier",
            ),
            ("control", {"kind": "constant", "u_alfa": 0.3}, "control.u_alfa"),
            ("initial", {"pi": [1, 2, 3], "gamma": [0, 0, 1], "l0": 0.5}, "initial.l0"),
            ("gravity", {"mgh": 2.0, "chi": [0, 0, 1], "note": "x"}, "gravity.note"),
            ("integrator", {"dt": 1e-3, "steps": 10}, "integrator.steps"),
            ("comment", "spin about axis 3", "comment"),
            # null is a value, never an absent entry.
            ("control", {"kind": "constant", "u_pi": None}, "control.u_pi"),
            ("control", {"kind": "constant", "u_gamma": None}, "control.u_gamma"),
            ("gravity", {"mgh": 2.0, "chi": None}, "gravity.chi"),
            ("control", None, "control"),
        ],
    )
    def test_malformed_block_rejected(self, block, value, field):
        with pytest.raises(ScenarioError) as exc:
            scen(dict(SE3_FULL, **{block: value}))
        assert exc.value.field == field

    def test_unknown_model_names_alternatives(self):
        doc = dict(SO3_MINIMAL, model="so4")
        with pytest.raises(ScenarioError, match="so3"):
            scen(doc)

    def test_gravity_on_so3_rejected(self):
        # "gravity": null too: null is never an absent entry.
        for gravity in ({"mgh": 1.0}, None):
            with pytest.raises(ScenarioError, match="se3") as exc:
                scen(dict(SO3_MINIMAL, gravity=gravity))
            assert exc.value.field == "gravity"

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

    def test_step_ceiling_is_read_when_parsing(self, monkeypatch):
        # The parser asks integrate's rule, so a lowered ceiling holds for
        # both: a config it accepts is one integrate runs.
        monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
        doc = dict(SO3_MINIMAL, integrator={"dt": 1e-3, "t_end": 2.0})
        assert scen(doc).t_end == 2.0
        doc["integrator"] = {"dt": 1e-3, "t_end": 2.001}
        with pytest.raises(ScenarioError, match="MAX_STEPS = 2000") as exc:
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
        # With or without "kind": "constant"; a zero block drops no entry.
        for control in ({"kind": "constant", "u_gamma": [1, 0, 0]}, {"u_gamma": [1, 0, 0]}):
            with pytest.raises(ScenarioError, match="u_gamma") as exc:
                scen(dict(SO3_MINIMAL, control=control))
            assert exc.value.field == "control.u_gamma"

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

    @pytest.mark.parametrize("tolerance", [0.0, -0.0, -1e-10])
    def test_tolerance_must_be_positive(self, tolerance):
        with pytest.raises(ScenarioError, match="must be positive") as exc:
            parse_hj_check_config(json.dumps({
                "model": "so3",
                "inertia": {"i_bar": [3, 2, 1], "j3": 1},
                "gamma": [1, 2, 3, 0, 0.5],
                "tolerance": tolerance,
            }))
        assert exc.value.field == "tolerance"

    def test_gamma_length_checked(self):
        with pytest.raises(ScenarioError, match="gamma"):
            parse_hj_check_config(json.dumps({
                "model": "se3",
                "inertia": {"i_bar": [3, 2, 1], "j3": 1},
                "gravity": {"mgh": 2.0},
                "gamma": [1, 2, 3, 0, 0.5],
            }))


@pytest.mark.parametrize(
    "parse, extra, field",
    [
        # A setting of the other command, and a typo, each ran with the default.
        (parse_equilibrium_config, {"tolerance": 1e-3}, "tolerance"),
        (parse_equilibrium_config, {"max_iters": 1}, "max_iters"),
        (parse_hj_check_config, {"tol": 1e-3}, "tol"),
        (parse_hj_check_config, {"control": {"kind": "constant", "u_alfa": 0.3}}, "control.u_alfa"),
        # A guess, and a control, are read only by the search that gamma
        # "equilibrium" runs.
        (parse_hj_check_config, {"guess": [2.0, 1e-3, 1e-3, 0.0, 0.0]}, "guess"),
        (parse_equilibrium_config, {"control": None}, "control"),
        (parse_hj_check_config, {"control": {"kind": "constant", "u_alpha": 0.3}}, "control"),
        (parse_hj_check_config, {"control": {"kind": "zero"}}, "control"),
    ],
)
def test_unread_check_and_search_key_rejected(parse, extra, field):
    base = {"model": "so3", "inertia": {"i_bar": [3, 2, 1], "j3": 2}}
    if parse is parse_hj_check_config:
        base["gamma"] = [2.0, 0.0, 0.0, 0.0, 0.0]
    else:
        base["guess"] = [2.0, 1e-3, 1e-3, 0.0, 0.0]
    assert parse(json.dumps(base)) is not None
    with pytest.raises(ScenarioError) as exc:
        parse(json.dumps({**base, **extra}))
    assert exc.value.field == field


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_key_lists() -> dict:
    """{(command, block): (keys, se3-only keys)} read from the README's
    "`<block>` takes `a`, `b` and, for `se3`, `c`" sentences, block None
    for "The top level takes ...", command the first one its config
    section names."""
    text = README.read_text(encoding="utf-8")
    lists = {}
    for section in re.findall(r"^### .*?(?=^##)", text, re.M | re.S):
        command = section.split("`")[1]
        for m in re.finditer(r"(?:The top level|`(\w+)`)\s+takes\s(.*?)[;.]", section, re.S):
            assert (command, m.group(1)) not in lists, m.group(0)
            both, _, se3 = m.group(2).partition("for `se3`,")
            lists[command, m.group(1)] = (re.findall(r"`(\w+)`", both), re.findall(r"`(\w+)`", se3))
    return lists


PARSERS = {
    "simulate": parse_scenario,
    "hj-check": parse_hj_check_config,
    "equilibrium": parse_equilibrium_config,
}


def _config_with_every_block(command: str, model: str) -> dict:
    doc = {"model": model, "inertia": {"i_bar": [3, 2, 1], "j3": 1}}
    doc["control"] = {"kind": "constant"}
    if model == "se3":
        doc["gravity"] = {"mgh": 2.0}
    if command == "simulate":
        doc["initial"] = {"pi": [1, 2, 3]}
        if model == "se3":
            doc["initial"]["gamma"] = [0, 0, 1]
        doc["integrator"] = {}
    else:
        doc["guess"] = [1.0] * (5 if model == "so3" else 8)
    if command == "hj-check":
        doc["gamma"] = "equilibrium"
    return doc


@pytest.mark.parametrize("model", ["so3", "se3"])
@pytest.mark.parametrize("command", sorted(PARSERS))
def test_readme_key_lists_are_the_parsers(command, model):
    # The README names the keys each block takes, and so does the parser
    # when it rejects an unknown one.  The check and search configs' blocks
    # take the scenario config's keys.
    parse, doc = PARSERS[command], _config_with_every_block(command, model)
    assert parse(json.dumps(doc)) is not None
    readme = _readme_key_lists()
    for block in [None, *(key for key, value in doc.items() if isinstance(value, dict))]:
        wrong = copy.deepcopy(doc)
        (wrong if block is None else wrong[block])["zz"] = 0
        with pytest.raises(ScenarioError, match="unknown field") as exc:
            parse(json.dumps(wrong))
        listed = str(exc.value).split(" takes ")[1].split(", ")
        both, se3 = readme[command if block is None else "simulate", block]
        assert sorted(listed) == sorted(both + (se3 if model == "se3" else [])), block


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


# JSON trees with the values a report can hold and the awkward ones json
# spells its own way: NaN, infinities, -0.0, subnormals, numpy.float64,
# big ints, non-ASCII text and control characters, empty containers.
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308])
    | st.text()
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_TREES)
def test_json_text_is_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value", [np.int64(3), np.bool_(True), {1.5}, b"bytes"], ids=repr
)
def test_json_text_rejects_what_json_dumps_rejects(value):
    for obj in (value, [value], {"key": value}):
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            json_text(obj)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)], ids=repr)
def test_json_text_takes_only_str_keys(key):
    with pytest.raises(TypeError):
        json_text({key: 0})
