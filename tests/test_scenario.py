import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat import dynamics, scenario
from gyrostat.audit import bracket_oracle_audit
from gyrostat.dynamics import ConstantControl, ControlLiftSo3, FeedbackControl, integrate
from gyrostat.model import ModelKind, So3RotorState
from gyrostat.scenario import (
    ScenarioError,
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
        assert s.control is None
        assert s.echo_dict()["control"] == {"kind": "zero"}
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

    def test_explicit_zero_control(self):
        s = scen(dict(SE3_FULL, control={"kind": "zero"}))
        assert s.control is None
        assert s.echo_dict()["control"] == {"kind": "zero"}

    @pytest.mark.parametrize(
        "block, value, field",
        [
            # InertiaParams and GravityParams hold the rules for the moments,
            # mgh and chi; a gravity block needs mgh.
            ("inertia", {"i_bar": [3.0, 2.0, 1.0], "j3": 0.0}, "inertia"),
            ("gravity", {"mgh": -1.0, "chi": [0, 0, 1]}, "gravity"),
            ("gravity", {"chi": [0, 0, 1]}, "gravity.mgh"),
            ("control", "constant", "control"),
            ("control", [{"kind": "zero"}], "control"),
            # Lift entries need "kind": "constant"; a zero block that names
            # one, with or without its kind, is an error on that entry.
            ("control", {"u_alpha": 0.3}, "control.u_alpha"),
            ("control", {"kind": "zero", "u_l": 0.1}, "control.u_l"),
            ("control", {"u_alpha": "not a number"}, "control.u_alpha"),
            ("control", {"kind": "zero", "u_pi": [0.1, 0.0, 0.0]}, "control.u_pi"),
            ("control", {"u_gamma": [0.1, 0.0, 0.0]}, "control.u_gamma"),
            ("gravity", {"mgh": 2.0, "chi": [0, 0, 1e-9]}, "gravity"),
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
            # The factors m, g, h are no spelling of mgh.
            ("gravity", {"m": 2.0, "g": 0.5, "h": 2.0, "chi": [0, 0, 1]}, "gravity.m"),
            ("gravity", {"mgh": 2.0, "m": 1.0, "g": 1.0, "h": 2.0}, "gravity.m"),
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

    @pytest.mark.parametrize(
        "block, value, field, message",
        [
            ("initial", {"gamma": [0, 0, 1]}, "initial.pi", "missing required field 'pi' in initial"),
            ("initial", {"pi": [1, 2, 3]}, "initial.gamma", "missing required field 'gamma' in initial"),
            ("inertia", {"j3": 1.0}, "inertia.i_bar", "missing required field 'i_bar' in inertia"),
            ("inertia", {"i_bar": [3, 2, 1]}, "inertia.j3", "missing required field 'j3' in inertia"),
            ("gravity", {"chi": [0, 0, 1]}, "gravity.mgh", "missing required field 'mgh' in gravity"),
            # A top-level key keeps its bare name.
            ("inertia", None, "inertia", "missing required field 'inertia' in the scenario"),
            ("model", None, "model", "missing required field 'model' in the scenario"),
        ],
        ids=["initial.pi", "initial.gamma", "inertia.i_bar", "inertia.j3", "gravity.mgh", "inertia", "model"],
    )
    def test_missing_field_names_its_path(self, block, value, field, message):
        doc = dict(SE3_FULL, **{block: value})
        if value is None:
            del doc[block]
        with pytest.raises(ScenarioError) as exc:
            scen(doc)
        assert (exc.value.field, str(exc.value)) == (field, message)

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

    def test_defaults_are_read_when_parsing(self, monkeypatch):
        # The parser asks integrate and the audit for their defaults, so a
        # changed default holds for a config that leaves the key out.
        monkeypatch.setitem(integrate.__kwdefaults__, "dt", 2e-3)
        monkeypatch.setitem(bracket_oracle_audit.__kwdefaults__, "seed", 7)
        scenario = scen(SO3_MINIMAL)
        assert (scenario.dt, scenario.seed) == (2e-3, 7)
        assert scenario.t_end == integrate.__kwdefaults__["t_end"]

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

    @pytest.mark.parametrize(
        "control, echo",
        [
            (None, {"kind": "zero"}),
            (
                ConstantControl(ControlLiftSo3(u_pi=(0.5, 0.0, -0.0), u_alpha=0.25)),
                {"kind": "constant", "u_pi": [0.5, 0.0, -0.0], "u_alpha": 0.25, "u_l": 0.0},
            ),
            (FeedbackControl(lambda state: None), {"kind": "feedback"}),
        ],
        ids=["none", "constant", "feedback"],
    )
    def test_echo_dict_names_the_control_kind(self, control, echo):
        s = dataclasses.replace(scen(SO3_MINIMAL), control=control)
        assert s.echo_dict()["control"] == echo

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_name_no_control_as_none(self, path):
        text = path.read_text()
        doc = json.loads(text)
        if "gamma" in doc:
            control = parse_hj_check_config(text).control
        elif "guess" in doc:
            control = parse_equilibrium_config(text).control
        else:
            control = parse_scenario(text).control
        if doc.get("control", {}).get("kind", "zero") == "zero":
            assert control is None
        else:
            assert isinstance(control, ConstantControl)


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


class TestOneConfigHead:
    """The head every config names first, ``model``, ``inertia`` and
    ``gravity``, is declared once, by the base the three config types
    extend; their fields, constructors and messages are as before."""

    HEAD = ("model", "inertia", "gravity")
    FIELDS = {
        "simulate": (scenario.Scenario, ("initial", "control", "method", "dt", "t_end",
                                         "sample_every", "seed")),
        "hj-check": (scenario.HjCheckConfig, ("gamma", "equilibrium_guess", "control",
                                              "lift", "tolerance")),
        "equilibrium": (scenario.EquilibriumConfig, ("guess", "control", "tol", "max_iter")),
    }
    TAKES = {
        "simulate": "initial, control, integrator, seed",
        "hj-check": "gamma, guess, control, lift, tolerance",
        "equilibrium": "guess, control, tol, max_iter",
    }

    @pytest.mark.parametrize("command", sorted(FIELDS))
    def test_fields_are_the_head_then_the_types_own(self, command):
        cls, own = self.FIELDS[command]
        assert not set(self.HEAD) & set(vars(cls).get("__annotations__", {}))
        assert tuple(f.name for f in dataclasses.fields(cls)) == self.HEAD + own

    @pytest.mark.parametrize("model", ["so3", "se3"])
    @pytest.mark.parametrize("command", sorted(FIELDS))
    def test_positional_init_repr_and_equality(self, command, model):
        cfg = PARSERS[command](json.dumps(_config_with_every_block(command, model)))
        again = type(cfg)(*(getattr(cfg, f.name) for f in dataclasses.fields(cfg)))
        assert repr(again) == repr(cfg)
        assert again == cfg
        assert repr(cfg).startswith(f"{type(cfg).__name__}(model=<ModelKind.")

    @pytest.mark.parametrize("command", sorted(FIELDS))
    def test_unknown_field_message(self, command):
        doc = {**_config_with_every_block(command, "so3"), "zz": 0}
        with pytest.raises(ScenarioError) as exc:
            PARSERS[command](json.dumps(doc))
        takes = f"model, inertia, gravity, {self.TAKES[command]}"
        assert str(exc.value) == f"unknown field 'zz': the config takes {takes}"
        assert exc.value.field == "zz"


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
                ",".join(f"{float(tok):.17g}" for tok in line.split(","))
            )
        assert "\n".join(rebuilt) + "\n" == text

    def test_csv_blocks_render_as_per_row_format(self, std_params, std_grav, std_se3_state):
        # More rows than one formatting block, with hand-built rows of the
        # values whose spellings differ most between formatters.
        traj = integrate(
            ModelKind.SE3, std_params, std_se3_state, grav=std_grav, dt=1e-3, t_end=2.5,
            sample_every=1,
        )
        states = traj.states.copy()
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1.7976931348623157e308]
        for i, v in enumerate(special):
            states[1023 + i, :] = v
            states[2000 + i, i] = v
        traj = dataclasses.replace(traj, states=states)
        assert len(traj.times) > 2 * scenario._CSV_BLOCK_ROWS
        rows = np.column_stack((traj.times, traj.states, traj.energy, traj.casimirs))
        expected = [SE3_CSV_HEADER, *(",".join(f"{v:.17g}" for v in r) for r in rows.tolist())]
        assert trajectory_csv(traj) == "\n".join(expected) + "\n"

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
