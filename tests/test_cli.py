import contextlib
import hashlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gyrostat.cli
from gyrostat.audit import bracket_oracle_audit
from gyrostat.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, build_parser, main

SO3_SCENARIO = {
    "model": "so3",
    "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
    "initial": {"pi": [1.0, 2.0, 3.0], "l": 0.5},
    "integrator": {"dt": 1e-3, "t_end": 0.5},
}

SE3_SCENARIO = {
    "model": "se3",
    "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
    "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
    "initial": {"pi": [1.0, 2.0, 3.0], "gamma": [0.6, 0.0, 0.8], "l": 0.5},
    "integrator": {"dt": 1e-3, "t_end": 0.5},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_simulate(tmp_path, doc, tag=""):
    cfg = write_json(tmp_path / f"cfg{tag}.json", doc)
    out = tmp_path / f"out{tag}.csv"
    summary = tmp_path / f"summary{tag}.json"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--summary", str(summary)]
    )
    return code, out, summary


class TestSimulate:
    def test_so3_run(self, tmp_path, capsys):
        code, out, summary = run_simulate(tmp_path, SO3_SCENARIO)
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t,Pi1")
        assert len(lines) == 1 + 51  # the initial sample plus every tenth step
        doc = json.loads(summary.read_text())
        assert doc["failures"] == []
        assert doc["steps"] == 500
        assert doc["drifts"]["energy"]["rel"] < 1e-10
        names = [c["name"] for c in doc["drifts"]["casimirs"]]
        assert names == ["pi_norm"]
        assert "wrote" in capsys.readouterr().out

    def test_se3_run(self, tmp_path):
        code, out, summary = run_simulate(tmp_path, SE3_SCENARIO)
        assert code == EXIT_OK
        doc = json.loads(summary.read_text())
        names = [c["name"] for c in doc["drifts"]["casimirs"]]
        assert names == ["pi_dot_gamma", "gamma_norm"]
        header = out.read_text().split("\n", 1)[0]
        assert header.startswith("t,Pi1,Pi2,Pi3,Gamma1")

    def test_one_file_for_both_outputs_ends_as_the_summary(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        both = tmp_path / "both.txt"
        code = main(["simulate", "--config", cfg, "--out", str(both), "--summary", str(both)])
        assert code == EXIT_OK
        assert json.loads(both.read_text(encoding="utf-8"))["steps"] == 500

    def test_csv_deterministic(self, tmp_path):
        _, out1, sum1 = run_simulate(tmp_path, SE3_SCENARIO, tag="a")
        _, out2, sum2 = run_simulate(tmp_path, SE3_SCENARIO, tag="b")
        assert out1.read_bytes() == out2.read_bytes()
        d1 = json.loads(sum1.read_text())
        d2 = json.loads(sum2.read_text())
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failure_keeps_partial_output(self, tmp_path, capsys):
        doc = dict(SO3_SCENARIO)
        doc["integrator"] = {"method": "midpoint", "dt": 50.0, "t_end": 5000.0}
        code, out, summary = run_simulate(tmp_path, doc)
        assert code == EXIT_TOLERANCE
        assert out.exists()
        rep = json.loads(summary.read_text())
        assert rep["failures"] and "t=" in capsys.readouterr().err

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"model": "so4"})
        code = main([
            "simulate", "--config", cfg,
            "--out", str(tmp_path / "o.csv"),
            "--summary", str(tmp_path / "s.json"),
        ])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("i_carrier", [[2.5, 1.5, 1.0], [2.5, 1.5, 1.1]])
    def test_raw_moments_are_rejected(self, tmp_path, capsys, i_carrier):
        # The locked moments are the whole inertia input; raw carrier and
        # rotor moments, consistent with them or not, are unknown keys.
        raw = {"i_carrier": i_carrier, "j_rotor_transverse": [0.5, 0.5]}
        inertia = {**SO3_SCENARIO["inertia"], **raw}
        code, out, summary = run_simulate(tmp_path, {**SO3_SCENARIO, "inertia": inertia})
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error: unknown field 'inertia.i_carrier': ")
        assert err.count("\n") == 1
        assert not out.exists() and not summary.exists()

    def test_step_count_overflow_is_usage_error(self, tmp_path, capsys):
        # Both numbers are finite, but t_end / dt is not; this used to end
        # in an OverflowError traceback.
        doc = {**SO3_SCENARIO, "integrator": {"dt": 1e-300, "t_end": 1e10}}
        code, out, summary = run_simulate(tmp_path, doc)
        err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err.out == ""
        assert err.err.startswith("config error: ")
        assert err.err.count("\n") == 1
        assert not out.exists() and not summary.exists()

    def test_step_count_above_the_ceiling_is_usage_error(self, tmp_path, capsys):
        # 1e100 steps: this used to run without end, writing nothing.
        doc = {**SO3_SCENARIO, "integrator": {"dt": 1e-300, "t_end": 1e-200}}
        code, out, summary = run_simulate(tmp_path, doc)
        err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err.out == ""
        assert err.err.startswith("config error: ") and "MAX_STEPS" in err.err
        assert err.err.count("\n") == 1
        assert not out.exists() and not summary.exists()

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "simulate", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o.csv"),
            "--summary", str(tmp_path / "s.json"),
        ])
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err


def _one_line_error(capsys, code, prefix):
    """The CLI exited 1 with one stderr line starting with `prefix`."""
    err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert err.out == ""
    assert err.err.startswith(prefix)
    assert err.err.count("\n") == 1
    return err.err


class TestFileErrors:
    """Config bytes and file paths the CLI cannot use: one line, exit 1.
    Each of these used to end in a traceback."""

    COMMANDS = ["simulate", "bracket-audit", "hj-check", "equilibrium"]

    @staticmethod
    def _argv(command, cfg, tmp_path):
        argv = [command, "--config", str(cfg)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "s.json")]
        return argv

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_not_utf8(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"model": "so3\xff"}')
        code = main(self._argv(command, cfg, tmp_path))
        _one_line_error(capsys, code, "config error: config is not valid UTF-8: ")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_is_a_directory(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.mkdir()
        code = main(self._argv(command, cfg, tmp_path))
        assert str(cfg) in _one_line_error(capsys, code, "file error: ")

    def test_unreadable_config(self, tmp_path, capsys, monkeypatch):
        # Run as root, a chmod 000 file stays readable: deny in open().
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(gyrostat.cli, "open", denied, raising=False)
        code = main(self._argv("simulate", cfg, tmp_path))
        err = _one_line_error(capsys, code, "file error: ")
        assert cfg in err and "Permission denied" in err

    @pytest.mark.parametrize("option", ["--out", "--summary"])
    def test_output_is_a_directory(self, tmp_path, capsys, option):
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        target = tmp_path / "dir"
        target.mkdir()
        argv = self._argv("simulate", cfg, tmp_path)
        argv[argv.index(option) + 1] = str(target)
        code = main(argv)
        assert str(target) in _one_line_error(capsys, code, "file error: ")

    @pytest.mark.parametrize("option", ["--out", "--summary"])
    def test_output_path_is_checked_before_the_run(self, tmp_path, capsys, monkeypatch, option):
        # A run may take up to MAX_STEPS steps: an unusable path fails first.
        runs = []
        monkeypatch.setattr(gyrostat.cli, "integrate", lambda *a, **k: runs.append(a))
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        argv = self._argv("simulate", cfg, tmp_path)
        argv[argv.index(option) + 1] = str(tmp_path)
        code = main(argv)
        assert str(tmp_path) in _one_line_error(capsys, code, "file error: ")
        assert runs == []


    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, '{"model": "so3", "seed": ' + "9" * 5000 + "}"],
        ids=["deep_nesting", "long_integer"],
    )
    def test_json_python_cannot_hold(self, tmp_path, capsys, command, text):
        # json.loads ends in a RecursionError on the nesting and a ValueError
        # on an integer past the int-string limit.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code = main(self._argv(command, cfg, tmp_path))
        err = _one_line_error(capsys, code, "config error: config is not valid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"model": "so3", "seed": 7, "seed": 8}', "seed"),
            ('{"model": "so3", "inertia": {"i_bar": [3, 2, 1], "j3": 1, "j3": 2}}', "j3"),
        ],
        ids=["top_level", "in_a_block"],
    )
    def test_repeated_key(self, tmp_path, capsys, command, text, key):
        # json.loads keeps a repeated key's last value; the first is neither
        # read nor rejected unless the parser says so.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code = main(self._argv(command, cfg, tmp_path))
        err = _one_line_error(capsys, code, f"config error: repeated key '{key}'")
        assert "Traceback" not in err


class TestBracketAudit:
    def test_passes_and_reports(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", SE3_SCENARIO)
        code = main(["bracket-audit", "--config", cfg, "--samples", "200"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["samples"] == 200
        assert rep["max_rel_discrepancy"] < 1e-6

    def test_seed_override_and_determinism(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        main(["bracket-audit", "--config", cfg, "--samples", "100", "--seed", "42"])
        first = capsys.readouterr().out
        main(["bracket-audit", "--config", cfg, "--samples", "100", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["seed"] == 42

    @pytest.mark.parametrize("i1", [1e-308, 5e-324])
    def test_overflowing_energy_is_a_numerical_failure(self, tmp_path, capsys, i1):
        # Pi^2 / i1 overflows at the finite-difference probes of the oracle.
        doc = dict(SO3_SCENARIO, inertia={"i_bar": [i1, 2.0, 1.0], "j3": 1.0})
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main(["bracket-audit", "--config", cfg, "--samples", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_TOLERANCE
        assert captured.out == ""
        assert captured.err.startswith("bracket audit failed: ")
        assert len(captured.err.splitlines()) == 1

    def test_energy_overflowing_both_ways_fails_without_a_warning(self, tmp_path, capsys):
        # Kinetic energy +inf and potential -inf at one probe: their sum is
        # NaN, which the failure line reports; numpy need not warn of it.
        doc = dict(
            SE3_SCENARIO,
            inertia={"i_bar": [1e-308, 2.0, 1.0], "j3": 1.0},
            gravity={"mgh": 1e308, "chi": [0.0, 0.0, 1.0]},
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bracket-audit", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_TOLERANCE
        assert captured.out == ""
        assert captured.err.startswith("bracket audit failed: ")
        assert len(captured.err.splitlines()) == 1

    def test_different_seed_changes_samples(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        main(["bracket-audit", "--config", cfg, "--samples", "50", "--seed", "1"])
        a = json.loads(capsys.readouterr().out)
        main(["bracket-audit", "--config", cfg, "--samples", "50", "--seed", "2"])
        b = json.loads(capsys.readouterr().out)
        assert a["worst_sample"] != b["worst_sample"]


class TestConfigWarning:
    """A renormalized chi is one ``config warning:`` line on stderr, written
    once the config has parsed, and the run is the unit chi's."""

    @staticmethod
    def _audit(tmp_path, chi, **extra):
        doc = dict(SE3_SCENARIO, gravity={"mgh": 2.0, "chi": chi}, **extra)
        cfg = write_json(tmp_path / "cfg.json", doc)
        return main(["bracket-audit", "--config", cfg, "--samples", "50"])

    def test_renormalized_chi_is_one_line(self, tmp_path, capsys):
        assert self._audit(tmp_path, [0.0, 0.0, 1.0]) == EXIT_OK
        unit = capsys.readouterr()
        assert unit.err == ""
        assert self._audit(tmp_path, [0.0, 0.0, 2.0]) == EXIT_OK
        long = capsys.readouterr()
        assert long.err == "config warning: chi norm 2 differs from 1; renormalizing\n"
        assert long.out == unit.out

    def test_one_line_under_the_callers_error_filter(self, tmp_path, capsys):
        # As `python -W error` runs it: the parser's warning is still one
        # line, not a UserWarning traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._audit(tmp_path, [0.0, 0.0, 2.0]) == EXIT_OK
        assert capsys.readouterr().err == "config warning: chi norm 2 differs from 1; renormalizing\n"

    def test_a_failing_config_gives_only_its_error(self, tmp_path, capsys):
        code = self._audit(tmp_path, [0.0, 0.0, 2.0], integrator={"dt": 0.0})
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_overflowing_chi_norm_is_not_a_zero_chi(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self._audit(tmp_path, [1e308, 1e308, 0.0]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("config warning: chi norm 1.41421356237e+308 differs from 1")
        assert err.count("\n") == 1


class TestHjCheck:
    def test_equilibrium_values_pass(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "gamma": [0.0, 0.0, 3.0, 0.0, 1.5],
        })
        code = main(["hj-check", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert rep["passed"] is True and rep["lift_rule"] == "zero"

    def test_generic_values_fail_without_lift(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "gamma": [1.0, 2.0, 3.0, 0.0, 0.5],
        })
        code = main(["hj-check", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_TOLERANCE
        assert rep["passed"] is False

    def test_control_beside_an_explicit_gamma_is_rejected(self, tmp_path, capsys):
        # The residual at an explicit gamma never read the control, so this
        # state, steady only without it, passed with max_norm 0.0.
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3, 2, 1], "j3": 1},
            "gamma": [2, 0, 0, 0, 0],
            "control": {"kind": "constant", "u_alpha": 0.3},
        })
        err = _one_line_error(capsys, main(["hj-check", "--config", cfg]), "config error: ")
        assert "'control'" in err

    def test_failing_search_is_one_stderr_line(self, tmp_path, capsys):
        # There is no state to check, so no report: one line and exit 2,
        # where `equilibrium` on the same guess reports converged: false.
        doc = {"model": "so3", "inertia": {"i_bar": [3, 2, 1], "j3": 1}, "guess": [1, 2, 3, 0, 0.5]}
        cfg = write_json(tmp_path / "cfg.json", dict(doc, gamma="equilibrium"))
        code = main(["hj-check", "--config", cfg])
        err = capsys.readouterr()
        assert code == EXIT_TOLERANCE
        assert err.out == ""
        assert err.err.startswith("equilibrium search failed: damped step failed")
        assert err.err.count("\n") == 1
        assert "Traceback" not in err.err
        search = write_json(tmp_path / "search.json", doc)
        assert main(["equilibrium", "--config", search]) == EXIT_TOLERANCE
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_solve_rule_always_passes(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "se3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "gravity": {"mgh": 2.0},
            "gamma": [1.0, 2.0, 3.0, 0.6, 0.0, 0.8, 0.0, 0.5],
            "lift": "solve",
        })
        code = main(["hj-check", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert rep["max_norm"] == 0.0
        assert rep["lift_rule"] == "solve"

    def test_equilibrium_source(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 2.0},
            "gamma": "equilibrium",
            "guess": [2.0, 1e-3, 1e-3, 0.0, 0.0],
        })
        code = main(["hj-check", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert rep["gamma_source"] == "equilibrium"
        assert rep["passed"] is True

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_numbers_are_written_as_null(self, tmp_path, capsys):
        # The products overflow: the solved lift is infinite, and the
        # residual under it NaN.
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "gamma": [1e200, 1e200, 1e200, 0.0, 0.0],
            "lift": "solve",
        })
        code = main(["hj-check", "--config", cfg])

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        rep = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == EXIT_TOLERANCE
        assert rep["passed"] is False
        assert rep["max_norm"] is None
        assert None in rep["residual"] and None in rep["lift"]
        assert rep["gamma"] == [1e200, 1e200, 1e200, 0.0, 0.0]


class TestEquilibriumCommand:
    def test_converged(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 2.0},
            "guess": [2.0, 1e-3, 1e-3, 0.0, 0.0],
        })
        code = main(["equilibrium", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert rep["converged"] is True
        assert rep["residual_norm"] < 1e-12
        assert isinstance(rep["iterations"], int)

    def test_non_convergence_reported(self, tmp_path, capsys):
        # This guess needs 19 exact Newton steps; a budget of one runs out.
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "se3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
            "guess": [1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.5],
            "max_iter": 1,
        })
        code = main(["equilibrium", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_TOLERANCE
        assert rep["converged"] is False
        assert rep["iterations"] == 1
        assert rep["residual_norm"] > 0

    def test_non_finite_residual_is_a_failure(self, tmp_path, capsys):
        # The field's products overflow at this guess and the residual
        # holds a NaN, which the stop test `norm >= tol` lets through.
        cfg = write_json(tmp_path / "cfg.json", {
            "model": "so3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "guess": [1e155, 2e155, 3.0, 0.0, 0.5],
        })
        code = main(["equilibrium", "--config", cfg])

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        rep = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == EXIT_TOLERANCE
        assert rep["converged"] is False
        assert rep["residual_norm"] is None
        assert rep["iterations"] == 0
        assert "not finite" in rep["error"]


# An upright top above the sleeping threshold: the se3 search borders its
# Newton system with both Casimirs and converges in 3 iterations.
SE3_SLEEPING_TOP = {
    "model": "se3",
    "inertia": {"i_bar": [2.0, 2.0, 1.0], "j3": 1.0},
    "gravity": {"mgh": 1.0, "chi": [0, 0, 1]},
    "guess": [0.001, -0.001, 4.0, 0.001, 0.001, 1.0, 0.0, 0.0],
}
# SHA-256 of the stdout, recorded before the Casimirs were derived from
# the layout's slot pairs.
SE3_SLEEPING_TOP_STDOUT = {
    "equilibrium": "e3868f759ad27dcf0a041e97841f95b136dc074a712a995d585248585fcede8a",
    "hj-check": "8afe33f15f2238ad2b9660d7afa106112aec8f26cd1306cfb45e5b9cda3d1b9d",
}


@pytest.mark.parametrize("command", ["equilibrium", "hj-check"])
def test_se3_bordered_search_is_pinned(tmp_path, capsys, command):
    doc = dict(SE3_SLEEPING_TOP)
    if command == "hj-check":
        doc["gamma"] = "equilibrium"
    code = main([command, "--config", write_json(tmp_path / "cfg.json", doc)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep.get("converged", rep.get("passed")) is True
    assert hashlib.sha256(out.encode()).hexdigest() == SE3_SLEEPING_TOP_STDOUT[command]


class TestNoNumpyWarning:
    """Numbers that overflow in the search's line-search norm or the
    residual's lift give the documented result and no numpy warning on
    stderr, under an error filter too."""

    SO3 = {"model": "so3", "inertia": {"i_bar": [3, 2, 1], "j3": 1}}
    SE3 = {"model": "se3", "inertia": {"i_bar": [3, 2, 1], "j3": 1}, "gravity": {"mgh": 2}}

    @staticmethod
    def _run(tmp_path, capsys, command, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg])
        return code, capsys.readouterr()

    def test_equilibrium_whose_norm_overflows_converges(self, tmp_path, capsys):
        doc = dict(self.SO3, guess=[1e154, 2, 3, 0, 0.5])
        code, out = self._run(tmp_path, capsys, "equilibrium", doc)
        assert code == EXIT_OK
        assert json.loads(out.out)["converged"] is True
        assert out.err == ""

    @pytest.mark.parametrize(
        "model, guess", [("so3", [1e160, 2, 3, 0, 0.5]), ("se3", [1e100, 2, 3, 0, 0, 1, 0, 0.5])]
    )
    def test_equilibrium_whose_norm_overflows_fails(self, tmp_path, capsys, model, guess):
        doc = dict(self.SO3 if model == "so3" else self.SE3, guess=guess)
        code, out = self._run(tmp_path, capsys, "equilibrium", doc)
        assert code == EXIT_TOLERANCE
        assert json.loads(out.out)["converged"] is False
        assert out.err == ""

    def test_hj_check_whose_solved_lift_overflows(self, tmp_path, capsys):
        doc = dict(self.SO3, gamma=[1e200, 1e200, 1e200, 0, 1e200], lift="solve")
        code, out = self._run(tmp_path, capsys, "hj-check", doc)
        assert code == EXIT_TOLERANCE
        assert json.loads(out.out)["passed"] is False
        assert out.err == ""

    def test_hj_check_whose_search_fails_is_its_one_line(self, tmp_path, capsys):
        doc = dict(self.SO3, gamma="equilibrium", guess=[1e160, 2, 3, 0, 0.5])
        code, out = self._run(tmp_path, capsys, "hj-check", doc)
        assert code == EXIT_TOLERANCE
        assert out.out == ""
        assert out.err.startswith("equilibrium search failed: ")
        assert out.err.count("\n") == 1


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity; a config must not."""

    EQUILIBRIUM = {
        "model": "so3",
        "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "guess": [0.3, 1.0, 0.2, 0.0, 0.5],
    }
    HJ_CHECK = {
        "model": "so3",
        "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
        "gamma": [0.3, 1.0, 0.2, 0.0, 0.5],
    }

    @staticmethod
    def _rejected(capsys, code, field):
        err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert err.out == ""
        assert f"config error: field '{field}' must be a finite number" in err.err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_equilibrium_tol(self, tmp_path, capsys, value):
        # A NaN or infinite tol used to report convergence at the guess.
        cfg = write_json(tmp_path / "cfg.json", {**self.EQUILIBRIUM, "tol": value})
        self._rejected(capsys, main(["equilibrium", "--config", cfg]), "tol")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_hj_check_tolerance(self, tmp_path, capsys, value):
        # Infinity used to pass any residual; NaN wrote non-JSON.
        cfg = write_json(tmp_path / "cfg.json", {**self.HJ_CHECK, "tolerance": value})
        self._rejected(capsys, main(["hj-check", "--config", cfg]), "tolerance")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_simulate_rotor_moment(self, tmp_path, capsys, value):
        doc = {**SO3_SCENARIO, "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": value}}
        code, out, summary = run_simulate(tmp_path, doc)
        self._rejected(capsys, code, "inertia.j3")
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("field", ["initial.pi", "integrator.dt", "integrator.t_end", "guess"])
    def test_other_fields(self, tmp_path, capsys, field):
        # These used to escape main as a ValueError or an OverflowError.
        if field == "guess":
            doc = {**self.EQUILIBRIUM, "guess": [0.3, 1.0, 0.2, 0.0, float("inf")]}
            code = main(["equilibrium", "--config", write_json(tmp_path / "c.json", doc)])
        else:
            block, key = field.split(".")
            value = [float("nan"), 2.0, 3.0] if key == "pi" else float("inf")
            doc = {**SO3_SCENARIO, block: {**SO3_SCENARIO[block], key: value}}
            code, _out, _summary = run_simulate(tmp_path, doc)
        self._rejected(capsys, code, field)

    def test_integer_beyond_the_float_range(self, tmp_path, capsys):
        text = json.dumps(self.EQUILIBRIUM).replace('"j3": 1.0', '"j3": 1' + "0" * 400)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        self._rejected(capsys, main(["equilibrium", "--config", str(cfg)]), "inertia.j3")


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hj-check"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "option, value",
        [("--samples", "0"), ("--samples", "-3"), ("--seed", "-1"), ("--seed", str(2**64))],
    )
    def test_bracket_audit_range(self, tmp_path, capsys, option, value):
        # These used to end in a ValueError traceback from the audit.
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        with pytest.raises(SystemExit) as exc:
            main(["bracket-audit", "--config", cfg, option, value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err.startswith("usage: gyrostat bracket-audit")
        # The message is the rule of the routine that uses the value.
        rule = {
            "--samples": "samples must be an integer >= 1",
            "--seed": "seed must be an integer in [0, 2**64)",
        }
        assert err.err.endswith(f"error: argument {option}: {rule[option]}, got {value}\n")

    def test_samples_default_is_the_audits(self, tmp_path):
        default = bracket_oracle_audit.__kwdefaults__["samples"]
        assert build_parser().parse_args(["bracket-audit", "--config", "x"]).samples == default
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["bracket-audit", "--config", cfg]) == EXIT_OK
        assert json.loads(out.getvalue())["samples"] == default

    def test_repeated_calls_match_a_fresh_parser(self, capsys):
        # main keeps one parser for the process; every call must still
        # behave as a freshly built parser does.
        argv = ["bracket-audit", "--samples", "x"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == EXIT_USAGE
        fresh = capsys.readouterr().err
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
            assert capsys.readouterr().err == fresh
        assert "invalid int value" in fresh


# Each command's long options, written out here so that the property below
# checks cli's option table rather than reads it.
OPTIONS = {
    "simulate": ["--config", "--out", "--summary"],
    "bracket-audit": ["--config", "--samples", "--seed"],
    "hj-check": ["--config"],
    "equilibrium": ["--config"],
}
# Forms the parser takes or rejects that the recogniser leaves to it.
ODD_FLAGS = ["--config=x", "--samples=50", "--conf", "--sam", "--s", "-h", "--help", "--"]
ALL_FLAGS = sorted({flag for flags in OPTIONS.values() for flag in flags})
# None names a file in the empty working directory the property runs in,
# so a command that gets as far as its config exits 1 there.
VALUES = ["", "-x", "-5", "--", "0", str(2**64), "x", "7", "50", " 5", "1_0", "a b", "x.json"]


@st.composite
def command_lines(draw):
    """A command with its options in some order, then maybe one flaw: a
    missing, repeated, foreign or odd option, a dropped or a last token
    left out, or any tokens at all."""
    flaws = ["missing", "repeated", "extra", "dropped", "truncated", "tokens"]
    flaw = draw(st.sampled_from([None] * 4 + flaws))
    if flaw == "tokens":
        tokens = [*OPTIONS, "render", *ALL_FLAGS, *ODD_FLAGS, *VALUES]
        return draw(st.lists(st.sampled_from(tokens), max_size=7))
    command = draw(st.sampled_from(sorted(OPTIONS)))
    flags = draw(st.permutations(OPTIONS[command]))
    if flaw == "missing":
        flags = flags[: draw(st.integers(0, len(flags) - 1))]
    elif flaw == "extra":
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(ALL_FLAGS + ODD_FLAGS)))
    elif flaw == "repeated":
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(flags)))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(VALUES) | st.sampled_from(["7", "x.json"]))]
    if flaw == "dropped":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif flaw == "truncated":
        del argv[-1]
    return argv


def _outcome(argv) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("argv"))
        yield


@pytest.mark.usefixtures("empty_dir")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=command_lines())
@example(argv=[])
@example(argv=["-h"])
@example(argv=["bracket-audit", "--config", "x", "--seed"])
@example(argv=["bracket-audit", "--config", "x", "--samples", "-5"])
@example(argv=["bracket-audit", "--config", "x", "--seed", str(2**64)])
@example(argv=["hj-check", "--config", "x", "--config", "y"])
@example(argv=["equilibrium", "--config=x"])
@example(argv=["equilibrium", "--conf", "x"])
@example(argv=["simulate", "--config", "x", "--out", "--", "--summary", "y"])
def test_recogniser_agrees_with_the_parser(argv):
    recognised = gyrostat.cli._recognise(argv)
    if recognised is not None:
        assert vars(recognised) == vars(build_parser().parse_args(argv))
    got = _outcome(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gyrostat.cli, "_recognise", lambda argv: None)
        mp.setattr(gyrostat.cli, "_parser", build_parser)
        assert got == _outcome(argv)


def test_canonical_forms_never_reach_the_parser(tmp_path, capsys, monkeypatch):
    def no_parser():
        raise AssertionError("a canonical command line reached argparse")

    monkeypatch.setattr(gyrostat.cli, "_parser", no_parser)
    scenario = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
    configs = Path(__file__).resolve().parent.parent / "configs"
    out, summary = str(tmp_path / "out.csv"), str(tmp_path / "summary.json")
    for argv in (
        ["simulate", "--config", scenario, "--out", out, "--summary", summary],
        ["simulate", "--summary", summary, "--config", scenario, "--out", out],
        ["bracket-audit", "--config", scenario],
        ["bracket-audit", "--seed", "7", "--config", scenario, "--samples", "50"],
        ["hj-check", "--config", str(configs / "hj_check_axis_spin.json")],
        ["equilibrium", "--config", str(configs / "equilibrium_axis_spin.json")],
    ):
        assert main(argv) == EXIT_OK, argv
