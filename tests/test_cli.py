import json

import pytest

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

    def test_different_seed_changes_samples(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", SO3_SCENARIO)
        main(["bracket-audit", "--config", cfg, "--samples", "50", "--seed", "1"])
        a = json.loads(capsys.readouterr().out)
        main(["bracket-audit", "--config", cfg, "--samples", "50", "--seed", "2"])
        b = json.loads(capsys.readouterr().out)
        assert a["worst_sample"] != b["worst_sample"]


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
        assert f"argument {option}: " in err.err

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
