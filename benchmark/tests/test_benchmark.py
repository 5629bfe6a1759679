"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest benchmark/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (first: it puts this checkout's src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from gyrostat.cli import main as cli_main  # noqa: E402


def _runner(tmp_path, workload, seed=1, rounds=None):
    jobs = workloads.generate(workload, seed)
    if rounds is not None:
        jobs = jobs[: rounds * workloads.round_length(workload)]
    tmp_path.mkdir(parents=True, exist_ok=True)
    return run.Runner(cli_main, jobs, tmp_path)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    texts = [job.config_text() for job in workloads.generate(workload, 7)]
    again = [job.config_text() for job in workloads.generate(workload, 7)]
    other = [job.config_text() for job in workloads.generate(workload, 8)]
    assert texts == again
    assert texts != other
    kinds = [(job.command, sorted(job.config)) for job in workloads.generate(workload, 8)]
    assert kinds == [(job.command, sorted(job.config)) for job in workloads.generate(workload, 7)]


def test_benchmark_json_matches_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])


def test_clean_simulate_job_passes(tmp_path):
    runner = _runner(tmp_path, "integrate", rounds=1)
    for k in range(len(runner.jobs)):
        outcome = runner.execute(k)
        assert not outcome.failed, outcome.problems
    assert runner.failed == 0


def _flipping(replace):
    def main(argv):
        code = cli_main(argv)
        csv = Path(argv[argv.index("--out") + 1])
        text = csv.read_text()
        cut = text.index("\n") + 5  # a digit inside the first data row
        csv.write_text(text[:cut] + replace(text[cut]) + text[cut + 1:])
        return code

    return main


def test_flipped_csv_digit_breaks_the_repeat(tmp_path):
    runner = _runner(tmp_path, "integrate", rounds=1)
    assert not runner.execute(0).failed
    outcome = runner.execute(0, _flipping(lambda c: "7" if c != "7" else "3"))
    assert outcome.failed and outcome.broken
    assert runner.failed == 1 and runner.broken == 1


def test_flipped_csv_byte_fails_the_format_check(tmp_path):
    runner = _runner(tmp_path, "integrate", rounds=1)
    outcome = runner.execute(0, _flipping(lambda c: "x"))
    assert outcome.failed and not outcome.broken
    assert any("bad CSV row" in p for p in outcome.problems)
    assert runner.failed == runner.failed_exit0 == 1


def test_nonzero_exit_counts_as_failed(tmp_path):
    runner = _runner(tmp_path, "integrate", rounds=1)
    outcome = runner.execute(1, lambda argv: 2)
    assert outcome.failed and not outcome.broken
    assert runner.failed == 1 and runner.failed_exit0 == 0 and runner.broken == 0


def test_steady_round_passes(tmp_path):
    runner = _runner(tmp_path, "steady", rounds=1)
    for k in range(len(runner.jobs)):
        runner.execute(k)
    assert runner.failed == runner.broken == 0, runner.problems


def test_known_defects_are_probed_and_counted_as_failed(tmp_path):
    notes = run.probe_known_defects(cli_main, tmp_path)
    assert len(notes) == len(workloads.KNOWN_DEFECTS)
    # Until hj-check applies the control lift, its probes fail with exit 2.
    for (what, job), note in zip(workloads.KNOWN_DEFECTS, notes):
        if job.command == "hj-check":
            assert "still fails: exit code 2" in note, note


def test_equilibrium_state_is_rechecked(tmp_path):
    runner = _runner(tmp_path, "steady", rounds=1)
    k = next(k for k, job in enumerate(runner.jobs) if job.command == "equilibrium")
    guess = runner.jobs[k].config["guess"]  # not an equilibrium

    def claims_convergence(argv):
        print(json.dumps({"converged": True, "state": guess}))
        return 0

    outcome = runner.execute(k, claims_convergence)
    assert outcome.failed and not outcome.broken
    assert any("re-checked residual" in p for p in outcome.problems)


def test_exception_in_main_breaks_the_run(tmp_path):
    def crashing(argv):
        raise AttributeError("stray")

    runner = _runner(tmp_path, "steady", rounds=1)
    outcome = runner.execute(0, crashing)
    assert outcome.failed and outcome.broken


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_counts_repeat_exactly(tmp_path, workload):
    round_len = workloads.round_length(workload)
    first, _ = run.run_traced(_runner(tmp_path / "a", workload), workload, 0.1, round_len)
    second, _ = run.run_traced(_runner(tmp_path / "b", workload), workload, 0.1, round_len)
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(first) == sorted(m["name"] for m in spec["per_layer"])
    layers = sum(first[f"layer.{layer}.self_frac"] for layer in tracing.LAYERS)
    assert layers + first["trace.unattributed_frac"] == pytest.approx(1.0)


def test_trace_hooks_are_removed_afterwards():
    import gyrostat.dynamics

    before = gyrostat.dynamics.step_rk4
    with tracing.installed(tracing.Tracer()):
        assert gyrostat.dynamics.step_rk4 is not before
    assert gyrostat.dynamics.step_rk4 is before


def _result_and_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_run_records_environment_and_repeats_its_digest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = []
    for _ in range(2):
        result, lines = _result_and_lines(
            _bench("--workload", "steady", "--seed", "3", "--seconds", "0.5", "--trace", "0")
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
        env = json.loads(next(l for l in lines if l.startswith("# env "))[len("# env "):])
        assert {"python", "numpy", "nproc", "blas", "blas_threads", "commit"} <= set(env)
        assert set(env["blas_threads"].values()) == {"1"}
        digests.append(next(l for l in lines if l.startswith("# digest ")))
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "integrate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
