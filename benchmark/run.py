"""The gyrostat benchmark: seeded CLI workloads, timed from outside.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload integrate --seed 1 --seconds 30 --trace 0

One process, one client, one thread, closed loop: each job is one
in-process ``gyrostat.cli.main([...])`` call on a config file generated from
``--seed`` (see ``workloads.py``), and the next job starts only after the
previous one returned.  Every job's outputs are checked (``checks.py``);
failures are counted, never dropped.  The workloads hold no input the
program is known to fail on; those are ``workloads.KNOWN_DEFECTS``, run
once per run outside the measurement and reported as ``# known defect``
lines.

``--trace 0`` replays the workload's job cycle for ``--seconds`` and prints
the end-to-end metrics.  ``work_per_s`` counts the workload's unit of
input work: integrator steps on integrate and integrate-dense (steps per
second), audit samples on audit (audit samples per second) and
equilibrium solves on steady.  Every metric is reported on every workload.

``--trace 1`` runs a fixed number of jobs (set by workload and
``--seconds`` only, so the count metrics repeat exactly), each once
untraced and then once with the timing wrappers of ``tracing.py``
installed, and prints the per-layer metrics.  Both runs of a job must
produce the same bytes.

Each human-readable line starts with ``#``; the last line of stdout is
the JSON result.  The metric names and units come from ``BENCHMARK.json``.
Generated configs and outputs go to ``.bench_work/`` in the checkout and
are removed at exit.
"""

from __future__ import annotations

import os

# Before numpy loads: np.linalg.solve (hj) must not start a BLAS pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "gyrostat" / "cli.py").is_file():
    print(f"benchmark: no gyrostat sources under {SRC}; run from a source checkout",
          file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))  # this checkout's gyrostat, never an installed one

import gyrostat.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh-interpreter imports per run, spread evenly over the timed loop so
# they see the same mix of machine states as the jobs.
SETUP_SAMPLES = 12
SETUP_CODE = (
    "import time; t = time.perf_counter(); import gyrostat.cli; "
    "print(repr(time.perf_counter() - t))"
)

# job_ms_tail's percentile per workload, fixed so that a faster program is
# not charged with a higher one.  Each keeps well over ten samples beyond it
# in a 30-second run.  p99 would too on all but audit, but on a shared host
# it tracks interference spikes: its run-to-run spread was 11-26% against
# 6-10% for p95.
TAIL_PERCENTILE = {"integrate": 95, "integrate-dense": 95, "audit": 90, "steady": 95}

# Traced-run jobs per second of --seconds: each job runs twice (untraced,
# then traced), so this is somewhat under half the untraced job rate.
TRACE_JOBS_PER_SECOND = {"integrate": 30, "integrate-dense": 30, "audit": 1.5, "steady": 100}


def _fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    """Python, numpy, CPUs, BLAS and the code identity of this run."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "gyrostat").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import gyrostat.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        _fail(f"fresh import of gyrostat.cli failed:\n{proc.stderr}")
    return float(proc.stdout)


class Runner:
    """Runs one workload's job cycle and keeps every outcome."""

    def __init__(self, main, jobs, workdir: Path):
        self.main = main
        self.jobs = jobs
        self.paths = [checks.JobPaths.in_dir(workdir, k) for k in range(len(jobs))]
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.failed_exit0 = 0  # the program reported success, a check did not
        self.broken = 0
        self.problems = []
        for job, paths in zip(jobs, self.paths):
            paths.config.write_text(job.config_text(), encoding="utf-8")

    def execute(self, k: int, main=None):
        """Run cycle job `k`, check it, and compare it with its first run."""
        job, paths = self.jobs[k], self.paths[k]
        if job.command == "simulate":  # a stale file must not pass the check
            paths.csv.unlink(missing_ok=True)
            paths.summary.unlink(missing_ok=True)
        outcome = checks.check(
            job, paths, checks.run_cli(main or self.main, checks.argv_for(job, paths))
        )
        first = self.first_digest.setdefault(k, outcome.digest)
        if first != outcome.digest:
            outcome.problems.append("outputs differ from this job's first run")
            outcome.broken = True
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.failed_exit0 += outcome.exit_code == 0
            self.broken += outcome.broken
            if len(self.problems) < 5:
                self.problems.append(f"{job.command} job {k}: {'; '.join(outcome.problems)}")
        return outcome

    def workload_digest(self) -> str:
        h = hashlib.sha256()
        for k in range(len(self.jobs)):
            h.update(self.first_digest.get(k, "<not run>").encode())
        return h.hexdigest()


def _percentile(sorted_values: list, p: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_timed(runner: Runner, workload: str, seconds: float, round_len: int) -> tuple:
    """Replay the cycle for `seconds`, in whole rounds; end-to-end metrics.

    The first round is warm-up.  On a shared host, neighbours going idle
    speed a run up in bursts of seconds, and the share of a run they cover
    varies from run to run, so a median over all jobs jumps between the
    slow and the fast state.  The slow, contended state is the steady one.
    Throughput and median latency are therefore computed per round and
    reported at the level nine rounds in ten meet: the 10th percentile of
    per-round rates and the 90th percentile of per-round median latencies.
    The tail is a percentile over all timed jobs.  Set-up time is the 75th
    percentile of fresh imports taken between rounds across the run.
    """
    n_cycle = len(runner.jobs)
    start = time.perf_counter()
    deadline = start + seconds
    ms = []
    job_rates, work_rates, round_p50s, setups = [], [], [], []
    i = 0
    while i < n_cycle or time.perf_counter() < deadline:
        if time.perf_counter() >= start + len(setups) * seconds / SETUP_SAMPLES:
            setups.append(fresh_import_seconds())
        round_ms = []
        passed = work = 0
        for _ in range(round_len):
            job = runner.jobs[i % n_cycle]
            outcome = runner.execute(i % n_cycle)
            i += 1
            round_ms.append(outcome.seconds * 1e3)
            if not outcome.failed:
                passed += 1
                work += job.work
        if i == round_len:
            continue  # warm-up
        round_s = sum(round_ms) / 1e3
        job_rates.append(passed / round_s)
        work_rates.append(work / round_s)
        round_p50s.append(statistics.median(round_ms))
        ms.extend(round_ms)
    while len(setups) < SETUP_SAMPLES:
        setups.append(fresh_import_seconds())
    ms.sort()
    p = TAIL_PERCENTILE[workload]
    tail = _percentile(ms, p)
    beyond = sum(1 for v in ms if v > tail)
    notes = [
        f"# job_ms_tail is p{p} of {len(ms)} timed jobs, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: read it with care)"),
        f"# job_ms_p50 over all timed jobs: {statistics.median(ms)!r} ms",
        f"# failed_frac {runner.failed / runner.attempted!r} ({runner.failed} of "
        f"{runner.attempted} jobs, warm-up included; {runner.failed_exit0} of "
        "them exited 0 and failed an output check)",
    ]
    metrics = {
        "jobs_per_s": _percentile(sorted(job_rates), 10),
        "work_per_s": _percentile(sorted(work_rates), 10),
        "job_ms_p50": _percentile(sorted(round_p50s), 90),
        "job_ms_tail": tail,
        "setup_s": _percentile(sorted(setups), 75),
    }
    return metrics, notes


def run_traced(runner: Runner, workload: str, seconds: float, round_len: int) -> tuple:
    """Each job of a fixed list untraced, then at once traced; layer metrics.

    The list is a whole number of rounds after one warm-up round.  Pairing the two runs of a job cancels drift in machine speed out of
    ``trace.overhead_frac``; the pair must also give the same bytes.
    """
    n_cycle = len(runner.jobs)
    n_jobs = round_len * math.ceil(seconds * TRACE_JOBS_PER_SECOND[workload] / round_len)
    for k in range(round_len):
        runner.execute(k)
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for i in range(n_jobs):
        k = i % n_cycle
        untraced_s += runner.execute(k).seconds
        with tracing.installed(tracer):
            traced_s += runner.execute(k, tracer.wrap(tracing.ROOT_SPAN, runner.main)).seconds
    metrics = tracing.layer_metrics(tracer, traced_s, untraced_s, n_jobs)
    notes = [f"# ran {n_jobs} jobs twice each, untraced then traced"]
    if tracer.missing:
        notes.append("# trace hooks not found, their metrics read 0: " + ", ".join(sorted(tracer.missing)))
    notes.append(
        "# sanity (reference figures in ROADMAP.md: ~3.2 us/rhs, "
        "~39 us/se3 RK4 step, ~14 us/record, ~1.5 us/draw): "
        f"rhs {metrics['dynamics.rhs.us_per_call']:.2f} us, "
        f"RK4 step {_rk4_step_us(tracer):.2f} us, "
        f"record {metrics['model.record.us_per_sample']:.2f} us, "
        f"draw {metrics['rng.ns_per_draw'] / 1e3:.2f} us"
    )
    return metrics, notes


def _rk4_step_us(tracer) -> float:
    calls = tracer.calls("dynamics.step_rk4")
    return tracer.total_ns("dynamics.step_rk4") / calls / 1e3 if calls else 0.0


def probe_known_defects(main, workdir: Path) -> list:
    """Run each known-defect input once, untimed and uncounted; one note each."""
    workdir.mkdir(parents=True, exist_ok=True)
    notes = []
    for k, (what, job) in enumerate(workloads.KNOWN_DEFECTS):
        paths = checks.JobPaths.in_dir(workdir, k)
        paths.config.write_text(job.config_text(), encoding="utf-8")
        outcome = checks.check(job, paths, checks.run_cli(main, checks.argv_for(job, paths)))
        status = ("still fails: " + "; ".join(outcome.problems) if outcome.failed
                  else "no longer fails")
        notes.append(f"# known defect (untimed, not counted): {what}: {status}")
    return notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read {spec_path}: {exc}")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    os.chdir(ROOT)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    jobs = workloads.generate(args.workload, args.seed)
    round_len = workloads.round_length(args.workload)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(gyrostat.cli.main, jobs, workdir.relative_to(ROOT))
        if args.trace:
            metrics, notes = run_traced(runner, args.workload, args.seconds, round_len)
            wanted = spec["per_layer"]
        else:
            metrics, notes = run_timed(runner, args.workload, args.seconds, round_len)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
        notes += probe_known_defects(gyrostat.cli.main, workdir.relative_to(ROOT) / "defects")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for line in notes:
        print(line)
    print(f"# digest {args.workload} seed {args.seed} {runner.workload_digest()}")
    for problem in runner.problems:
        print(f"# failed: {problem}")
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            _fail(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    result = {
        "correct": runner.broken == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
