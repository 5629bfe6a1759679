"""Running one CLI job in-process, checking its outputs, and digesting them.

A job *fails* when its exit code is not 0 or an output check fails;
failures are counted, never filtered.  A job is also *broken* when the run
cannot vouch for what it measured: an exception escaped ``main``, or a
replay of the job gave other bytes than its first run.  Only broken jobs
make a run incorrect; a failed check is a finding about the program and
shows in the failure count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from gyrostat.hj import hj_residual_se3, hj_residual_so3
from gyrostat.model import GravityParams, InertiaParams

SO3_HEADER = "t,Pi1,Pi2,Pi3,alpha,l,energy,pi_norm"
SE3_HEADER = "t,Pi1,Pi2,Pi3,Gamma1,Gamma2,Gamma3,alpha,l,energy,pi_dot_gamma,gamma_norm"

# Relative energy drift a simulate job may show.  Both integrators hold the
# (quadratic) energy of these short runs below 1e-13; a wrong RK4 weight
# shows as about 1e-6.
ENERGY_DRIFT_BOUND = 1e-10


@dataclass
class JobPaths:
    config: Path
    csv: Path
    summary: Path

    @classmethod
    def in_dir(cls, workdir: Path, index: int) -> "JobPaths":
        return cls(
            workdir / f"job{index:04d}.json",
            workdir / f"job{index:04d}.csv",
            workdir / f"job{index:04d}.summary.json",
        )


@dataclass
class Outcome:
    exit_code: object  # int, or None when an exception escaped main
    seconds: float
    stdout: str
    stderr: str
    problems: list = field(default_factory=list)
    broken: bool = False  # a crash, or bytes unlike the job's first run
    digest: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def argv_for(job, paths: JobPaths) -> list:
    if job.command == "simulate":
        return ["simulate", "--config", str(paths.config), "--out", str(paths.csv),
                "--summary", str(paths.summary)]
    return [job.command, "--config", str(paths.config)]


def run_cli(main, argv: list) -> Outcome:
    """Call ``main(argv)`` once, timing only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the job boundary: record the crash, keep running
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return Outcome(code, elapsed, out.getvalue(), err.getvalue())


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_simulate(job, paths: JobPaths, outcome: Outcome) -> list:
    cfg = job.config
    integ = cfg["integrator"]
    steps = max(1, int(round(integ["t_end"] / integ["dt"])))
    try:
        rows = paths.csv.read_text(encoding="utf-8").split("\n")
        summary = json.loads(paths.summary.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    header = SO3_HEADER if cfg["model"] == "so3" else SE3_HEADER
    if rows[0] != header:
        problems.append(f"CSV header {rows[0]!r}")
    if rows[-1] != "":
        problems.append("CSV does not end with a newline")
    body = rows[1:-1]
    want_rows = -(-steps // integ["sample_every"]) + 1
    if len(body) != want_rows:
        problems.append(f"CSV has {len(body)} rows, expected {want_rows}")
    width = header.count(",") + 1
    energy_col = header.split(",").index("energy")
    energies = []
    for row in body:
        cells = row.split(",")
        if len(cells) != width or not all(_finite(c) for c in cells):
            problems.append(f"bad CSV row {row[:60]!r}")
            break
        energies.append(float(cells[energy_col]))
    if summary.get("steps") != steps:
        problems.append(f"summary steps {summary.get('steps')!r}, expected {steps}")
    try:
        drift = float(summary["drifts"]["energy"]["rel"])
    except (KeyError, TypeError, ValueError):
        problems.append("summary lacks drifts.energy.rel")
    else:
        if not drift <= ENERGY_DRIFT_BOUND:
            problems.append(f"energy drift {drift:.3e} above {ENERGY_DRIFT_BOUND:g}")
    if energies:
        e0 = energies[0]
        csv_drift = max(abs(e - e0) for e in energies) / max(1.0, abs(e0))
        if not csv_drift <= ENERGY_DRIFT_BOUND:
            problems.append(f"CSV energy drift {csv_drift:.3e} above {ENERGY_DRIFT_BOUND:g}")
    return problems


def _report(outcome: Outcome):
    try:
        return json.loads(outcome.stdout)
    except json.JSONDecodeError:
        return None


def _control_lift(cfg: dict):
    control = cfg.get("control")
    if not control or control.get("kind") != "constant":
        return None
    u = list(control.get("u_pi", [0.0, 0.0, 0.0]))
    if cfg["model"] == "se3":
        u += list(control.get("u_gamma", [0.0, 0.0, 0.0]))
    return np.array(u + [control.get("u_alpha", 0.0), control.get("u_l", 0.0)])


def _check_equilibrium(job, outcome: Outcome) -> list:
    report = _report(outcome)
    if report is None or report.get("converged") is not True:
        return ["no converged report"]
    cfg = job.config
    params = InertiaParams(i_bar=cfg["inertia"]["i_bar"], j3=cfg["inertia"]["j3"])
    lift = _control_lift(cfg)
    state = report["state"]
    if cfg["model"] == "so3":
        residual = hj_residual_so3(state, params, lift)
    else:
        grav = GravityParams(mgh=cfg["gravity"]["mgh"], chi=cfg["gravity"]["chi"])
        residual = hj_residual_se3(state, params, grav, lift)
    worst = float(np.max(np.abs(residual)))
    if not worst < cfg["tol"]:
        return [f"re-checked residual {worst:.3e} not below tol {cfg['tol']:g}"]
    return []


def check(job, paths: JobPaths, outcome: Outcome) -> Outcome:
    """Fill in ``problems``, ``broken`` and ``digest`` of `outcome`."""
    if outcome.exit_code is None:
        outcome.problems.append("exception escaped main: " + outcome.stderr.strip()[-300:])
        outcome.broken = True
    elif outcome.exit_code != 0:
        outcome.problems.append(f"exit code {outcome.exit_code}")
    else:
        if job.command == "simulate":
            outcome.problems += _check_simulate(job, paths, outcome)
        elif job.command == "bracket-audit":
            report = _report(outcome)
            if report is None or report.get("passed") is not True:
                outcome.problems.append("audit report not passed")
            elif report.get("samples") != job.work:
                outcome.problems.append(f"audit ran {report.get('samples')} samples")
        elif job.command == "equilibrium":
            outcome.problems += _check_equilibrium(job, outcome)
    outcome.digest = digest(job, paths, outcome)
    return outcome


def digest(job, paths: JobPaths, outcome: Outcome) -> str:
    """SHA-256 of the exit code, stdout, CSV and summary (less wall_time_s)."""
    h = hashlib.sha256()
    h.update(f"{outcome.exit_code}\n".encode())
    h.update(outcome.stdout.encode())
    if job.command == "simulate":
        for path in (paths.csv, paths.summary):
            try:
                data = path.read_bytes()
            except OSError:
                data = b"<missing>"
            if path is paths.summary and data != b"<missing>":
                try:
                    summary = json.loads(data)
                    summary.pop("wall_time_s", None)
                    data = json.dumps(summary, sort_keys=True).encode()
                except json.JSONDecodeError:
                    pass
            h.update(b"\0" + data)
    return h.hexdigest()
