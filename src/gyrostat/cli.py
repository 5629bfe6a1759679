"""Command-line entry points.

Four subcommands: ``simulate`` integrates a scenario to CSV plus a JSON
summary, ``bracket-audit`` cross-checks the equations of motion against
the bracket oracle, ``hj-check`` evaluates steady-equation residuals, and
``equilibrium`` runs the Newton search.  Exit code 0 means every
configured tolerance was met; 1 flags bad input, 2 a numerical failure or
an exceeded tolerance.  Output is plain text throughout, so NO_COLOR
environments see exactly what everyone else sees.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .audit import bracket_oracle_audit
from .dynamics import IntegrationError, diagnostics, integrate
from .hj import EquilibriumError, _residual, _rule_lift, find_equilibrium
from .model import model_layout
from .scenario import (
    ScenarioError,
    json_text,
    parse_equilibrium_config,
    parse_hj_check_config,
    parse_scenario,
    trajectory_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _json_number(x):
    """`x`, or None where it is None or not finite: JSON has no NaN or
    infinity."""
    return x if x is not None and math.isfinite(x) else None


def cmd_simulate(config_path: str, out_path: str, summary_path: str) -> int:
    scenario = parse_scenario(_read_text(config_path))
    failures = []
    started = time.perf_counter()
    try:
        traj = integrate(
            scenario.model,
            scenario.inertia,
            scenario.initial,
            grav=scenario.gravity,
            control=scenario.control,
            dt=scenario.dt,
            t_end=scenario.t_end,
            sample_every=scenario.sample_every,
            method=scenario.method,
        )
    except IntegrationError as err:
        traj = err.partial
        failures.append({"time": err.time, "error": str(err)})
    wall = time.perf_counter() - started

    _write_text(out_path, trajectory_csv(traj))
    diag = diagnostics(traj)
    summary = {
        "scenario": scenario.echo_dict(),
        "drifts": {
            "energy": {"abs": diag.energy.max_abs, "rel": diag.energy.max_rel},
            "casimirs": [
                {"name": name, "abs": stats.max_abs, "rel": stats.max_rel}
                for name, stats in diag.casimirs.items()
            ],
        },
        "steps": traj.steps,
        "failures": failures,
        "wall_time_s": wall,
    }
    _write_text(summary_path, json_text(summary))

    if failures:
        print(
            f"integration failed at t={failures[0]['time']:g}; "
            f"partial trajectory ({len(traj.times)} samples) written to {out_path}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    print(
        f"wrote {out_path} ({len(traj.times)} samples, {traj.steps} steps); "
        f"energy drift rel {diag.energy.max_rel:.3e}"
    )
    return EXIT_OK


def cmd_bracket_audit(config_path: str, samples: int, seed) -> int:
    scenario = parse_scenario(_read_text(config_path))
    try:
        # The line below reports an overflow; numpy need not warn of it too.
        with np.errstate(over="ignore"):
            report = bracket_oracle_audit(
                scenario.model,
                scenario.inertia,
                grav=scenario.gravity,
                samples=samples,
                seed=scenario.seed if seed is None else seed,
            )
    except ValueError as err:
        # The inputs were checked on parsing: this is the oracle's energy
        # overflowing at its probes, e.g. on a tiny locked moment.
        print(f"bracket audit failed: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(json_text(report), end="")
    return EXIT_OK if report["passed"] else EXIT_TOLERANCE


def cmd_hj_check(config_path: str) -> int:
    cfg = parse_hj_check_config(_read_text(config_path))
    if cfg.gamma is not None:
        gamma = cfg.gamma
        source = "explicit"
    else:
        result = find_equilibrium(
            cfg.model,
            cfg.inertia,
            cfg.equilibrium_guess,
            grav=cfg.gravity,
            control=cfg.control,
        )
        gamma = model_layout(cfg.model).to_vector(result.state)
        source = "equilibrium"

    lift = _rule_lift(cfg.lift, cfg.model, gamma, cfg.inertia, cfg.gravity)
    residual = _residual(cfg.model, gamma, cfg.inertia, cfg.gravity, lift)
    max_norm = float(np.max(np.abs(residual)))
    passed = max_norm < cfg.tolerance
    report = {
        "model": cfg.model.value,
        "gamma_source": source,
        "gamma": [float(v) for v in gamma],
        "lift_rule": cfg.lift if isinstance(cfg.lift, str) else "given",
        "lift": None if lift is None else [_json_number(float(v)) for v in lift],
        "residual": [_json_number(float(v)) for v in residual],
        "max_norm": _json_number(max_norm),
        "tolerance": cfg.tolerance,
        "passed": passed,
    }
    print(json_text(report), end="")
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_equilibrium(config_path: str) -> int:
    cfg = parse_equilibrium_config(_read_text(config_path))
    try:
        result = find_equilibrium(
            cfg.model,
            cfg.inertia,
            cfg.guess,
            grav=cfg.gravity,
            control=cfg.control,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
        )
    except EquilibriumError as err:
        norm = getattr(err, "residual_norm", None)
        report = {
            "model": cfg.model.value,
            "converged": False,
            "error": str(err),
            "residual_norm": _json_number(norm),
            "iterations": getattr(err, "iterations", None),
        }
        print(json_text(report), end="")
        return EXIT_TOLERANCE
    report = {
        "model": cfg.model.value,
        "converged": True,
        "state": model_layout(cfg.model).to_vector(result.state).tolist(),
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
    }
    print(json_text(report), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; keep 2 for
    numerical failures and report bad invocations as 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_where(ok, rule: str):
    """An argparse type: an int for which `ok` holds, as `rule` says."""

    def parse(text: str) -> int:
        if not ok(n := int(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {n}")
        return n

    parse.__name__ = "int"  # argparse's "invalid int value" on a non-integer
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gyrostat",
        description=(
            "Reduced dynamics of a rigid carrier with an internal rotor: "
            "simulation, bracket audits, steady-motion residual checks, "
            "and equilibrium searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario to CSV")
    p.add_argument("--config", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="trajectory CSV output path")
    p.add_argument("--summary", required=True, help="run summary JSON output path")

    p = sub.add_parser(
        "bracket-audit",
        help="cross-check equations of motion against the bracket oracle",
    )
    p.add_argument("--config", required=True, help="scenario JSON path")
    samples = _int_where(lambda n: n >= 1, ">= 1")
    p.add_argument("--samples", type=samples, default=1000, help="sample count")
    seed = _int_where(lambda n: 0 <= n < 2**64, "in [0, 2**64)")
    p.add_argument("--seed", type=seed, default=None, help="override the scenario seed")

    p = sub.add_parser("hj-check", help="evaluate steady-equation residuals")
    p.add_argument("--config", required=True, help="check config JSON path")

    p = sub.add_parser("equilibrium", help="Newton search for an equilibrium")
    p.add_argument("--config", required=True, help="search config JSON path")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one serves every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.summary)
        if args.command == "bracket-audit":
            return cmd_bracket_audit(args.config, args.samples, args.seed)
        if args.command == "hj-check":
            return cmd_hj_check(args.config)
        if args.command == "equilibrium":
            return cmd_equilibrium(args.config)
    except ScenarioError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"file not found: {err.filename}", file=sys.stderr)
        return EXIT_USAGE
    except EquilibriumError as err:
        print(f"equilibrium search failed: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
