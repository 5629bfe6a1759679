"""Command-line entry points.

Four subcommands: ``simulate`` integrates a scenario to CSV plus a JSON
summary, ``bracket-audit`` cross-checks the equations of motion against
the bracket oracle, ``hj-check`` evaluates steady-equation residuals, and
``equilibrium`` runs the Newton search.  Exit code 0 means every
configured tolerance was met; 1 flags bad input, 2 a numerical failure or
an exceeded tolerance.  Output is plain text throughout, so NO_COLOR
environments see exactly what everyone else sees.

One table, ``_COMMANDS``, lists each subcommand's handler and long
options; ``main`` dispatches from it.  argparse is built from it and stays
the parser of record, but a command line in the documented form (a
subcommand, then ``--option value`` pairs of its own options) is read
straight from the table: argparse's parse is a large part of a short
job's fixed cost.  Every other form
(``-h``, ``--option=value``, an abbreviation, a repeated or missing
option, a value starting with ``-``, a value its option's type rejects)
goes to argparse, so its results, messages and exit codes are argparse's.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
import warnings
from typing import Callable, NamedTuple

from .audit import _check_samples, bracket_oracle_audit
from .dynamics import IntegrationError, diagnostics, integrate
from .hj import EquilibriumError, _max_norm, _residual, _rule_lift, find_equilibrium
from .model import model_layout
from .rng import SplitMix64
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


def _read_config(parse, path: str):
    """`parse` of the config at `path`; each warning it gives (a renormalized
    chi) is one ``config warning:`` line, once the config has parsed."""
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as err:
            raise ScenarioError(f"config is not valid UTF-8: {err}") from err
    with warnings.catch_warnings(record=True) as caught:
        # Recorded whatever the caller's filters say, `-W error` included.
        warnings.simplefilter("always")
        cfg = parse(text)
    for w in caught:
        print(f"config warning: {w.message}", file=sys.stderr)
    return cfg


def _json_number(x):
    """`x`, or None where it is None or not finite: JSON has no NaN or
    infinity."""
    return x if x is not None and math.isfinite(x) else None


def _drift(stats) -> dict:
    return {"abs": _json_number(stats.max_abs), "rel": _json_number(stats.max_rel)}


def cmd_simulate(config_path: str, out_path: str, summary_path: str) -> int:
    scenario = _read_config(parse_scenario, config_path)
    # Opened before the run, which may take MAX_STEPS steps, so that a path
    # it cannot write fails first.
    with (
        open(out_path, "w", encoding="utf-8", newline="") as out,
        open(summary_path, "w", encoding="utf-8", newline="") as summary_file,
    ):
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

        # One file named by both options ends as the summary, written last.
        if not os.path.samestat(os.fstat(out.fileno()), os.fstat(summary_file.fileno())):
            out.write(trajectory_csv(traj))
        diag = diagnostics(traj)
        summary = {
            "scenario": scenario.echo_dict(),
            "drifts": {
                "energy": _drift(diag.energy),
                "casimirs": [
                    {"name": name, **_drift(stats)} for name, stats in diag.casimirs.items()
                ],
            },
            "steps": traj.steps,
            "failures": failures,
            "wall_time_s": wall,
        }
        summary_file.write(json_text(summary))

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
    scenario = _read_config(parse_scenario, config_path)
    try:
        report = bracket_oracle_audit(
            scenario.model,
            scenario.inertia,
            grav=scenario.gravity,
            samples=samples,
            seed=scenario.seed if seed is None else seed,
        )
    except ValueError as err:
        # The inputs were checked on parsing: this is the oracle's energy
        # overflowing at its probes, e.g. on a tiny locked moment, or the
        # field overflowing with it to a NaN discrepancy.
        print(f"bracket audit failed: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(json_text(report), end="")
    return EXIT_OK if report["passed"] else EXIT_TOLERANCE


def cmd_hj_check(config_path: str) -> int:
    cfg = _read_config(parse_hj_check_config, config_path)
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
    max_norm = _max_norm(residual.tolist())
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
    cfg = _read_config(parse_equilibrium_config, config_path)
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
        report = {
            "model": cfg.model.value,
            "converged": False,
            "error": str(err),
            "residual_norm": _json_number(err.residual_norm),
            "iterations": err.iterations,
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


def _int_where(check):
    """An argparse type: an int that `check`, its owner, accepts; else its message."""

    def parse(text: str) -> int:
        n = int(text)
        try:
            check(n)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from err
        return n

    parse.__name__ = "int"  # argparse's "invalid int value" on a non-integer
    return parse


class _Option(NamedTuple):
    """One long option: the keywords ``add_argument`` takes for it."""

    required: bool
    type: Callable[[str], object]
    default: object
    help: str


def _path(what: str) -> _Option:
    """A required path option."""
    return _Option(True, str, None, what)


_SAMPLES = _int_where(_check_samples)
_SEED = _int_where(SplitMix64)

# Each command's help, handler and long options, ``--<name>``, in the order
# ``-h`` lists them and the handler takes them; the parsers and main read it.
_COMMANDS = {
    "simulate": (
        "integrate a scenario to CSV",
        cmd_simulate,
        {
            "config": _path("scenario JSON path"),
            "out": _path("trajectory CSV output path"),
            "summary": _path("run summary JSON output path"),
        },
    ),
    "bracket-audit": (
        "cross-check equations of motion against the bracket oracle",
        cmd_bracket_audit,
        {
            "config": _path("scenario JSON path"),
            "samples": _Option(
                False, _SAMPLES, bracket_oracle_audit.__kwdefaults__["samples"], "sample count"
            ),
            "seed": _Option(False, _SEED, None, "override the scenario seed"),
        },
    ),
    "hj-check": (
        "evaluate steady-equation residuals",
        cmd_hj_check,
        {"config": _path("check config JSON path")},
    ),
    "equilibrium": (
        "Newton search for an equilibrium",
        cmd_equilibrium,
        {"config": _path("search config JSON path")},
    ),
}


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
    for command, (help_text, _handler, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, opt in options.items():
            p.add_argument(f"--{name}", **opt._asdict())
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one serves every call.
    return build_parser()


def _recognise(argv):
    """The Namespace the parser returns for `argv` when `argv` is a command
    followed by ``--option value`` pairs of its own options, each given at
    most once, the required ones present, no value starting with ``-`` and
    each passing its option's type; None for any other argv, which is left
    to the parser and its messages."""
    if not isinstance(argv, (list, tuple)) or len(argv) % 2 != 1:
        return None
    if not all(isinstance(token, str) for token in argv) or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        if flag[:2] != "--" or name not in options or name in values or text[:1] == "-":
            return None
        try:
            values[name] = options[name].type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # the parser's usage error names the option
    for name, opt in options.items():
        if name not in values:
            if opt.required:
                return None
            values[name] = opt.default
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    args = _recognise(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _parser().parse_args(argv)
    _help, handler, options = _COMMANDS[args.command]
    try:
        return handler(*(getattr(args, name) for name in options))
    except ScenarioError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"file not found: {err.filename}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        # A directory or a denied permission; open() names the file, a
        # failed write to an open file may not.
        where = "" if err.filename is None else f"{err.filename}: "
        print(f"file error: {where}{err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE
    except EquilibriumError as err:
        print(f"equilibrium search failed: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
