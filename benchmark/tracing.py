"""Timing wrappers around the package's module-level names, for the traced run.

The wrappers live here, not in ``src/``: :func:`installed` swaps each name
the layers call through for a timed version and puts the original back on
exit, so only the traced pass ever sees them.  A name a later version of the
package no longer has is skipped and listed in ``Tracer.missing``.

Spans are kept in memory, aggregated per name as they close (calls, total
time, self time), because an integrate run closes millions of them.  A
span's self time is its duration less the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

import gyrostat.audit
import gyrostat.cli
import gyrostat.dynamics
import gyrostat.hj
import gyrostat.poisson
import gyrostat.rng

ROOT_SPAN = "cli"


class Tracer:
    """Span statistics and counters for one traced pass."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_ns, self_ns]
        self.counts = Counter()
        self.missing = set()
        self._stack = [[0]]  # child-time accumulators; [0] is the top level
        self.sweeps_max = 0

    def wrap(self, name: str, fn):
        """`fn` timed as one span called `name`."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[2]


def _hooks(tracer: Tracer) -> list:
    """(owner, attribute, replacement factory) for every traced name."""
    counts = tracer.counts
    wrap = tracer.wrap

    def span(name):
        return lambda orig: wrap(name, orig)

    def integrate(orig):
        def counted(*args, **kwargs):
            try:
                return orig(*args, **kwargs)
            except gyrostat.dynamics.IntegrationError:
                counts["dynamics.integration_errors"] += 1
                raise

        return wrap("dynamics.integrate", counted)

    def rhs_factory(span_name):
        def factory(orig):
            def make(*args, **kwargs):
                return wrap(span_name, orig(*args, **kwargs))

            return make

        return factory

    def step_midpoint(orig):
        rhs_stat = tracer.stats.setdefault("dynamics.rhs", [0, 0, 0])

        def counted(*args, **kwargs):
            before = rhs_stat[0]
            try:
                return orig(*args, **kwargs)
            finally:
                sweeps = rhs_stat[0] - before
                counts["dynamics.midpoint.sweeps"] += sweeps
                tracer.sweeps_max = max(tracer.sweeps_max, sweeps)

        return wrap("dynamics.step_midpoint", counted)

    def trajectory_csv(orig):
        def counted(traj):
            text = orig(traj)
            counts["scenario.csv.rows"] += text.count("\n") - 1
            counts["scenario.csv.bytes"] += len(text.encode())
            return text

        return wrap("scenario.csv", counted)

    def audit(orig):
        def counted(*args, **kwargs):
            report = orig(*args, **kwargs)
            counts["audit.samples"] += report["samples"]
            return report

        return wrap("audit", counted)

    def energy_field(orig):
        def make(*args, **kwargs):
            field = orig(*args, **kwargs)
            value = field.value

            def counted(x):
                counts["poisson.energy_evals"] += 1
                return value(x)

            field.value = counted
            return field

        return make

    def find_equilibrium(orig):
        def counted(*args, **kwargs):
            counts["hj.solves"] += 1
            try:
                result = orig(*args, **kwargs)
            except gyrostat.hj.EquilibriumError as err:
                counts["hj.equilibrium_errors"] += 1
                if getattr(err, "iterations", None) is not None:
                    counts["hj.iterations"] += err.iterations
                raise
            counts["hj.converged"] += 1
            counts["hj.iterations"] += result.iterations
            return result

        return wrap("hj.find_equilibrium", counted)

    def hj_rhs(orig):
        def make(*args, **kwargs):
            rhs = orig(*args, **kwargs)

            def counted(y):
                # Frame 1 is the span wrapper; frame 2 called the field.
                # Calls from the Newton loop itself (not the FD Jacobian)
                # are the initial residual and the line-search trials.
                if sys._getframe(2).f_code.co_name == "find_equilibrium":
                    counts["hj.newton_evals"] += 1
                return rhs(y)

            return wrap("hj.rhs", counted)

        return make

    cli, dyn, aud = gyrostat.cli, gyrostat.dynamics, gyrostat.audit
    return [
        (cli, "integrate", integrate),
        (cli, "diagnostics", span("dynamics.diagnostics")),
        (dyn, "controlled_rhs", rhs_factory("dynamics.rhs")),
        (dyn, "step_rk4", span("dynamics.step_rk4")),
        (dyn, "step_midpoint", step_midpoint),
        (dyn, "so3_state_from_vector", span("model.state_from_vector")),
        (dyn, "se3_state_from_vector", span("model.state_from_vector")),
        (dyn, "hamiltonian_so3", span("model.hamiltonian")),
        (dyn, "hamiltonian_se3", span("model.hamiltonian")),
        (dyn, "casimirs", span("model.casimirs")),
        (cli, "trajectory_csv", trajectory_csv),
        (cli, "json_text", span("scenario.json")),
        (cli, "parse_scenario", span("scenario.parse")),
        (cli, "parse_hj_check_config", span("scenario.parse")),
        (cli, "parse_equilibrium_config", span("scenario.parse")),
        (cli, "bracket_oracle_audit", audit),
        (aud, "reduced_rhs_so3", span("dynamics.reduced_rhs")),
        (aud, "reduced_rhs_se3", span("dynamics.reduced_rhs")),
        (aud, "hamiltonian_field_so3", energy_field),
        (aud, "hamiltonian_field_se3", energy_field),
        (aud, "hamiltonian_vector_field_via_bracket", span("poisson.vector_field")),
        (gyrostat.poisson, "fd_gradient", span("poisson.fd_gradient")),
        (gyrostat.rng.SplitMix64, "uniform", span("rng.uniform")),
        (cli, "find_equilibrium", find_equilibrium),
        (gyrostat.hj, "controlled_rhs", hj_rhs),
        (cli, "hj_residual_so3", span("hj.residual")),
        (cli, "hj_residual_se3", span("hj.residual")),
        (cli, "solve_lift", span("hj.solve_lift")),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []
    try:
        for owner, name, factory in _hooks(tracer):
            if name not in vars(owner):
                tracer.missing.add(f"{owner.__name__}.{name}")
                continue
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, factory(original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, jobs: int) -> dict:
    """Per-layer metrics of one traced pass, in BENCHMARK.json's units.

    Rates over zero calls read 0: the layer did not run on this workload.
    """
    us = 1e-3  # per ns
    t, c = tracer, tracer.counts
    steps = t.calls("dynamics.step_rk4") + t.calls("dynamics.step_midpoint")
    records = t.calls("model.hamiltonian")
    record_ns = sum(
        t.total_ns(n) for n in ("model.state_from_vector", "model.hamiltonian", "model.casimirs")
    )
    solves = c["hj.solves"]
    trials = c["hj.newton_evals"] - solves
    accepted = c["hj.iterations"]
    self_total_ns = sum(s[2] for s in t.stats.values())
    traced_ns = traced_s * 1e9
    out = {
        "dynamics.step_rk4.calls": t.calls("dynamics.step_rk4"),
        "dynamics.step_rk4.self_us_per_call": _per(t.self_ns("dynamics.step_rk4") * us, t.calls("dynamics.step_rk4")),
        "dynamics.rhs.calls": t.calls("dynamics.rhs"),
        "dynamics.rhs.us_per_call": _per(t.total_ns("dynamics.rhs") * us, t.calls("dynamics.rhs")),
        "dynamics.step_midpoint.calls": t.calls("dynamics.step_midpoint"),
        "dynamics.step_midpoint.self_us_per_call": _per(
            t.self_ns("dynamics.step_midpoint") * us, t.calls("dynamics.step_midpoint")
        ),
        "dynamics.midpoint.sweeps_mean": _per(c["dynamics.midpoint.sweeps"], t.calls("dynamics.step_midpoint")),
        "dynamics.midpoint.sweeps_max": t.sweeps_max,
        "dynamics.integrate.self_us_per_step": _per(t.self_ns("dynamics.integrate") * us, steps),
        "dynamics.diagnostics.us_per_call": _per(
            t.total_ns("dynamics.diagnostics") * us, t.calls("dynamics.diagnostics")
        ),
        "dynamics.integration_errors": c["dynamics.integration_errors"],
        "dynamics.reduced_rhs.calls": t.calls("dynamics.reduced_rhs"),
        "dynamics.reduced_rhs.us_per_call": _per(
            t.total_ns("dynamics.reduced_rhs") * us, t.calls("dynamics.reduced_rhs")
        ),
        "model.record.calls": records,
        "model.record.us_per_sample": _per(record_ns * us, records),
        "scenario.csv.rows": c["scenario.csv.rows"],
        "scenario.csv.bytes": c["scenario.csv.bytes"],
        "scenario.csv.us_per_row": _per(t.total_ns("scenario.csv") * us, c["scenario.csv.rows"]),
        "scenario.parse.us_per_call": _per(t.total_ns("scenario.parse") * us, t.calls("scenario.parse")),
        "scenario.json.us_per_call": _per(t.total_ns("scenario.json") * us, t.calls("scenario.json")),
        "cli.self_us_per_job": _per(t.self_ns(ROOT_SPAN) * us, jobs),
        "rng.draws": t.calls("rng.uniform"),
        "rng.ns_per_draw": _per(t.total_ns("rng.uniform"), t.calls("rng.uniform")),
        "poisson.fd_gradient.calls": t.calls("poisson.fd_gradient"),
        "poisson.fd_gradient.us_per_call": _per(
            t.total_ns("poisson.fd_gradient") * us, t.calls("poisson.fd_gradient")
        ),
        "poisson.energy_evals": c["poisson.energy_evals"],
        "poisson.vector_field.self_us_per_call": _per(
            t.self_ns("poisson.vector_field") * us, t.calls("poisson.vector_field")
        ),
        "audit.samples": c["audit.samples"],
        "audit.self_us_per_sample": _per(t.self_ns("audit") * us, c["audit.samples"]),
        "hj.solves": solves,
        "hj.converged_frac": _per(c["hj.converged"], solves),
        "hj.newton_iters_mean": _per(c["hj.iterations"], solves),
        "hj.rhs_calls_per_solve": _per(t.calls("hj.rhs"), solves),
        "hj.linesearch_accept_ratio": _per(accepted, trials),
        "hj.find_equilibrium.self_us_per_solve": _per(t.self_ns("hj.find_equilibrium") * us, solves),
        "hj.residual.us_per_call": _per(t.total_ns("hj.residual") * us, t.calls("hj.residual")),
        "hj.solve_lift.calls": t.calls("hj.solve_lift"),
        "hj.equilibrium_errors": c["hj.equilibrium_errors"],
        "trace.overhead_frac": _per(traced_s, untraced_s) - 1.0,
        "trace.unattributed_frac": _per(traced_ns - self_total_ns, traced_ns),
    }
    for layer in LAYERS:
        own = sum(s[2] for name, s in t.stats.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_frac"] = _per(own, traced_ns)
    return out


LAYERS = ("cli", "scenario", "dynamics", "model", "audit", "poisson", "rng", "hj")

# Metrics that count work rather than time it; they repeat exactly between
# two traced runs of one seed.
COUNT_METRICS = (
    "dynamics.step_rk4.calls",
    "dynamics.rhs.calls",
    "dynamics.step_midpoint.calls",
    "dynamics.midpoint.sweeps_mean",
    "dynamics.midpoint.sweeps_max",
    "dynamics.integration_errors",
    "dynamics.reduced_rhs.calls",
    "model.record.calls",
    "scenario.csv.rows",
    "scenario.csv.bytes",
    "rng.draws",
    "poisson.fd_gradient.calls",
    "poisson.energy_evals",
    "audit.samples",
    "hj.solves",
    "hj.converged_frac",
    "hj.newton_iters_mean",
    "hj.rhs_calls_per_solve",
    "hj.linesearch_accept_ratio",
    "hj.solve_lift.calls",
    "hj.equilibrium_errors",
)
