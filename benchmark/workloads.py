"""Seeded job generators for the four benchmark workloads.

Every workload is a fixed *round* of job kinds, repeated with fresh draws
until the cycle holds ``CYCLE_ROUNDS[workload]`` rounds.  The kinds and
their order never depend on the seed; only the physical parameters, the
initial states and the guesses do.  That keeps the cost mix of a run the
same from seed to seed, so run-to-run spread measures the program and not
the generator.

Draws stay near the shipped ``configs/`` (the documented-success inputs)
and use the stdlib Mersenne Twister, so one seed gives byte-identical
config files on every platform and Python version.

No job of a workload is expected to fail.  Inputs on which the program is
known to go wrong are kept apart in ``KNOWN_DEFECTS``: a run executes each
of them once, untimed, and reports whether the defect still shows.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("integrate", "integrate-dense", "audit", "steady")

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "integrate": "so3/se3 RK4 and se3 midpoint simulate jobs, sample_every 5-10: "
    "stepping-bound, dynamics rhs and step code take most of the time",
    "integrate-dense": "the integrate job kinds, shorter, at sample_every 1: the same "
    "layers, with model record plus scenario CSV emission in place of stepping",
    "audit": "bracket-audit jobs for both models at the default 1000 samples: "
    "the rng, poisson fd_gradient and audit layers, no integrator",
    "steady": "equilibrium and hj-check jobs from perturbed axis spins, with and "
    "without control: the hj Newton layer (FD Jacobian, solve, line search)",
}

# Rounds per cycle.  A run replays its cycle, so every repeat of a job is
# also a determinism check against the first time it ran.
CYCLE_ROUNDS = {"integrate": 16, "integrate-dense": 16, "audit": 4, "steady": 20}

# Steps per job kind.  The three kinds of a workload cost about the same
# (within ~10%), so the median job sits inside one cost band whatever share
# of a run falls in a faster machine state on a shared host.
STEPS = {
    "integrate": {"so3-rk4": 250, "se3-rk4": 200, "se3-midpoint": 70},
    "integrate-dense": {"so3-rk4": 110, "se3-rk4": 80, "se3-midpoint": 45},
}
AUDIT_SAMPLES = 1000  # the CLI default; the job passes no --samples flag
AXIS_PERTURBATION = 1e-3


@dataclass(frozen=True)
class Job:
    """One CLI invocation on one generated config.

    ``work`` counts the job's units of input work: integrator steps for
    ``simulate``, audit samples for ``bracket-audit`` and equilibrium
    solves for ``equilibrium``/``hj-check`` (zero when the check is given
    explicit values).
    """

    command: str
    config: dict
    work: int

    def config_text(self) -> str:
        return json.dumps(self.config, sort_keys=True, indent=2) + "\n"


def _near(rng: random.Random, value: float, rel: float) -> float:
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def _inertia(rng: random.Random, j3: float) -> dict:
    # Keep the ordering i1 > i2 > i3 of the shipped configs.
    return {
        "i_bar": [_near(rng, 3.0, 0.1), _near(rng, 2.0, 0.1), _near(rng, 1.0, 0.1)],
        "j3": _near(rng, j3, 0.2),
    }


def _gravity(rng: random.Random) -> dict:
    # chi is a unit vector tilted a little off the body 3-axis.
    tilt = rng.uniform(0.0, 0.2)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    chi = [
        math.sin(tilt) * math.cos(azimuth),
        math.sin(tilt) * math.sin(azimuth),
        math.cos(tilt),
    ]
    return {"mgh": _near(rng, 2.0, 0.2), "chi": chi}


def _simulate(rng, kind: str, workload: str) -> Job:
    sample_every = 1 if workload == "integrate-dense" else rng.randint(5, 10)
    steps = STEPS[workload][kind]
    if kind == "so3-rk4":  # configs/so3_free_spin.json
        dt = 0.001
        config = {
            "model": "so3",
            "inertia": _inertia(rng, 1.0),
            "initial": {
                "pi": [_near(rng, v, 0.3) for v in (1.0, 2.0, 3.0)],
                "alpha": 0.0,
                "l": _near(rng, 0.5, 0.4),
            },
        }
    elif kind == "se3-rk4":  # configs/se3_heavy_top.json
        dt = 0.001
        config = {
            "model": "se3",
            "inertia": _inertia(rng, 1.0),
            "gravity": _gravity(rng),
            "initial": {
                "pi": [_near(rng, v, 0.3) for v in (1.0, 2.0, 3.0)],
                "gamma": [_near(rng, 0.6, 0.2), rng.uniform(-0.1, 0.1), _near(rng, 0.8, 0.2)],
                "alpha": 0.0,
                "l": _near(rng, 0.5, 0.4),
            },
        }
    else:  # "se3-midpoint", configs/se3_driven_rotor.json
        dt = 0.002
        config = {
            "model": "se3",
            "inertia": _inertia(rng, 1.0),
            "gravity": _gravity(rng),
            "initial": {
                "pi": [_near(rng, 0.3, 0.3), rng.uniform(-0.1, 0.1), _near(rng, 3.0, 0.2)],
                "gamma": [_near(rng, 0.1, 0.5), rng.uniform(-0.1, 0.1), _near(rng, 0.99, 0.01)],
                "alpha": 0.0,
                "l": _near(rng, 1.0, 0.3),
            },
            "control": {"kind": "constant", "u_alpha": _near(rng, 1.0, 0.5)},
        }
    config["integrator"] = {
        "method": "midpoint" if kind == "se3-midpoint" else "rk4",
        "dt": dt,
        "t_end": steps * dt,
        "sample_every": sample_every,
    }
    return Job("simulate", config, steps)


def _audit(rng, model: str) -> Job:
    config = {"model": model, "inertia": _inertia(rng, 1.0)}
    if model == "se3":
        config["gravity"] = _gravity(rng)
    # Audits sample their own phase points; the initial state is unused
    # but required by the scenario schema.
    config["initial"] = {"pi": [1.0, 2.0, 3.0]}
    if model == "se3":
        config["initial"]["gamma"] = [0.0, 0.0, 1.0]
    config["seed"] = rng.randrange(2**32)
    return Job("bracket-audit", config, AUDIT_SAMPLES)


def _axis_spin_guess(rng, model: str, controlled: bool = False) -> list:
    """A principal-axis spin, every slot but alpha nudged by about 1e-3.

    Under a constant ``u_alpha`` the equilibria near an axis spin need
    ``omega_3 = l / j3 + u_alpha``, so only a 3-axis spin has one nearby;
    controlled guesses spin about the 3-axis, in both models.
    """

    def nudge() -> float:
        return rng.choice((-1.0, 1.0)) * _near(rng, AXIS_PERTURBATION, 0.5)

    if model == "so3":  # configs/equilibrium_axis_spin.json spins about axis 1
        axis = rng.randrange(3)
        if controlled:
            axis = 2
        pi = [nudge(), nudge(), nudge()]
        pi[axis] = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
        l = rng.uniform(0.2, 1.0) if axis == 2 else 0.0
        return pi + [0.0, l + nudge()]
    # se3: spin about the 3-axis with Gamma near the 3-axis too.
    pi = [nudge(), nudge(), rng.uniform(1.0, 3.0)]
    gamma = [nudge(), nudge(), _near(rng, 1.0, 0.2)]
    return pi + gamma + [0.0, rng.uniform(0.2, 1.0) + nudge()]


def _steady_base(rng, model: str, controlled: bool) -> tuple:
    config = {"model": model, "inertia": _inertia(rng, 2.0 if model == "so3" else 1.0)}
    if model == "se3":
        config["gravity"] = {"mgh": _near(rng, 2.0, 0.2), "chi": [0.0, 0.0, 1.0]}
    lift = None
    if controlled:
        u_alpha = rng.uniform(0.1, 0.5)
        config["control"] = {"kind": "constant", "u_alpha": u_alpha}
        lift = [0.0] * (5 if model == "so3" else 8)
        lift[-2] = u_alpha
    return config, lift


def _lift_free_field(model: str, config: dict, g: list) -> list:
    """The uncontrolled reduced vector field at g, written out here so the
    generated "given" lifts do not depend on the code under test."""
    i1, i2, i3 = config["inertia"]["i_bar"]
    j3 = config["inertia"]["j3"]
    if model == "so3":
        p1, p2, p3, _alpha, l = g
        g1 = g2 = g3 = 0.0
        mgh, x1, x2, x3 = 0.0, 0.0, 0.0, 0.0
    else:
        p1, p2, p3, g1, g2, g3, _alpha, l = g
        mgh = config["gravity"]["mgh"]
        x1, x2, x3 = config["gravity"]["chi"]
    w1, w2, w3 = p1 / i1, p2 / i2, (p3 - l) / i3
    dpi = [
        p2 * w3 - p3 * w2 + mgh * (g2 * x3 - g3 * x2),
        p3 * w1 - p1 * w3 + mgh * (g3 * x1 - g1 * x3),
        p1 * w2 - p2 * w1 + mgh * (g1 * x2 - g2 * x1),
    ]
    tail = [l / j3 - w3, 0.0]
    if model == "so3":
        return dpi + tail
    dgamma = [g2 * w3 - g3 * w2, g3 * w1 - g1 * w3, g1 * w2 - g2 * w1]
    return dpi + dgamma + tail


def _equilibrium(rng, model: str, controlled: bool) -> Job:
    config, _lift = _steady_base(rng, model, controlled)
    config.update(guess=_axis_spin_guess(rng, model, controlled), tol=1e-12, max_iter=100)
    return Job("equilibrium", config, 1)


def _hj_at_equilibrium(rng, model: str, controlled: bool, lift_rule: str) -> Job:
    """hj-check at the Newton solution.  With control and ``lift: "zero"``
    this is the ROADMAP's known defect (the check drops the control block),
    so that pairing is in ``KNOWN_DEFECTS`` and not in the workload."""
    config, control_lift = _steady_base(rng, model, controlled)
    config.update(gamma="equilibrium", guess=_axis_spin_guess(rng, model, controlled))
    if lift_rule == "given":
        config["lift"] = control_lift or [0.0] * len(config["guess"])
    else:
        config["lift"] = lift_rule
    return Job("hj-check", config, 1)


def _hj_explicit(rng, model: str, lift_rule: str) -> Job:
    config, _lift = _steady_base(rng, model, False)
    gamma = _axis_spin_guess(rng, model)
    config["gamma"] = gamma
    if lift_rule == "given":
        config["lift"] = [-v for v in _lift_free_field(model, config, gamma)]
    else:
        config["lift"] = lift_rule
    return Job("hj-check", config, 0)


def _round(rng, workload: str) -> list:
    if workload in STEPS:
        return [_simulate(rng, k, workload) for k in STEPS[workload]]
    if workload == "audit":
        # so3 audits are the cheaper ones; two of them per se3 audit keep
        # the median job inside one model's latency band.
        return [_audit(rng, m) for m in ("so3", "so3", "se3")]
    jobs = []
    for model in ("so3", "se3"):
        for controlled in (False, True):
            jobs.append(_equilibrium(rng, model, controlled))
            for rule in ("solve", "given") if controlled else ("zero", "solve", "given"):
                jobs.append(_hj_at_equilibrium(rng, model, controlled, rule))
        for rule in ("solve", "given"):
            jobs.append(_hj_explicit(rng, model, rule))
    return jobs


# Inputs on which the program is known to fail, each with what goes wrong.
# They are not part of any workload (the contract's workloads do not fail);
# a run executes each once, untimed, and reports whether it still fails.
KNOWN_DEFECTS = (
    (
        "hj-check with control and lift \"zero\" drops the control block "
        "(ROADMAP) and exits 2 with max_norm equal to u_alpha",
        Job("hj-check", {
            "model": "so3",
            "inertia": {"i_bar": [6.0, 4.0, 2.0], "j3": 2.0},
            "control": {"kind": "constant", "u_alpha": 0.3},
            "gamma": "equilibrium", "lift": "zero",
            "guess": [0.001, -0.001, 2.0, 0.0, 0.5],
        }, 1),
    ),
    (
        "the se3 form of the same defect",
        Job("hj-check", {
            "model": "se3",
            "inertia": {"i_bar": [3.0, 2.0, 1.0], "j3": 1.0},
            "gravity": {"mgh": 2.0, "chi": [0.0, 0.0, 1.0]},
            "control": {"kind": "constant", "u_alpha": 0.3},
            "gamma": "equilibrium", "lift": "zero",
            "guess": [0.001, -0.001, 2.0, 0.001, -0.001, 1.0, 0.0, 0.5],
        }, 1),
    ),
    (
        "equilibrium from a controlled intermediate-axis spin runs off to "
        "|Pi2| ~ 7e3 and reports convergence on rounding (residual_norm "
        "9.1e-13 < tol 1e-12; hj_residual_so3 there is 1.5e-12)",
        Job("equilibrium", {
            "model": "so3",
            "inertia": {"i_bar": [2.773154396566401, 1.8405412398875405,
                                  1.0197509935557527], "j3": 2.063828388655467},
            "control": {"kind": "constant", "u_alpha": 0.4169959576127765},
            "guess": [0.0005779452094510674, -2.5549278730191416,
                      0.0013425082165132646, 0.0, 0.0007673312420319376],
            "tol": 1e-12, "max_iter": 100,
        }, 1),
    ),
)


def round_length(workload: str) -> int:
    return len(_round(random.Random(0), workload))


def generate(workload: str, seed: int) -> list:
    """The workload's job cycle for `seed`; the same seed, the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _ in range(CYCLE_ROUNDS[workload]):
        jobs.extend(_round(rng, workload))
    return jobs
