"""Scenario ingestion from JSON and deterministic result emission.

A scenario document is a single JSON object::

    {
      "model": "so3" | "se3",
      "inertia": {"i_bar": [i1, i2, i3], "j3": j3,
                  "i_carrier": [...], "j_rotor_transverse": [j1, j2]},
      "gravity": {"mgh": 2.0, "chi": [0, 0, 1]},          # se3 only
      "initial": {"pi": [...], "alpha": 0.0, "l": 0.0,
                  "gamma": [...]},                        # gamma: se3 only
      "control": {"kind": "zero"} |
                 {"kind": "constant", "u_pi": [...], "u_gamma": [...],
                  "u_alpha": 0.0, "u_l": 0.0},
      "integrator": {"method": "rk4" | "midpoint", "dt": 1e-3,
                     "t_end": 1.0, "sample_every": 10},
      "seed": 42
    }

Defaults: zero control, method rk4, dt 1e-3, t_end 1.0, sample_every 10,
chi (0, 0, 1), alpha 0, l 0, seed 42.  The gravity block may replace
``mgh`` with the three factors ``m``, ``g``, ``h``, which are multiplied
on load.  A gravity block on the so3 model is rejected, as is a missing
one on se3.  Feedback control laws are a library-level feature and have no
JSON spelling.

What the two models need of a document (the length of flat arrays,
whether ``gravity``, ``initial.gamma`` and ``control.u_gamma`` belong, the
state and lift types, the CSV columns) is read from the model's
:func:`gyrostat.model.model_layout`.

Emission is deterministic: CSV numbers use 17 significant digits (which
round-trips 64-bit floats exactly) and JSON objects are written with
sorted keys, so identical inputs produce identical bytes.  The CSV header
is ``t``, the layout's columns, ``energy`` and its Casimir names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dynamics import MAX_STEPS, ConstantControl, ControlLaw, Trajectory, ZeroControl
from .model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    ModelLayout,
    Se3RotorState,
    So3RotorState,
    model_layout,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_scenario",
    "parse_hj_check_config",
    "parse_equilibrium_config",
    "HjCheckConfig",
    "EquilibriumConfig",
    "trajectory_csv",
    "format_float",
    "json_text",
]

class ScenarioError(ValueError):
    """A config document failed validation; names the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(
            f"missing required field '{key}' in {where}", field=key
        )
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"field '{where}' must be a number", field=where)
    # json reads NaN, Infinity and integers beyond the float range.
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(
            f"field '{where}' must be a finite number, got {x}", field=where
        )
    return x


def _positive(value, where: str) -> float:
    x = _number(value, where)
    if x <= 0.0:
        raise ScenarioError(f"field '{where}' must be positive, got {x}", field=where)
    return x


def _vector(value, n: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ScenarioError(
            f"field '{where}' must be an array of {n} numbers", field=where
        )
    return np.array([_number(v, where) for v in value])


def _parse_model(doc: dict) -> ModelKind:
    raw = _require(doc, "model", "the scenario")
    try:
        return ModelKind(raw)
    except ValueError:
        allowed = ", ".join(repr(k.value) for k in ModelKind)
        raise ScenarioError(
            f"field 'model' must be one of {allowed}, got {raw!r}", field="model"
        ) from None


def _parse_inertia(doc: dict) -> InertiaParams:
    block = _require(doc, "inertia", "the scenario")
    if not isinstance(block, dict):
        raise ScenarioError("field 'inertia' must be an object", field="inertia")
    i_bar = _vector(_require(block, "i_bar", "inertia"), 3, "inertia.i_bar")
    j3 = _number(_require(block, "j3", "inertia"), "inertia.j3")
    kwargs = {}
    if "i_carrier" in block or "j_rotor_transverse" in block:
        kwargs["i_carrier"] = _vector(
            _require(block, "i_carrier", "inertia"), 3, "inertia.i_carrier"
        )
        kwargs["j_rotor_transverse"] = _vector(
            _require(block, "j_rotor_transverse", "inertia"), 2, "inertia.j_rotor_transverse"
        )
    try:
        return InertiaParams(i_bar=i_bar, j3=j3, **kwargs)
    except ValueError as err:
        raise ScenarioError(f"invalid inertia: {err}", field="inertia") from err


def _parse_gravity(doc: dict, lay: ModelLayout) -> Optional[GravityParams]:
    block = doc.get("gravity")
    if not lay.gravity:
        if block is not None:
            raise ScenarioError(
                "field 'gravity' is only valid for the se3 model", field="gravity"
            )
        return None
    if block is None:
        raise ScenarioError(
            "missing required field 'gravity' for the se3 model", field="gravity"
        )
    if not isinstance(block, dict):
        raise ScenarioError("field 'gravity' must be an object", field="gravity")
    if "mgh" in block:
        mgh = _number(block["mgh"], "gravity.mgh")
    elif all(k in block for k in ("m", "g", "h")):
        mgh = (
            _number(block["m"], "gravity.m")
            * _number(block["g"], "gravity.g")
            * _number(block["h"], "gravity.h")
        )
    else:
        raise ScenarioError(
            "field 'gravity' needs either 'mgh' or all of 'm', 'g', 'h'",
            field="gravity",
        )
    chi = block.get("chi")
    kwargs = {}
    if chi is not None:
        kwargs["chi"] = _vector(chi, 3, "gravity.chi")
    try:
        return GravityParams(mgh=mgh, **kwargs)
    except ValueError as err:
        raise ScenarioError(f"invalid gravity: {err}", field="gravity") from err


def _parse_initial(doc: dict, lay: ModelLayout):
    block = _require(doc, "initial", "the scenario")
    if not isinstance(block, dict):
        raise ScenarioError("field 'initial' must be an object", field="initial")
    pi = _vector(_require(block, "pi", "initial"), 3, "initial.pi")
    alpha = _number(block.get("alpha", 0.0), "initial.alpha")
    l = _number(block.get("l", 0.0), "initial.l")
    slots = {"pi": pi, "alpha": alpha, "l": l}
    if lay.gravity:
        slots["gamma"] = _vector(_require(block, "gamma", "initial"), 3, "initial.gamma")
    elif "gamma" in block:
        raise ScenarioError(
            "field 'initial.gamma' is only valid for the se3 model",
            field="initial.gamma",
        )
    return lay.state_type(**slots)


def _parse_control(doc: dict, lay: ModelLayout) -> ControlLaw:
    block = doc.get("control")
    if block is None:
        return ZeroControl()
    if not isinstance(block, dict):
        raise ScenarioError("field 'control' must be an object", field="control")
    kind = block.get("kind", "zero")
    if kind == "zero":
        return ZeroControl()
    if kind != "constant":
        raise ScenarioError(
            f"field 'control.kind' must be one of 'zero', 'constant', got {kind!r}",
            field="control.kind",
        )
    u_pi = block.get("u_pi")
    u_alpha = _number(block.get("u_alpha", 0.0), "control.u_alpha")
    u_l = _number(block.get("u_l", 0.0), "control.u_l")
    entries = {"u_alpha": u_alpha, "u_l": u_l}
    if u_pi is not None:
        entries["u_pi"] = _vector(u_pi, 3, "control.u_pi")
    u_gamma = block.get("u_gamma")
    if lay.gravity:
        if u_gamma is not None:
            entries["u_gamma"] = _vector(u_gamma, 3, "control.u_gamma")
    elif "u_gamma" in block:
        raise ScenarioError(
            "field 'control.u_gamma' is only valid for the se3 model",
            field="control.u_gamma",
        )
    # Entries left out default to zero.
    return ConstantControl(lift=lay.lift_type(**entries))


@dataclass
class Scenario:
    """One validated simulation/audit setup with defaults applied."""

    model: ModelKind
    inertia: InertiaParams
    gravity: Optional[GravityParams]
    initial: Union[So3RotorState, Se3RotorState]
    control: ControlLaw
    method: str
    dt: float
    t_end: float
    sample_every: int
    seed: int

    def echo_dict(self) -> dict:
        """Normalized scenario content for summary reports."""
        out = {
            "model": self.model.value,
            "inertia": {
                "i_bar": [float(v) for v in self.inertia.i_bar],
                "j3": self.inertia.j3,
            },
            "initial": _echo(self.initial),
            "control": _control_echo(self.control),
            "integrator": {
                "method": self.method,
                "dt": self.dt,
                "t_end": self.t_end,
                "sample_every": self.sample_every,
            },
            "seed": self.seed,
        }
        if self.gravity is not None:
            out["gravity"] = _echo(self.gravity)
        return out


def _echo(params) -> dict:
    """The fields of a state, gravity block or lift, arrays as lists."""
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(params).items()
    }


def _control_echo(control: ControlLaw) -> dict:
    if isinstance(control, ConstantControl) and control.lift is not None:
        return {"kind": "constant", **_echo(control.lift)}
    # ConstantControl(None) is no control, as integrate takes it.
    if isinstance(control, (ZeroControl, ConstantControl)):
        return {"kind": "zero"}
    return {"kind": "feedback"}


def _parse_integrator(doc: dict) -> tuple:
    block = doc.get("integrator", {})
    if not isinstance(block, dict):
        raise ScenarioError(
            "field 'integrator' must be an object", field="integrator"
        )
    method = block.get("method", "rk4")
    if method not in ("rk4", "midpoint"):
        raise ScenarioError(
            "field 'integrator.method' must be one of 'rk4', 'midpoint', "
            f"got {method!r}",
            field="integrator.method",
        )
    dt = _positive(block.get("dt", 1e-3), "integrator.dt")
    t_end = _positive(block.get("t_end", 1.0), "integrator.t_end")
    if not math.isfinite(t_end / dt):
        raise ScenarioError(
            f"field 'integrator.t_end' / 'integrator.dt' must be finite, got {t_end:g} / {dt:g}",
            field="integrator",
        )
    if round(t_end / dt) > MAX_STEPS:
        raise ScenarioError(
            f"field 'integrator.t_end' / 'integrator.dt' asks for {t_end / dt:.3g} steps, "
            f"more than MAX_STEPS = {MAX_STEPS}",
            field="integrator",
        )
    sample_every = block.get("sample_every", 10)
    if isinstance(sample_every, bool) or not isinstance(sample_every, int):
        raise ScenarioError(
            "field 'integrator.sample_every' must be an integer",
            field="integrator.sample_every",
        )
    if sample_every < 1:
        raise ScenarioError(
            f"field 'integrator.sample_every' must be >= 1, got {sample_every}",
            field="integrator.sample_every",
        )
    return method, dt, t_end, sample_every


def _parse_seed(doc: dict) -> int:
    seed = doc.get("seed", 42)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("field 'seed' must be an integer", field="seed")
    if not 0 <= seed < 2**64:
        raise ScenarioError(
            f"field 'seed' must fit in 64 bits, got {seed}", field="seed"
        )
    return seed


def _parse_head(text: str) -> tuple:
    """The document every config shares: the JSON object, its model's
    layout, its inertia and its gravity block, validated in that order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioError("config must be a JSON object")
    lay = model_layout(_parse_model(doc))
    return doc, lay, _parse_inertia(doc), _parse_gravity(doc, lay)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text.

    Raises
    ------
    ScenarioError
        On malformed JSON, missing required fields, unknown enumeration
        values, or physically invalid numbers.
    """
    doc, lay, inertia, gravity = _parse_head(text)
    initial = _parse_initial(doc, lay)
    control = _parse_control(doc, lay)
    method, dt, t_end, sample_every = _parse_integrator(doc)
    seed = _parse_seed(doc)
    return Scenario(
        model=lay.kind,
        inertia=inertia,
        gravity=gravity,
        initial=initial,
        control=control,
        method=method,
        dt=dt,
        t_end=t_end,
        sample_every=sample_every,
        seed=seed,
    )


@dataclass
class HjCheckConfig:
    """Inputs for one steady-equation residual check."""

    model: ModelKind
    inertia: InertiaParams
    gravity: Optional[GravityParams]
    gamma: Optional[np.ndarray]
    equilibrium_guess: Optional[Union[So3RotorState, Se3RotorState]]
    control: ControlLaw
    lift: Union[str, np.ndarray]
    tolerance: float


def parse_hj_check_config(text: str) -> HjCheckConfig:
    """Parse a residual-check document.

    The document carries ``model``, ``inertia``, optional ``gravity``,
    either ``gamma`` (an array of 5 or 8 values) or
    ``gamma: "equilibrium"`` with a ``guess`` array, an optional ``lift``
    (``"zero"``, ``"solve"``, or an array), and an optional ``tolerance``.
    """
    doc, lay, inertia, gravity = _parse_head(text)
    n = lay.dim

    raw_gamma = _require(doc, "gamma", "the config")
    gamma = None
    guess = None
    if raw_gamma == "equilibrium":
        guess = lay.from_vector(_vector(_require(doc, "guess", "the config"), n, "guess"))
    else:
        gamma = _vector(raw_gamma, n, "gamma")

    control = _parse_control(doc, lay)

    lift = doc.get("lift", "zero")
    if isinstance(lift, list):
        lift = _vector(lift, n, "lift")
    elif lift not in ("zero", "solve"):
        raise ScenarioError(
            "field 'lift' must be 'zero', 'solve', or an array of "
            f"{n} numbers, got {lift!r}",
            field="lift",
        )

    tolerance = _positive(doc.get("tolerance", 1e-10), "tolerance")
    return HjCheckConfig(
        model=lay.kind,
        inertia=inertia,
        gravity=gravity,
        gamma=gamma,
        equilibrium_guess=guess,
        control=control,
        lift=lift,
        tolerance=tolerance,
    )


@dataclass
class EquilibriumConfig:
    """Inputs for one equilibrium search."""

    model: ModelKind
    inertia: InertiaParams
    gravity: Optional[GravityParams]
    guess: Union[So3RotorState, Se3RotorState]
    control: ControlLaw
    tol: float
    max_iter: int


def parse_equilibrium_config(text: str) -> EquilibriumConfig:
    """Parse an equilibrium-search document.

    The document carries ``model``, ``inertia``, optional ``gravity``, a
    flat ``guess`` array (5 or 8 values), optional ``control``, and
    optional ``tol`` / ``max_iter``.
    """
    doc, lay, inertia, gravity = _parse_head(text)
    guess_vec = _vector(_require(doc, "guess", "the config"), lay.dim, "guess")
    control = _parse_control(doc, lay)
    tol = _positive(doc.get("tol", 1e-12), "tol")
    max_iter = doc.get("max_iter", 100)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise ScenarioError(
            "field 'max_iter' must be a positive integer", field="max_iter"
        )
    return EquilibriumConfig(
        model=lay.kind,
        inertia=inertia,
        gravity=gravity,
        guess=lay.from_vector(guess_vec),
        control=control,
        tol=tol,
        max_iter=max_iter,
    )


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips 64-bit floats."""
    return f"{float(x):.17g}"


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text with the fixed column schema."""
    header = model_layout(traj.kind).csv_header
    rows = np.column_stack((traj.times, traj.states, traj.energy, traj.casimirs))
    row = ",".join(["{:.17g}"] * rows.shape[1])
    return "\n".join([header, *(row.format(*r) for r in rows.tolist())]) + "\n"


def json_text(obj) -> str:
    """Deterministic JSON rendering: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
