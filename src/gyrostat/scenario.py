"""Scenario ingestion from JSON and deterministic result emission.

A scenario document is a single JSON object::

    {
      "model": "so3" | "se3",
      "inertia": {"i_bar": [i1, i2, i3], "j3": j3},
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

Defaults are read from the routines that use the values: zero control;
``integrate``'s method rk4, dt 1e-3, t_end 1.0, sample_every 10; chi
(0, 0, 1), alpha 0, l 0; the audit's seed 42.  A gravity block on so3 is
rejected, as is a missing one on se3.  Feedback control laws are a
library-level feature and have no JSON spelling.

Each block, and the top level of each config kind, names the keys it
takes; the first other key, in document order, is a :class:`ScenarioError`
naming it.  ``null`` is never an absent entry, always an invalid value.

What the two models need of a document (the length of flat arrays,
whether ``gravity`` belongs, the state and lift types, whose fields are
the keys of ``initial`` and ``control``, the CSV columns) is read from the
model's :func:`gyrostat.model.model_layout`.

Emission is deterministic: CSV numbers use 17 significant digits (which
round-trips 64-bit floats exactly), so identical inputs produce identical
bytes.  The CSV header is ``t``, the layout's columns, ``energy`` and its
Casimir names.  JSON reports come from :func:`json_text`, which writes
the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline
itself: sorted keys, two-space indent, ``float.__repr__`` numbers with
json's ``NaN`` and ``Infinity`` words, ASCII-escaped strings.  It takes
str, None, bool, int, float (numpy.float64 included), list, tuple and
dict with str keys, and raises TypeError on anything else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

import numpy as np

from .audit import bracket_oracle_audit
from .dynamics import ConstantControl, Trajectory, _step_count, integrate
from .hj import NEWTON_MAX_ITER, NEWTON_TOL, _check_search
from .model import (
    GravityParams,
    InertiaParams,
    ModelKind,
    ModelLayout,
    Se3RotorState,
    So3RotorState,
    _flat_fields,
    model_layout,
)
from .rng import SplitMix64

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_scenario",
    "parse_hj_check_config",
    "parse_equilibrium_config",
    "HjCheckConfig",
    "EquilibriumConfig",
    "trajectory_csv",
    "json_text",
]

class ScenarioError(ValueError):
    """A config document failed validation; names the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _require(obj: dict, key: str, where: str):
    """``obj[key]``, or a ScenarioError naming the missing key's path.
    `where` is a block's key, or the top level in words ("the config")."""
    if key not in obj:
        name = key if " " in where else f"{where}.{key}"
        raise ScenarioError(f"missing required field '{key}' in {where}", field=name)
    return obj[key]


def _known(obj: dict, keys: tuple, where: Optional[str] = None) -> dict:
    """`obj`, after a ScenarioError on its first key (in document order)
    not in `keys`; `where` names the block, None the top level."""
    for key in obj:
        if key not in keys:
            name = key if where is None else f"{where}.{key}"
            takes = f"{where or 'the config'} takes {', '.join(keys)}"
            raise ScenarioError(f"unknown field '{name}': {takes}", field=name)
    return obj


def _block(doc: dict, key: str, keys: tuple) -> dict:
    """The object `doc[key]`, whose keys must all be in `keys`."""
    block = _require(doc, key, "the scenario")
    if not isinstance(block, dict):
        raise ScenarioError(f"field '{key}' must be an object", field=key)
    return _known(block, keys, key)


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


def _ask(owner, what: str, field, *args, **kwargs):
    """``owner(*args, **kwargs)``, its ValueError raised as a ScenarioError
    on `field`: the routine that uses a value holds its rules."""
    try:
        return owner(*args, **kwargs)
    except ValueError as err:
        raise ScenarioError(f"invalid {what}: {err}", field=field) from err


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
    block = _block(doc, "inertia", ("i_bar", "j3"))
    i_bar = _vector(_require(block, "i_bar", "inertia"), 3, "inertia.i_bar")
    j3 = _number(_require(block, "j3", "inertia"), "inertia.j3")
    return _ask(InertiaParams, "inertia", "inertia", i_bar=i_bar, j3=j3)


def _parse_gravity(doc: dict, lay: ModelLayout) -> Optional[GravityParams]:
    if ("gravity" in doc) != lay.gravity:
        rule = "required for" if lay.gravity else "only valid for"
        raise ScenarioError(f"field 'gravity' is {rule} the se3 model", field="gravity")
    if not lay.gravity:
        return None
    block = _block(doc, "gravity", ("mgh", "chi"))
    mgh = _number(_require(block, "mgh", "gravity"), "gravity.mgh")
    kwargs = {}
    if "chi" in block:
        kwargs["chi"] = _vector(block["chi"], 3, "gravity.chi")
    return _ask(GravityParams, "gravity", "gravity", mgh=mgh, **kwargs)


def _slots(block: dict, cls: type, where: str) -> dict:
    """The entries of `block` for the fields of the state or lift type
    `cls`, checked by the model's field rule: a vector field as a 3-vector,
    the others as numbers.  A required field, a state's ``pi`` or
    ``gamma``, must be there; the others default."""
    slots = {}
    for name, vector, required in _flat_fields(cls):
        if name in block:
            value, path = block[name], f"{where}.{name}"
            slots[name] = _vector(value, 3, path) if vector else _number(value, path)
        elif required:
            _require(block, name, where)
    return slots


def _parse_initial(doc: dict, lay: ModelLayout):
    block = _block(doc, "initial", tuple(name for name, _, _ in _flat_fields(lay.state_type)))
    return lay.state_type(**_slots(block, lay.state_type, "initial"))


def _parse_control(doc: dict, lay: ModelLayout) -> Optional[ConstantControl]:
    if "control" not in doc:
        return None
    names = (name for name, _, _ in _flat_fields(lay.lift_type))
    block = _block(doc, "control", ("kind", *names))
    kind = block.get("kind", "zero")
    if kind == "zero":
        for key in block:
            if key != "kind":
                raise ScenarioError(
                    f"field 'control.{key}' needs \"kind\": \"constant\"", field=f"control.{key}"
                )
        return None
    if kind != "constant":
        raise ScenarioError(
            f"field 'control.kind' must be one of 'zero', 'constant', got {kind!r}",
            field="control.kind",
        )
    # Entries left out default to zero.
    return ConstantControl(lift=lay.lift_type(**_slots(block, lay.lift_type, "control")))


@dataclass
class _ConfigHead:
    """The system every config names first: the model, its inertias and,
    for se3, its restoring torque; the config types extend it."""

    model: ModelKind
    inertia: InertiaParams
    gravity: Optional[GravityParams]


@dataclass
class Scenario(_ConfigHead):
    """One validated simulation/audit setup with defaults applied."""

    initial: Union[So3RotorState, Se3RotorState]
    control: Optional[ConstantControl]
    method: str
    dt: float
    t_end: float
    sample_every: int
    seed: int

    def echo_dict(self) -> dict:
        """Normalized scenario content for summary reports."""
        out = {
            "model": self.model.value,
            "inertia": _echo(self.inertia),
            "initial": _echo(self.initial),
            "control": _control_echo(self.control),
            "integrator": {
                k: getattr(self, k) for k in ("method", "dt", "t_end", "sample_every")
            },
            "seed": self.seed,
        }
        if self.gravity is not None:
            out["gravity"] = _echo(self.gravity)
        return out


def _echo(params) -> dict:
    """The fields of a parameter block, a state or a lift, arrays as lists."""
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(params).items()
    }


def _control_echo(control) -> dict:
    if control is None:
        return {"kind": "zero"}
    if isinstance(control, ConstantControl):
        return {"kind": "constant", **_echo(control.lift)}
    return {"kind": "feedback"}


def _parse_integrator(doc: dict) -> tuple:
    keys = ("method", "dt", "t_end", "sample_every")
    block = _block(doc, "integrator", keys) if "integrator" in doc else {}
    method, dt, t_end, sample_every = (block.get(k, integrate.__kwdefaults__[k]) for k in keys)
    dt = _number(dt, "integrator.dt")
    t_end = _number(t_end, "integrator.t_end")
    _ask(_step_count, "integrator", "integrator", dt, t_end, sample_every, method)
    return method, dt, t_end, sample_every


def _parse_seed(doc: dict) -> int:
    seed = doc.get("seed", bracket_oracle_audit.__kwdefaults__["seed"])
    _ask(SplitMix64, "seed", "seed", seed)
    return seed


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; ScenarioError on a repeated key, of which
    ``json.loads`` would keep the last value and drop the others unread."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _value in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ScenarioError(f"repeated key '{key}': a key may appear once in an object")
    return obj


def _parse_head(text: str, keys: tuple) -> tuple:
    """``(doc, lay, head)``: the JSON object, whose keys must all be the
    head's or in `keys`, its model's layout, and the head every config
    shares, validated and returned in :class:`_ConfigHead` field order."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except ScenarioError:
        raise
    except (ValueError, RecursionError) as err:
        # ValueError is also an integer past Python's int-string limit, and
        # RecursionError arrays or objects nested past the recursion limit.
        raise ScenarioError(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioError("config must be a JSON object")
    _known(doc, ("model", "inertia", "gravity", *keys))
    lay = model_layout(_parse_model(doc))
    return doc, lay, (lay.kind, _parse_inertia(doc), _parse_gravity(doc, lay))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from JSON text.

    Raises
    ------
    ScenarioError
        On malformed JSON, missing required fields, unknown enumeration
        values, or physically invalid numbers.
    """
    doc, lay, head = _parse_head(text, ("initial", "control", "integrator", "seed"))
    initial = _parse_initial(doc, lay)
    control = _parse_control(doc, lay)
    method, dt, t_end, sample_every = _parse_integrator(doc)
    seed = _parse_seed(doc)
    return Scenario(
        *head,
        initial=initial,
        control=control,
        method=method,
        dt=dt,
        t_end=t_end,
        sample_every=sample_every,
        seed=seed,
    )


@dataclass
class HjCheckConfig(_ConfigHead):
    """Inputs for one steady-equation residual check."""

    gamma: Optional[np.ndarray]
    equilibrium_guess: Optional[Union[So3RotorState, Se3RotorState]]
    control: Optional[ConstantControl]
    lift: Union[str, np.ndarray]
    tolerance: float


def parse_hj_check_config(text: str) -> HjCheckConfig:
    """Parse a residual-check document.

    The document carries ``model``, ``inertia``, optional ``gravity``,
    either ``gamma`` (an array of 5 or 8 values) or
    ``gamma: "equilibrium"`` with a ``guess`` array, an optional ``lift``
    (``"zero"``, ``"solve"``, or an array), and an optional ``tolerance``.
    A ``guess`` or a ``control`` beside an explicit ``gamma`` is rejected:
    only the search reads them.
    """
    doc, lay, head = _parse_head(text, ("gamma", "guess", "control", "lift", "tolerance"))
    n = lay.dim

    raw_gamma = _require(doc, "gamma", "the config")
    gamma = None
    guess = None
    if raw_gamma == "equilibrium":
        guess = lay.from_vector(_vector(_require(doc, "guess", "the config"), n, "guess"))
    elif "guess" in doc:
        raise ScenarioError(
            "field 'guess' is only read with \"gamma\": \"equilibrium\"", field="guess"
        )
    else:
        gamma = _vector(raw_gamma, n, "gamma")

    control = _parse_control(doc, lay)
    if gamma is not None and "control" in doc:
        raise ScenarioError(
            "field 'control' is only read with \"gamma\": \"equilibrium\"", field="control"
        )

    lift = doc.get("lift", "zero")
    if isinstance(lift, list):
        lift = _vector(lift, n, "lift")
    elif lift not in ("zero", "solve"):
        raise ScenarioError(
            "field 'lift' must be 'zero', 'solve', or an array of "
            f"{n} numbers, got {lift!r}",
            field="lift",
        )

    tolerance = _number(doc.get("tolerance", 1e-10), "tolerance")
    if tolerance <= 0.0:
        raise ScenarioError(
            f"field 'tolerance' must be positive, got {tolerance}", field="tolerance"
        )
    return HjCheckConfig(
        *head,
        gamma=gamma,
        equilibrium_guess=guess,
        control=control,
        lift=lift,
        tolerance=tolerance,
    )


@dataclass
class EquilibriumConfig(_ConfigHead):
    """Inputs for one equilibrium search."""

    guess: Union[So3RotorState, Se3RotorState]
    control: Optional[ConstantControl]
    tol: float
    max_iter: int


def parse_equilibrium_config(text: str) -> EquilibriumConfig:
    """Parse an equilibrium-search document.

    The document carries ``model``, ``inertia``, optional ``gravity``, a
    flat ``guess`` array (5 or 8 values), optional ``control``, and
    optional ``tol`` / ``max_iter``.
    """
    doc, lay, head = _parse_head(text, ("guess", "control", "tol", "max_iter"))
    guess_vec = _vector(_require(doc, "guess", "the config"), lay.dim, "guess")
    control = _parse_control(doc, lay)
    tol = _number(doc.get("tol", NEWTON_TOL), "tol")
    max_iter = doc.get("max_iter", NEWTON_MAX_ITER)
    _ask(_check_search, "search settings", None, tol, max_iter)
    return EquilibriumConfig(
        *head,
        guess=lay.from_vector(guess_vec),
        control=control,
        tol=tol,
        max_iter=max_iter,
    )


# Rows `trajectory_csv` formats with one `%`: one `%` over a whole
# 200k-sample se3 run raised its peak memory by ~10 MB.
_CSV_BLOCK_ROWS = 1024


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text with the fixed column schema: each
    value as ``{:.17g}`` writes it, one ``%`` per block of rows."""
    header = model_layout(traj.kind).csv_header
    rows = np.column_stack((traj.times, traj.states, traj.energy, traj.casimirs))
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    text = [header, "\n"]
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start : start + _CSV_BLOCK_ROWS]
        text.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(text)


# float.__repr__'s words for the values JSON has no number for.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _put_json(obj, nl: str, out: list) -> None:
    """Append `obj`'s JSON text to `out`, at the indent `nl` (a newline
    and the indent's spaces), as ``json.dumps`` writes it: the same type
    checks in the same order, and the same spellings."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _put_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        # A key that is not a str fails the sort or the quoting: TypeError.
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _put_json(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, byte
    for byte, for trees of str, None, bool, int, float (numpy.float64
    included), list, tuple and dict with str keys; anything else raises
    TypeError.  (json indents only in its pure-Python encoder, which this
    outruns.)"""
    out = []
    _put_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)
