"""No config escapes ``main``: every input exits 0, 1 or 2, without a traceback.

Each example starts from a shipped ``configs/*.json`` file and replaces one
or two of its values (a leaf or a whole block) by an awkward one, or
deletes a key, then runs every subcommand that reads that kind of config
in-process.  Exit 1 must come with exactly one ``config error:`` line.
A second test renames each key of each shipped config in turn, which
must always be such an exit 1, naming the renamed key.

``dynamics.MAX_STEPS`` is lowered to 2000 to bound each run, which is
only sound because the parser asks :func:`gyrostat.dynamics.integrate`'s
own rule, read at the call.  The shipped scenarios ask for 2500-10000
steps, so each also enters shortened to 1000 steps; otherwise every
example that leaves the integrator alone would stop at the ceiling and
never reach the audit or the integrator.
"""

import contextlib
import copy
import io
import json
import math
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrostat import dynamics
from gyrostat.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CEILING = 2000
SHORT_STEPS = 1000

DELETE = object()
AWKWARD = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1, 1e-308, 5e-324, 1e308, 10**400,
    2.5, 2**64, True, None, "x", [], {}, DELETE,
    [1.0, 2.0], [0.5] * 4, [0.5] * 5, [0.5] * 8,  # wrong lengths for some arrays
]


def _commands(doc) -> list:
    """The subcommands that read `doc`'s kind of config, as argv tails."""
    if "initial" in doc:
        return [["simulate"], ["bracket-audit", "--samples", "50"]]
    return [["hj-check"]] if "gamma" in doc else [["equilibrium"]]


def _bases() -> list:
    bases = []
    for path in sorted(CONFIGS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        bases.append((path.stem, doc))
        if "integrator" in doc:
            short = copy.deepcopy(doc)
            short["integrator"]["t_end"] = SHORT_STEPS * doc["integrator"]["dt"]
            bases.append((f"{path.stem} (short)", short))
    return bases


BASES = _bases()


def _paths(node, prefix=()):
    """Every key and index path into `node`, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    name, doc = draw(st.sampled_from(BASES))
    doc = copy.deepcopy(doc)
    commands = _commands(doc)
    edits = []
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(AWKWARD))
        parent = reduce(getitem, path[:-1], doc)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        edits.append((path, "deleted" if value is DELETE else value))
    return name, edits, doc, commands


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "MAX_STEPS", CEILING)
        yield tmp_path_factory.mktemp("grammar")


def _run(command, config, workdir) -> tuple:
    """Exit code and stderr of `command` run on the config file `config`."""
    argv = [command[0], "--config", str(config), *command[1:]]
    if command[0] == "simulate":
        argv += ["--out", str(workdir / "out.csv"), "--summary", str(workdir / "sum.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# No command warns: a renormalized chi is a `config warning:` line, and
# numpy arithmetic that overflows is quiet, so any warning is an error.
@pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=mutated_configs())
def test_every_config_exits_0_1_or_2_without_a_traceback(workdir, case):
    _name, _edits, doc, commands = case
    config = workdir / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    for command in commands:
        code, err = _run(command, config, workdir)
        assert code in (0, 1, 2), (command, code, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("config error: ") and err.count("\n") == 1, err


# (config name, key path) for every key of every object in every shipped config.
KEY_PATHS = [
    (name, path)
    for name, doc in BASES
    if "(short)" not in name
    for path in _paths(doc)
    if isinstance(reduce(getitem, path[:-1], doc), dict)
]


@pytest.mark.parametrize("name, path", KEY_PATHS, ids=[f"{n}:{'.'.join(p)}" for n, p in KEY_PATHS])
def test_every_renamed_key_is_a_config_error(workdir, name, path):
    # A key the parser does not read is rejected, never dropped: renamed,
    # each key of a shipped config makes every subcommand that reads the
    # config exit 1 with one config error line naming the new key.
    base = dict(BASES)[name]
    doc = copy.deepcopy(base)
    parent = reduce(getitem, path[:-1], doc)
    renamed = path[-1] + "x"
    # Rebuilt in document order, which decides the first unknown key.
    items = [(renamed if k == path[-1] else k, v) for k, v in parent.items()]
    parent.clear()
    parent.update(items)
    config = workdir / "renamed.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    for command in _commands(base):
        code, err = _run(command, config, workdir)
        assert code == 1, (command, code, err)
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert f"'{'.'.join((*path[:-1], renamed))}'" in err, err
