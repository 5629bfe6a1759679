"""The README's "Library quick start" block runs as written."""

import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        # A deprecation or a numpy warning is a failure of the example too.
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
