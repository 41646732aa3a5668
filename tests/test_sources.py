"""Every package module compiles without warnings; the CLI imports lightly;
the README API example runs as documented."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import resilift

SOURCES = sorted(Path(resilift.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_compiles_without_warnings(path):
    source = path.read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, str(path), "exec")


def test_cli_import_does_not_load_numpy():
    # numpy is only needed by numerical integration; other commands skip it
    code = "import sys, resilift.cli; print('numpy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(resilift.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_readme_quick_start_and_public_names():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (API)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    pending = []  # statements, run before the next commented expression
    checked = {}
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        value = eval(code, namespace)
        try:
            expected = eval(comment.strip(), {"Fraction": Fraction})
        except SyntaxError:  # prose, not a value
            expected = True
        checked[code.strip()] = value
        assert value == expected, line
    assert set(checked) == {
        "report.verdict.kind",
        "report.kappa",
        "report.criterion.witness.k",
        "str(report.leray.form)",
        "str(report.second_residue.form)",
        "report.verify()",
    }
    for name in resilift.__all__:
        assert hasattr(resilift, name), name
