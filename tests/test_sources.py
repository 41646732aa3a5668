"""Every package module compiles without warnings; the CLI imports lightly;
the README API example runs as documented."""

import json
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


def run_python(*args):
    """Run a fresh interpreter that imports this checkout of the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(resilift.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_cli_import_does_not_load_numpy():
    # numpy is only needed by numerical integration; other commands skip it
    code = "import sys, resilift.cli; print('numpy' in sys.modules)"
    assert run_python("-c", code).strip() == "False"


def test_batch_forks_without_threads_or_a_process_pool(tmp_path):
    # Python 3.12 warns with a DeprecationWarning when it forks a process
    # that runs threads; as an error, the warning would fail the batch
    job = {"variables": ["x", "y", "z"], "weights": ["1/3", "1/3", "1/4"], "s": "x^3 + y^3 + z^4"}
    for name in ("a.json", "b.json", "c.json"):
        (tmp_path / name).write_text(json.dumps(job))
    code = (
        "import sys; from resilift.cli import main; code = main(['--batch', sys.argv[1]]); "
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    out = run_python("-W", "error::DeprecationWarning", "-c", code, str(tmp_path))
    assert out.splitlines() == ["a.json: LIFTS", "b.json: LIFTS", "c.json: LIFTS", "0 []"]


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
