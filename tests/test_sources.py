"""Every package module compiles without warnings; the CLI imports lightly."""

import os
import subprocess
import sys
import warnings
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
