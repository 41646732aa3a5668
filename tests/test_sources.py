"""Every package module compiles without warnings."""

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
