"""Every package module compiles without warnings; the CLI imports lightly;
the README API example runs as documented; every private helper is used."""

import ast
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


def _private_definitions(tree):
    """(name, node) for each module-level private function, class or assigned
    name; dunder names such as __all__ are public."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_every_private_helper_is_used():
    # a private name that nothing in the package reads outside its own
    # definition is dead code; an import alone does not count as a use
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = set(map(id, ast.walk(definition)))
            if all(id(node) in inside for node in uses.get(name, ())):
                unused.append(f"{module}: {name}")
    assert unused == []
