"""The demos run end to end and print what they printed when their outputs
were recorded in tests/demo_outputs/; demo 05 also writes the same trace CSV.

Each demo runs in its own interpreter, with a temporary working directory
for the files it writes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import resilift

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "demo_outputs"
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_the_five_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_unchanged(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(resilift.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.stdout").read_text()
    written = sorted(path.name for path in tmp_path.iterdir())
    if demo.name.startswith("05"):
        assert written == ["fermat_branch.csv"]
        csv = (tmp_path / "fermat_branch.csv").read_text()
        assert csv == (EXPECTED / "fermat_branch.csv").read_text()
    else:
        assert written == []
