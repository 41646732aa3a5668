"""Read-only access to the benchmark's job catalog, `perfbench/catalog.py`,
loaded under a private module name so the benchmark's directory never joins
sys.path."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_catalog():
    name = "_perfbench_catalog"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "catalog.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module
