"""In-memory span and counter recorder installed around resilift's public names.

The wrappers live here, in the benchmark, and change nothing under ``src/``:
``install`` replaces each traced function in every loaded ``resilift`` module
that imported it (``resilift.residue.lift_criterion`` as well as
``resilift.criteria.lift_criterion``), and each traced method or property on
its class.  Every call records its inclusive time, its self time (inclusive
minus the time of traced calls made inside it) and the layer's counters.

Spans (name, start, end, parent span, op id) are kept in memory and written
out at the end.  The hot leaves (polynomial products, scalar evaluations,
rational-function normalizations, ``kappa``) are called hundreds of thousands
of times per op; they are aggregated into counters and their time still
counts against the parent's self time, but they get no individual span, which
keeps memory bounded.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# name -> (module, attribute path, kind, counter), kind in {"func", "method", "property"}
# A counter receives (stats, args, result) and adds layer-specific quantities.


def _terms_out(stats, args, result):
    terms = getattr(result, "terms", None)
    if terms is not None:
        stats["terms_out"] = stats.get("terms_out", 0) + len(terms)


def _dp_cells(stats, args, result):
    # D*(1 - kappa) + 1 table cells, computed from the weights themselves so
    # the count does not go through the traced kappa property
    weights = args[0].weights
    kappa = sum(weights, Fraction(0))
    if kappa < 1:
        scale = math.lcm(*(a.denominator for a in weights))
        stats["dp_cells"] = stats.get("dp_cells", 0) + int(scale * (1 - kappa)) + 1


def _entries(stats, args, result):
    stats["entries"] = stats.get("entries", 0) + len(result)


def _samples(stats, args, result):
    stats["samples"] = stats.get("samples", 0) + len(result)


LAYERS = {
    "forms.pullback": ("forms", "pullback", "func", None),
    "algebra.Polynomial.substitute": ("algebra", "Polynomial.substitute", "method", None),
    "algebra.Polynomial.mul": ("algebra", "Polynomial.__mul__", "method", _terms_out),
    "algebra.Polynomial.evaluate": ("algebra", "Polynomial.evaluate", "method", None),
    "algebra.RationalFunction.init": ("algebra", "RationalFunction.__init__", "method", None),
    "algebra.divides": ("algebra", "divides", "func", None),
    "residue.analyze": ("residue", "analyze", "func", None),
    "residue.leray_residue": ("residue", "leray_residue", "func", None),
    "residue.cover_pullback_form": ("residue", "cover_pullback_form", "func", None),
    "residue.blowup_pullback": ("residue", "blowup_pullback", "func", None),
    "residue.second_residue": ("residue", "second_residue", "func", None),
    "residue.ResidueReport.verify": ("residue", "ResidueReport.verify", "method", None),
    "criteria.lift_criterion": ("criteria", "lift_criterion", "func", _dp_cells),
    "criteria.spectrum_nonpositive": ("criteria", "spectrum_nonpositive", "func", _entries),
    "criteria.obstruction_component": ("criteria", "obstruction_component", "func", None),
    "criteria.cover_image": ("criteria", "cover_image", "func", None),
    "weights.WeightSystem.kappa": ("weights", "WeightSystem.kappa", "property", None),
    "weights.quasi_decompose": ("weights", "quasi_decompose", "func", None),
    "weights.require_normalized": ("weights", "require_normalized", "func", None),
    "weights.is_quasihomogeneous": ("weights", "is_quasihomogeneous", "func", None),
    "numint.trace_real_curve": ("numint", "trace_real_curve", "func", _samples),
    "numint.integrate_1form": ("numint", "integrate_1form", "func", None),
    "parser.parse_polynomial": ("parser", "parse_polynomial", "func", _terms_out),
    "cli.load_job": ("cli", "load_job", "func", None),
    "cli.report_to_dict": ("cli", "report_to_dict", "func", None),
    "cli.cmd_integrate": ("cli", "cmd_integrate", "func", None),
}

# aggregated only: no span per call
HOT = {
    "algebra.Polynomial.mul",
    "algebra.Polynomial.evaluate",
    "algebra.RationalFunction.init",
    "weights.WeightSystem.kappa",
}

SPAN_CAP = 500_000


class Tracer:
    """Per-layer totals plus a bounded in-memory span log."""

    def __init__(self):
        self.stats: Dict[str, dict] = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in LAYERS
        }
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.op_id: Optional[int] = None
        # each frame: [span id, time spent in traced children]
        self._stack: List[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        record_span = name not in HOT
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats["calls"] += 1
                stats["incl_s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if record_span:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append(
                            (name, start, end, parent, frame[0], tracer.op_id)
                        )
                    else:
                        tracer.spans_dropped += 1
            if counter is not None:
                counter(stats, args, result)
            return result

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    def snapshot(self) -> Dict[str, dict]:
        return {name: dict(stats) for name, stats in self.stats.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, span_id, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> List[tuple]:
    """Patch every traced name in every loaded resilift module that holds it.

    Returns the (owner, attribute, original) patches for ``uninstall``.
    """
    import resilift  # noqa: F401  (ensures the package is loaded)

    modules = [
        module
        for key, module in list(sys.modules.items())
        if key == "resilift" or key.startswith("resilift.")
    ]
    patches = []
    for name, (module_name, path, kind, counter) in LAYERS.items():
        owner = sys.modules[f"resilift.{module_name}"]
        if kind == "func":
            original = getattr(owner, path)
            traced = tracer.wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, traced)
            continue
        class_name, attr = path.split(".")
        cls = getattr(owner, class_name)
        if kind == "property":
            prop = cls.__dict__[attr]
            patches.append((cls, attr, prop))
            setattr(cls, attr, property(tracer.wrap(name, prop.fget, counter)))
            continue
        original = cls.__dict__[attr]
        traced = tracer.wrap(name, original, counter)
        for other, value in list(cls.__dict__.items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                patches.append((cls, other, original))
                setattr(cls, other, traced)
    return patches


def uninstall(patches: List[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
