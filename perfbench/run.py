"""resilift benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze-bp --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it runs the same schedule twice, first untraced and then
with the tracer installed, each for half the time, and reports per-layer
metrics per op plus the tracing overhead between the two halves.

Times are reported at the nominal speed of ``speed.py``: the run times a
reference between ops, evenly over the run, and scales every time by the
reference's nominal over its mean, which cancels the shared host's drift.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (environment, tail percentile, failing ops, the per-layer
table, probe outcomes) goes to ``.perfbench_out/result-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402  (the references: standard library only)

SETUP_REPEATS = 9
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

QUANTITY_UNITS = {
    "calls": "calls/op",
    "ms": "ms/op",
    "self_ms": "ms/op",
    "terms_out": "terms/op",
    "dp_cells": "cells/op",
    "entries": "entries/op",
    "samples": "samples/op",
}

# (layer, quantity) pairs reported per op by the traced run; ``ms`` is
# inclusive time, ``self_ms`` excludes the traced calls made inside the layer
LAYER_METRICS = [
    ("forms.pullback", "calls"),
    ("forms.pullback", "ms"),
    ("algebra.Polynomial.substitute", "calls"),
    ("algebra.Polynomial.substitute", "ms"),
    ("algebra.Polynomial.mul", "calls"),
    ("algebra.Polynomial.mul", "terms_out"),
    ("algebra.Polynomial.mul", "ms"),
    ("residue.analyze", "calls"),
    ("residue.analyze", "ms"),
    ("residue.leray_residue", "calls"),
    ("residue.leray_residue", "ms"),
    ("residue.cover_pullback_form", "calls"),
    ("residue.cover_pullback_form", "ms"),
    ("residue.blowup_pullback", "calls"),
    ("residue.blowup_pullback", "ms"),
    ("residue.second_residue", "calls"),
    ("residue.second_residue", "ms"),
    ("residue.ResidueReport.verify", "ms"),
    ("criteria.lift_criterion", "calls"),
    ("criteria.obstruction_component", "calls"),
    ("criteria.cover_image", "calls"),
    ("algebra.divides", "calls"),
    ("algebra.RationalFunction.init", "calls"),
    ("algebra.RationalFunction.init", "ms"),
    ("criteria.lift_criterion", "ms"),
    ("criteria.lift_criterion", "dp_cells"),
    ("criteria.spectrum_nonpositive", "ms"),
    ("criteria.spectrum_nonpositive", "entries"),
    ("weights.WeightSystem.kappa", "calls"),
    ("weights.quasi_decompose", "calls"),
    ("weights.require_normalized", "calls"),
    ("weights.is_quasihomogeneous", "calls"),
    ("numint.trace_real_curve", "ms"),
    ("numint.trace_real_curve", "samples"),
    ("numint.integrate_1form", "ms"),
    ("algebra.Polynomial.evaluate", "calls"),
    ("algebra.Polynomial.evaluate", "ms"),
    ("cli.cmd_integrate", "self_ms"),
    ("parser.parse_polynomial", "calls"),
    ("parser.parse_polynomial", "ms"),
    ("parser.parse_polynomial", "terms_out"),
    ("cli.load_job", "ms"),
    ("cli.report_to_dict", "ms"),
]

EXTRA_LAYER_METRICS = [
    ("bench.trace_overhead", "ratio"),
    ("numint.integral_rel_err_max", "ratio"),
    ("numint.err_bound_miss_share", "ratio"),
    ("numint.probe_fail_share", "ratio"),
]


def per_layer_metrics():
    """Every per-layer metric name with its unit, in report order."""
    names = [
        (f"{layer}.{quantity}", QUANTITY_UNITS[quantity])
        for layer, quantity in LAYER_METRICS
    ]
    return names + EXTRA_LAYER_METRICS


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine_settings": "unchanged: page cache not dropped, no CPU pinning, "
        "no frequency or governor changes, no cgroup or kernel settings touched",
    }


def measure_setup(env):
    """Seconds from a fresh interpreter until ``resilift.cli`` is imported.

    Returns the import times and the speedometer sampled between them.
    """
    from workloads import run_subprocess

    args = [sys.executable, "-c", "import resilift.cli"]
    run_subprocess(args, env, ROOT)  # warm the page cache; not counted
    times = []
    meter = speed.Speedometer("process")
    meter.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = run_subprocess(args, env, ROOT)
        times.append(time.perf_counter() - start)
        meter.catch_up()
        if proc.returncode != 0:
            raise RuntimeError(f"import resilift.cli failed: {proc.stderr.strip()}")
    return times, meter


class Phase:
    """One closed-loop pass over the schedule: latencies, failures and references."""

    def __init__(self, meter):
        self.starts = []  # perf_counter at the start of each attempted op
        self.latencies = []  # seconds, one per attempted op, in schedule order
        self.ok = []
        self.failures = []
        self.round_starts = []  # index of the first op of each round
        self.meter = meter  # the workload's reference, sampled between ops

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.failures)


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Whole rounds until ``seconds`` have passed, with the reference in between."""
    phase = Phase(speed.Speedometer(workload.reference))
    clock = time.perf_counter
    started = clock()
    phase.meter.sample()
    index = 0
    while index == 0 or clock() - started < seconds:
        phase.round_starts.append(phase.attempted)
        for item in workload.round(index):
            workload.stage(item)
            if tracer is not None:
                tracer.op_id = phase.attempted
            begin = clock()
            try:
                output = workload.run(item)
                problem = None
            except Exception as exc:  # an op that raises is a failed op
                output, problem = None, f"{type(exc).__name__}: {exc}"
            phase.starts.append(begin)
            phase.latencies.append(clock() - begin)
            if problem is None:
                problem = workload.check(item, output)
            phase.ok.append(problem is None)
            if problem is not None:
                phase.failures.append({"op": workload.label(item), "problem": problem})
            phase.meter.catch_up()
        index += 1
    return phase


def scaled_latencies(phase: Phase) -> list:
    """Every op's latency at the nominal speed."""
    factors = phase.meter.factors(zip(phase.starts, phase.latencies))
    return [t * f for t, f in zip(phase.latencies, factors)]


def summarize(phase: Phase) -> dict:
    scaled = scaled_latencies(phase)
    done = sorted(t for t, ok in zip(scaled, phase.ok) if ok)
    # throughput over the rounds after the first: they all have the same
    # composition, while round 0 also carries the once-per-run heavy ops
    first = phase.round_starts[1] if len(phase.round_starts) > 1 else 0
    steady = [t for t, ok in zip(scaled[first:], phase.ok[first:]) if ok]
    n = len(done)
    if n > TAIL_BEYOND:
        tail = done[n - TAIL_BEYOND - 1]
        tail_pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, tail_pct = (done[-1] if done else 0.0), 100.0
    raw_done = sorted(t for t, ok in zip(phase.latencies, phase.ok) if ok)
    return {
        "completed": n,
        "rounds": len(phase.round_starts),
        "reference_s": phase.meter.samples,
        "run_mean_to_nominal": phase.meter.to_nominal(),
        "raw_busy_s": sum(phase.latencies),
        "raw_op_p50_ms": 1e3 * statistics.median(raw_done) if raw_done else 0.0,
        "ops_per_s": len(steady) / sum(steady) if steady else 0.0,
        "op_p50_ms": 1e3 * statistics.median(done) if done else 0.0,
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": min(TAIL_BEYOND, max(n - 1, 0)),
        "ok_share": n / phase.attempted if phase.attempted else 0.0,
        "fail_share": phase.failed / phase.attempted if phase.attempted else 0.0,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_table(stats: dict, ops: int) -> dict:
    table = {}
    for layer, values in stats.items():
        row = {
            "calls": values["calls"] / ops,
            "ms": 1e3 * values["incl_s"] / ops,
            "self_ms": 1e3 * values["self_s"] / ops,
        }
        for key, value in values.items():
            if key not in ("calls", "incl_s", "self_s"):
                row[key] = value / ops
        table[layer] = row
    return table


def merge_stats(files) -> dict:
    import tracing

    merged = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in tracing.LAYERS}
    for path in files:
        for name, values in json.loads(Path(path).read_text()).items():
            for key, value in values.items():
                merged[name][key] = merged[name].get(key, 0) + value
    return merged


def traced_run(workload, seconds: float, detail: dict):
    import tracing

    half = seconds / 2.0
    plain = run_phase(workload, half)
    if workload.children_rss:
        shutil.rmtree(workload.stats_dir, ignore_errors=True)
        workload.traced = True
        traced = run_phase(workload, half)
        workload.traced = False
        stats = merge_stats(sorted(workload.stats_dir.glob("*.json")))
        detail["spans"] = "not kept: the traced layers run in the batch processes"
    else:
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            traced = run_phase(workload, half, tracer)
        finally:
            tracing.uninstall(patches)
        stats = tracer.snapshot()
        spans_path = OUT_DIR / f"spans-{workload.name}-s{workload.seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans"] = {
            "path": str(spans_path.relative_to(ROOT)),
            "kept": len(tracer.spans),
            "dropped": tracer.spans_dropped,
        }
    # the two halves run the same schedule; compare the ops both completed
    common = min(plain.attempted, traced.attempted)
    overhead = (
        sum(scaled_latencies(traced)[:common]) / sum(scaled_latencies(plain)[:common]) - 1.0
    )
    table = layer_table(stats, traced.attempted)
    metrics = {}
    for layer, quantity in LAYER_METRICS:
        metrics[f"{layer}.{quantity}"] = table[layer].get(quantity, 0.0)
    metrics["bench.trace_overhead"] = overhead
    accuracy = getattr(workload, "accuracy", [])
    metrics["numint.integral_rel_err_max"] = max((a for a, _ in accuracy), default=0.0)
    metrics["numint.err_bound_miss_share"] = (
        sum(1 for _, miss in accuracy if miss) / len(accuracy) if accuracy else 0.0
    )
    probes = workload.run_probes() if hasattr(workload, "run_probes") else []
    metrics["numint.probe_fail_share"] = (
        sum(1 for p in probes if p["failure"]) / len(probes) if probes else 0.0
    )
    detail.update(
        untraced=summarize(plain),
        traced=summarize(traced),
        overhead_ops_compared=common,
        layers=table,
        probes=probes,
        failures=plain.failures + traced.failures,
    )
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def integral_accuracy(workload) -> dict:
    accuracy = getattr(workload, "accuracy", None)
    if not accuracy:
        return {"integral_rel_err_max": None, "err_bound_miss_share": None}
    return {
        "integral_rel_err_max": max(a for a, _ in accuracy),
        "err_bound_miss_share": sum(1 for _, miss in accuracy if miss) / len(accuracy),
        "reference_ops": len(accuracy),
    }


def print_human(detail: dict, metrics: dict, units: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}")
    env = detail["environment"]
    print(
        f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}; "
        f"machine settings {env['machine_settings']}"
    )
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    summary = detail.get("summary") or detail.get("traced")
    print(
        f"  tail = p{summary['tail_percentile']:.2f} over {summary['completed']} ops "
        f"({summary['tail_samples_beyond']} beyond); fail_share {summary['fail_share']:.4g}"
    )
    for failure in detail["failures"][:10]:
        print(f"  FAILED {failure['op']}: {failure['problem']}")
    for probe in detail.get("probes", []):
        print(f"  probe {probe['input']}: {probe['failure'] or 'ok'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import resilift.cli  # noqa: F401  (fails here when the program is absent)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; known: {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = workloads.program_env(ROOT)
        setup_times, setup_meter = measure_setup(env)
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        workload.prepare()
        warm = workload.round(0)[0]
        workload.stage(warm)
        workload.run(warm)

        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "environment": environment(),
            "setup_s_raw_samples": setup_times,
            "setup_reference_s": setup_meter.samples,
            "load": "closed loop, one client, one process"
            + ("; the batch CLI runs its own worker pool" if workload.children_rss else ""),
        }
        if args.trace:
            metrics, attempted, failed = traced_run(workload, args.seconds, detail)
            units = dict(per_layer_metrics())
        else:
            phase = run_phase(workload, args.seconds)
            summary = summarize(phase)
            metrics = {
                "setup_s": statistics.median(setup_times) * setup_meter.to_nominal(),
                "ops_per_s": summary["ops_per_s"],
                "op_p50_ms": summary["op_p50_ms"],
                "op_tail_ms": summary["op_tail_ms"],
                "ok_share": summary["ok_share"],
                "peak_rss_mb": peak_rss_mb(workload.children_rss),
            }
            units = dict(END_TO_END)
            attempted, failed = phase.attempted, phase.failed
            detail.update(summary=summary, failures=phase.failures)
        detail["issue_metrics"] = {
            "fail_share": failed / attempted,
            **integral_accuracy(workload),
        }
        detail["metrics"] = metrics
        (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(detail, indent=2)
        )
        print_human(detail, metrics, units)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
