"""Run every workload untraced and traced, then print one table of each.

Usage, from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 15

The first table has the eight end-to-end metrics of every workload by name
and unit: the six BENCHMARK.json bounds, plus ``fail_share`` and the two
integral-accuracy metrics that apply to ``integrate-chart`` only.  The second
has every traced layer per op (calls, inclusive and self milliseconds and the
layer's counters) with the measured tracing overhead of each workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"

EIGHT = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("fail_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("integral_rel_err_max", "ratio"),
    ("err_bound_miss_share", "ratio"),
]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    return json.loads((OUT_DIR / f"result-{workload}-s{seed}-t{trace}.json").read_text())


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.5g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    plain = {w: _run(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: _run(w, args.seed, args.seconds, 1) for w in names}

    env = plain[names[0]]["environment"]
    print(
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}; "
        f"machine settings {env['machine_settings']}"
    )
    print(f"\nend-to-end, seed {args.seed}, {args.seconds} s per run")
    print(f"{'metric':<24}{'unit':<7}" + "".join(f"{w:>18}" for w in names))
    for name, unit in EIGHT:
        cells = []
        for w in names:
            detail = plain[w]
            value = detail["metrics"].get(name, detail["issue_metrics"].get(name))
            cells.append(_fmt(value))
        print(f"{name:<24}{unit:<7}" + "".join(f"{c:>18}" for c in cells))
    tails = ", ".join(
        f"{w} p{plain[w]['summary']['tail_percentile']:.2f} of {plain[w]['summary']['completed']}"
        for w in names
    )
    print(f"tail percentile (10 samples beyond): {tails}")
    for w in names:
        for failure in plain[w]["failures"] + traced[w]["failures"]:
            print(f"FAILED {w} {failure['op']}: {failure['problem']}")
        for probe in traced[w]["probes"]:
            print(f"probe {w} {probe['input']}: {probe['failure'] or 'ok'}")

    print("\nper layer, per op (traced run): calls / inclusive ms / self ms [counters]")
    print(f"{'layer':<34}" + "".join(f"{w:>38}" for w in names))
    for layer in traced[names[0]]["layers"]:
        cells = []
        for w in names:
            row = traced[w]["layers"][layer]
            extra = [f"{k} {v:.4g}" for k, v in row.items() if k not in ("calls", "ms", "self_ms")]
            text = f"{row['calls']:.4g}/{row['ms']:.4g}/{row['self_ms']:.4g}"
            cells.append(text + (f" [{', '.join(extra)}]" if extra and row["calls"] else ""))
        print(f"{layer:<34}" + "".join(f"{c:>38}" for c in cells))
    overhead = "  ".join(f"{w} {traced[w]['metrics']['bench.trace_overhead']:+.1%}" for w in names)
    print(f"tracing overhead (traced vs untraced op time): {overhead}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
