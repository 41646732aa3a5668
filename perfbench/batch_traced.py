"""Run ``resilift --batch DIR`` with the benchmark's tracer installed.

Usage: python3 perfbench/batch_traced.py STATS_DIR DIR

Batch workers are forked from this process, so they inherit the patched
names.  Each worker writes its cumulative layer totals to
``STATS_DIR/worker-<pid>.json`` after every job; this process writes its own
totals to ``STATS_DIR/main-<pid>.json`` before it exits.
"""

import functools
import json
import os
import sys
from pathlib import Path

import tracing


def _dump(tracer: tracing.Tracer, path: Path) -> None:
    path.write_text(json.dumps(tracer.snapshot()))


def main() -> int:
    stats_dir, batch_dir = Path(sys.argv[1]), sys.argv[2]
    stats_dir.mkdir(parents=True, exist_ok=True)
    from resilift import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    run_job = cli._run_batch_job

    @functools.wraps(run_job)
    def traced_job(path_str):
        try:
            return run_job(path_str)
        finally:
            _dump(tracer, stats_dir / f"worker-{os.getpid()}.json")

    # pickled by reference, so workers resolve this wrapper by name
    cli._run_batch_job = traced_job
    try:
        return cli.main(["--batch", batch_dir])
    finally:
        _dump(tracer, stats_dir / f"main-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
