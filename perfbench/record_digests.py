"""Record SHA-256 digests of the analyze report bytes of every catalog job.

Usage, from the repository root: python3 perfbench/record_digests.py

The digests in ``digests.json`` are the byte-identical report contract that
the analyze and batch oracles enforce.  Re-record them only when a change is
meant to alter report bytes, and say so in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import oracles  # noqa: E402
from workloads import _dump  # noqa: E402


def main() -> int:
    from resilift import cli
    from resilift.residue import analyze

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for job_id, job in sorted(catalog.CATALOG.items()):
            path = Path(tmp) / f"{job_id}.json"
            job.write(path)
            spec = cli.load_job(path)
            report = analyze(spec.s, spec.g, spec.weights)
            digests[job_id] = oracles.sha256(_dump(cli.report_to_dict(report)))
    oracles.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {oracles.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
