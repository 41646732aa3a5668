"""The byte-identical report contract: every catalog job of the benchmark
analyzes, verifies, and serializes to the bytes recorded in its digest file.

The test only reads `perfbench/catalog.py` and `perfbench/digests.json`; the
reports are dumped with the CLI's own writer, whose format the digests hold.
"""

import hashlib
import json

from perfbench_catalog import PERFBENCH, load_catalog
from resilift import cli
from resilift.residue import analyze


def test_every_catalog_job_verifies_and_matches_its_digest(tmp_path):
    catalog = load_catalog().CATALOG
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    assert len(catalog) == 474
    assert set(digests) == set(catalog)
    mismatched = []
    for job_id, job in sorted(catalog.items()):
        path = tmp_path / f"{job_id}.json"
        job.write(path)
        spec = cli.load_job(path)
        report = analyze(spec.s, spec.g, spec.weights)
        assert report.verify() is True, job_id
        text = cli._dump(cli.report_to_dict(report))
        if hashlib.sha256(text.encode()).hexdigest() != digests[job_id]:
            mismatched.append(job_id)
    assert mismatched == []
