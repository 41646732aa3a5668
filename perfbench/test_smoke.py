"""Smoke test of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py

Each workload runs a tiny schedule through run.py, the printed result is
checked against the schema BENCHMARK.json declares, and every oracle is shown
a deliberately wrong answer that it must reject.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a schedule of a second or two."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.AnalyzeBP, "BODY_PER_ROUND", 2)
    monkeypatch.setattr(catalog, "TAIL", catalog.TAIL[:1])
    monkeypatch.setattr(catalog, "HEAVY", [])
    monkeypatch.setattr(workloads.CriterionSweep, "BODY_PER_ROUND", 50)
    monkeypatch.setattr(workloads.CriterionSweep, "PACERS", 5)
    monkeypatch.setattr(workloads, "PRIME_TAIL", [(Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))])
    monkeypatch.setattr(workloads, "PRIME_HEAVY", (Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)))
    monkeypatch.setattr(workloads.CriterionSweep, "BRUTE_SAMPLE", 20)
    monkeypatch.setattr(workloads.IntegrateChart, "round", lambda self, index: self.inputs[:1])
    monkeypatch.setattr(workloads.CliBatch, "JOBS", 3)
    monkeypatch.setattr(workloads.CliBatch, "OPS_PER_ROUND", 1)


def _run(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(args))
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_declared_metrics(tiny, workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    _check_schema(result, SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"])


def test_declared_metrics_match_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }


def test_speedometer_cancels_a_uniform_slowdown(monkeypatch):
    import speed

    for slowdown in (1.0, 1.7):
        basic = {
            name: (lambda s=slowdown * nominal: s, nominal, every_s)
            for name, (_, nominal, every_s) in speed.BASIC.items()
        }
        monkeypatch.setattr(speed, "BASIC", basic)
        meter = speed.Speedometer("process")
        meter.sample()
        meter.catch_up()
        assert set(meter.samples) == {"start", "loop"}
        assert meter.to_nominal() == pytest.approx(1.0 / slowdown)


def test_short_ops_take_the_nearest_loop_sample():
    import speed

    meter = speed.Speedometer("loop")
    nominal = speed.BASIC["loop"][1]
    meter.samples["loop"] = [nominal, 2 * nominal]
    meter.at["loop"] = [10.0, 11.0]
    short, long_ = speed.SHORT_OP_S / 10, speed.SHORT_OP_S
    factors = meter.factors([(10.9, short), (10.2, short), (10.0, long_)])
    assert factors == pytest.approx([0.5, 1.0, 1.0 / 1.5])


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed):
        workload = workloads.CriterionSweep(run.ROOT, tmp_path, seed)
        workload.prepare()
        return workload.round(2)

    assert inputs(11) == inputs(11) != inputs(12)


def test_every_catalog_job_has_a_digest():
    assert set(oracles.load_digests()) == set(catalog.CATALOG)


# -- every oracle rejects a wrong answer --------------------------------------


def _analyzed(job_id, tmp_path):
    from resilift import cli
    from resilift.residue import analyze

    job = catalog.CATALOG[job_id]
    path = tmp_path / "job.json"
    job.write(path)
    spec = cli.load_job(path)
    text = workloads._dump(cli.report_to_dict(analyze(spec.s, spec.g, spec.weights)))
    return job, text


def test_analyze_oracle_rejects_flipped_verdict_and_changed_bytes(tmp_path):
    digests = oracles.load_digests()
    job, text = _analyzed("bp-3-3-3-one", tmp_path)
    expected = oracles.brute_verdict(job)
    assert expected == "OBSTRUCTED"
    assert oracles.check_report(text, expected, digests[job.job_id]) is None
    flipped = text.replace('"verdict": "OBSTRUCTED"', '"verdict": "LIFTS"')
    assert "brute force" in oracles.check_report(flipped, expected, digests[job.job_id])
    reordered = text.replace("\n", "\n ", 1)
    assert "digest" in oracles.check_report(reordered, expected, digests[job.job_id])


def test_brute_verdict_covers_all_three_outcomes():
    verdicts = {oracles.brute_verdict(catalog.CATALOG[i]) for i in (
        "bp-2-3-7-one", "bp-3-4-6-one", "bp-3-4-6-witness"
    )}
    assert verdicts == {"LIFTS", "INCONCLUSIVE", "OBSTRUCTED"}


def test_criterion_oracle_rejects_flipped_decision():
    from resilift import criteria
    from resilift.weights import WeightSystem

    weights = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))
    w = WeightSystem(weights)
    decision, entries = criteria.lift_criterion(w), criteria.spectrum_nonpositive(w)
    assert oracles.check_criterion(weights, decision, entries, False) is None
    flipped = dataclasses.replace(decision, holds=not decision.holds)
    assert oracles.check_criterion(weights, flipped, entries, None) is not None
    assert oracles.check_criterion(weights, decision, entries, True) is not None
    bad_witness = dataclasses.replace(
        decision, witness=dataclasses.replace(decision.witness, k=(1, 0, 0))
    )
    assert oracles.check_criterion(weights, bad_witness, entries, None) is not None


def test_integral_oracle_rejects_perturbed_value(tmp_path):
    workload = workloads.IntegrateChart(run.ROOT, tmp_path, 5)
    workload.prepare()
    item = workload.inputs[0]  # the Fermat cubic
    reference = workload.references[item["id"]]
    assert abs(reference + 1.7666387502854) < 1e-9  # -B(1/3, 1/3)/3
    payload = workload.run(item)
    assert oracles.check_integral(payload, reference) is None
    assert oracles.check_integral(dict(payload, value=payload["value"] * 1.1), reference)
    assert oracles.check_integral(dict(payload, verdict="LIFTS"), reference)
    assert oracles.check_integral(dict(payload, nonzero=False), reference)


def test_batch_oracle_rejects_changed_report_and_lost_error_row(tiny, tmp_path):
    workload = workloads.CliBatch(run.ROOT, tmp_path, 2)
    workload.prepare()
    workload.stage(0)
    proc = workload.run(0)
    assert workload.check(0, proc) is None
    report = next(workload.copy.glob("*.report.json"))
    report.write_text(report.read_text() + " ")
    assert "differs" in workload.check(0, proc)
    kept = [line for line in proc.stdout.splitlines() if "bad-json" not in line]
    lost = subprocess.CompletedProcess(proc.args, proc.returncode, "\n".join(kept), "")
    assert "malformed" in workload.check(0, lost)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "analyze-bp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
