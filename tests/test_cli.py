"""Command line interface: job files, report schema, exit codes,
determinism, batch mode."""

import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from resilift import cli, numint
from resilift.cli import JobError, _dump, cmd_integrate, load_job, main, report_to_dict
from resilift.numint import SingularPointError
from resilift.residue import analyze

FERMAT_JOB = {
    "variables": ["z0", "z1", "z2"],
    "weights": ["1/3", "1/3", "1/3"],
    "s": "z0^3 + z1^3 + z2^3",
    "g": "1",
}

LIFTS_JOB = {
    "variables": ["x", "y", "z"],
    "weights": ["1/3", "1/3", "1/4"],
    "s": "x^3 + y^3 + z^4",
}

COVER_JOB = {
    "variables": ["x", "y", "z"],
    "weights": ["1/2", "1/2", "1/4"],
    "s": "(x + z^2)^2 + y^2 - z^4",
}


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_job_defaults(tmp_path):
    job = load_job(write_job(tmp_path, LIFTS_JOB))
    assert job.variables == ("x", "y", "z")
    assert str(job.g) == "1"
    assert job.quadrature_steps == 1200
    assert not job.rescale_weights


def test_load_job_rejects_bad_input(tmp_path):
    with pytest.raises(JobError):
        load_job(write_job(tmp_path, {"variables": ["x"], "weights": ["1/2"]}))
    with pytest.raises(JobError):
        load_job(write_job(tmp_path, {**LIFTS_JOB, "weights": ["1/3", "1/3"]}))
    with pytest.raises(JobError):
        load_job(write_job(tmp_path, {**LIFTS_JOB, "s": "x +* y"}))
    with pytest.raises(JobError):
        load_job(write_job(tmp_path, {**LIFTS_JOB, "options": {"tpyo": 1}}))
    with pytest.raises(JobError):
        load_job(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(JobError):
        load_job(str(bad))
    # options take JSON booleans and integers, not strings or booleans
    for options in (
        {"rescale_weights": "false"},
        {"emit_trace": 0},
        {"quadrature_steps": True},
    ):
        with pytest.raises(JobError):
            load_job(write_job(tmp_path, {**LIFTS_JOB, "options": options}))


def test_analyze_exit_codes(tmp_path, capsys):
    assert main(["analyze", write_job(tmp_path, LIFTS_JOB)]) == 0
    capsys.readouterr()
    assert main(["analyze", write_job(tmp_path, FERMAT_JOB)]) == 10
    capsys.readouterr()
    inconclusive = dict(FERMAT_JOB, g="z0")
    assert main(["analyze", write_job(tmp_path, inconclusive)]) == 11
    capsys.readouterr()
    broken = dict(LIFTS_JOB, weights=["1/3", "1/3", "bad"])
    assert main(["analyze", write_job(tmp_path, broken)]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    removable = dict(FERMAT_JOB, g="z0*(z0^3 + z1^3 + z2^3)")
    assert main(["analyze", write_job(tmp_path, removable)]) == 2
    assert "removable" in capsys.readouterr().err
    for options in ({}, {"rescale_weights": True}):
        constant = dict(FERMAT_JOB, s="5", options=options)
        assert main(["analyze", write_job(tmp_path, constant)]) == 2
        err = capsys.readouterr().err
        assert "WeightError: equation 5 is constant" in err


def test_analyze_report_schema(tmp_path, capsys):
    main(["analyze", write_job(tmp_path, FERMAT_JOB)])
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "kappa",
        "l",
        "C",
        "criterion",
        "spectrum",
        "leray_residue",
        "blowup_exponent",
        "second_residue",
        "verdict",
        "warnings",
    ]
    assert report["kappa"] == "1"
    assert report["l"] == 3
    assert report["C"] == 1
    assert report["criterion"] == {
        "holds": False,
        "witness": {"k": [0, 0, 0], "value": "1"},
    }
    assert report["spectrum"] == [{"value": "0", "k": [0, 0, 0]}]
    assert report["leray_residue"]["chart"] == 0
    assert report["leray_residue"]["form"] == "((1/3)/(z0^2))*(dz1 /\\ dz2)"
    assert report["blowup_exponent"] == -1
    assert report["second_residue"]["form"] == "((1/3)/(u1^2))*du2"
    assert report["second_residue"]["relation"] == "u1^3+u2^3+1"
    assert report["verdict"] == "OBSTRUCTED"
    assert report["warnings"] == []


def test_analyze_lifts_schema(tmp_path, capsys):
    main(["analyze", write_job(tmp_path, LIFTS_JOB)])
    report = json.loads(capsys.readouterr().out)
    assert report["kappa"] == "11/12"
    assert report["criterion"]["holds"] is True
    assert report["criterion"]["witness"] is None
    assert report["second_residue"] is None
    assert report["verdict"] == "LIFTS"
    assert report["spectrum"] == [{"value": "-1/12", "k": [0, 0, 0]}]


def test_analyze_out_file_and_determinism(tmp_path, capsys):
    job = write_job(tmp_path, FERMAT_JOB)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", job, "--out", str(out1)]) == 10
    assert main(["analyze", job, "--out", str(out2)]) == 10
    assert out1.read_bytes() == out2.read_bytes()
    summary = capsys.readouterr().out
    assert "OBSTRUCTED" in summary


def test_spectrum_command(capsys):
    assert main(["spectrum", "1/3", "1/3", "1/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == "1"
    assert payload["entries"] == [{"value": "0", "k": [0, 0, 0]}]


def test_criterion_command(capsys):
    assert main(["criterion", "1/3", "1/3", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "holds"
    assert main(["criterion", "1/3", "1/3", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "fails" in out
    assert "k=(0, 0, 0)" in out
    assert main(["criterion", "nonsense"]) == 2


def test_pullback_command(tmp_path, capsys):
    assert main(["pullback", write_job(tmp_path, COVER_JOB)]) == 0
    out = capsys.readouterr().out
    assert "x^4+2*x^2*z^2+y^4" in out
    assert "UNKNOWN" in out
    assert "z" in out


def test_integrate_command(tmp_path, capsys):
    job = write_job(tmp_path, FERMAT_JOB)
    assert main(["integrate", job]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "OBSTRUCTED"
    assert payload["value"] < 0
    assert payload["nonzero"] is True
    assert payload["samples"] > 2000
    assert not payload["closed"]


def test_integrate_rejects_lifting_job(tmp_path, capsys):
    job = write_job(tmp_path, LIFTS_JOB)
    assert main(["integrate", job]) == 2
    assert "criterion holds" in capsys.readouterr().err


def test_integrate_steps_and_trace(tmp_path, capsys):
    payload = dict(FERMAT_JOB, options={"emit_trace": True})
    job = write_job(tmp_path, payload)
    out = tmp_path / "int.json"
    assert main(["integrate", job, "--steps", "400", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["samples"] == 801
    trace_path = tmp_path / "int.trace.csv"
    assert trace_path.exists()
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "u1,u2"
    assert len(lines) == report["samples"] + 1


def test_integrate_refuses_nonpositive_steps_before_analyzing(tmp_path, capsys, monkeypatch):
    job = write_job(tmp_path, FERMAT_JOB)

    def refuse(*args, **kwargs):
        raise AssertionError("analyze ran for a step budget it must refuse")

    monkeypatch.setattr(cli, "analyze", refuse)
    for steps in ("0", "-3"):
        assert main(["integrate", job, "--steps", steps]) == 2
        assert capsys.readouterr().err == "error: --steps must be a positive integer\n"


def test_integrate_matches_exact_evaluation(tmp_path, capsys, monkeypatch):
    """Compiled float evaluators leave every integrate output byte-identical."""
    hesse = dict(FERMAT_JOB, s="z0^3 + z1^3 + z2^3 - z0*z1*z2")
    jobs = [
        load_job(write_job(tmp_path, job, f"{i}.json"))
        for i, job in enumerate((FERMAT_JOB, hesse))
    ]

    def outputs():
        seen = []
        for i, job in enumerate(jobs):
            out = tmp_path / f"{i}.out.json"
            cmd_integrate(job, out=str(out))
            seen.append((out.read_bytes(), capsys.readouterr().out))
        # at twice the steps the Fermat trace runs into a tangency
        with pytest.raises(SingularPointError) as failure:
            cmd_integrate(jobs[0], steps=2400)
        seen.append(str(failure.value))
        return seen

    compiled = outputs()
    monkeypatch.setattr(numint, "_float_evaluator", _exact_evaluator)
    assert outputs() == compiled


def _exact_evaluator(*polys, array=False):
    """A stand-in for ``numint._float_evaluator`` built on the exact evaluate.

    The scalar form returns ``float(p.evaluate(values))`` for one argument
    and the tuple of those for several.  The array form does the same
    element by element, and raises FloatingPointError where that raises or
    gives a non-finite value.
    """

    def scalar(*values):
        out = tuple(float(p.evaluate(values)) for p in polys)
        return out if len(polys) > 1 else out[0]

    if not array:
        return scalar

    def elementwise(*columns):
        try:
            rows = [scalar(*values) for values in zip(*(c.tolist() for c in columns))]
        except (ZeroDivisionError, OverflowError) as exc:
            raise FloatingPointError(str(exc)) from exc
        out = np.array(rows, dtype=float).reshape(len(rows), len(polys)).T
        if not np.isfinite(out).all():
            raise FloatingPointError("a value is not finite")
        return tuple(out) if len(polys) > 1 else out[0]

    return elementwise


def test_integrate_refuses_a_coefficient_beyond_the_float_range(tmp_path, capsys):
    job = write_job(tmp_path, dict(FERMAT_JOB, s="10^400*z0^3+z1^3+z2^3"))
    assert main(["integrate", job]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NumericError: a coefficient is beyond the float range")


def test_batch_mode(tmp_path, capsys):
    write_job(tmp_path, FERMAT_JOB, "a_fermat.json")
    write_job(tmp_path, LIFTS_JOB, "b_lifts.json")
    assert main(["--batch", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "a_fermat.json: OBSTRUCTED" in out
    assert "b_lifts.json: LIFTS" in out
    report = json.loads((tmp_path / "a_fermat.report.json").read_text())
    assert report["verdict"] == "OBSTRUCTED"
    # a second run skips the generated report files as inputs
    assert main(["--batch", str(tmp_path)]) == 0


BP_EXPONENTS = [(p, q, r) for p in (2, 3, 4) for q in (3, 4, 5) for r in (3, 4, 5, 6, 7)]


def write_bp_jobs(tmp_path, count):
    """Write ``count`` Brieskorn-Pham jobs; map each file name to its verdict and report."""
    expected = {}
    for p, q, r in BP_EXPONENTS[:count]:
        name = f"bp_{p}_{q}_{r}.json"
        payload = dict(
            FERMAT_JOB, s=f"z0^{p} + z1^{q} + z2^{r}", weights=[f"1/{p}", f"1/{q}", f"1/{r}"]
        )
        job = load_job(write_job(tmp_path, payload, name))
        report = analyze(job.s, job.g, job.weights)
        expected[name] = (report.verdict.kind, _dump(report_to_dict(report)))
    return expected


def test_batch_mode_many_jobs_per_worker(tmp_path, capsys):
    """Each worker runs a share of more than 4 jobs; rows come back sorted and
    reports are unchanged."""
    workers = min(os.cpu_count() or 1, 8)
    expected = write_bp_jobs(tmp_path, 4 * workers + 3)
    assert len(expected) > 4 * workers
    assert main(["--batch", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == [f"{name}: {verdict}" for name, (verdict, _) in sorted(expected.items())]
    for name, (_, text) in expected.items():
        assert (tmp_path / name).with_suffix(".report.json").read_text() == text


@pytest.mark.skipif(not hasattr(os, "fork"), reason="batch workers are forked")
def test_batch_mode_killed_worker_costs_only_its_own_rows(tmp_path, capsys, monkeypatch):
    expected = write_bp_jobs(tmp_path, 7)
    names = sorted(expected)
    killed = 1
    run_job = cli._run_batch_job

    def run_or_die(path_str):
        if Path(path_str).name == names[killed]:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_job(path_str)

    monkeypatch.setattr(cli, "_run_batch_job", run_or_die)
    assert main(["--batch", str(tmp_path)]) == 2
    # the killed job and the later jobs of its share: jobs[k::workers]
    workers = min(len(names), os.cpu_count() or 1, 8)
    lost = {name for i, name in enumerate(names) if i >= killed and i % workers == killed % workers}
    lost_row = f"error: worker exited (signal {int(signal.SIGKILL)}) before reporting this job"
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: {lost_row if name in lost else expected[name][0]}" for name in names
    ]
    for name, (_, text) in expected.items():
        report = (tmp_path / name).with_suffix(".report.json")
        if name in lost:
            assert not report.exists()
        else:
            assert report.read_text() == text
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_batch_mode_rows_longer_than_a_pipe_buffer(tmp_path, capsys):
    # each worker writes more than the 64 KiB a pipe holds before its reader drains it
    keys = [f"{i}" * 70_000 for i in range(4)]
    for i, key in enumerate(keys):
        write_job(tmp_path, {**FERMAT_JOB, "options": {key: 1}}, f"long_{i}.json")
    write_job(tmp_path, FERMAT_JOB, "good.json")
    assert main(["--batch", str(tmp_path)]) == 2
    known = "emit_trace, quadrature_steps, rescale_weights"
    assert capsys.readouterr().out.splitlines() == ["good.json: OBSTRUCTED"] + [
        f'long_{i}.json: error: unknown option keys: "{key}"; known: {known}'
        for i, key in enumerate(keys)
    ]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="batch workers are forked")
def test_batch_mode_with_descriptors_above_1023(tmp_path, capsys):
    # a caller with many open files hands the pipes numbers select() refuses
    resource = pytest.importorskip("resource")
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("the open-file limit is too low")
    write_job(tmp_path, FERMAT_JOB, "a.json")
    write_job(tmp_path, LIFTS_JOB, "b.json")
    held = [os.open(os.devnull, os.O_RDONLY)]
    try:
        while held[-1] < 1100:
            held.append(os.dup(held[0]))
        assert main(["--batch", str(tmp_path)]) == 0
    finally:
        for fd in held:
            os.close(fd)
    assert capsys.readouterr().out.splitlines() == ["a.json: OBSTRUCTED", "b.json: LIFTS"]


def test_batch_mode_without_fork_runs_in_process(tmp_path, capsys, monkeypatch):
    expected = write_bp_jobs(tmp_path, 5)
    (tmp_path / "broken.json").write_text("{oops")
    assert main(["--batch", str(tmp_path)]) == 2
    rows = capsys.readouterr().out
    for name in expected:
        (tmp_path / name).with_suffix(".report.json").unlink()
    monkeypatch.delattr(os, "fork", raising=False)
    assert main(["--batch", str(tmp_path)]) == 2
    assert capsys.readouterr().out == rows
    assert "\nbroken.json: error: " in rows
    for name, (verdict, text) in expected.items():
        assert f"{name}: {verdict}" in rows.splitlines()
        assert (tmp_path / name).with_suffix(".report.json").read_text() == text


def test_batch_mode_reports_failures(tmp_path, capsys):
    write_job(tmp_path, FERMAT_JOB, "good.json")
    (tmp_path / "broken.json").write_text("{oops")
    assert main(["--batch", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "broken.json: error" in out
    assert "good.json: OBSTRUCTED" in out


NON_STRING_FIELDS = (
    ({"s": 5}, "s must be a string, got 5"),
    ({"g": None}, "g must be a string, got null"),
    ({"g": ["1"]}, 'g must be a string, got ["1"]'),
    # job values are spelled as JSON, as the user wrote them
    ({"weights": [True, "1/3", "1/3"]}, "weights[0] must be a string or an integer, got true"),
    ({"weights": ["1/3", 0.5, "1/3"]}, "weights[1] must be a string or an integer, got 0.5"),
    (
        {"weights": ["1/3", "1/3", "-1/3"]},
        'bad weights ["1/3", "1/3", "-1/3"]: weights must be positive rationals, got -1/3',
    ),
    ({"options": {"rescale_weights": "false"}}, 'rescale_weights must be true or false, got "false"'),
    (
        {"options": {"": 1, "a, b": 2}},
        'unknown option keys: "", "a, b"; known: emit_trace, quadrature_steps, rescale_weights',
    ),
)


def test_non_string_polynomials_and_bool_weights_are_job_errors(tmp_path, capsys):
    for change, message in NON_STRING_FIELDS:
        path = write_job(tmp_path, {**FERMAT_JOB, **change})
        with pytest.raises(JobError) as info:
            load_job(path)
        assert str(info.value) == message
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_batch_mode_reports_non_string_fields(tmp_path, capsys):
    write_job(tmp_path, FERMAT_JOB, "good.json")
    for i, (change, _) in enumerate(NON_STRING_FIELDS):
        write_job(tmp_path, {**FERMAT_JOB, **change}, f"bad_{i}.json")
    assert main(["--batch", str(tmp_path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"bad_{i}.json: error: {message}" for i, (_, message) in enumerate(NON_STRING_FIELDS)
    ] + ["good.json: OBSTRUCTED"]


def test_batch_mode_empty_directory(tmp_path, capsys):
    assert main(["--batch", str(tmp_path)]) == 2
    assert main(["--batch", str(tmp_path / "nope")]) == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_integrate_compiles_at_most_five_evaluators(tmp_path, capsys, monkeypatch):
    """A Fermat integrate compiles the seed scan, the tracer and the scalar
    P, Q and gradient once each; array forms are not compiled."""
    import builtins

    compiles = []

    def counting_exec(source, namespace):
        compiles.append(source)
        return builtins.exec(source, namespace)

    monkeypatch.setattr(numint, "exec", counting_exec, raising=False)
    cmd_integrate(load_job(write_job(tmp_path, FERMAT_JOB)), out=str(tmp_path / "out.json"))
    assert 0 < len(compiles) <= 5
