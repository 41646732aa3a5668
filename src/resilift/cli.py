"""Command line front end: JSON job files in, deterministic reports out.

Subcommands, one concern each:

    analyze <job.json> [--out report.json]   full pipeline, exit code = verdict
    spectrum <w0> <w1> ...                   nonpositive spectrum entries
    criterion <w0> <w1> ...                  the lift criterion for the weights
    pullback <job.json>                      branched cover image and probe
    integrate <job.json> [--steps N]         trace the chart curve, integrate
    --batch <dir>                            run every job file in forked workers

Exit codes for analyze: 0 the class lifts, 10 obstructed, 11 inconclusive,
2 malformed input.  Reports are JSON with a fixed key order, rationals as
"p/q" strings and forms as canonical text, so identical jobs produce byte
identical reports.

``--batch`` forks one worker per share of the sorted job list (at most one
per CPU, at most 8); each worker reports its rows over its own pipe.  A
worker that dies costs only the rows it had not reported yet; those become
error rows.  Where ``os.fork`` is missing the jobs run in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .algebra import Polynomial
from .criteria import (
    INCONCLUSIVE,
    LIFTS,
    OBSTRUCTED,
    lift_criterion,
    pullback_singularity_probe,
    spectrum_nonpositive,
)
from . import numint
from .numint import export_trace_csv, integrate_1form, trace_real_curve
from .parser import ParseError, parse_polynomial
from .residue import ResidueReport, analyze
from .weights import WeightError, WeightSystem, is_quasihomogeneous

VERDICT_EXIT = {LIFTS: 0, OBSTRUCTED: 10, INCONCLUSIVE: 11}
INPUT_ERROR = 2
DEFAULT_STEP = Fraction(1, 100)
DEFAULT_MAX_STEPS = 1200


class JobError(Exception):
    """Malformed job file or options."""


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: variables, weights, equation, numerator, options."""

    variables: Tuple[str, ...]
    weights: WeightSystem
    s: Polynomial
    g: Polynomial
    rescale_weights: bool = False
    emit_trace: bool = False
    quadrature_steps: int = DEFAULT_MAX_STEPS


_KNOWN_OPTIONS = {"rescale_weights", "emit_trace", "quadrature_steps"}


def load_job(path) -> JobSpec:
    """Parse and validate a JSON job file; JobError carries diagnostics."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise JobError(f"cannot read job file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise JobError(f"job file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise JobError(f"job file {path} must contain a JSON object")
    missing = [key for key in ("variables", "weights", "s") if key not in raw]
    if missing:
        raise JobError(f"job file {path} is missing fields: {', '.join(missing)}")

    variables = raw["variables"]
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) and v.isidentifier() for v in variables)
    ):
        raise JobError("variables must be a nonempty list of identifier strings")
    if len(set(variables)) != len(variables):
        raise JobError("variables must be distinct")
    variables = tuple(variables)

    weights_raw = raw["weights"]
    if not isinstance(weights_raw, list) or len(weights_raw) != len(variables):
        raise JobError(
            f"weights must be a list matching the {len(variables)} variables"
        )
    for index, value in enumerate(weights_raw):
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise JobError(
                f"weights[{index}] must be a string or an integer, "
                f"got {json.dumps(value)}"
            )
    try:
        weights = WeightSystem(weights_raw)
    except (WeightError, ValueError, ZeroDivisionError) as exc:
        raise JobError(f"bad weights {json.dumps(weights_raw)}: {exc}") from None

    for key in ("s", "g"):
        if not isinstance(raw.get(key, ""), str):
            raise JobError(f"{key} must be a string, got {json.dumps(raw[key])}")
    try:
        s = parse_polynomial(raw["s"], variables)
        g = parse_polynomial(raw.get("g", "1"), variables)
    except ParseError as exc:
        raise JobError(f"cannot parse job polynomials: {exc}") from None

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise JobError("options must be an object")
    unknown = set(options) - _KNOWN_OPTIONS
    if unknown:
        raise JobError(
            "unknown option keys: "
            + ", ".join(json.dumps(key) for key in sorted(unknown))
            + "; known: "
            + ", ".join(sorted(_KNOWN_OPTIONS))
        )
    steps = options.get("quadrature_steps", DEFAULT_MAX_STEPS)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise JobError("quadrature_steps must be a positive integer")
    flags = {key: options.get(key, False) for key in ("rescale_weights", "emit_trace")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise JobError(f"{key} must be true or false, got {json.dumps(value)}")
    return JobSpec(
        variables=variables,
        weights=weights,
        s=s,
        g=g,
        quadrature_steps=steps,
        **flags,
    )


# -- serialization --------------------------------------------------------


def _frac(value: Fraction) -> str:
    return str(value)


def _criterion_dict(decision) -> dict:
    witness = decision.witness
    return {
        "holds": decision.holds,
        "witness": None
        if witness is None
        else {"k": list(witness.k), "value": _frac(witness.value)},
    }


def _chart_form_dict(chart_form) -> dict:
    certificate = chart_form.certificate
    return {
        "chart": chart_form.chart_index,
        "relation": str(chart_form.relation),
        "form": str(chart_form.form),
        "certificate": None
        if certificate is None
        else {
            "numerator": str(certificate.numerator),
            "relation": str(certificate.relation),
        },
    }


def report_to_dict(report: ResidueReport) -> dict:
    """Fixed-order JSON-ready dict for a full analysis report."""
    return {
        "kappa": _frac(report.kappa),
        "l": report.cover_order,
        "C": int(report.jacobian_constant),
        "criterion": _criterion_dict(report.criterion),
        "spectrum": [
            {"value": _frac(entry.value), "k": list(entry.k)}
            for entry in report.spectrum
        ],
        "leray_residue": {
            "chart": report.leray.chart_index,
            "form": str(report.leray.form),
        },
        "blowup_exponent": report.blowup_exponent,
        "second_residue": None
        if report.second_residue is None
        else _chart_form_dict(report.second_residue),
        "verdict": report.verdict.kind,
        "warnings": list(report.warnings),
    }


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# -- subcommands ----------------------------------------------------------


def cmd_analyze(job: JobSpec, out: Optional[str] = None) -> int:
    report = analyze(job.s, job.g, job.weights, rescale_weights=job.rescale_weights)
    text = _dump(report_to_dict(report))
    if out:
        Path(out).write_text(text)
        print(
            f"verdict {report.verdict.kind}; kappa {_frac(report.kappa)}; "
            f"report written to {out}"
        )
    else:
        sys.stdout.write(text)
    return VERDICT_EXIT[report.verdict.kind]


def _parse_weights(tokens: Sequence[str]) -> WeightSystem:
    if not tokens:
        raise JobError("no weights given")
    try:
        return WeightSystem(tokens)
    except (WeightError, ValueError, ZeroDivisionError) as exc:
        raise JobError(f"bad weights {list(tokens)}: {exc}") from None


def cmd_spectrum(weight_tokens: Sequence[str]) -> int:
    w = _parse_weights(weight_tokens)
    entries = spectrum_nonpositive(w)
    payload = {
        "weights": [_frac(a) for a in w.weights],
        "kappa": _frac(w.kappa),
        "entries": [
            {"value": _frac(entry.value), "k": list(entry.k)} for entry in entries
        ],
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_criterion(weight_tokens: Sequence[str]) -> int:
    w = _parse_weights(weight_tokens)
    decision = lift_criterion(w)
    if decision.holds:
        print("holds")
    else:
        witness = decision.witness
        print(
            "fails; witness k=("
            + ", ".join(str(c) for c in witness.k)
            + f") gives kappa + sum(k*a) = {_frac(witness.value)}"
        )
    return 0


def cmd_pullback(job: JobSpec) -> int:
    ok, weight = is_quasihomogeneous(job.s, job.weights)
    if not ok:
        raise JobError(f"{job.s} is not quasihomogeneous under {job.weights}")
    probe = pullback_singularity_probe(job.s, job.weights)
    print(str(probe.pullback))
    if probe.missing:
        print(f"probe: {probe.status} (variables: {', '.join(probe.missing)})")
    else:
        print(f"probe: {probe.status}")
    return 0


def _find_seed(curve: Polynomial) -> Tuple[float, float]:
    """Grid-scan for a real point of a plane curve, then bisect onto it."""

    value = numint._float_evaluator(curve)
    anchors = [k * 0.25 for k in range(-12, 13)]
    anchors.sort(key=abs)
    grid = [k * 0.05 for k in range(-80, 81)]
    for fixed_index in (0, 1):
        for a in anchors:
            previous = None
            for b in grid:
                point = (a, b) if fixed_index == 0 else (b, a)
                current = value(*point)
                if current == 0.0:
                    return point
                if previous is not None and previous[1] * current < 0:
                    lo, hi = previous[0], b
                    flo = previous[1]
                    for _ in range(80):
                        mid = 0.5 * (lo + hi)
                        pm = (a, mid) if fixed_index == 0 else (mid, a)
                        fm = value(*pm)
                        if fm == 0.0:
                            break
                        if flo * fm < 0:
                            hi = mid
                        else:
                            lo, flo = mid, fm
                    mid = 0.5 * (lo + hi)
                    return (a, mid) if fixed_index == 0 else (mid, a)
                previous = (b, current)
    raise JobError("no real point found on the chart curve; cannot seed the trace")


def cmd_integrate(
    job: JobSpec, steps: Optional[int] = None, out: Optional[str] = None
) -> int:
    if steps is not None and steps < 1:
        raise JobError("--steps must be a positive integer")
    if len(job.variables) != 3:
        raise JobError(
            "integration traces a plane chart curve; the job needs exactly "
            "three variables"
        )
    report = analyze(job.s, job.g, job.weights, rescale_weights=job.rescale_weights)
    second = report.second_residue
    if second is None:
        raise JobError(
            "the lift criterion holds for this job; there is no second "
            "residue to integrate"
        )
    payload = {
        "verdict": report.verdict.kind,
        "value": 0.0,
        "error_estimate": 0.0,
        "nonzero": False,
        "samples": 0,
        "closed": False,
        "warnings": list(report.warnings),
    }
    if not second.form.is_zero:
        max_steps = steps if steps is not None else job.quadrature_steps
        seed = _find_seed(second.relation)
        trace = trace_real_curve(second.relation, seed, DEFAULT_STEP, max_steps)
        result = integrate_1form(second.form, trace)
        payload["value"] = float(result.value)
        payload["error_estimate"] = float(result.error_estimate)
        payload["nonzero"] = bool(
            abs(result.value) > max(10.0 * result.error_estimate, 1e-6)
        )
        payload["samples"] = len(trace)
        payload["closed"] = trace.closed
        payload["warnings"] = list(report.warnings) + list(result.warnings)
        if job.emit_trace:
            trace_path = (
                str(Path(out).with_suffix(".trace.csv"))
                if out
                else "trace.csv"
            )
            export_trace_csv(trace, trace_path)
            payload["trace_csv"] = trace_path
    text = _dump(payload)
    if out:
        Path(out).write_text(text)
        print(f"integral {payload['value']}; report written to {out}")
    else:
        sys.stdout.write(text)
    return 0


# -- batch mode -----------------------------------------------------------


def _run_batch_job(path_str: str) -> Tuple[str, int, str]:
    path = Path(path_str)
    out = path.with_suffix(".report.json")
    try:
        job = load_job(path)
        report = analyze(
            job.s, job.g, job.weights, rescale_weights=job.rescale_weights
        )
        out.write_text(_dump(report_to_dict(report)))
        return (path.name, VERDICT_EXIT[report.verdict.kind], report.verdict.kind)
    except Exception as exc:  # worker boundary: report, never propagate
        return (path.name, INPUT_ERROR, f"error: {exc}")


def _work_share(share: Sequence[str], write_fd: int, inherited: Sequence[int]) -> None:
    """Forked child: one flushed JSON row per job on the pipe, then ``os._exit``.

    ``_run_batch_job`` is read as a module global at call time, so a wrapper
    installed on this module before the fork runs here too.  The child never
    returns into its caller's stack, which belongs to the parent.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(write_fd, "wb") as pipe:
            for path_str in share:
                pipe.write(json.dumps(_run_batch_job(path_str)).encode() + b"\n")
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _run_forked(jobs: Sequence[str], workers: int) -> List[Tuple[str, int, str]]:
    """Run ``jobs[k::workers]`` in forked child ``k``; one row for every job."""
    shares = [jobs[k::workers] for k in range(workers)]
    pids = []
    received = {}  # read end of child k's pipe, in order of k -> bytes read
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            received[read_fd] = []
            try:
                pid = os.fork()
                if pid == 0:
                    _work_share(share, write_fd, list(received))
            finally:
                os.close(write_fd)  # before the next fork: no child holds another's pipe
            pids.append(pid)
        # drain every pipe as it fills: a child blocked on a full pipe while
        # another pipe is read to its end would never finish.  poll, unlike
        # select, takes descriptors above 1023.
        poller = select.poll()
        for fd in received:
            poller.register(fd, select.POLLIN)
        pending = len(received)
        while pending:
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    received[fd].append(chunk)
                else:
                    poller.unregister(fd)
                    pending -= 1
    finally:
        for fd in received:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    rows = []
    for share, data, status in zip(shares, received.values(), statuses):
        # rows arrive in share order; text after the last newline was cut short
        lines = b"".join(data).split(b"\n")[:-1]
        rows.extend(tuple(json.loads(line)) for line in lines)
        code = os.waitstatus_to_exitcode(status)
        how = f"signal {-code}" if code < 0 else f"status {code}"
        rows.extend(
            (
                Path(path_str).name,
                INPUT_ERROR,
                f"error: worker exited ({how}) before reporting this job",
            )
            for path_str in share[len(lines):]
        )
    return rows


def cmd_batch(directory: str) -> int:
    root = Path(directory)
    if not root.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return INPUT_ERROR
    jobs = sorted(
        str(p)
        for p in root.glob("*.json")
        if not p.name.endswith(".report.json")
    )
    if not jobs:
        print(f"error: no job files in {directory}", file=sys.stderr)
        return INPUT_ERROR
    if hasattr(os, "fork"):
        results = _run_forked(jobs, min(len(jobs), os.cpu_count() or 1, 8))
    else:
        results = [_run_batch_job(path_str) for path_str in jobs]
    results.sort(key=lambda row: row[0])
    failed = False
    for name, code, message in results:
        print(f"{name}: {message}")
        if code == INPUT_ERROR:
            failed = True
    return INPUT_ERROR if failed else 0


# -- entry point ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilift",
        description="decide liftability of first order pole residues on "
        "quasihomogeneous hypersurfaces",
    )
    parser.add_argument(
        "--batch",
        metavar="DIR",
        help="process every job file in DIR in forked workers",
    )
    sub = parser.add_subparsers(dest="command")

    p_analyze = sub.add_parser("analyze", help="full pipeline for one job")
    p_analyze.add_argument("job")
    p_analyze.add_argument("--out", help="write the JSON report here")

    p_spectrum = sub.add_parser("spectrum", help="nonpositive spectrum of weights")
    p_spectrum.add_argument("weights", nargs="+")

    p_criterion = sub.add_parser("criterion", help="the lift criterion for weights")
    p_criterion.add_argument("weights", nargs="+")

    p_pullback = sub.add_parser("pullback", help="branched cover image and probe")
    p_pullback.add_argument("job")

    p_integrate = sub.add_parser(
        "integrate", help="trace the chart curve and integrate the second residue"
    )
    p_integrate.add_argument("job")
    p_integrate.add_argument("--steps", type=int, help="marching step budget")
    p_integrate.add_argument("--out", help="write the JSON report here")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.batch:
            return cmd_batch(args.batch)
        if args.command == "analyze":
            return cmd_analyze(load_job(args.job), out=args.out)
        if args.command == "spectrum":
            return cmd_spectrum(args.weights)
        if args.command == "criterion":
            return cmd_criterion(args.weights)
        if args.command == "pullback":
            return cmd_pullback(load_job(args.job))
        if args.command == "integrate":
            return cmd_integrate(load_job(args.job), steps=args.steps, out=args.out)
        parser.print_help()
        return INPUT_ERROR
    except (JobError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
