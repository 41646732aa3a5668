"""The four workloads: seeded inputs, one timed op each, and its oracle.

Every workload is a closed loop with one client.  A run is a sequence of
whole rounds of the same composition.  Pacers, the same inputs in every round
of every seed, hold part of the load fixed; fresh draws are the seed's sample
of the input space.  The heaviest inputs run once, in round 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

import catalog
import oracles
from catalog import Job

BENCH_DIR = Path(__file__).resolve().parent
SUBPROCESS_TIMEOUT = 120


def _dump(payload: dict) -> str:
    # the CLI's report format: the byte-identical contract is on this text
    return json.dumps(payload, indent=2) + "\n"


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(args, env, cwd) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        args,
        env=env,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{args[1:]} did not finish in {SUBPROCESS_TIMEOUT} s")
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


class Workload:
    name = ""
    children_rss = False  # peak memory is the children's, not this process's
    reference = "loop"  # the speed.py reference that scales this workload's times

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed

    def prepare(self) -> None:
        """Generate inputs and oracle data; not part of set-up time."""

    def round(self, index: int) -> list:
        """The ops of round ``index``; the pacers are the same in every round."""
        raise NotImplementedError

    def stage(self, item) -> None:
        """Untimed per-op preparation, such as a fresh copy of a directory."""

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> Optional[str]:
        raise NotImplementedError

    def label(self, item) -> str:
        return str(item)

    def _rng(self, *parts) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.name, self.seed) + parts))


# -- analyze-bp -------------------------------------------------------------

# The same six body jobs run in every round of every seed, at evenly spaced
# ranks of a cost proxy (numerator terms, then cover order), next to the
# fresh draws, which do not repeat.
_RANKED = sorted(catalog.BODY, key=lambda job: (len(job.g_exponents), job.cover_order, job.job_id))
PACERS = tuple(_RANKED[(2 * i + 1) * len(_RANKED) // 12] for i in range(6))


class AnalyzeBP(Workload):
    """load_job -> analyze -> verify -> report_to_dict -> json.dumps."""

    name = "analyze-bp"
    BODY_PER_ROUND = 12

    def prepare(self):
        from resilift import cli, residue

        # modules, not functions: the tracer patches the module attributes
        self.cli, self.residue = cli, residue
        self.digests = oracles.load_digests()
        jobs_dir = self.workdir / "jobs"
        jobs_dir.mkdir(parents=True)
        self.paths = {}
        for job in catalog.CATALOG.values():
            path = jobs_dir / f"{job.job_id}.json"
            job.write(path)
            self.paths[job.job_id] = path
        self.expected = {
            job_id: oracles.brute_verdict(job) for job_id, job in catalog.CATALOG.items()
        }
        self.tail_order = list(catalog.TAIL)
        self._rng("tail").shuffle(self.tail_order)

    def round(self, index):
        rng = self._rng("round", index)
        items = list(PACERS) + [rng.choice(catalog.BODY) for _ in range(self.BODY_PER_ROUND)]
        items.append(self.tail_order[index % len(self.tail_order)])
        if index == 0:
            items += catalog.HEAVY
        rng.shuffle(items)
        return items

    def run(self, job: Job):
        spec = self.cli.load_job(self.paths[job.job_id])
        report = self.residue.analyze(
            spec.s, spec.g, spec.weights, rescale_weights=spec.rescale_weights
        )
        verified = report.verify()
        return verified, _dump(self.cli.report_to_dict(report))

    def check(self, job: Job, output):
        verified, text = output
        if verified is not True:
            return "verify() did not return True"
        return oracles.check_report(
            text, self.expected[job.job_id], self.digests.get(job.job_id)
        )

    def label(self, job: Job):
        return job.job_id


# -- criterion-sweep --------------------------------------------------------

POOL = sorted({Fraction(p, q) for q in range(1, 13) for p in range(1, q + 1)})
# number of weight multisets of each size 1..4 drawn from the pool; they sum
# to the 230,299 systems of the exhaustive criterion sweep
SIZE_COUNTS = [math.comb(len(POOL) + n - 1, n) for n in range(1, 5)]
# Two tail systems of the same cost (within 2 %), about 20 of each per run:
# the tail op (10 beyond it) then lies inside one population.  With unequal
# costs it sat where the costliest system's count ran out, and jumped 15 %
# between runs with one repetition more or less.
PRIME_TAIL = [
    (Fraction(1, 43), Fraction(1, 47), Fraction(1, 59)),
    (Fraction(1, 43), Fraction(1, 53), Fraction(1, 59)),
]
PRIME_HEAVY = (Fraction(1, 83), Fraction(1, 89), Fraction(1, 97))


def uniform_system(rng: random.Random):
    """A weight multiset drawn uniformly from all 230,299 systems."""
    n = rng.choices(range(1, 5), weights=SIZE_COUNTS)[0]
    slots = sorted(rng.sample(range(len(POOL) + n - 1), n))
    return tuple(POOL[slot - j] for j, slot in enumerate(slots))


class CriterionSweep(Workload):
    """WeightSystem -> lift_criterion -> spectrum_nonpositive for one system."""

    name = "criterion-sweep"
    BODY_PER_ROUND = 2_400
    PACERS = 100
    BRUTE_SAMPLE = 300

    def prepare(self):
        from resilift import criteria, weights

        self.criteria, self.weights = criteria, weights
        self.tail_order = list(PRIME_TAIL)
        self._rng("tail").shuffle(self.tail_order)
        pacer_rng = self._rng("pacers")
        self.pacers = {uniform_system(pacer_rng) for _ in range(self.PACERS)}
        # brute force on a seeded sample: the first systems of the first round
        self.brute = {}
        for weights in self.round(0):
            if len(self.brute) == self.BRUTE_SAMPLE:
                break
            if weights not in self.brute and weights not in PRIME_TAIL:
                kappa = sum(weights, Fraction(0))
                self.brute[weights] = (
                    catalog.brute_witness(weights, 1 - kappa) is None
                )

    def round(self, index):
        rng = self._rng("round", index)
        fresh = {uniform_system(rng) for _ in range(self.BODY_PER_ROUND)}
        items = list(self.pacers) + list(fresh)
        rng.shuffle(items)
        tail = [self.tail_order[index % len(self.tail_order)]]
        if index == 0:
            tail.append(PRIME_HEAVY)
        for weights in tail:
            items.insert(rng.randrange(len(items) + 1), weights)
        return items

    def run(self, weights):
        w = self.weights.WeightSystem(weights)
        return self.criteria.lift_criterion(w), self.criteria.spectrum_nonpositive(w)

    def check(self, weights, output):
        decision, entries = output
        return oracles.check_criterion(weights, decision, entries, self.brute.get(weights))

    def label(self, weights):
        return "(" + ",".join(str(a) for a in weights) + ")"


# -- integrate-chart --------------------------------------------------------

STEPS = 1200
CUBIC_WEIGHTS = ["1/3", "1/3", "1/3"]


def _diagonal(a, b, c, steps=STEPS):
    return {
        "id": f"diag-{a}-{b}-{c}-h{steps}",
        "s": f"{a}*z0^3+{b}*z1^3+{c}*z2^3",
        "g": "1",
        "weights": CUBIC_WEIGHTS,
        "steps": steps,
        "diagonal": (a, b, c),
    }


def _cubic(kind, term, t, steps=STEPS):
    return {
        "id": f"{kind}-{t.replace('/', '_')}-h{steps}",
        "s": f"z0^3+z1^3+z2^3+{t}*{term}",
        "g": "1",
        "weights": CUBIC_WEIGHTS,
        "steps": steps,
        "diagonal": None,
    }


def _odd_bp(p, q, r, g):
    return {
        "id": f"bp-{p}-{q}-{r}",
        "s": f"z0^{p}+z1^{q}+z2^{r}",
        "g": g,
        "weights": [f"1/{p}", f"1/{q}", f"1/{r}"],
        "steps": STEPS,
        "diagonal": None,
    }


# A fixed corpus: the seed only orders it.  Per-input costs differ by up to
# 1.5x, so drawing the set by seed would move the median between seeds.
INPUTS = [
    _diagonal(1, 1, 1),
    _diagonal(1, 2, 3),
    _diagonal(2, 1, 5),
    _diagonal(5, 3, 1),
    _cubic("hesse", "z0*z1*z2", "-1"),
    _cubic("hesse", "z0*z1*z2", "2"),
    _cubic("perturbed", "z0^2*z1", "1/2"),
]

# Inputs on which integrate raises at this commit.  They are not timed ops
# (every timed op must succeed); the traced run re-runs them and reports the
# share that still fails, so the defect stays visible and a fix shows.
PROBES = [
    _diagonal(1, 1, 1, 2400),
    _diagonal(1, 2, 3, 2400),
    _cubic("hesse", "z0*z1*z2", "1", 2400),
    _cubic("perturbed", "z0^2*z1", "1", 2400),
    _diagonal(2, 5, 5),
    _diagonal(3, 3, 3),  # the Fermat cubic times 3: same curve, same integral / 3
    _odd_bp(5, 5, 5, "z0*z1"),
    _odd_bp(7, 7, 7, "z0^2*z1^2"),
    _odd_bp(3, 5, 15, "z1^2"),
    _odd_bp(9, 9, 9, "z0^3*z1^3"),
]


class IntegrateChart(Workload):
    """The integrate command: analyze -> seed -> trace_real_curve -> integrate_1form."""

    name = "integrate-chart"

    def prepare(self):
        from resilift import cli

        self.cli = cli
        self.inputs = INPUTS
        self.specs = {}
        for item in self.inputs + PROBES:
            path = self.workdir / f"{item['id']}.json"
            with open(path, "w") as handle:
                json.dump(
                    {
                        "variables": list(catalog.VARIABLES),
                        "weights": item["weights"],
                        "s": item["s"],
                        "g": item["g"],
                        "options": {"quadrature_steps": item["steps"]},
                    },
                    handle,
                )
            self.specs[item["id"]] = cli.load_job(path)
        self.references = {}
        from resilift.residue import analyze

        for item in self.inputs:
            if item["diagonal"] is not None:
                spec = self.specs[item["id"]]
                form = analyze(spec.s, spec.g, spec.weights).second_residue.form
                self.references[item["id"]] = oracles.diagonal_reference(
                    *item["diagonal"], form
                )
        # (relative error, error above the estimate) for each op with a reference
        self.accuracy = []

    def round(self, index):
        items = list(self.inputs)
        self._rng("round", index).shuffle(items)
        return items

    def run(self, item):
        out = self.workdir / f"{item['id']}.out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.cmd_integrate(self.specs[item["id"]], out=str(out))
        with open(out) as handle:
            return json.load(handle)

    def check(self, item, payload):
        reference = self.references.get(item["id"])
        problem = oracles.check_integral(payload, reference)
        if problem is None and reference is not None:
            error = abs(payload["value"] - reference)
            self.accuracy.append(
                (error / abs(reference), error > payload["error_estimate"])
            )
        return problem

    def label(self, item):
        return item["id"]

    def run_probes(self) -> List[dict]:
        outcomes = []
        for item in PROBES:
            try:
                payload = self.run(item)
                problem = oracles.check_integral(payload, None)
            except Exception as exc:  # the outcome under observation
                problem = f"{type(exc).__name__}: {exc}"
            outcomes.append({"input": item["id"], "failure": problem})
        return outcomes


# -- cli-batch --------------------------------------------------------------

MALFORMED = {
    "bad-json.json": "{\"variables\": [\"z0\", \"z1\"",
    "missing-s.json": json.dumps({"variables": ["z0", "z1", "z2"], "weights": ["1/2", "1/3", "1/7"]}),
    "bad-poly.json": json.dumps(
        {"variables": ["z0", "z1", "z2"], "weights": ["1/2", "1/3", "1/7"], "s": "z0^2+*z1^3"}
    ),
}


class CliBatch(Workload):
    """One `python -m resilift.cli --batch DIR` process on a fresh directory copy."""

    name = "cli-batch"
    children_rss = True
    reference = "process"
    JOBS = 48
    POWERS = 2
    OPS_PER_ROUND = 3
    traced = False

    def prepare(self):
        from resilift import cli
        from resilift.residue import analyze

        digests = oracles.load_digests()
        rng = self._rng("inputs")
        self.template = self.workdir / "template"
        self.template.mkdir(parents=True)
        self.expected = {}
        self.problems = []
        # cost-alike jobs, so the seed changes the inputs but not the load:
        # numerator 1 or a witness monomial, plus two small parser-heavy powers
        plain = [j for j in catalog.BODY if not j.job_id.rsplit("-", 1)[1].startswith("mixed")]
        powers = [j for j in catalog.BODY if j.job_id.endswith("mixed3") and j.cover_order <= 12]
        chosen = rng.sample(plain, self.JOBS - self.POWERS) + rng.sample(powers, self.POWERS)
        for job in chosen:
            path = self.template / f"{job.job_id}.json"
            job.write(path)
            spec = cli.load_job(path)
            report = analyze(spec.s, spec.g, spec.weights)
            text = _dump(cli.report_to_dict(report))
            if oracles.sha256(text) != digests.get(job.job_id):
                self.problems.append(f"in-process report of {job.job_id} differs from its digest")
            self.expected[job.job_id] = (report.verdict.kind, text)
        for name, text in MALFORMED.items():
            (self.template / name).write_text(text)
        self.env = program_env(self.root)
        self.stats_dir = self.workdir / "trace-stats"
        self.copy = self.workdir / "batch"

    def round(self, index):
        return list(range(index * self.OPS_PER_ROUND, (index + 1) * self.OPS_PER_ROUND))

    def stage(self, item):
        if self.copy.exists():
            shutil.rmtree(self.copy)
        shutil.copytree(self.template, self.copy)

    def run(self, item):
        if self.traced:
            args = [sys.executable, str(BENCH_DIR / "batch_traced.py"), str(self.stats_dir), str(self.copy)]
        else:
            args = [sys.executable, "-m", "resilift.cli", "--batch", str(self.copy)]
        return run_subprocess(args, self.env, self.root)

    def check(self, item, proc):
        if self.problems:
            return self.problems[0]
        if proc.returncode != 2:
            return f"exit code {proc.returncode}, expected 2 for a directory with malformed jobs"
        rows = dict(line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line)
        for name in MALFORMED:
            if not rows.get(name, "").startswith("error:"):
                return f"malformed {name} did not come back as an error row"
        for job_id, (verdict, text) in self.expected.items():
            if rows.get(f"{job_id}.json") != verdict:
                return f"{job_id}: row {rows.get(job_id + '.json')!r}, expected {verdict}"
            report = self.copy / f"{job_id}.report.json"
            if not report.exists() or report.read_text() != text:
                return f"{job_id}: batch report differs from the in-process report"
        return None

    def label(self, item):
        return f"batch-{item}"


WORKLOADS = {cls.name: cls for cls in (AnalyzeBP, CriterionSweep, IntegrateChart, CliBatch)}
